"""Vector checks, cosine similarity, variance and the finite-number test.

All values are float64 internally. Vectors are 1-D arrays; there are no
sparse paths.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "as_vector",
    "cosine_similarity",
    "is_finite_real",
    "variance",
]


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, in [-1, 1] up to rounding.

    Raises on zero-norm input; similarity is undefined there and callers
    must not silently treat it as 0.
    """
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cosine_similarity: dims differ ({a.shape[0]} vs {b.shape[0]})"
        )
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_similarity: zero-norm input")
    return float(a @ b) / (na * nb)


def is_finite_real(x) -> bool:
    """True for a finite real number (bools excluded), as config values must be."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def variance(xs) -> float:
    """Population variance (mean of squared deviations)."""
    arr = np.asarray(list(xs), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("variance requires a nonempty 1-D list of reals")
    if not np.all(np.isfinite(arr)):
        raise ValueError("variance: non-finite entries")
    mean = float(arr.mean())
    return float(np.mean((arr - mean) ** 2))
