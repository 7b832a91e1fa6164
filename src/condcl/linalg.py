"""Vector checks, variance and the config-number tests.

All values are float64 internally. Vectors are 1-D arrays and a stack of
vectors is a 2-D array of rows; there are no sparse paths.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "as_vector",
    "is_finite_real",
    "is_integer",
    "variance",
]


def as_vector(x, name: str = "vector", ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """Coerce to a finite float64 array; ``ndims`` allows 2 for a stack of rows."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim not in ndims or v.size == 0:
        allowed = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"{name} must be a nonempty {allowed} array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def is_finite_real(x) -> bool:
    """True for a real number (bools excluded) of finite float value, as config values must be."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def is_integer(x) -> bool:
    """True for an integer (bools excluded), as count-valued config values must be."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def variance(xs) -> float:
    """Population variance (mean of squared deviations)."""
    arr = np.asarray(list(xs), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("variance requires a nonempty 1-D list of reals")
    if not np.all(np.isfinite(arr)):
        raise ValueError("variance: non-finite entries")
    mean = float(arr.mean())
    return float(np.mean((arr - mean) ** 2))
