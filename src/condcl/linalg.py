"""Vector checks and the config-number tests.

All values are float64 internally. Vectors are 1-D arrays and a stack of
vectors is a 2-D array of rows; there are no sparse paths.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "as_float_array",
    "as_vector",
    "is_finite_real",
    "is_integer",
]


def as_float_array(x, name: str = "vector") -> np.ndarray:
    """x as a float64 array, unchecked otherwise; rows of unequal width (a list of
    vectors, one short) raise DimensionMismatchError naming the widths."""
    try:
        return np.asarray(x, dtype=np.float64)
    except ValueError:
        try:
            shapes = sorted({np.shape(row) for row in x})
        except (TypeError, ValueError):  # not a sequence of rows
            shapes = []
        if len(shapes) < 2:
            raise
        widths = ", ".join(str(s[0]) if len(s) == 1 else str(s) for s in shapes)
        raise DimensionMismatchError(f"{name} rows differ in width: {widths}") from None


def as_vector(x, name: str = "vector", ndims: tuple[int, ...] = (1,)) -> np.ndarray:
    """Coerce to a finite float64 array; ``ndims`` allows 2 for a stack of rows."""
    v = as_float_array(x, name)
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

