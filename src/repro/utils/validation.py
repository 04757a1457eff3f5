"""Input-validation helpers shared by the numerical modules.

All public solvers in :mod:`repro.core` and :mod:`repro.localization` accept
plain numpy arrays.  These helpers keep the argument checking explicit and
uniform so that misuse fails fast with a clear message instead of producing a
shape error deep inside an alternating-least-squares loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_2d",
    "check_1d",
    "check_matching_shapes",
    "check_binary_mask",
    "as_float_array",
]


def as_float_array(value, name: str = "array") -> np.ndarray:
    """Convert ``value`` to a float64 numpy array.

    Raises
    ------
    TypeError
        If the value cannot be converted to a numeric array.
    """
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be convertible to a float array") from exc
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return array


def check_2d(array: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``array`` is a finite 2-D float matrix and return it."""
    array = as_float_array(array, name)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return array


def check_1d(array: np.ndarray, name: str = "vector") -> np.ndarray:
    """Validate that ``array`` is a finite 1-D float vector and return it."""
    array = as_float_array(array, name)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return array


def check_matching_shapes(
    first: np.ndarray,
    second: np.ndarray,
    first_name: str = "first",
    second_name: str = "second",
) -> None:
    """Raise ``ValueError`` when two arrays do not share the same shape."""
    if first.shape != second.shape:
        raise ValueError(
            f"{first_name} shape {first.shape} does not match "
            f"{second_name} shape {second.shape}"
        )


def check_indices(indices: Sequence[int], size: int, name: str = "indices") -> np.ndarray:
    """Validate a sequence of indices against an axis of length ``size``."""
    array = np.asarray(list(indices), dtype=int)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence of integers")
    if array.min() < 0 or array.max() >= size:
        raise ValueError(f"{name} must lie in [0, {size - 1}]")
    if len(set(array.tolist())) != array.size:
        raise ValueError(f"{name} must not contain duplicates")
    return array


def check_binary_mask(mask: np.ndarray, name: str = "mask") -> np.ndarray:
    """Validate that every entry of ``mask`` is 0 or 1 and return it.

    ``(mask == 0) | (mask == 1)`` gives ``np.isin(mask, (0.0, 1.0))``'s
    verdict (NaN, ±0, ±inf and fractions alike) without its sort.
    """
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return mask
