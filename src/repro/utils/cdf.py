"""Empirical CDF and percentile utilities used by the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["EmpiricalCDF", "empirical_cdf", "percentile", "median"]


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical cumulative distribution function.

    Attributes
    ----------
    values:
        Sorted sample values.
    probabilities:
        Cumulative probabilities aligned with ``values``; the last entry is 1.
    """

    values: np.ndarray
    probabilities: np.ndarray

    def percentile(self, q: float) -> float:
        """Return the ``q``-quantile (``q`` in [0, 1]) of the samples."""
        if not 0 <= q <= 1:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        return float(np.quantile(self.values, q))

    @property
    def median(self) -> float:
        """The 50th percentile of the samples."""
        return self.percentile(0.5)


def empirical_cdf(samples: Sequence[float]) -> EmpiricalCDF:
    """Build an :class:`EmpiricalCDF` from raw samples."""
    values = np.sort(np.asarray(list(samples), dtype=float).ravel())
    if values.size == 0:
        raise ValueError("samples must be non-empty")
    probabilities = np.arange(1, values.size + 1, dtype=float) / values.size
    return EmpiricalCDF(values=values, probabilities=probabilities)


def percentile(samples: Sequence[float], q: float) -> float:
    """Quantile helper mirroring the paper's "50-percentile error" phrasing."""
    return empirical_cdf(samples).percentile(q)


def median(samples: Sequence[float]) -> float:
    """Median of a collection of samples."""
    return percentile(samples, 0.5)
