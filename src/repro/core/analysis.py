"""Diagnostics used by the paper's preliminaries (Section II).

* :func:`singular_value_profile` / :func:`low_rank_report` — the
  approximately-low-rank validation behind Observation 1 / Fig. 5.
* :func:`nlc_values` — the neighbouring-location-continuity statistic
  ``NLC(i, u)`` of Eq. (5), whose CDF is Fig. 8.
* :func:`als_values` — the adjacent-link-similarity statistic ``ALS(i, u)``
  of Eq. (6), whose CDF is Fig. 9.
* :func:`difference_stability` — the comparison behind Fig. 6: the RSS
  differences between neighbouring locations / adjacent links fluctuate far
  less over time than the RSS readings themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.constraints import relationship_matrix
from repro.utils.linalg import normalized_singular_values, relative_energy
from repro.utils.validation import check_2d

__all__ = [
    "LowRankReport",
    "singular_value_profile",
    "low_rank_report",
    "nlc_values",
    "als_values",
    "difference_stability",
]


@dataclass(frozen=True)
class LowRankReport:
    """Summary of a matrix's singular-value structure.

    Attributes
    ----------
    normalized_singular_values:
        Singular values divided by the largest one (the series plotted in
        Fig. 5).
    leading_energy_fraction:
        Fraction of total singular-value mass captured by the first singular
        value.
    rank_energy_fraction:
        Fraction captured by the first ``rank`` singular values.
    rank:
        The nominal rank used (the number of links ``M``).
    exactly_low_rank:
        True when the matrix satisfies both conditions of the paper's
        definition (leading values carry the energy AND ``r << M``); the
        fingerprint matrix is expected to fail the second condition, making
        it only *approximately* low rank.
    approximately_low_rank:
        True when the energy condition holds but ``r`` is not much smaller
        than ``M``.
    """

    normalized_singular_values: np.ndarray
    leading_energy_fraction: float
    rank_energy_fraction: float
    rank: int
    exactly_low_rank: bool
    approximately_low_rank: bool


def singular_value_profile(matrix: np.ndarray) -> np.ndarray:
    """Normalised singular values of a fingerprint matrix (Fig. 5 series)."""
    return normalized_singular_values(matrix)


def low_rank_report(
    matrix: np.ndarray,
    rank: int | None = None,
    energy_threshold: float = 0.9,
    small_rank_ratio: float = 0.25,
) -> LowRankReport:
    """Assess whether a matrix is exactly or approximately low rank.

    Parameters
    ----------
    matrix:
        The fingerprint matrix.
    rank:
        Nominal rank ``r``; defaults to the number of rows (links).
    energy_threshold:
        Minimum fraction of singular-value mass the first ``rank`` values
        must carry for the matrix to be considered (approximately) low rank.
    small_rank_ratio:
        ``r / M`` threshold below which the matrix counts as *exactly* low
        rank (the paper's ``r << M`` condition).
    """
    matrix = check_2d(matrix, "matrix")
    m = matrix.shape[0]
    if rank is None:
        rank = m
    normalized = normalized_singular_values(matrix)
    leading = relative_energy(matrix, 1)
    rank_energy = relative_energy(matrix, rank)
    energy_ok = rank_energy >= energy_threshold
    rank_small = rank <= small_rank_ratio * max(m, 1)
    return LowRankReport(
        normalized_singular_values=normalized,
        leading_energy_fraction=float(leading),
        rank_energy_fraction=float(rank_energy),
        rank=int(rank),
        exactly_low_rank=bool(energy_ok and rank_small),
        approximately_low_rank=bool(energy_ok and not rank_small),
    )


def nlc_values(largely_decrease: np.ndarray) -> np.ndarray:
    """Neighbouring-location-continuity statistic ``NLC(i, u)`` (Eq. 5).

    For each element of the largely-decrease matrix, the absolute difference
    between its magnitude and the average magnitude of its stripe neighbours,
    normalised by the matrix's full dynamic range.  The paper's benchmark
    finds ~90 % of values below 0.2.
    """
    xd = check_2d(largely_decrease, "largely_decrease")
    m, width = xd.shape
    t = relationship_matrix(width)
    magnitudes = np.abs(xd)
    dynamic_range = float(magnitudes.max() - magnitudes.min())
    if dynamic_range <= 0:
        return np.zeros(m * width)

    values = np.zeros((m, width))
    neighbour_counts = t.sum(axis=0)
    neighbour_sums = magnitudes @ t
    neighbour_means = neighbour_sums / np.maximum(neighbour_counts, 1.0)
    values = np.abs(magnitudes - neighbour_means) / dynamic_range
    return values.ravel()


def als_values(largely_decrease: np.ndarray) -> np.ndarray:
    """Adjacent-link-similarity statistic ``ALS(i, u)`` (Eq. 6).

    Absolute difference between adjacent rows of the largely-decrease matrix
    at the same relative stripe position, normalised by the maximum such
    difference.  The paper's benchmark finds >80 % of values below 0.4.
    """
    xd = check_2d(largely_decrease, "largely_decrease")
    if xd.shape[0] < 2:
        raise ValueError("need at least two links to compute adjacent-link similarity")
    differences = np.abs(np.diff(xd, axis=0))
    max_difference = float(differences.max())
    if max_difference <= 0:
        return np.zeros(differences.size)
    return (differences / max_difference).ravel()


def difference_stability(
    rss_series: np.ndarray,
    neighbour_series: np.ndarray,
    adjacent_series: np.ndarray,
) -> Dict[str, float]:
    """Quantify Fig. 6: differences are more stable than raw readings.

    Parameters
    ----------
    rss_series:
        Time series of raw RSS readings at one location (one link).
    neighbour_series:
        Time series of the difference between that reading and the reading at
        a neighbouring location.
    adjacent_series:
        Time series of the difference between that reading and the reading of
        an adjacent link at the same relative location.

    Returns
    -------
    dict
        Peak-to-peak spans and standard deviations of each series, plus the
        stability ratios (difference std / raw std).
    """
    rss = np.asarray(rss_series, dtype=float).ravel()
    neighbour = np.asarray(neighbour_series, dtype=float).ravel()
    adjacent = np.asarray(adjacent_series, dtype=float).ravel()
    if rss.size == 0 or neighbour.size == 0 or adjacent.size == 0:
        raise ValueError("all series must be non-empty")

    def _span(series: np.ndarray) -> float:
        return float(series.max() - series.min())

    rss_std = float(np.std(rss))
    return {
        "rss_span_db": _span(rss),
        "neighbour_span_db": _span(neighbour),
        "adjacent_span_db": _span(adjacent),
        "rss_std_db": rss_std,
        "neighbour_std_db": float(np.std(neighbour)),
        "adjacent_std_db": float(np.std(adjacent)),
        "neighbour_stability_ratio": float(np.std(neighbour) / max(rss_std, 1e-12)),
        "adjacent_stability_ratio": float(np.std(adjacent) / max(rss_std, 1e-12)),
    }
