"""K-nearest-neighbour fingerprint matching baseline.

The paper mentions KNN as one of the conventional matchers that the
non-linear OMP formulation outperforms.  This implementation matches an
online RSS vector against the fingerprint columns by Euclidean distance and
returns either the single nearest grid or the (distance-weighted) centroid of
the ``k`` nearest grids.

The centered dictionary and its column norms are hoisted into the
constructor, so per-query work is a single distance evaluation; batched
queries go through one distance-matrix GEMM
(:meth:`KNNLocalizer.localize_batch` /
:meth:`KNNLocalizer.localize_points_batch`, or both answers from one GEMM
with :meth:`KNNLocalizer.localize_batch_with_points`, the code path the
:mod:`repro.query` serving engine rides).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.fingerprint.matrix import FingerprintMatrix
from repro.utils.validation import check_1d, check_2d

__all__ = ["KNNConfig", "KNNLocalizer"]


@dataclass(frozen=True)
class KNNConfig:
    """Configuration of the KNN matcher.

    Attributes
    ----------
    neighbours:
        Number of nearest fingerprint columns considered.
    weighted:
        When True the location estimate is the inverse-distance-weighted
        centroid of the neighbours; when False the single nearest column
        wins.
    center_columns:
        Remove the per-vector mean before distance computation, making the
        matcher robust to global RSS offsets.
    """

    neighbours: int = 3
    weighted: bool = True
    center_columns: bool = True

    def __post_init__(self) -> None:
        if self.neighbours <= 0:
            raise ValueError("neighbours must be positive")


class KNNLocalizer:
    """Nearest-neighbour matcher over fingerprint columns."""

    def __init__(
        self,
        fingerprint: FingerprintMatrix | np.ndarray,
        locations: Optional[np.ndarray] = None,
        config: Optional[KNNConfig] = None,
    ) -> None:
        values = (
            fingerprint.values
            if isinstance(fingerprint, FingerprintMatrix)
            else np.asarray(fingerprint, dtype=float)
        )
        self.dictionary = check_2d(values, "fingerprint")
        self.locations = None if locations is None else np.asarray(locations, dtype=float)
        if self.locations is not None and self.locations.shape[0] != self.dictionary.shape[1]:
            raise ValueError("locations must have one row per fingerprint column")
        self.config = config or KNNConfig()
        # Hoisted per-dictionary precomputation: centering the columns (and
        # the squared column norms the batched GEMM expansion needs) happens
        # once here instead of on every query.
        if self.config.center_columns:
            self._centered = self.dictionary - self.dictionary.mean(axis=0, keepdims=True)
        else:
            self._centered = self.dictionary
        self._centered_sq_norms = np.einsum(
            "ij,ij->j", self._centered, self._centered
        )

    def _distances(self, measurement: np.ndarray) -> np.ndarray:
        vector = measurement.astype(float)
        if self.config.center_columns:
            vector = vector - float(vector.mean())
        return np.linalg.norm(self._centered - vector[:, None], axis=0)

    def _distances_batch(self, measurements: np.ndarray) -> np.ndarray:
        """Distance matrix of a query batch against every column — one GEMM.

        Uses the ``||d||^2 - 2 d.y + ||y||^2`` expansion so the whole batch
        costs a single ``(B, M) @ (M, N)`` product instead of ``B`` per-query
        broadcasts.
        """
        batch = measurements.astype(float)
        if self.config.center_columns:
            batch = batch - batch.mean(axis=1, keepdims=True)
        squared = (
            self._centered_sq_norms[None, :]
            - 2.0 * (batch @ self._centered)
            + np.einsum("ij,ij->i", batch, batch)[:, None]
        )
        np.maximum(squared, 0.0, out=squared)
        return np.sqrt(squared)

    def _nearest_k(self, distances: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` smallest distances, nearest first."""
        if k < distances.size:
            candidates = np.argpartition(distances, k - 1)[:k]
            return candidates[np.argsort(distances[candidates])]
        return np.argsort(distances)

    def localize_index(self, measurement: np.ndarray) -> int:
        """Grid index of the nearest fingerprint column."""
        measurement = check_1d(measurement, "measurement")
        distances = self._distances(measurement)
        return int(np.argmin(distances))

    def localize_point(self, measurement: np.ndarray) -> np.ndarray:
        """Estimated coordinates (weighted centroid of the k nearest grids)."""
        if self.locations is None:
            raise ValueError("locations were not provided to the localizer")
        measurement = check_1d(measurement, "measurement")
        distances = self._distances(measurement)
        k = min(self.config.neighbours, distances.size)
        nearest = self._nearest_k(distances, k)
        if not self.config.weighted or k == 1:
            return self.locations[nearest[0]].copy()
        weights = 1.0 / np.maximum(distances[nearest], 1e-9)
        weights = weights / weights.sum()
        return (weights[None, :] @ self.locations[nearest]).ravel()

    def localize_batch(self, measurements: np.ndarray) -> np.ndarray:
        """Localize a batch of measurements; returns grid indices.

        The whole batch is answered from one distance-matrix GEMM; results
        match the per-query :meth:`localize_index` path (pinned ≤ 1e-10 by
        the parity tests).
        """
        measurements = check_2d(measurements, "measurements")
        return np.argmin(self._distances_batch(measurements), axis=1).astype(int)

    def localize_points_batch(self, measurements: np.ndarray) -> np.ndarray:
        """Estimated coordinates for a batch of measurements, ``(B, 2)``.

        The batched counterpart of :meth:`localize_point`: one distance GEMM,
        then a vectorised top-k selection and inverse-distance weighting.
        This is the shared coordinate path of the figure experiments and the
        :mod:`repro.query` engine.
        """
        if self.locations is None:
            raise ValueError("locations were not provided to the localizer")
        measurements = check_2d(measurements, "measurements")
        return self._points_from_distances(self._distances_batch(measurements))

    def localize_batch_with_points(
        self, measurements: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Grid indices and coordinates (``None`` without locations) of a
        batch, both from one distance GEMM: exactly :meth:`localize_batch`
        and :meth:`localize_points_batch`, at the cost of one of them."""
        measurements = check_2d(measurements, "measurements")
        distances = self._distances_batch(measurements)
        indices = np.argmin(distances, axis=1).astype(int)
        if self.locations is None:
            return indices, None
        return indices, self._points_from_distances(distances)

    def _points_from_distances(self, distances: np.ndarray) -> np.ndarray:
        """Top-k inverse-distance-weighted centroids of a ``(B, N)`` distance
        matrix (the nearest location when unweighted or ``k == 1``)."""
        n = distances.shape[1]
        k = min(self.config.neighbours, n)
        if not self.config.weighted or k == 1:
            return self.locations[np.argmin(distances, axis=1)].copy()
        if k < n:
            nearest = np.argpartition(distances, k - 1, axis=1)[:, :k]
        else:
            nearest = np.argsort(distances, axis=1)
        selected = np.take_along_axis(distances, nearest, axis=1)
        weights = 1.0 / np.maximum(selected, 1e-9)
        weights = weights / weights.sum(axis=1, keepdims=True)
        return np.einsum("bk,bkc->bc", weights, self.locations[nearest])
