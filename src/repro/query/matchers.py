"""Batched localization matchers over a :class:`~repro.query.index.QueryIndex`.

Every matcher of :mod:`repro.localization` (kNN / OMP / SVR / RASS) answers
a whole query batch with a constant number of GEMMs (one distance-matrix
product for kNN, one correlation product per OMP round, two kernel products
for SVR/RASS) instead of a Python loop per query.  The answers are pinned
≤ 1e-10 against the per-query ``localize_index`` / ``localize_point``
methods of :mod:`repro.localization`, row by row
(``tests/query/test_matchers.py``).

A matcher is *bound* to an index once per database generation
(:func:`bind_matcher`), which is where the per-generation precomputation
happens: kNN hoists its centred dictionary, SVR/RASS fit their coordinate
regressors.  Bound matchers are immutable after binding and safe to share
across serving threads.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.localization.knn import KNNConfig, KNNLocalizer
from repro.localization.omp import OMPConfig, OMPLocalizer
from repro.localization.rass import RASSConfig, RASSLocalizer
from repro.query.index import QueryIndex

__all__ = ["MATCHERS", "BoundMatcher", "bind_matcher"]

MATCHERS = ("knn", "omp", "svr", "rass")
"""Matcher names the engine accepts (``"svr"`` is RASS without feature
centering — the plain support-vector regression baseline)."""

Answer = Tuple[np.ndarray, Optional[np.ndarray]]


class BoundMatcher:
    """A matcher bound to one immutable index (one database generation)."""

    name: str = ""

    def __init__(self, index: QueryIndex) -> None:
        self.index = index

    def localize(self, measurements: np.ndarray) -> Answer:
        """Answer a validated ``(B, M)`` batch: ``(indices, points_or_None)``."""
        return self._match(measurements)

    def _match(self, measurements: np.ndarray) -> Answer:
        """Subclass hook behind :meth:`localize`."""
        raise NotImplementedError


# ------------------------------------------------------------------------ kNN
class _KNNBound(BoundMatcher):
    name = "knn"

    def __init__(self, index: QueryIndex, config: KNNConfig) -> None:
        super().__init__(index)
        self.config = config
        # Binding is the per-generation precompute: the localizer hoists the
        # centred dictionary and column norms once (figures and engine ride
        # one code path).
        self._localizer = KNNLocalizer(index.values, index.locations, config)

    def _match(self, measurements: np.ndarray) -> Answer:
        # One distance GEMM answers both the indices and the points.
        return self._localizer.localize_batch_with_points(measurements)


# ------------------------------------------------------------------------ OMP
class _OMPBound(BoundMatcher):
    name = "omp"

    def __init__(self, index: QueryIndex, config: OMPConfig) -> None:
        super().__init__(index)
        self.config = config
        self._localizer = OMPLocalizer(index.values, index.locations, config)
        # The matching dictionary OMP actually correlates against, plus the
        # normalizer from the index precomputation.
        if config.center_columns:
            self._dictionary = index.centered
            self._norms = index.column_norms
        else:
            self._dictionary = index.values
            norms = np.linalg.norm(index.values, axis=0)
            norms[norms == 0] = 1.0
            self._norms = norms

    def _center(self, measurements: np.ndarray) -> np.ndarray:
        batch = measurements.astype(float)
        if self.config.center_columns:
            batch = batch - batch.mean(axis=1, keepdims=True)
        return batch

    def _match(self, measurements: np.ndarray) -> Answer:
        targets = self._center(measurements)
        sparsity = min(int(self.config.sparsity), self.index.location_count)
        if sparsity == 1:
            # Serving fast path: one correlation GEMM, one argmax.  With a
            # single atom the best column *is* the answer (the reference
            # path's coefficient re-fit cannot change the selection).
            correlations = np.abs(targets @ self._dictionary) / self._norms[None, :]
            indices = np.argmax(correlations, axis=1).astype(int)
            points = (
                self.index.locations[indices].copy()
                if self.index.locations is not None
                else None
            )
            return indices, points
        return self._omp_multi_atom(targets, sparsity)

    def _omp_multi_atom(self, targets: np.ndarray, sparsity: int) -> Answer:
        """Batched multi-atom OMP: the correlation step is one GEMM per
        round over the still-active queries; the tiny per-query least-squares
        re-fits run per query (support size ≤ sparsity)."""
        dictionary = self._dictionary
        batch = targets.shape[0]
        residuals = targets.copy()
        supports: List[List[int]] = [[] for _ in range(batch)]
        active = np.ones(batch, dtype=bool)
        threshold = self.config.residual_threshold
        for _ in range(sparsity):
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                break
            correlations = (
                np.abs(residuals[rows] @ dictionary) / self._norms[None, :]
            )
            for local, q in enumerate(rows):
                row_corr = correlations[local]
                support = supports[q]
                if support:
                    row_corr[support] = -np.inf
                best = int(np.argmax(row_corr))
                support.append(best)
                sub = dictionary[:, support]
                solution, *_ = np.linalg.lstsq(sub, targets[q], rcond=None)
                residuals[q] = targets[q] - sub @ solution
                if float(residuals[q] @ residuals[q]) < threshold:
                    active[q] = False

        indices = np.empty(batch, dtype=int)
        locations = self.index.locations
        points = np.empty((batch, 2)) if locations is not None else None
        weighted = self.config.weighted_centroid
        for q in range(batch):
            support = supports[q]
            solution, *_ = np.linalg.lstsq(
                dictionary[:, support], targets[q], rcond=None
            )
            weights = np.abs(solution)
            total = weights.sum()
            if total <= 0:
                best = support[0]
            else:
                best = support[int(np.argmax(weights))]
            indices[q] = best
            if points is None:
                continue
            if weighted and total > 0 and len(support) > 1:
                normalized = weights / total
                points[q] = normalized @ locations[support]
            else:
                points[q] = locations[best]
        return indices, points


# ------------------------------------------------------------------- SVR/RASS
def _snap_to_grid(points: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Nearest grid index per point — one GEMM over the location table."""
    squared = (
        np.einsum("nc,nc->n", locations, locations)[None, :]
        - 2.0 * (points @ locations.T)
        + np.einsum("bc,bc->b", points, points)[:, None]
    )
    return np.argmin(squared, axis=1).astype(int)


class _RASSBound(BoundMatcher):
    def __init__(self, index: QueryIndex, config: RASSConfig, name: str) -> None:
        super().__init__(index)
        self.name = name
        if index.locations is None:
            raise ValueError(
                f"matcher {name!r} needs a location table on the index: it "
                "regresses fingerprints to coordinates"
            )
        self.config = config
        # Binding fits the per-coordinate support vector regressors on the
        # generation's dictionary — the expensive part of the read path,
        # paid once per hot-swap instead of per query.
        self._localizer = RASSLocalizer(config).fit(index.values, index.locations)

    def _match(self, measurements: np.ndarray) -> Answer:
        points = self._localizer.localize_points_batch(measurements)
        indices = _snap_to_grid(points, self.index.locations)
        return indices, points


# ---------------------------------------------------------------------- bind
def bind_matcher(
    matcher: str,
    index: QueryIndex,
    knn: Optional[KNNConfig] = None,
    omp: Optional[OMPConfig] = None,
    rass: Optional[RASSConfig] = None,
) -> BoundMatcher:
    """Bind a named matcher to an index, running its per-generation setup.

    ``"svr"`` is the plain support-vector-regression baseline: the RASS
    machinery with feature centering forced off; ``"rass"`` uses the given
    :class:`RASSConfig` as-is (centered by default).
    """
    if matcher == "knn":
        return _KNNBound(index, knn or KNNConfig())
    if matcher == "omp":
        return _OMPBound(index, omp or OMPConfig())
    if matcher == "svr":
        return _RASSBound(
            index, replace(rass or RASSConfig(), center_features=False), "svr"
        )
    if matcher == "rass":
        return _RASSBound(index, rass or RASSConfig(), "rass")
    raise ValueError(f"unknown matcher {matcher!r}; expected one of {MATCHERS}")
