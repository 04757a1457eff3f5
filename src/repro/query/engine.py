"""The query-serving engine: batched localization over generation-swapped
fleet databases.

This is the read-side counterpart of :class:`~repro.service.service.
UpdateService`: the write path refreshes fingerprint databases, the
:class:`QueryEngine` answers localization queries against them at high QPS.

* A refreshed :class:`~repro.service.types.FleetReport` is published as a
  **generation**: one immutable :class:`~repro.query.index.QueryIndex` per
  site, with the configured matcher bound (per-generation precompute — SVR
  fits, centred dictionaries) at publish time.
* :meth:`QueryEngine.localize_batch` answers a whole batch through the
  bound matcher's vectorized path (see :mod:`repro.query.matchers`).
* The :class:`GenerationStore` hot-swaps generations **atomically**: a
  batch in flight finishes entirely on the generation snapshot it grabbed;
  new batches see the new one.  No locks are held while matching.
* An optional LRU :class:`~repro.query.cache.ResultCache` short-circuits
  repeat queries, keyed on quantized RSS vectors plus the generation (so a
  swap never serves stale answers).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.localization.knn import KNNConfig
from repro.localization.omp import OMPConfig
from repro.localization.rass import RASSConfig
from repro.query.cache import CacheStats, ResultCache
from repro.query.index import QueryIndex, indexes_from_report
from repro.query.matchers import MATCHERS, BoundMatcher, bind_matcher
from repro.query.types import QueryAnswer, QueryBatch
from repro.service.types import FleetReport
from repro.utils.validation import check_2d

__all__ = ["QueryConfig", "BoundSite", "Generation", "GenerationStore", "QueryEngine"]


@dataclass(frozen=True)
class QueryConfig:
    """Configuration of the serving engine.

    Attributes
    ----------
    matcher:
        Which matcher answers queries: ``"knn"`` (default), ``"omp"``,
        ``"svr"`` or ``"rass"``.
    knn, omp, rass:
        Per-matcher configurations (``rass`` is shared by the ``"svr"``
        matcher, which forces feature centering off).
    cache_size:
        LRU result-cache capacity in entries; 0 (default) disables caching,
        keeping the engine exact.
    cache_quantum_db:
        Quantization step (dB) of the cache keys — queries that round to
        the same pattern share a cached answer.
    """

    matcher: str = "knn"
    knn: KNNConfig = field(default_factory=KNNConfig)
    omp: OMPConfig = field(default_factory=OMPConfig)
    rass: RASSConfig = field(default_factory=RASSConfig)
    cache_size: int = 0
    cache_quantum_db: float = 0.25

    def __post_init__(self) -> None:
        if self.matcher not in MATCHERS:
            raise ValueError(
                f"unknown matcher {self.matcher!r}; expected one of {MATCHERS}"
            )
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if not (math.isfinite(self.cache_quantum_db) and self.cache_quantum_db > 0):
            raise ValueError("cache_quantum_db must be positive and finite")


class BoundSite(NamedTuple):
    """One site inside a generation: its index plus the bound matcher."""

    index: QueryIndex
    matcher: BoundMatcher


@dataclass(frozen=True)
class Generation:
    """One immutable published database generation."""

    ordinal: int
    label: str
    sites: Mapping[str, BoundSite]

    @property
    def site_names(self) -> Tuple[str, ...]:
        """Sites this generation can answer for, sorted."""
        return tuple(sorted(self.sites))

    @property
    def nbytes(self) -> int:
        """Bytes held by the generation's indexes."""
        return int(sum(bound.index.nbytes for bound in self.sites.values()))


class GenerationStore:
    """Atomic holder of the current generation.

    Publishing replaces a single reference under a lock; readers grab that
    reference once per batch (no lock) and keep answering from their
    snapshot even while a newer generation lands — queries in flight finish
    on the old index, new queries see the new one.  Retired generations are
    garbage-collected once the last in-flight reader drops its snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Generation] = None
        self._published = 0

    def publish(self, sites: Mapping[str, BoundSite], label: str = "") -> Generation:
        """Atomically make ``sites`` the current generation."""
        if not sites:
            raise ValueError("cannot publish a generation with no sites")
        with self._lock:
            generation = Generation(
                ordinal=self._published,
                label=label or f"generation-{self._published}",
                sites=dict(sites),
            )
            self._current = generation
            self._published += 1
        return generation

    def current(self) -> Generation:
        """Snapshot of the current generation (raises before first publish)."""
        generation = self._current
        if generation is None:
            raise RuntimeError(
                "no database generation has been published; call "
                "QueryEngine.publish_report (or publish_indexes) first"
            )
        return generation

    @property
    def generation_count(self) -> int:
        """How many generations have been published so far."""
        return self._published


class QueryEngine:
    """High-QPS batched localization over hot-swappable fleet databases."""

    def __init__(self, config: Optional[QueryConfig] = None) -> None:
        self.config = config or QueryConfig()
        self.store = GenerationStore()
        self.cache = ResultCache(
            self.config.cache_size, self.config.cache_quantum_db
        )

    # ------------------------------------------------------------- publishing
    def publish_indexes(
        self, indexes: Mapping[str, QueryIndex], label: str = ""
    ) -> Generation:
        """Bind the configured matcher to each index and hot-swap them in.

        Binding runs the per-generation precompute (SVR fits, centred
        dictionaries) *before* the swap, so the publish is atomic from the
        readers' point of view: they see the old generation until the new
        one is fully built.
        """
        config = self.config
        sites = {
            site: BoundSite(
                index=index,
                matcher=bind_matcher(
                    config.matcher,
                    index,
                    knn=config.knn,
                    omp=config.omp,
                    rass=config.rass,
                ),
            )
            for site, index in indexes.items()
        }
        return self.store.publish(sites, label=label)

    def publish_report(
        self,
        report: FleetReport,
        locations: Optional[Mapping[str, np.ndarray]] = None,
        grid_fallback: bool = True,
        label: str = "",
    ) -> Generation:
        """Publish a refreshed :class:`FleetReport` as the next generation.

        ``locations`` supplies per-site coordinate tables where the caller
        knows the deployment geometry; other sites fall back to the
        deterministic :func:`~repro.query.index.grid_locations` layout
        (disable with ``grid_fallback=False`` to serve bare grid indices).
        """
        indexes = indexes_from_report(
            report, locations=locations, grid_fallback=grid_fallback
        )
        return self.publish_indexes(
            indexes, label=label or f"refresh@{report.elapsed_days:g}d"
        )

    # -------------------------------------------------------------- inspection
    @property
    def sites(self) -> Tuple[str, ...]:
        """Sites of the current generation (empty before first publish)."""
        try:
            return self.store.current().site_names
        except RuntimeError:
            return ()

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the result cache."""
        return self.cache.stats

    # ---------------------------------------------------------------- serving
    def localize_batch(self, site: str, measurements: np.ndarray) -> QueryAnswer:
        """Answer a ``(B, M)`` batch of RSS vectors against ``site``.

        The whole batch is answered from one generation snapshot; the
        generation's ordinal is recorded on the answer.
        """
        generation = self.store.current()
        bound = generation.sites.get(site)
        if bound is None:
            raise ValueError(
                f"unknown site {site!r}; generation {generation.ordinal} "
                f"serves {list(generation.site_names)}"
            )
        # One layout for every caller: the matcher's float reductions (and so
        # the answer) must not depend on whether the batch came in C or
        # Fortran order.
        measurements = np.ascontiguousarray(check_2d(measurements, "measurements"))
        if measurements.shape[1] != bound.index.link_count:
            raise ValueError(
                f"measurements must have {bound.index.link_count} columns "
                f"(one per link of site {site!r}), got {measurements.shape[1]}"
            )

        matcher = bound.matcher
        if not self.cache.enabled:
            indices, points = matcher.localize(measurements)
            return QueryAnswer(
                site=site,
                matcher=matcher.name,
                generation=generation.ordinal,
                indices=indices,
                points=points,
            )

        # The batch is quantized once; lookups and inserts stay per row so the
        # hit/miss counters and the LRU order follow the rows.  Entries are
        # ``(index, point)`` with ``point`` a row of a private copy (or None).
        cache = self.cache
        keys = cache.keys(site, generation.ordinal, matcher.name, measurements)
        cached = [cache.get(key) for key in keys]
        miss_rows = [row for row, entry in enumerate(cached) if entry is None]
        hits = len(keys) - len(miss_rows)
        if miss_rows:
            indices, points = matcher.localize(
                measurements[miss_rows] if hits else measurements
            )
            stored_points = (
                [None] * len(miss_rows) if points is None else list(points.copy())
            )
            for row, entry in zip(miss_rows, zip(indices.tolist(), stored_points)):
                cache.put(keys[row], entry)
                cached[row] = entry
        if hits:
            # An all-miss batch keeps the matcher's arrays; anything else is
            # assembled from the entries, one array per field.
            indices = np.array([entry[0] for entry in cached], dtype=int)
            points = (
                np.array([entry[1] for entry in cached], dtype=float)
                if bound.index.locations is not None
                else None
            )
        return QueryAnswer(
            site=site,
            matcher=matcher.name,
            generation=generation.ordinal,
            indices=indices,
            points=points,
            cache_hits=hits,
        )

    def answer(self, batch: QueryBatch) -> QueryAnswer:
        """Answer a :class:`QueryBatch` (the wire-payload counterpart)."""
        return self.localize_batch(batch.site, batch.measurements)
