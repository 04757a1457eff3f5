"""Value types of the query-serving engine.

The read path speaks two value types, mirroring the write path's
request/response model (:mod:`repro.service.types`):

* :class:`QueryBatch` — a batch of online RSS measurements against one
  site's fingerprint database, optionally carrying the true grid indices
  (for accuracy evaluation) and the site's location table (for producers
  that know the deployment geometry).
* :class:`QueryAnswer` — the engine's response: per-query grid indices,
  estimated coordinates where a location table is available, and the serving
  bookkeeping (matcher, database generation, cache hits).

Both ride the :mod:`repro.io` wire format via
:func:`repro.io.save_queries` / :func:`repro.io.save_answers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.validation import check_2d

__all__ = ["QueryBatch", "QueryAnswer"]


@dataclass
class QueryBatch:
    """A batch of localization queries against one site.

    Attributes
    ----------
    site:
        Identifier of the site whose database the queries target (matches
        :attr:`repro.service.types.UpdateReport.site`).
    measurements:
        ``(B, M)`` online RSS vectors, one row per query, one column per
        link.
    true_indices:
        Optional ``(B,)`` ground-truth grid indices, for accuracy
        evaluation of the answers.
    locations:
        Optional ``(N, 2)`` grid-coordinate table of the site.  Producers
        that know the deployment geometry attach it so the serving side can
        answer with coordinates instead of bare grid indices.
    """

    site: str
    measurements: np.ndarray
    true_indices: Optional[np.ndarray] = None
    locations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("site must be a non-empty identifier")
        self.measurements = check_2d(self.measurements, "measurements")
        if self.true_indices is not None:
            self.true_indices = np.asarray(self.true_indices, dtype=int).ravel()
            if self.true_indices.size != self.measurements.shape[0]:
                raise ValueError("true_indices must have one entry per query row")
            if self.true_indices.size and self.true_indices.min() < 0:
                raise ValueError("true_indices must be non-negative")
        if self.locations is not None:
            self.locations = check_2d(self.locations, "locations")
            if self.locations.shape[1] != 2:
                raise ValueError("locations must be (N, 2) planar coordinates")

    @property
    def count(self) -> int:
        """Number of queries in the batch."""
        return int(self.measurements.shape[0])


@dataclass(frozen=True)
class QueryAnswer:
    """The engine's response to one :class:`QueryBatch`.

    Attributes
    ----------
    site:
        The site identifier echoed back from the query.
    matcher:
        Which matcher answered (``"knn"`` / ``"omp"`` / ``"svr"`` /
        ``"rass"``).
    generation:
        Ordinal of the database generation the whole batch was answered
        from.  Hot-swaps are atomic: every row of one answer comes from the
        same generation.
    indices:
        ``(B,)`` estimated grid indices.
    points:
        ``(B, 2)`` estimated coordinates, or ``None`` when the serving
        index has no location table.
    cache_hits:
        How many of the batch's rows were answered from the result cache.
    """

    site: str
    matcher: str
    generation: int
    indices: np.ndarray
    points: Optional[np.ndarray] = None
    cache_hits: int = 0

    @property
    def count(self) -> int:
        """Number of answered queries."""
        return int(self.indices.size)
