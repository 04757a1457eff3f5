"""The localization serving engine: the read path of the reproduction.

Where :mod:`repro.service` scales the *write* side (refreshing fleets of
fingerprint databases), this package scales the *read* side — millions of
users localizing against those refreshed databases:

* :class:`~repro.query.index.QueryIndex` — an immutable per-site index
  (precomputed centred dictionary, column norms, location table) built from
  a refreshed :class:`~repro.service.types.FleetReport`, in memory or
  loaded from the :mod:`repro.io` wire format.
* :mod:`repro.query.matchers` — every :mod:`repro.localization` matcher
  (kNN / OMP / SVR / RASS), fully **vectorized** over a query batch (one
  distance-matrix GEMM per kNN batch, batched OMP correlation projections,
  batched SVR kernels) and pinned ≤ 1e-10 against the per-query
  :mod:`repro.localization` methods.
* :class:`~repro.query.engine.QueryEngine` — ``localize_batch(site,
  measurements)`` over a :class:`~repro.query.engine.GenerationStore` that
  **hot-swaps database generations atomically** (in-flight batches finish
  on their snapshot), with an optional LRU
  :class:`~repro.query.cache.ResultCache` keyed on quantized RSS vectors.
* :class:`~repro.query.types.QueryBatch` /
  :class:`~repro.query.types.QueryAnswer` — the wire-portable value types
  behind the CLI ``query export`` / ``query run`` / ``query bench``
  workflow.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "QueryEngine": "repro.query.engine",
        "QueryConfig": "repro.query.engine",
        "QueryIndex": "repro.query.index",
        "QueryBatch": "repro.query.types",
        "QueryAnswer": "repro.query.types",
        "Generation": "repro.query.engine",
        "GenerationStore": "repro.query.engine",
        "BoundSite": "repro.query.engine",
        "BoundMatcher": "repro.query.matchers",
        "bind_matcher": "repro.query.matchers",
        "indexes_from_report": "repro.query.index",
        "grid_locations": "repro.query.index",
        "ResultCache": "repro.query.cache",
        "CacheStats": "repro.query.cache",
        "MATCHERS": "repro.query.matchers",
    },
)
