"""The fleet update service: "update a fleet of sites" as the first-class API.

Where :class:`~repro.core.updater.IUpdater` refreshes one fingerprint
database at a time, this package makes the multi-site workload primary:

* :class:`~repro.service.types.UpdateRequest` /
  :class:`~repro.service.types.UpdateReport` — the request/response model of
  one site's refresh.
* :class:`~repro.service.service.UpdateService` — an ingest → plan → execute
  pipeline: accepts many sites' matrices (heterogeneous shapes and ranks
  welcome, in memory or loaded from a :mod:`repro.io` wire payload), plans
  rank-grouped shards sized to a byte budget
  (:class:`~repro.service.shard.ShardConfig` /
  :class:`~repro.service.shard.ShardPlan`), and executes every shard as
  stacked batched solves — bit-identical per site for any shard split.
* :class:`~repro.service.executor.SerialExecutor` /
  :class:`~repro.service.remote.RemoteExecutor` — pluggable execution
  backends behind ``refresh_fleet(requests, executor=...)``: in-process by
  default, or scatter-gather over
  HTTP :class:`~repro.service.remote.WorkerServer` machines with retry,
  straggler re-dispatch, failover and fingerprint-deduplicated results —
  all rehydrating shards from :mod:`repro.io` wire payloads and all
  bit-identical for any worker or endpoint count (the
  :class:`~repro.service.remote.FaultPlan` chaos seam pins this under
  injected failures).
* :class:`~repro.service.fleet.FleetCampaign` — builds the paper's
  office / hall / library deployments and refreshes all of them per survey
  stamp, returning per-site and aggregate
  :class:`~repro.service.types.FleetReport` summaries (plan included).
* :func:`~repro.service.synthetic.synthesize_fleet` — manufactures fleets of
  simulated sites at scale for payload export, benchmarks and tests.

``IUpdater.update()`` is now a thin single-site adapter over this service
path; see ``docs/API.md`` for the public surface.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "UpdateRequest": "repro.service.types",
        "UpdateReport": "repro.service.types",
        "FleetReport": "repro.service.types",
        "WarmFactors": "repro.service.types",
        "UpdateService": "repro.service.service",
        "FleetCampaign": "repro.service.fleet",
        "FleetConfig": "repro.service.fleet",
        "PAPER_FLEET": "repro.service.fleet",
        "DEFAULT_MAX_STACK_BYTES": "repro.service.shard",
        "Shard": "repro.service.shard",
        "ShardConfig": "repro.service.shard",
        "ShardPlan": "repro.service.shard",
        "ShardExecutor": "repro.service.executor",
        "SerialExecutor": "repro.service.executor",
        "RemoteExecutor": "repro.service.remote",
        "WorkerServer": "repro.service.remote",
        "Fault": "repro.service.remote",
        "FaultPlan": "repro.service.remote",
        "RemoteShardError": "repro.service.remote",
        "InvalidWorkerCountError": "repro.service.executor",
        "plan_shards": "repro.service.shard",
        "synthesize_fleet": "repro.service.synthetic",
    },
)
