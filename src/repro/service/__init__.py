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
  :class:`~repro.service.executor.ProcessExecutor` /
  :class:`~repro.service.remote.RemoteExecutor` — pluggable execution
  backends behind ``update_fleet(requests, executor=...)``: in-process by
  default, scatter-gather over worker processes, or scatter-gather over
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

from repro.service.executor import (
    InvalidWorkerCountError,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
)
from repro.service.fleet import PAPER_FLEET, FleetCampaign, FleetConfig
from repro.service.remote import (
    Fault,
    FaultPlan,
    RemoteExecutor,
    RemoteShardError,
    WorkerServer,
)
from repro.service.service import UpdateService
from repro.service.shard import (
    DEFAULT_MAX_STACK_BYTES,
    Shard,
    ShardConfig,
    ShardPlan,
    plan_shards,
)
from repro.service.synthetic import synthesize_fleet
from repro.service.types import (
    FleetReport,
    UpdateReport,
    UpdateRequest,
    WarmFactors,
)

__all__ = [
    "UpdateRequest",
    "UpdateReport",
    "FleetReport",
    "WarmFactors",
    "UpdateService",
    "FleetCampaign",
    "FleetConfig",
    "PAPER_FLEET",
    "DEFAULT_MAX_STACK_BYTES",
    "Shard",
    "ShardConfig",
    "ShardPlan",
    "ShardExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "WorkerServer",
    "Fault",
    "FaultPlan",
    "RemoteShardError",
    "InvalidWorkerCountError",
    "plan_shards",
    "synthesize_fleet",
]
