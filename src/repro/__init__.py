"""Reproduction of the iUpdater device-free localization system (ICDCS 2017).

The package is organised around the paper's pipeline:

* :mod:`repro.rf` and :mod:`repro.environments` provide the simulated radio
  substrate that stands in for the paper's physical Wi-Fi testbeds.
* :mod:`repro.fingerprint` holds the fingerprint matrix machinery.
* :mod:`repro.core` implements the paper's contribution: MIC selection,
  low-rank representation, the basic and self-augmented RSVD solvers and the
  high-level :class:`~repro.core.updater.IUpdater` pipeline.
* :mod:`repro.service` is the canonical entry point for refreshing
  fingerprint databases: the :class:`~repro.service.service.UpdateService`
  request/response API runs whole fleets of sites through rank-grouped,
  cache-budgeted shards of stacked batched solves — in-process or scattered
  over worker processes via the pluggable
  :mod:`~repro.service.executor` backends — and
  :class:`~repro.service.fleet.FleetCampaign` drives the paper's three
  environments per survey stamp.  ``IUpdater`` remains as a single-site
  adapter over the service.
* :mod:`repro.io` serializes fleets, query workloads and answers to and
  from disk: the NPZ+JSON wire format behind ``fleet export`` / ``fleet run
  --in/--out`` and ``query export`` / ``query run``.
* :mod:`repro.localization` implements the OMP localizer and the KNN / SVR /
  RASS baselines.
* :mod:`repro.query` is the read-path counterpart of the service: the
  :class:`~repro.query.engine.QueryEngine` serves batched localization
  queries against immutable per-site
  :class:`~repro.query.index.QueryIndex` snapshots of refreshed fleet
  databases, with atomic generation hot-swap and an LRU result cache.
* :mod:`repro.daemon` runs both halves as one always-on system: a
  long-running :class:`~repro.daemon.coordinator.Coordinator` with a
  persistent job queue (priorities, retry with backoff, crash recovery)
  executes fleet refreshes over a shared process pool and auto-publishes
  every completed report into its embedded query engine; the
  submit / status / result / cancel / localize API is served over HTTP
  (``daemon start`` CLI, :class:`~repro.daemon.client.DaemonClient`).
* :mod:`repro.simulation` drives multi-timestamp survey campaigns and the
  labor-cost model.
* :mod:`repro.experiments` regenerates every figure of the paper's
  evaluation section and exposes the CLI (including the ``fleet``
  subcommand).
"""

from repro.core.updater import IUpdater, UpdaterConfig, UpdateResult
from repro.daemon import (
    Coordinator,
    DaemonClient,
    DaemonConfig,
    DaemonServer,
    JobQueue,
    JobRecord,
)
from repro.environments import (
    build_deployment,
    environment_by_name,
    hall_environment,
    library_environment,
    office_environment,
)
from repro.fingerprint.matrix import FingerprintMatrix
from repro.fingerprint.database import FingerprintDatabase
from repro.io import (
    FleetDelta,
    apply_delta,
    load_answers,
    load_delta,
    load_queries,
    load_report,
    load_requests,
    report_fingerprint,
    save_answers,
    save_delta,
    save_queries,
    save_report,
    save_requests,
)
from repro.localization.omp import OMPLocalizer
from repro.query import (
    GenerationStore,
    QueryAnswer,
    QueryBatch,
    QueryConfig,
    QueryEngine,
    QueryIndex,
    grid_locations,
    indexes_from_report,
)
from repro.service import (
    Fault,
    FaultPlan,
    FleetCampaign,
    FleetConfig,
    FleetReport,
    InvalidWorkerCountError,
    ProcessExecutor,
    RemoteExecutor,
    RemoteShardError,
    SerialExecutor,
    ShardConfig,
    ShardExecutor,
    ShardPlan,
    UpdateReport,
    UpdateRequest,
    UpdateService,
    WarmFactors,
    WorkerServer,
    synthesize_fleet,
)
from repro.simulation.campaign import SurveyCampaign, CampaignConfig

__version__ = "1.7.0"

__all__ = [
    "UpdateRequest",
    "UpdateReport",
    "FleetReport",
    "UpdateService",
    "FleetCampaign",
    "FleetConfig",
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
    "Coordinator",
    "DaemonConfig",
    "DaemonServer",
    "DaemonClient",
    "JobQueue",
    "JobRecord",
    "WarmFactors",
    "save_requests",
    "load_requests",
    "save_report",
    "load_report",
    "save_queries",
    "load_queries",
    "save_answers",
    "load_answers",
    "FleetDelta",
    "report_fingerprint",
    "save_delta",
    "load_delta",
    "apply_delta",
    "QueryEngine",
    "QueryConfig",
    "QueryIndex",
    "QueryBatch",
    "QueryAnswer",
    "GenerationStore",
    "indexes_from_report",
    "grid_locations",
    "synthesize_fleet",
    "IUpdater",
    "UpdaterConfig",
    "UpdateResult",
    "FingerprintMatrix",
    "FingerprintDatabase",
    "OMPLocalizer",
    "SurveyCampaign",
    "CampaignConfig",
    "office_environment",
    "library_environment",
    "hall_environment",
    "environment_by_name",
    "build_deployment",
    "__version__",
]
