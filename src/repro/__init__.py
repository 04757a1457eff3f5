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
  over remote HTTP workers via the pluggable
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
  executes fleet refreshes (in-process, or over remote workers) and
  auto-publishes every completed report into its embedded query engine; the
  submit / status / result / cancel / localize API is served over HTTP
  (``daemon start`` CLI, :class:`~repro.daemon.client.DaemonClient`).
* :mod:`repro.simulation` drives multi-timestamp survey campaigns and the
  labor-cost model.
* :mod:`repro.experiments` regenerates every figure of the paper's
  evaluation section and exposes the CLI (including the ``fleet``
  subcommand).
"""

from repro._lazy import lazy_exports

__version__ = "1.7.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "UpdateRequest": "repro.service.types",
        "UpdateReport": "repro.service.types",
        "FleetReport": "repro.service.types",
        "UpdateService": "repro.service.service",
        "FleetCampaign": "repro.service.fleet",
        "FleetConfig": "repro.service.fleet",
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
        "Coordinator": "repro.daemon.coordinator",
        "DaemonConfig": "repro.daemon.coordinator",
        "DaemonServer": "repro.daemon.http",
        "DaemonClient": "repro.daemon.client",
        "JobQueue": "repro.daemon.queue",
        "JobRecord": "repro.io.jobs",
        "WarmFactors": "repro.service.types",
        "save_requests": "repro.io.wire",
        "load_requests": "repro.io.wire",
        "save_report": "repro.io.wire",
        "load_report": "repro.io.wire",
        "save_queries": "repro.io.query",
        "load_queries": "repro.io.query",
        "save_answers": "repro.io.query",
        "load_answers": "repro.io.query",
        "FleetDelta": "repro.io.delta",
        "report_fingerprint": "repro.io.delta",
        "save_delta": "repro.io.delta",
        "load_delta": "repro.io.delta",
        "apply_delta": "repro.io.delta",
        "QueryEngine": "repro.query.engine",
        "QueryConfig": "repro.query.engine",
        "QueryIndex": "repro.query.index",
        "QueryBatch": "repro.query.types",
        "QueryAnswer": "repro.query.types",
        "GenerationStore": "repro.query.engine",
        "indexes_from_report": "repro.query.index",
        "grid_locations": "repro.query.index",
        "synthesize_fleet": "repro.service.synthetic",
        "IUpdater": "repro.core.updater",
        "UpdaterConfig": "repro.core.updater",
        "UpdateResult": "repro.core.updater",
        "FingerprintMatrix": "repro.fingerprint.matrix",
        "FingerprintDatabase": "repro.fingerprint.database",
        "OMPLocalizer": "repro.localization.omp",
        "SurveyCampaign": "repro.simulation.campaign",
        "CampaignConfig": "repro.simulation.campaign",
        "office_environment": "repro.environments",
        "library_environment": "repro.environments",
        "hall_environment": "repro.environments",
        "environment_by_name": "repro.environments",
        "build_deployment": "repro.environments",
    },
)
__all__ += ["__version__"]
