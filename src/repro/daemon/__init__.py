"""The always-on fleet daemon: refresh and serve under one lifecycle.

Everything else in this repo is a batch you run; this package is the
system that stays up.  A :class:`~repro.daemon.coordinator.Coordinator`
owns a **persistent job queue** (:class:`~repro.daemon.queue.JobQueue`:
JSON journal + NPZ payload spool, priorities, FIFO within priority,
bounded retry with exponential backoff, crash recovery on restart), a
scheduler that runs concurrent fleet refreshes through the existing
:class:`~repro.service.executor.ShardExecutor` backends (in-process, or over
remote workers when the daemon has endpoints), and an embedded
:class:`~repro.query.engine.QueryEngine` that every completed refresh
auto-publishes into — so ``/api/localize`` always answers from the
freshest fleet.  :class:`~repro.daemon.http.DaemonServer` puts the
submit / status / result / cancel / localize API on an HTTP socket
(stdlib ``ThreadingHTTPServer``, JSON bodies);
:class:`~repro.daemon.client.DaemonClient` is the matching stdlib
client.  Graceful draining — stop accepting, finish running jobs,
journal the rest — is wired to SIGTERM by the ``daemon start`` CLI.

See ``docs/ARCHITECTURE.md`` for the lifecycle (survey → job queue →
refresh → publish → serve) and ``docs/API.md`` for the HTTP surface.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "JOB_KINDS": "repro.daemon.coordinator",
        "JOB_STATES": "repro.io.jobs",
        "REFRESH_FLEET": "repro.daemon.coordinator",
        "SERVE_PUBLISH": "repro.daemon.coordinator",
        "JobRecord": "repro.io.jobs",
        "JobQueue": "repro.daemon.queue",
        "DaemonConfig": "repro.daemon.coordinator",
        "Coordinator": "repro.daemon.coordinator",
        "DaemonServer": "repro.daemon.http",
        "DaemonRequestHandler": "repro.daemon.http",
        "DaemonClient": "repro.daemon.client",
        "DaemonError": "repro.daemon.client",
    },
)
