"""Serialized wire formats for the fleet update service and the query engine.

``repro.io`` is how update requests, fleet reports, query workloads and
answers leave (and re-enter) a process: versioned NPZ+JSON payloads that
preserve matrices bit-exactly along with masks, dtypes, seeds, pipeline
configs and the executed shard plan.  The same layout works in memory
(``requests_to_bytes`` / ``requests_from_bytes``) — that is how the
remote executor scatters shards to its workers.  The read-path
payloads (:mod:`repro.io.query`) carry batched localization queries and the
engine's answers behind ``query export`` / ``query run``.  The always-on
daemon's job queue persists through :mod:`repro.io.jobs`: validated
:class:`~repro.io.jobs.JobRecord` entries in an atomically-rewritten JSON
journal, next to the jobs' NPZ payloads.  See :mod:`repro.io.wire` for the
layout and guarantees, and ``docs/WIRE_FORMAT.md`` for the on-disk spec.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "WIRE_VERSION": "repro.io.wire",
        "REQUESTS_FORMAT": "repro.io.wire",
        "REPORT_FORMAT": "repro.io.wire",
        "SHARD_TASK_FORMAT": "repro.io.wire",
        "SHARD_RESULT_FORMAT": "repro.io.wire",
        "WirePayloadError": "repro.io.wire",
        "ShardTask": "repro.io.wire",
        "shard_fingerprint": "repro.io.wire",
        "shard_task_to_bytes": "repro.io.wire",
        "shard_task_from_bytes": "repro.io.wire",
        "shard_result_to_bytes": "repro.io.wire",
        "shard_result_from_bytes": "repro.io.wire",
        "QUERIES_FORMAT": "repro.io.query",
        "ANSWERS_FORMAT": "repro.io.query",
        "DELTA_FORMAT": "repro.io.delta",
        "DELTA_VERSION": "repro.io.delta",
        "FleetDelta": "repro.io.delta",
        "report_fingerprint": "repro.io.delta",
        "save_delta": "repro.io.delta",
        "load_delta": "repro.io.delta",
        "apply_delta": "repro.io.delta",
        "save_requests": "repro.io.wire",
        "load_requests": "repro.io.wire",
        "requests_to_bytes": "repro.io.wire",
        "requests_from_bytes": "repro.io.wire",
        "save_report": "repro.io.wire",
        "load_report": "repro.io.wire",
        "save_queries": "repro.io.query",
        "load_queries": "repro.io.query",
        "save_answers": "repro.io.query",
        "load_answers": "repro.io.query",
        "payload_info": "repro.io.wire",
        "JOURNAL_FORMAT": "repro.io.jobs",
        "JOURNAL_VERSION": "repro.io.jobs",
        "JOB_STATES": "repro.io.jobs",
        "JobRecord": "repro.io.jobs",
        "job_to_json": "repro.io.jobs",
        "job_from_json": "repro.io.jobs",
        "save_journal": "repro.io.jobs",
        "load_journal": "repro.io.jobs",
    },
)
