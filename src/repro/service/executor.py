"""Pluggable shard-execution backends: serial in-process or remote scatter.

The service pipeline (ingest → plan → **execute**) keeps planning and
execution separate on purpose: a :class:`~repro.service.shard.ShardPlan` is
pure data, so *where* its shards run is a backend choice.  This module
defines that seam and its reference backend:

* :class:`SerialExecutor` — the default and the reference semantics: every
  shard advances in this process, one lockstep run after another, exactly
  as the update service has always behaved.
* :class:`~repro.service.remote.RemoteExecutor` (in
  :mod:`repro.service.remote`) — the one scatter-gather backend: each
  shard's member requests travel as :func:`repro.io.wire.requests_to_bytes`
  blobs to HTTP :class:`~repro.service.remote.WorkerServer` machines, which
  rehydrate them, re-run the deterministic preparation path
  (:func:`~repro.service.prepare.prepare_request`) and solve them through
  :func:`solve_prepared_shard`, the same call :class:`SerialExecutor` makes.
  Results are **bit-identical to serial execution for any endpoint or
  worker count** — pinned by ``tests/service/test_executor.py`` and
  ``tests/service/test_remote_faults.py``.

An in-host process pool was a third backend until measurement showed it
never beat the serial path on the 2-core reference host, even with its
workers started and warm; ``docs/ARCHITECTURE.md`` records the rows.

Per-shard singularity isolation is shared by both backends: a shard whose
stacked run dies on a numerical error is re-solved site by site from clean
states and flagged ``fallback``; a site that fails even in isolation raises
a ``RuntimeError`` naming every offender.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.self_augmented import SelfAugmentedResult
from repro.core.stacked import ShardResult, run_stacked_sweeps, solve_shard
from repro.service.prepare import PreparedSite, prepare_request
from repro.service.shard import Shard, ShardPlan, mark_executed
from repro.service.types import UpdateRequest

__all__ = [
    "InvalidWorkerCountError",
    "ShardExecutor",
    "SerialExecutor",
    "resolve_executor",
    "solve_prepared_shard",
    "validate_worker_count",
]

_NUMERICAL_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


class InvalidWorkerCountError(ValueError):
    """``max_workers`` was not a positive integer.

    The one named error every executor backend raises for a bad worker
    count, so callers (CLI flag handlers, the daemon's job admission) can
    catch and report it uniformly — a ``ValueError`` subclass, keeping
    existing handlers working.
    """


def validate_worker_count(value, owner: str) -> int:
    """Validate an executor's ``max_workers``: a positive integer, uniformly.

    Rejects non-integers (including ``bool`` and floats — silently
    truncating ``2.5`` workers would mask a caller bug) and anything below
    1 with an :class:`InvalidWorkerCountError` naming the owning backend.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidWorkerCountError(
            f"{owner} max_workers must be an integer, got {value!r} "
            f"({type(value).__name__})"
        )
    if value < 1:
        raise InvalidWorkerCountError(
            f"{owner} max_workers must be at least 1, got {value}"
        )
    return int(value)


class ShardExecutor(ABC):
    """Strategy interface: run a plan's shards, return results per site.

    ``execute`` receives the prepared fleet and the plan, and must return
    the executed plan (per-shard sweep counts and fallback flags recorded)
    plus one finalized solver result per prepared-site index.
    Implementations may mutate ``prepared`` entries only by replacing them
    with an equivalently prepared site (the serial fallback path does, so
    report metadata always reflects the states that actually solved).
    """

    #: Stable identifier recorded on ``FleetReport.executor``.
    name: str = "abstract"

    @property
    def workers(self) -> int:
        """Workers this backend fans out to (0 = in-process)."""
        return 0

    @abstractmethod
    def execute(
        self, prepared: List[PreparedSite], plan: ShardPlan
    ) -> Tuple[ShardPlan, Dict[int, SelfAugmentedResult]]:
        """Solve every shard; map prepared-site index → solver result."""


def _gather(
    plan: ShardPlan, shard: Shard, outcome: ShardResult
) -> Tuple[ShardPlan, Dict[int, SelfAugmentedResult]]:
    """Record one shard's outcome on the plan and key results by member."""
    plan = mark_executed(plan, shard.index, outcome.sweeps, fallback=outcome.fallback)
    return plan, dict(zip(shard.members, outcome.results))


def _solve_requests_individually(
    requests: Sequence[UpdateRequest], shard_index: int
) -> Tuple[List[PreparedSite], ShardResult]:
    """Fallback: solve a failed shard's sites one by one from clean states.

    Every member is re-prepared and retried solo so healthy co-tenants
    recover from the abandoned stacked run; only after all retries does a
    site that cannot be solved even in isolation raise, naming every
    offender so the caller can exclude them and resubmit.
    """
    sweeps = 0
    failed = []
    fresh_sites: List[PreparedSite] = []
    results: List[SelfAugmentedResult] = []
    for request in requests:
        fresh = prepare_request(request)
        try:
            sweeps = max(sweeps, run_stacked_sweeps([fresh.state]))
        except _NUMERICAL_ERRORS as exc:
            failed.append((request.site, exc))
        else:
            fresh_sites.append(fresh)
            results.append(fresh.state.finalize())
    if failed:
        sites = ", ".join(repr(site) for site, _ in failed)
        raise RuntimeError(
            f"sites {sites} failed to solve even in isolation "
            f"(shard {shard_index})"
        ) from failed[0][1]
    return fresh_sites, ShardResult(
        results=tuple(results), sweeps=sweeps, fallback=True
    )


def solve_prepared_shard(
    sites: Sequence[PreparedSite], shard_index: int
) -> Tuple[List[PreparedSite], ShardResult]:
    """Solve one shard's prepared sites as one stacked run.

    Returns the sites that actually solved with the shard's outcome.  A
    stacked run that dies on a numerical error leaves its states partially
    advanced, so the fallback re-prepares every member and returns those
    fresh sites instead.  Both backends call this: :class:`SerialExecutor`
    in this process, and a remote worker on the shard it rehydrated.
    """
    try:
        return list(sites), solve_shard([site.state for site in sites])
    except _NUMERICAL_ERRORS:
        return _solve_requests_individually(
            [site.request for site in sites], shard_index
        )


class SerialExecutor(ShardExecutor):
    """Execute every shard in this process, in plan order (the default)."""

    name = "serial"

    def execute(
        self, prepared: List[PreparedSite], plan: ShardPlan
    ) -> Tuple[ShardPlan, Dict[int, SelfAugmentedResult]]:
        results: Dict[int, SelfAugmentedResult] = {}
        for shard in plan.shards:
            sites, outcome = solve_prepared_shard(
                [prepared[index] for index in shard.members], shard.index
            )
            for index, site in zip(shard.members, sites):
                prepared[index] = site
            plan, shard_results = _gather(plan, shard, outcome)
            results.update(shard_results)
        return plan, results


def resolve_executor(
    executor: Union[ShardExecutor, str, None]
) -> ShardExecutor:
    """Normalise the ``executor=`` argument of ``UpdateService.refresh_fleet``.

    ``None`` and ``"serial"`` keep the in-process behaviour; an instance
    (such as a configured :class:`~repro.service.remote.RemoteExecutor`)
    passes through.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, ShardExecutor):
        return executor
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        raise ValueError(
            f"unknown executor {executor!r}; expected 'serial', None or a "
            "ShardExecutor instance such as RemoteExecutor"
        )
    raise TypeError(
        "executor must be a ShardExecutor, 'serial', or None, "
        f"got {type(executor).__name__}"
    )
