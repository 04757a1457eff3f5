"""Pluggable shard-execution backends: serial in-process or scatter-gather.

The service pipeline (ingest → plan → **execute**) keeps planning and
execution separate on purpose: a :class:`~repro.service.shard.ShardPlan` is
pure data, so *where* its shards run is a backend choice.  This module
defines that seam:

* :class:`SerialExecutor` — the default and the reference semantics: every
  shard advances in this process, one lockstep run after another, exactly
  as ``UpdateService.update_fleet`` has always behaved.
* :class:`ProcessExecutor` — scatter-gather over a
  ``concurrent.futures.ProcessPoolExecutor`` (one it creates per call, or
  a caller-owned one it never shuts down): each shard's member requests
  are serialized with :func:`repro.io.wire.requests_to_bytes` (the same
  versioned NPZ+JSON layout ``fleet export`` writes to disk), a worker
  process rehydrates them with :func:`repro.io.wire.requests_from_bytes`,
  re-runs the deterministic preparation path
  (:func:`~repro.service.prepare.prepare_request`) and the stacked solve
  (:func:`~repro.core.stacked.solve_shard`), and ships a
  :class:`~repro.core.stacked.ShardResult` back.  The coordinator gathers
  outcomes in plan order and the service reassembles reports in request
  order, so results are **bit-identical to serial execution for any worker
  count** — pinned by ``tests/service/test_executor.py``.

Why bit-identical?  Three properties compose:

1. The wire payload preserves every float, mask, dtype, config and seed
   exactly (no pickling of live state — workers rebuild from the same
   arrays and manifest an on-disk payload carries).
2. Preparation is deterministic: MIC/LRR either travel precomputed on the
   request or are recomputed from the bit-identical baseline, and the
   solver's random init draws from the request's integer seed.
3. Batched LU factorises each ``(r, r)`` slice independently, so a shard
   solved alone produces the same floats it would inside any larger stack.

Because property 2 leans on the seed, :class:`ProcessExecutor` refuses
requests whose ``rng`` is ``None`` or a live generator — a worker could not
reproduce the coordinator's random init, silently breaking parity.  Give
every request an integer seed (``fleet export`` payloads always carry one).

Per-shard singularity isolation carries over unchanged: a shard whose
stacked run dies on a numerical error is re-solved site by site from clean
states (in the worker, for :class:`ProcessExecutor`) and flagged
``fallback``; a site that fails even in isolation raises a ``RuntimeError``
naming every offender.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    "ProcessExecutor",
    "resolve_executor",
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
        """Worker processes this backend fans out to (0 = in-process)."""
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


class SerialExecutor(ShardExecutor):
    """Execute every shard in this process, in plan order (the default)."""

    name = "serial"

    def execute(
        self, prepared: List[PreparedSite], plan: ShardPlan
    ) -> Tuple[ShardPlan, Dict[int, SelfAugmentedResult]]:
        results: Dict[int, SelfAugmentedResult] = {}
        for shard in plan.shards:
            states = [prepared[index].state for index in shard.members]
            try:
                outcome = solve_shard(states)
            except _NUMERICAL_ERRORS:
                fresh_sites, outcome = _solve_requests_individually(
                    [prepared[index].request for index in shard.members],
                    shard.index,
                )
                for index, fresh in zip(shard.members, fresh_sites):
                    prepared[index] = fresh
            plan, shard_results = _gather(plan, shard, outcome)
            results.update(shard_results)
        return plan, results


def scatter_request(site: PreparedSite) -> UpdateRequest:
    """The request as scattered: the coordinator's MIC/LRR always attached.

    Shared by every scatter-gather backend (process pool and remote HTTP),
    so workers skip Inherent Correlation Acquisition instead of recomputing
    what the coordinator's prepare stage already paid for.
    """
    if site.request.correlation is not None:
        return site.request
    return replace(site.request, correlation=(site.mic, site.lrr))


def check_reproducible(
    prepared: Sequence[PreparedSite], plan: ShardPlan, owner: str
) -> None:
    """Reject request seeds a scattered worker could not reproduce from."""
    for shard in plan.shards:
        for index in shard.members:
            rng = prepared[index].request.rng
            if not isinstance(rng, (int, np.integer)) or isinstance(rng, bool):
                raise ValueError(
                    f"site {prepared[index].request.site!r} carries rng="
                    f"{rng!r}; {owner} needs a reproducible "
                    "integer seed per request so worker processes "
                    "re-derive the coordinator's random init exactly"
                )


def _solve_shard_payload(payload: bytes, shard_index: int) -> ShardResult:
    """Worker entry point: rehydrate one shard's requests and solve them.

    Runs in a pool process, so it must be a top-level (picklable) function.
    The payload travels as :mod:`repro.io.wire` bytes and re-enters through
    the same validation as an on-disk payload; preparation and the stacked
    solve are the exact code the serial path runs.
    """
    from repro.io.wire import requests_from_bytes

    requests = requests_from_bytes(payload)
    prepared = [prepare_request(request) for request in requests]
    try:
        return solve_shard([site.state for site in prepared])
    except _NUMERICAL_ERRORS:
        _, outcome = _solve_requests_individually(requests, shard_index)
        return outcome


class ProcessExecutor(ShardExecutor):
    """Scatter shards over a process pool, gather bit-identical results.

    Parameters
    ----------
    max_workers:
        Shards in flight at a time; defaults to the machine's CPU count.
        Without ``pool`` it is also the size of the pool each ``execute``
        call creates.  One worker is a legal (if pointless) configuration —
        results never depend on the count, only wall-clock does.
    pool:
        Optional caller-owned ``concurrent.futures.ProcessPoolExecutor``,
        used as-is and never shut down.  The always-on daemon shares one
        pool across concurrent refresh jobs so worker processes start once,
        not per job; ``max_workers`` then caps each job's in-flight shards
        so one huge job cannot starve the others.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None, pool=None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = validate_worker_count(max_workers, type(self).__name__)
        self._pool = pool

    @property
    def workers(self) -> int:
        return self.max_workers

    def execute(
        self, prepared: List[PreparedSite], plan: ShardPlan
    ) -> Tuple[ShardPlan, Dict[int, SelfAugmentedResult]]:
        """Scatter the plan's shards and gather them in plan order.

        Gathering in plan order (not completion order) keeps bookkeeping —
        like the per-site reports — deterministic for any worker count or
        scheduling interleaving.
        """
        if not plan.shards:
            return plan, {}
        check_reproducible(prepared, plan, type(self).__name__)
        from concurrent.futures import ProcessPoolExecutor

        from repro.io.wire import requests_to_bytes

        shards = plan.shards
        payloads = [
            requests_to_bytes([scatter_request(prepared[i]) for i in shard.members])
            for shard in shards
        ]
        results: Dict[int, SelfAugmentedResult] = {}
        if self._pool is not None:
            owned = nullcontext(self._pool)
        else:
            owned = ProcessPoolExecutor(max_workers=min(self.max_workers, len(shards)))
        with owned as pool:
            # At most max_workers of this executor's shards are in flight.
            window = self.max_workers
            futures: Dict[int, "object"] = {}
            submitted = 0
            for position, shard in enumerate(shards):
                while submitted < len(shards) and submitted - position < window:
                    futures[submitted] = pool.submit(
                        _solve_shard_payload,
                        payloads[submitted],
                        shards[submitted].index,
                    )
                    submitted += 1
                try:
                    outcome = futures.pop(position).result()
                except Exception as exc:
                    # A worker traceback alone loses *which* sites were being
                    # solved; name the shard's members so the caller can
                    # exclude or resubmit them.
                    for pending in futures.values():
                        pending.cancel()
                    sites = ", ".join(repr(site) for site in shard.sites)
                    raise RuntimeError(
                        f"worker failed solving shard {shard.index} "
                        f"(sites {sites}): {exc}"
                    ) from exc
                plan, shard_results = _gather(plan, shard, outcome)
                results.update(shard_results)
        return plan, results


def resolve_executor(
    executor: Union[ShardExecutor, str, None]
) -> ShardExecutor:
    """Normalise the ``executor=`` argument of ``UpdateService.update_fleet``.

    ``None`` and ``"serial"`` keep the in-process behaviour; ``"process"``
    builds a CPU-count :class:`ProcessExecutor`; an instance passes through.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, ShardExecutor):
        return executor
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        if executor == "process":
            return ProcessExecutor()
        raise ValueError(
            f"unknown executor {executor!r}; expected 'serial' or 'process'"
        )
    raise TypeError(
        "executor must be a ShardExecutor, 'serial', 'process', or None, "
        f"got {type(executor).__name__}"
    )
