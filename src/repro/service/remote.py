"""Remote scatter-gather: HTTP shard workers + a fault-tolerant executor.

This module takes shard execution past one process: it is the one
scatter-gather backend beside the in-process
:class:`~repro.service.executor.SerialExecutor`.  Each shard's member
requests travel as :func:`repro.io.wire.requests_to_bytes` blobs (the same
versioned NPZ+JSON layout ``fleet export`` writes to disk) over plain HTTP:

* :class:`WorkerServer` — a stdlib ``ThreadingHTTPServer`` that accepts
  ``repro-shard-task`` payloads on ``POST /api/shard``, rehydrates the
  member requests (:func:`_solve_shard_payload`: validate → prepare →
  :func:`~repro.service.executor.solve_prepared_shard`, the call the serial
  backend makes, with its per-shard singularity fallback), and returns a
  ``repro-shard-result`` payload.
* :class:`RemoteExecutor` — a :class:`~repro.service.executor.ShardExecutor`
  that scatters planned shards across worker endpoints on a thread pool
  (serialization and dispatch overlap remote solves), gathers in plan
  order, and absorbs machine failure:

  - **per-shard timeout + bounded exponential-backoff retry** — every
    dispatch carries a socket timeout; a failed attempt (connection error,
    timeout, corrupt response) sleeps ``backoff * 2^k`` (capped) and
    retries, up to ``max_attempts`` dispatches;
  - **worker-loss failover** — each retry rotates to the next endpoint, so
    a dead worker's shards drain onto the survivors;
  - **straggler re-dispatch** — with ``straggler_after`` set, a dispatch
    that has not answered within that window is raced against a second
    worker; the first valid completion wins;
  - **idempotent results** — every task and result carries the SHA-256
    :func:`~repro.io.wire.shard_fingerprint` of ``(shard index, request
    bytes)``; a completion whose fingerprint was already gathered is
    dropped, so duplicated completions (stragglers, deliberate duplicates)
    are deduplicated deterministically.

The invariant: gathered results are **bit-identical to SerialExecutor**
for any endpoint or worker count — and, the chaos suite pins, under every
injected fault.  Three properties compose:

1. The wire payload preserves every float, mask, dtype, config and seed
   exactly (no pickling of live state — workers rebuild from the same
   arrays and manifest an on-disk payload carries).
2. Preparation is deterministic: MIC/LRR travel precomputed on the
   scattered request (:func:`scatter_request`), and the solver's random
   init draws from the request's integer seed.  Because this leans on the
   seed, :func:`check_reproducible` refuses requests whose ``rng`` is
   ``None`` or a live generator.
3. Batched LU factorises each ``(r, r)`` slice independently, so a shard
   solved alone produces the same floats it would inside any larger stack.

Fault injection is part of the production surface, not test monkey-
patching: a :class:`FaultPlan` of :class:`Fault` entries arms deliberate
failures per ``(shard, attempt)`` — ``drop`` / ``delay`` / ``corrupt`` /
``kill`` fire inside the worker server, ``duplicate`` fires inside the
executor's dispatcher — so the chaos tests (and the CI ``chaos`` job, via
``fleet workers serve --fault``) drive the real retry / failover / dedup
code paths end to end.
"""

from __future__ import annotations

import http.client
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.self_augmented import SelfAugmentedResult
from repro.core.stacked import ShardResult
from repro.io.wire import (
    WirePayloadError,
    requests_from_bytes,
    requests_to_bytes,
    shard_fingerprint,
    shard_result_from_bytes,
    shard_result_to_bytes,
    shard_task_from_bytes,
    shard_task_to_bytes,
)
from repro.service.executor import (
    ShardExecutor,
    solve_prepared_shard,
    validate_worker_count,
)
from repro.service.prepare import PreparedSite, prepare_request
from repro.service.shard import Shard, ShardPlan, mark_executed
from repro.service.types import UpdateRequest
from repro.utils.http import HttpServer, HttpStatusError, JsonRequestHandler, http_call

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "RemoteExecutor",
    "RemoteShardError",
    "WorkerServer",
]

FAULT_KINDS = ("drop", "delay", "duplicate", "corrupt", "kill")
"""Injectable fault classes, one per distributed failure mode."""

#: Faults the worker server injects while handling a task.
_SERVER_FAULTS = ("drop", "delay", "corrupt", "kill")

#: Faults the executor injects while dispatching a task.
_CLIENT_FAULTS = ("duplicate",)


# ------------------------------------------------------------ scatter helpers
def scatter_request(site: PreparedSite) -> UpdateRequest:
    """The request as scattered: the coordinator's MIC/LRR always attached.

    Workers then skip Inherent Correlation Acquisition instead of
    recomputing what the coordinator's prepare stage already paid for.
    """
    if site.request.correlation is not None:
        return site.request
    return replace(site.request, correlation=(site.mic, site.lrr))


def check_reproducible(prepared: Sequence[PreparedSite], plan: ShardPlan) -> None:
    """Reject request seeds a scattered worker could not reproduce from."""
    for shard in plan.shards:
        for index in shard.members:
            rng = prepared[index].request.rng
            if not isinstance(rng, (int, np.integer)) or isinstance(rng, bool):
                raise ValueError(
                    f"site {prepared[index].request.site!r} carries rng="
                    f"{rng!r}; RemoteExecutor needs a reproducible "
                    "integer seed per request so workers "
                    "re-derive the coordinator's random init exactly"
                )


def _solve_shard_payload(payload: bytes, shard_index: int) -> ShardResult:
    """Worker entry point: rehydrate one shard's requests and solve them.

    The payload travels as :mod:`repro.io.wire` bytes and re-enters through
    the same validation as an on-disk payload; preparation and the stacked
    solve are the exact code the serial path runs.
    """
    requests = requests_from_bytes(payload)
    _, outcome = solve_prepared_shard(
        [prepare_request(request) for request in requests], shard_index
    )
    return outcome


# ------------------------------------------------------------------ fault plan
@dataclass(frozen=True)
class Fault:
    """One armed fault: what to break, on which shard, on which attempt.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`:

        - ``drop`` — the worker reads the task and closes the connection
          without responding (a lost response);
        - ``delay`` — the worker solves but sits on the response for
          ``seconds`` (a straggler; past the client timeout, a lost one);
        - ``duplicate`` — the executor dispatches the shard to two workers
          at once and gathers *both* completions (exercises fingerprint
          dedup);
        - ``corrupt`` — the worker flips bits in the result payload before
          sending (caught by wire validation, never by the solve);
        - ``kill`` — the worker dies mid-shard: no response, listener shut
          down, every later connection refused (machine loss).
    shard:
        Plan index of the shard to hit, or ``None`` for any shard.
    attempt:
        0-based dispatch attempt the fault fires on.
    seconds:
        Delay duration (``delay`` faults only).
    """

    kind: str
    shard: Optional[int] = None
    attempt: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.attempt < 0:
            raise ValueError(f"fault attempt must be >= 0, got {self.attempt}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be >= 0, got {self.seconds}")

    def matches(self, shard_index: int, attempt: int) -> bool:
        """Whether this fault fires for the given dispatch."""
        if self.shard is not None and self.shard != shard_index:
            return False
        return self.attempt == attempt

    @classmethod
    def parse(cls, spec: str) -> "Fault":
        """Parse a CLI fault spec: ``kind[:key=value[,key=value...]]``.

        Examples: ``"kill:shard=0"``, ``"delay:shard=1,seconds=15"``,
        ``"drop"`` (any shard, first attempt).
        """
        kind, _, rest = spec.strip().partition(":")
        kwargs: Dict[str, object] = {}
        if rest:
            for part in rest.split(","):
                key, sep, value = part.partition("=")
                key = key.strip()
                if not sep or key not in ("shard", "attempt", "seconds"):
                    raise ValueError(
                        f"bad fault spec {spec!r}: expected "
                        "kind[:shard=N][,attempt=N][,seconds=X]"
                    )
                try:
                    kwargs[key] = (
                        float(value) if key == "seconds" else int(value)
                    )
                except ValueError:
                    raise ValueError(
                        f"bad fault spec {spec!r}: {key}={value!r} is not a number"
                    ) from None
        return cls(kind=kind, **kwargs)


class FaultPlan:
    """A thread-safe set of armed faults, each consumed at most once.

    Both the worker server and the executor consult the plan per dispatch
    (``take`` matches on shard index and attempt number carried by the task
    payload); a fault that fired stays fired, so one armed ``drop`` breaks
    exactly one dispatch and the retry proceeds cleanly.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self._armed: List[Fault] = list(faults)
        for fault in self._armed:
            if not isinstance(fault, Fault):
                raise TypeError(f"FaultPlan takes Fault entries, got {fault!r}")
        self._fired: List[Fault] = []
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, specs: Sequence[str]) -> "FaultPlan":
        """Build a plan from CLI specs (see :meth:`Fault.parse`)."""
        return cls([Fault.parse(spec) for spec in specs])

    def take(
        self, shard_index: int, attempt: int, kinds: Sequence[str] = FAULT_KINDS
    ) -> Optional[Fault]:
        """Consume and return the first matching armed fault, if any."""
        with self._lock:
            for fault in self._armed:
                if fault.kind in kinds and fault.matches(shard_index, attempt):
                    self._armed.remove(fault)
                    self._fired.append(fault)
                    return fault
        return None

    @property
    def fired(self) -> Tuple[Fault, ...]:
        """Faults that have been injected so far."""
        with self._lock:
            return tuple(self._fired)

    @property
    def pending(self) -> Tuple[Fault, ...]:
        """Faults still armed."""
        with self._lock:
            return tuple(self._armed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._armed) + len(self._fired)


# --------------------------------------------------------------- worker server
class _WorkerRequestHandler(JsonRequestHandler):
    """Routes: ``GET /api/health`` and ``POST /api/shard``."""

    server_version = "repro-worker"
    #: A bad task is the client's fault; a failed solve is terminal.
    error_statuses = ((ValueError, 400), (Exception, 500))

    def do_GET(self) -> None:  # noqa: N802 — base-class API
        path = self._route()
        if path == "/api/health":
            self._send_json(200, self.server.health())
        else:
            self._send_error_json(404, f"unknown route {path!r}")

    def do_POST(self) -> None:  # noqa: N802 — base-class API
        path = self._route()
        if path != "/api/shard":
            self._send_error_json(404, f"unknown route {path!r}")
            return
        try:
            self._solve(shard_task_from_bytes(self._read_body()))
        except Exception as exc:  # noqa: BLE001 — mapped to 400 / 500
            self._send_exception(exc)

    def _solve(self, task) -> None:
        """Solve one decoded task and answer it, injecting any armed fault."""
        fault = None
        if self.server.faults is not None:
            fault = self.server.faults.take(
                task.shard_index, task.attempt, kinds=_SERVER_FAULTS
            )
        if fault is not None and fault.kind == "drop":
            # Read the task, answer nothing: the response is lost in transit.
            self.close_connection = True
            return
        if fault is not None and fault.kind == "kill":
            # The machine dies mid-shard: no response now, no connections
            # ever again.  shutdown() must run off-thread — it joins the
            # serve loop, and this handler thread must die with the server.
            self.close_connection = True
            self.server.kill()
            return

        result = _solve_shard_payload(task.requests_payload, task.shard_index)
        self.server.count_solved()

        body_out = shard_result_to_bytes(
            result, fingerprint=task.fingerprint, shard_index=task.shard_index
        )
        if fault is not None and fault.kind == "delay":
            time.sleep(fault.seconds)
        if fault is not None and fault.kind == "corrupt":
            corrupted = bytearray(body_out)
            middle = len(corrupted) // 2
            for offset in range(middle, min(middle + 16, len(corrupted))):
                corrupted[offset] ^= 0xFF
            body_out = bytes(corrupted)
        self._send(200, body_out, "application/octet-stream")


class WorkerServer(HttpServer):
    """A remote shard worker: solve ``repro-shard-task`` payloads over HTTP.

    The serving-side half of :class:`RemoteExecutor`.  Each ``POST
    /api/shard`` body is decoded through the standard wire validation,
    solved through the same per-shard call the serial backend makes, and
    answered as a ``repro-shard-result`` payload — so a remote solve is
    bit-identical to a local one by construction.  ``GET /api/health``
    reports liveness and counters.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (see :attr:`url`).
    faults:
        Optional :class:`FaultPlan` of deliberate failures to inject while
        serving — the chaos-test seam (``fleet workers serve --fault``).
    """

    thread_name = "repro-worker-http"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__(host, port, _WorkerRequestHandler)
        self.faults = faults
        self._solved = 0
        self._count_lock = threading.Lock()
        self.killed = False

    @property
    def solved(self) -> int:
        """Shards this worker has solved so far."""
        with self._count_lock:
            return self._solved

    def count_solved(self) -> None:
        with self._count_lock:
            self._solved += 1

    def health(self) -> Dict[str, object]:
        """The ``GET /api/health`` body."""
        return {
            "status": "ok",
            "solved": self.solved,
            "faults_armed": 0 if self.faults is None else len(self.faults.pending),
            "faults_injected": 0 if self.faults is None else len(self.faults.fired),
        }

    stop = HttpServer.close

    def kill(self) -> None:
        """Die like a lost machine: stop accepting, close the socket.

        Runs the shutdown off-thread because a ``kill`` fault triggers it
        from inside a handler thread, and ``shutdown()`` joins the serve
        loop.
        """
        self.killed = True
        threading.Thread(target=self.stop, daemon=True).start()


# ------------------------------------------------------------- remote executor
class RemoteShardError(RuntimeError):
    """A shard could not be solved remotely within its retry budget."""


#: Transient dispatch failures worth retrying on another worker: connection
#: errors and timeouts (``OSError``), protocol-level breakage
#: (``RemoteDisconnected`` after a ``drop``), and responses that fail wire
#: validation (``corrupt`` in transit).
_RETRYABLE = (OSError, http.client.HTTPException, WirePayloadError)


class _WorkerSolveError(RuntimeError):
    """The worker reached the solve and the solve itself failed (HTTP 500).

    Not transient: retrying a deterministic numerical failure elsewhere
    yields the same failure, so it short-circuits the retry loop.
    """


@dataclass
class _ShardStats:
    """Per-shard dispatch bookkeeping, reported via the executor's stats."""

    attempts: int = 0
    retries: int = 0
    redispatches: int = 0
    duplicates_dropped: int = 0


@dataclass(frozen=True)
class _ShardOutcome:
    """What a shard job hands the gather loop."""

    result: ShardResult
    fingerprint: str
    stats: _ShardStats


class RemoteExecutor(ShardExecutor):
    """Scatter shards across HTTP worker endpoints, gather bit-identically.

    Parameters
    ----------
    endpoints:
        Worker base URLs (``http://host:port``).  Shards round-robin across
        them; every retry rotates to the next endpoint (failover).
    timeout:
        Per-dispatch socket timeout in seconds.
    max_attempts:
        Dispatch attempts per shard before :class:`RemoteShardError`.
    backoff:
        Base retry delay in seconds; attempt ``k`` waits
        ``min(backoff * 2^(k-1), backoff_cap)``.
    backoff_cap:
        Upper bound on a single retry delay.
    straggler_after:
        Optional straggler threshold: a dispatch silent for this long is
        raced against the next endpoint (first valid completion wins; the
        loser is deduplicated by fingerprint).  ``None`` disables racing.
    max_workers:
        Concurrent shard dispatches (thread-pool width); defaults to
        ``2 * len(endpoints)``.  Serialization happens on these threads,
        so encoding shard N overlaps with shard M solving remotely.
    faults:
        Optional :class:`FaultPlan`; the executor consumes ``duplicate``
        faults (deliberate double dispatch) and passes every dispatch's
        ``(shard, attempt)`` to workers, which consume the server-side
        kinds.
    """

    name = "remote"

    def __init__(
        self,
        endpoints: Sequence[str],
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
        straggler_after: Optional[float] = None,
        max_workers: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.endpoints = [self._normalize_endpoint(e) for e in endpoints]
        if not self.endpoints:
            raise ValueError("RemoteExecutor needs at least one worker endpoint")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        if backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {backoff}")
        if backoff_cap < 0:
            raise ValueError(f"backoff_cap must be non-negative, got {backoff_cap}")
        if straggler_after is not None and straggler_after <= 0:
            raise ValueError(
                f"straggler_after must be positive or None, got {straggler_after}"
            )
        if max_workers is None:
            max_workers = 2 * len(self.endpoints)
        self.max_workers = validate_worker_count(max_workers, type(self).__name__)
        self.timeout = float(timeout)
        self.max_attempts = int(max_attempts)
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self.straggler_after = (
            None if straggler_after is None else float(straggler_after)
        )
        self.faults = faults
        self._stats: Dict[int, _ShardStats] = {}
        self._stats_lock = threading.Lock()

    @staticmethod
    def _normalize_endpoint(endpoint: str) -> str:
        endpoint = str(endpoint).strip().rstrip("/")
        if not endpoint:
            raise ValueError("worker endpoint must be non-empty")
        if not endpoint.startswith(("http://", "https://")):
            endpoint = f"http://{endpoint}"
        return endpoint

    @property
    def workers(self) -> int:
        """Remote endpoints this backend fans out to."""
        return len(self.endpoints)

    # ------------------------------------------------------------- statistics
    @property
    def last_attempts(self) -> Dict[int, int]:
        """Shard index → total dispatches of the most recent ``execute``."""
        with self._stats_lock:
            return {index: s.attempts for index, s in self._stats.items()}

    @property
    def last_retries(self) -> Dict[int, int]:
        """Shard index → failed-then-retried dispatches of the last run."""
        with self._stats_lock:
            return {index: s.retries for index, s in self._stats.items()}

    @property
    def last_redispatches(self) -> Dict[int, int]:
        """Shard index → straggler/duplicate extra dispatches of the last run."""
        with self._stats_lock:
            return {index: s.redispatches for index, s in self._stats.items()}

    @property
    def last_duplicates_dropped(self) -> int:
        """Duplicated completions deduplicated by fingerprint in the last run."""
        with self._stats_lock:
            return sum(s.duplicates_dropped for s in self._stats.values())

    # -------------------------------------------------------------- execution
    def execute(
        self, prepared: List[PreparedSite], plan: ShardPlan
    ) -> Tuple[ShardPlan, Dict[int, SelfAugmentedResult]]:
        if not plan.shards:
            return plan, {}
        check_reproducible(prepared, plan)
        with self._stats_lock:
            self._stats = {}

        results: Dict[int, SelfAugmentedResult] = {}
        gathered: Dict[str, ShardResult] = {}
        width = min(self.max_workers, len(plan.shards))
        with ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="repro-remote-scatter"
        ) as pool:
            futures = {
                position: pool.submit(self._run_shard, shard, prepared, position)
                for position, shard in enumerate(plan.shards)
            }
            for position, shard in enumerate(plan.shards):
                try:
                    outcome = futures[position].result()
                except Exception as exc:
                    for later in list(futures.values())[position + 1 :]:
                        later.cancel()
                    if isinstance(exc, RemoteShardError):
                        raise
                    sites = ", ".join(repr(site) for site in shard.sites)
                    raise RemoteShardError(
                        f"remote worker failed solving shard {shard.index} "
                        f"(sites {sites}): {exc}"
                    ) from exc
                # Gather-level idempotency guard: a fingerprint that already
                # landed (shouldn't happen across distinct shards — every
                # shard hashes differently) is never applied twice.
                result = gathered.setdefault(outcome.fingerprint, outcome.result)
                plan = mark_executed(
                    plan, shard.index, result.sweeps, fallback=result.fallback
                )
                results.update(zip(shard.members, result.results))
                with self._stats_lock:
                    self._stats[shard.index] = outcome.stats
        return plan, results

    # ----------------------------------------------------- per-shard dispatch
    def _endpoint_for(self, position: int, attempt: int) -> str:
        """Round-robin start by plan position, rotate per attempt (failover)."""
        return self.endpoints[(position + attempt) % len(self.endpoints)]

    def _next_endpoint(self, endpoint: str) -> str:
        """The endpoint after ``endpoint`` in rotation (backup dispatches)."""
        index = self.endpoints.index(endpoint)
        return self.endpoints[(index + 1) % len(self.endpoints)]

    def _run_shard(
        self, shard: Shard, prepared: Sequence[PreparedSite], position: int
    ) -> _ShardOutcome:
        """Serialize, dispatch (with retry/failover), decode one shard."""
        payload = requests_to_bytes(
            [scatter_request(prepared[index]) for index in shard.members]
        )
        fingerprint = shard_fingerprint(payload, shard.index)
        stats = _ShardStats()
        delay = self.backoff
        last_error: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                stats.retries += 1
                if delay > 0:
                    time.sleep(min(delay, self.backoff_cap))
                delay *= 2.0
            endpoint = self._endpoint_for(position, attempt)
            try:
                result = self._dispatch(
                    shard, payload, fingerprint, attempt, endpoint, stats
                )
            except _RETRYABLE as exc:
                last_error = exc
                continue
            return _ShardOutcome(
                result=result, fingerprint=fingerprint, stats=stats
            )
        sites = ", ".join(repr(site) for site in shard.sites)
        raise RemoteShardError(
            f"remote worker failed solving shard {shard.index} (sites {sites}) "
            f"after {stats.attempts} dispatch(es) over {len(self.endpoints)} "
            f"endpoint(s); last error: {type(last_error).__name__}: {last_error}"
        ) from last_error

    def _dispatch(
        self,
        shard: Shard,
        payload: bytes,
        fingerprint: str,
        attempt: int,
        endpoint: str,
        stats: _ShardStats,
    ) -> ShardResult:
        """One dispatch attempt, including duplicate/straggler double-sends."""
        task = shard_task_to_bytes(payload, shard.index, attempt=attempt)
        duplicate = None
        if self.faults is not None:
            duplicate = self.faults.take(
                shard.index, attempt, kinds=_CLIENT_FAULTS
            )
        if duplicate is not None:
            return self._dispatch_duplicated(
                shard, task, fingerprint, endpoint, stats
            )
        if self.straggler_after is None or len(self.endpoints) < 2:
            stats.attempts += 1
            return self._decode(self._post(endpoint, task), shard, fingerprint)
        return self._dispatch_racing(shard, task, fingerprint, endpoint, stats)

    def _dispatch_duplicated(
        self,
        shard: Shard,
        task: bytes,
        fingerprint: str,
        endpoint: str,
        stats: _ShardStats,
    ) -> ShardResult:
        """A ``duplicate`` fault: send twice, gather both, dedup by hash.

        Both completions are fully decoded and fingerprint-checked; the
        second is dropped *because* its fingerprint matches the first —
        the deterministic idempotency path the chaos suite pins.
        """
        backup = self._next_endpoint(endpoint)
        stats.attempts += 2
        stats.redispatches += 1
        with ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-remote-duplicate"
        ) as pool:
            first = pool.submit(self._post, endpoint, task)
            second = pool.submit(self._post, backup, task)
            primary = self._decode(first.result(), shard, fingerprint)
            duplicate = self._decode(second.result(), shard, fingerprint)
        # Same fingerprint == same shard bytes: drop the duplicate.
        assert duplicate is not None
        stats.duplicates_dropped += 1
        return primary

    def _dispatch_racing(
        self,
        shard: Shard,
        task: bytes,
        fingerprint: str,
        endpoint: str,
        stats: _ShardStats,
    ) -> ShardResult:
        """Primary dispatch with straggler re-dispatch to a second worker."""
        pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-remote-race"
        )
        try:
            stats.attempts += 1
            pending = {pool.submit(self._post, endpoint, task)}
            done, pending = wait(pending, timeout=self.straggler_after)
            if not done:
                # Straggler: race a second worker; first valid result wins,
                # the loser's completion is discarded (same fingerprint).
                stats.attempts += 1
                stats.redispatches += 1
                backup = self._next_endpoint(endpoint)
                pending = set(pending) | {pool.submit(self._post, backup, task)}
            last_error: Optional[BaseException] = None
            while done or pending:
                for future in done:
                    try:
                        return self._decode(future.result(), shard, fingerprint)
                    except _RETRYABLE as exc:
                        last_error = exc
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
            raise last_error if last_error is not None else RemoteShardError(
                f"straggler race for shard {shard.index} produced no completion"
            )
        finally:
            pool.shutdown(wait=False)

    def _post(self, endpoint: str, task: bytes) -> bytes:
        """POST one task payload; return the raw response body."""
        try:
            return http_call(f"{endpoint}/api/shard", "POST", task, timeout=self.timeout)
        except HttpStatusError as exc:
            if exc.status >= 500:
                # The worker reached the solve and the solve failed — a
                # deterministic error that retrying elsewhere cannot fix.
                raise _WorkerSolveError(str(exc)) from exc
            raise WirePayloadError(
                f"worker {endpoint} rejected the task (HTTP {exc.status}): {exc}"
            ) from exc

    def _decode(
        self, body: bytes, shard: Shard, expected_fingerprint: str
    ) -> ShardResult:
        """Validate one completion against the dispatch it answers."""
        result, fingerprint, shard_index = shard_result_from_bytes(body)
        if fingerprint != expected_fingerprint or shard_index != shard.index:
            raise WirePayloadError(
                f"shard result answers fingerprint {fingerprint[:12]}… "
                f"(shard {shard_index}), dispatch expected "
                f"{expected_fingerprint[:12]}… (shard {shard.index})"
            )
        if len(result.results) != len(shard.members):
            raise WirePayloadError(
                f"shard {shard.index} result carries {len(result.results)} "
                f"member results, expected {len(shard.members)}"
            )
        return result
