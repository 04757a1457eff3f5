"""In-memory span recorder and the layer map of the benchmark's traced run.

The benchmark never edits ``src/``.  It traces by replacing public callables
of the ``repro`` modules, at every name where callers look them up, with
thin wrappers that record a span around each call.  A span's *self time* is
its duration minus the time its child spans (on the same thread) cover, so
summing self times over all spans never double-counts.

Spans are kept in memory: per thread, an aggregate ``name -> [count, total,
self]`` plus a bounded list of raw spans ``(id, parent id, name, start,
end)``.  :meth:`Tracer.snapshot` merges the threads when the run ends.

Span names are ``"<layer>:<callable>"``; the layer is the ``repro`` module
the callable lives in (``rf``, ``core.stacked``, ``query.cache`` ...).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "LAYER_TARGETS", "install_layers", "layer_metrics", "self_time_total", "top_self"]

_clock = time.perf_counter

#: Span names whose individual durations are kept (for percentiles).
KEEP_DURATIONS = ("daemon.http:submit",)


class _ThreadState:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: List[list] = []  # [span id, child time]
        self.agg: Dict[str, list] = {}
        self.counters: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.dropped = 0
        self.next_id = 0


class Tracer:
    """Thread-aware span recorder; wrappers are inert while ``enabled`` is off."""

    def __init__(self, max_spans_per_thread: int = 20000) -> None:
        self.enabled = False
        self.max_spans = max_spans_per_thread
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def add(self, counter: str, value: float = 1) -> None:
        """Add to a named counter (call only from inside a traced call)."""
        counters = self._state().counters
        counters[counter] = counters.get(counter, 0) + value

    def span(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        name_of: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records a span called ``name``.

        ``on_result(tracer, args, result)`` may add counters after a call
        returns; ``name_of(args)`` may pick the span name per call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            span_name = name_of(args) if name_of is not None else name
            span_id = state.next_id
            state.next_id += 1
            parent = state.stack[-1][0] if state.stack else -1
            frame = [span_id, 0.0]
            state.stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                state.stack.pop()
                duration = end - start
                if state.stack:
                    state.stack[-1][1] += duration
                entry = state.agg.get(span_name)
                if entry is None:
                    entry = state.agg[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if span_name in KEEP_DURATIONS:
                    state.durations.setdefault(span_name, []).append(duration)
                if len(state.spans) < tracer.max_spans:
                    state.spans.append((span_id, parent, span_name, start, end))
                else:
                    state.dropped += 1
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call only bumps counter ``name`` (no timing)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.add(name)
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict:
        """Merge every thread's aggregates, counters and raw spans."""
        agg: Dict[str, list] = {}
        counters: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        spans: List[tuple] = []
        dropped = 0
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (count, total, self_time) in list(state.agg.items()):
                entry = agg.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += self_time
            for name, value in list(state.counters.items()):
                counters[name] = counters.get(name, 0) + value
            for name, values in list(state.durations.items()):
                durations.setdefault(name, []).extend(values)
            spans.extend((state.ident,) + span for span in state.spans)
            dropped += state.dropped
        return {
            "agg": agg,
            "counters": counters,
            "durations": durations,
            "spans": spans,
            "dropped_spans": dropped,
            "missing_targets": list(self.missing),
        }


# ------------------------------------------------------------------ hooks
def _count_shards(tracer, args, plan):
    tracer.add("service.shard.shards", len(plan.shards))


def _count_fallbacks(tracer, args, result):
    plan = result[0]
    tracer.add("service.executor.fallbacks", sum(bool(s.fallback) for s in plan.shards))


def _count_sweeps(tracer, args, sweeps):
    tracer.add("core.stacked.sweeps", int(sweeps))


def _count_budget_stop(tracer, args, result):
    state = args[0]
    tracer.add("core.self_augmented.sites")
    if not result.converged and result.iterations >= state.cfg.max_iterations:
        tracer.add("core.self_augmented.budget_stops")


def _count_rows(tracer, args, result):
    tracer.add("query.matchers.rows", len(args[1]))


def _count_lookup(tracer, args, entry):
    tracer.add("query.cache.lookups")
    if entry is not None:
        tracer.add("query.cache.hits")


def _count_encoded(tracer, args, data):
    tracer.add("io.wire.bytes", len(data))


def _count_decoded(tracer, args, result):
    tracer.add("io.wire.bytes", len(args[0]))


def _count_saved(tracer, args, result):
    target = args[0]
    if hasattr(target, "getbuffer"):
        tracer.add("io.wire.bytes", target.getbuffer().nbytes)
    else:
        _count_file(tracer, args, result)


def _count_file(tracer, args, result):
    target = args[0]
    if isinstance(target, (str, os.PathLike)) and os.path.exists(target):
        tracer.add("io.wire.bytes", os.path.getsize(target))


def _http_route(args):
    path = getattr(args[0], "path", "")
    if path.startswith("/api/localize"):
        return "daemon.http:localize"
    if path.rstrip("/") == "/api/jobs" and getattr(args[0], "command", "") == "POST":
        return "daemon.http:submit"
    return "daemon.http:other"


#: (module, attribute path, span name, kind, hook).  ``kind`` is ``"span"``
#: (``hook`` is an ``on_result``), ``"route"`` (a span whose name ``hook``
#: picks per call) or ``"count"`` (no timing).  Byte counts come from the
#: outermost encode/decode call only, so nested wire calls count once.
#: Targets that no longer exist are reported as missing.
LAYER_TARGETS: Sequence[Tuple[str, str, str, str, Optional[Callable]]] = (
    ("repro.rf.channel", "LinkChannel.measure_vector", "rf:measure_vector", "span", None),
    ("repro.rf.channel", "LinkChannel.mean_rss_dbm", "rf:mean_rss_dbm", "span", None),
    ("repro.rf.variation", "LongTermDrift.total_shift_db", "rf.drift_calls", "count", None),
    ("repro.environments.builder", "build_deployment", "environments:build_deployment", "span", None),
    ("repro.simulation.collector", "MeasurementCollector.survey_fingerprint", "simulation:survey_fingerprint", "span", None),
    ("repro.simulation.collector", "MeasurementCollector.collect_no_decrease", "simulation:collect_no_decrease", "span", None),
    ("repro.simulation.collector", "MeasurementCollector.collect_reference", "simulation:collect_reference", "span", None),
    ("repro.core.mic", "select_reference_locations", "core.mic:select_reference_locations", "span", None),
    ("repro.core.lrr", "low_rank_representation", "core.lrr:low_rank_representation", "span", None),
    ("repro.service.synthetic", "synthesize_fleet", "service.synthetic:synthesize_fleet", "span", None),
    ("repro.io.wire", "requests_to_bytes", "io.wire:encode", "span", _count_encoded),
    ("repro.io.wire", "save_requests", "io.wire:encode", "span", _count_file),
    ("repro.io.wire", "save_report", "io.wire:encode", "span", _count_saved),
    ("repro.io.wire", "requests_from_bytes", "io.wire:decode", "span", _count_decoded),
    ("repro.io.wire", "load_requests", "io.wire:decode", "span", _count_file),
    ("repro.io.wire", "load_report", "io.wire:decode", "span", _count_file),
    ("repro.io.wire", "payload_info", "io.wire:decode", "span", None),
    ("repro.service.service", "UpdateService.update_fleet", "service.service:update_fleet", "span", None),
    ("repro.service.prepare", "prepare_request", "service.prepare:prepare_request", "span", None),
    ("repro.service.shard", "plan_shards", "service.shard:plan_shards", "span", _count_shards),
    ("repro.service.executor", "SerialExecutor.execute", "service.executor:execute", "span", _count_fallbacks),
    ("repro.core.stacked", "solve_shard", "core.stacked:solve_shard", "span", None),
    ("repro.core.stacked", "run_stacked_sweeps", "core.stacked:run_stacked_sweeps", "span", _count_sweeps),
    ("repro.utils.linalg", "stacked_rank_solve", "core.stacked:stacked_rank_solve", "span", None),
    ("repro.core.self_augmented", "SweepState.begin_sweep", "core.self_augmented:begin_sweep", "span", None),
    ("repro.core.self_augmented", "SweepState.right_systems", "core.self_augmented:right_systems", "span", None),
    ("repro.core.self_augmented", "SweepState.left_systems", "core.self_augmented:left_systems", "span", None),
    ("repro.core.self_augmented", "SweepState.finish_sweep", "core.self_augmented:finish_sweep", "span", None),
    ("repro.core.self_augmented", "SweepState.warm_start", "core.self_augmented:warm_start", "span", None),
    ("repro.core.self_augmented", "SweepState.finalize", "core.self_augmented:finalize", "span", _count_budget_stop),
    ("repro.query.index", "QueryIndex.build", "query.index:build", "span", None),
    ("repro.query.index", "indexes_from_report", "query.index:indexes_from_report", "span", None),
    ("repro.query.matchers", "bind_matcher", "query.matchers:bind", "span", None),
    ("repro.query.matchers", "BoundMatcher.localize", "query.matchers:localize", "span", _count_rows),
    ("repro.query.cache", "ResultCache.key", "query.cache:key", "span", None),
    ("repro.query.cache", "ResultCache.get", "query.cache:get", "span", _count_lookup),
    ("repro.query.cache", "ResultCache.put", "query.cache:put", "span", None),
    ("repro.query.engine", "QueryEngine.localize_batch", "query.engine:localize_batch", "span", None),
    ("repro.query.engine", "QueryEngine.publish_indexes", "query.engine:publish", "span", None),
    ("repro.query.engine", "QueryEngine.publish_report", "query.engine:publish", "span", None),
    ("repro.daemon.http", "DaemonRequestHandler.do_GET", "daemon.http:other", "route", _http_route),
    ("repro.daemon.http", "DaemonRequestHandler.do_POST", "daemon.http:other", "route", _http_route),
    ("repro.daemon.queue", "JobQueue.submit", "daemon.queue:submit", "span", None),
    ("repro.daemon.queue", "JobQueue.claim", "daemon.queue:claim", "span", None),
    ("repro.daemon.queue", "JobQueue.complete", "daemon.queue:complete", "span", None),
    ("repro.daemon.queue", "JobQueue.fail", "daemon.queue:fail", "span", None),
    ("repro.daemon.coordinator", "Coordinator.submit", "daemon.coordinator:submit", "span", None),
    ("repro.daemon.coordinator", "Coordinator.localize", "daemon.coordinator:localize", "span", None),
)


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Rebind every ``repro`` module attribute that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install_layers(tracer: Tracer) -> None:
    """Import every target module and wrap its callables for ``tracer``."""
    importlib.import_module("repro")
    modules = {spec[0]: importlib.import_module(spec[0]) for spec in LAYER_TARGETS}
    for module_name, path, name, kind, hook in LAYER_TARGETS:
        owner = modules[module_name]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        if kind == "count":
            wrapped = tracer.counter(name, function)
        elif kind == "route":
            wrapped = tracer.span(name, function, name_of=hook)
        else:
            wrapped = tracer.span(name, function, on_result=hook)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        elif len(parts) > 1:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(raw, wrapped)


# ----------------------------------------------------------------- metrics
def _self(agg: dict, *names: str) -> float:
    return float(sum(agg[name][2] for name in names if name in agg))


def _layer_self(agg: dict, layer: str) -> float:
    return float(sum(v[2] for k, v in agg.items() if k.split(":", 1)[0] == layer))


def _count(agg: dict, name: str) -> int:
    return int(agg[name][0]) if name in agg else 0


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def layer_metrics(snapshot: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced phase (0 where a layer did not run)."""
    agg = snapshot["agg"]
    counters = snapshot["counters"]
    sites = counters.get("core.self_augmented.sites", 0)
    lookups = counters.get("query.cache.lookups", 0)
    return {
        "rf.mean_rss_calls": _count(agg, "rf:mean_rss_dbm"),
        "rf.drift_calls": int(counters.get("rf.drift_calls", 0)),
        "rf.self_s": _layer_self(agg, "rf"),
        "simulation.collect_s": _layer_self(agg, "simulation"),
        "core.mic.self_s": _layer_self(agg, "core.mic"),
        "core.lrr.self_s": _layer_self(agg, "core.lrr"),
        "io.wire.encode_s": _self(agg, "io.wire:encode"),
        "io.wire.decode_s": _self(agg, "io.wire:decode"),
        "io.wire.bytes": int(counters.get("io.wire.bytes", 0)),
        "service.prepare.self_s": _layer_self(agg, "service.prepare"),
        "service.shard.plan_s": _layer_self(agg, "service.shard"),
        "service.shard.shards": int(counters.get("service.shard.shards", 0)),
        "service.executor.fallbacks": int(counters.get("service.executor.fallbacks", 0)),
        "core.self_augmented.structure_s": _self(agg, "core.self_augmented:begin_sweep"),
        "core.self_augmented.systems_s": _self(
            agg, "core.self_augmented:right_systems", "core.self_augmented:left_systems"
        ),
        "core.self_augmented.objective_s": _self(
            agg, "core.self_augmented:finish_sweep", "core.self_augmented:warm_start"
        ),
        "core.self_augmented.finalize_s": _self(agg, "core.self_augmented:finalize"),
        "core.self_augmented.site_sweeps": _count(agg, "core.self_augmented:begin_sweep"),
        "core.self_augmented.sites": int(sites),
        "core.self_augmented.budget_stop_frac": (
            counters.get("core.self_augmented.budget_stops", 0) / sites if sites else 0.0
        ),
        "core.stacked.lapack_s": _self(agg, "core.stacked:stacked_rank_solve"),
        "core.stacked.lapack_calls": _count(agg, "core.stacked:stacked_rank_solve"),
        "core.stacked.sweeps": int(counters.get("core.stacked.sweeps", 0)),
        "query.index.build_s": _layer_self(agg, "query.index"),
        "query.matchers.bind_s": _self(agg, "query.matchers:bind"),
        "query.matchers.match_s": _self(agg, "query.matchers:localize"),
        "query.matchers.rows": int(counters.get("query.matchers.rows", 0)),
        "query.cache.lookup_s": _layer_self(agg, "query.cache"),
        "query.cache.lookups": int(lookups),
        "query.cache.hit_rate": counters.get("query.cache.hits", 0) / lookups if lookups else 0.0,
        "query.engine.self_s": _layer_self(agg, "query.engine"),
        "daemon.http.submit_ms_p50": 1e3 * _median(
            snapshot["durations"].get("daemon.http:submit", [])
        ),
    }


def self_time_total(snapshot: dict) -> float:
    """Summed self time of every span in the snapshot."""
    return float(sum(v[2] for v in snapshot["agg"].values()))


def top_self(snapshot: dict, limit: int = 5) -> List[Tuple[str, float]]:
    """The spans with the most self time, largest first."""
    items = sorted(snapshot["agg"].items(), key=lambda kv: kv[1][2], reverse=True)
    return [(name, float(v[2])) for name, v in items[:limit]]
