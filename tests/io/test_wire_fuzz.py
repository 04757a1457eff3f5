"""Seeded fuzzing of every NPZ wire payload family.

Random truncation and bit-flips of a payload — shard task and result,
requests, report, delta, queries, answers — must either raise the typed
validation error (:class:`~repro.io.wire.WirePayloadError`) or — when the
mutation happens to land in bytes the codec provably ignores — decode to
content identical to the original.  Never a silent wrong result, never an
unhandled exception (``zlib.error``, ``zipfile.BadZipFile``, ``EOFError``,
...) leaking from the codec.

The NPZ container's zip CRCs catch most flips; the manifest and shard
fingerprint catch the rest (a flipped attempt number is the one field
deliberately outside the fingerprint — idempotency keys must not change
across retries — so the harness verifies solve-relevant content instead of
insisting on an error).
"""

import dataclasses
import io

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io.delta import apply_delta, load_delta, save_delta
from repro.io.query import load_answers, load_queries, save_answers, save_queries
from repro.io.wire import (
    WirePayloadError,
    load_report,
    requests_from_bytes,
    requests_to_bytes,
    save_report,
    shard_fingerprint,
    shard_result_from_bytes,
    shard_result_to_bytes,
    shard_task_from_bytes,
    shard_task_to_bytes,
)
from repro.query import QueryAnswer, QueryBatch, grid_locations
from repro.service.remote import _solve_shard_payload
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet
from repro.service.types import FleetReport

FUZZ_ROUNDS = 120
FAMILY_FUZZ_ROUNDS = 200
SEED = 0x5EED


@pytest.fixture(scope="module")
def requests_payload():
    requests = synthesize_fleet(
        2,
        link_count=3,
        locations_per_link=3,
        seed=5,
        updater=UpdaterConfig(solver=SelfAugmentedConfig(max_iterations=3)),
    )
    return requests_to_bytes(requests)


@pytest.fixture(scope="module")
def task_payload(requests_payload):
    return shard_task_to_bytes(requests_payload, shard_index=0, attempt=1)


@pytest.fixture(scope="module")
def result_payload(requests_payload):
    result = _solve_shard_payload(requests_payload, 0)
    fingerprint = shard_fingerprint(requests_payload, 0)
    return shard_result_to_bytes(result, fingerprint=fingerprint, shard_index=0)


def _mutations(data, rng, rounds):
    """Yield ``rounds`` random corruptions: truncations and bit-flips."""
    for round_index in range(rounds):
        corrupted = bytearray(data)
        if round_index % 3 == 0:
            # Truncate at a random point (including to empty).
            cut = int(rng.integers(0, len(corrupted)))
            corrupted = corrupted[:cut]
        else:
            # Flip 1..8 random bits.
            for _ in range(int(rng.integers(1, 9))):
                offset = int(rng.integers(0, len(corrupted)))
                corrupted[offset] ^= 1 << int(rng.integers(0, 8))
        if bytes(corrupted) != bytes(data):
            yield bytes(corrupted)


def _results_equal(a, b):
    """Bit-exact equality of two decoded shard results."""
    if a.sweeps != b.sweeps or a.fallback != b.fallback:
        return False
    if len(a.results) != len(b.results):
        return False
    for left, right in zip(a.results, b.results):
        if not (
            np.array_equal(left.estimate, right.estimate)
            and np.array_equal(left.left, right.left)
            and np.array_equal(left.right, right.right)
            and left.objective == right.objective
            and left.iterations == right.iterations
            and left.converged == right.converged
            and left.reference_weight == right.reference_weight
            and left.structure_weight == right.structure_weight
        ):
            return False
    return True


class TestShardTaskFuzz:
    def test_corrupted_tasks_never_decode_silently_wrong(self, task_payload):
        rng = np.random.default_rng(SEED)
        original = shard_task_from_bytes(task_payload)
        rejected = 0
        for corrupted in _mutations(task_payload, rng, FUZZ_ROUNDS):
            try:
                decoded = shard_task_from_bytes(corrupted)
            except WirePayloadError:
                rejected += 1
                continue
            # Decoded despite corruption: every solve-relevant field must be
            # provably untouched (the fingerprint pins shard_index + bytes).
            assert decoded.requests_payload == original.requests_payload
            assert decoded.shard_index == original.shard_index
            assert decoded.fingerprint == original.fingerprint
        # The harness actually exercised the error path, not a no-op corpus.
        assert rejected > FUZZ_ROUNDS // 2

    def test_truncation_to_empty_is_rejected(self):
        with pytest.raises(WirePayloadError):
            shard_task_from_bytes(b"")

    def test_wrong_format_tag_is_rejected(self, requests_payload):
        with pytest.raises(WirePayloadError, match="format"):
            shard_task_from_bytes(requests_payload)

    def test_fingerprint_tamper_is_rejected(self, requests_payload):
        """A recorded fingerprint that does not hash the bytes must not pass."""
        import io

        from repro.io.wire import SHARD_TASK_FORMAT, WIRE_VERSION, _write_payload

        manifest = {
            "format": SHARD_TASK_FORMAT,
            "version": WIRE_VERSION,
            "shard_index": 3,
            "attempt": 0,
            "fingerprint": "0" * 64,
        }
        buffer = io.BytesIO()
        _write_payload(
            buffer,
            manifest,
            {"requests_payload": np.frombuffer(requests_payload, dtype=np.uint8)},
        )
        with pytest.raises(WirePayloadError, match="fingerprint"):
            shard_task_from_bytes(buffer.getvalue())


class TestShardResultFuzz:
    def test_corrupted_results_never_decode_silently_wrong(self, result_payload):
        rng = np.random.default_rng(SEED + 1)
        original, fingerprint, shard_index = shard_result_from_bytes(
            result_payload
        )
        rejected = 0
        for corrupted in _mutations(result_payload, rng, FUZZ_ROUNDS):
            try:
                decoded, got_fp, got_index = shard_result_from_bytes(corrupted)
            except WirePayloadError:
                rejected += 1
                continue
            assert got_fp == fingerprint
            assert got_index == shard_index
            assert _results_equal(decoded, original)
        assert rejected > FUZZ_ROUNDS // 2

    def test_truncation_to_empty_is_rejected(self):
        with pytest.raises(WirePayloadError):
            shard_result_from_bytes(b"")

    def test_wrong_format_tag_is_rejected(self, task_payload):
        with pytest.raises(WirePayloadError, match="format"):
            shard_result_from_bytes(task_payload)

    def test_nonfinite_values_are_rejected(self, requests_payload):
        result = _solve_shard_payload(requests_payload, 0)
        poisoned = result.results[0].estimate.copy()
        poisoned[0, 0] = np.nan
        bad = result.results[0].__class__(
            estimate=poisoned,
            left=result.results[0].left,
            right=result.results[0].right,
            objective=result.results[0].objective,
            iterations=result.results[0].iterations,
            converged=result.results[0].converged,
            reference_weight=result.results[0].reference_weight,
            structure_weight=result.results[0].structure_weight,
        )
        payload = shard_result_to_bytes(
            result.__class__(
                results=(bad,) + result.results[1:],
                sweeps=result.sweeps,
                fallback=result.fallback,
            ),
            fingerprint=shard_fingerprint(requests_payload, 0),
            shard_index=0,
        )
        with pytest.raises(WirePayloadError, match="finite"):
            shard_result_from_bytes(payload)


def _same(a, b):
    """Bit-exact structural equality of decoded payload content."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _to_bytes(save, content):
    buffer = io.BytesIO()
    save(buffer, content)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def fleet_reports():
    """A base report, a full 3-site report, and a target whose delta
    against the base ships one site of each mode (same, patch, full)."""
    requests = synthesize_fleet(
        3,
        link_count=3,
        locations_per_link=3,
        seed=7,
        updater=UpdaterConfig(solver=SelfAugmentedConfig(max_iterations=3)),
    )

    def refresh(batch):
        return UpdateService().refresh_fleet(batch, elapsed_days=45.0)

    base = refresh(requests[:2])
    full = refresh(requests)
    drifted = base.reports[1]
    values = drifted.result.matrix.values.copy()
    values[0] += 0.25
    drifted = dataclasses.replace(
        drifted,
        result=dataclasses.replace(
            drifted.result,
            matrix=dataclasses.replace(drifted.result.matrix, values=values),
        ),
        sweeps=drifted.sweeps + 1,
    )
    target = FleetReport(
        elapsed_days=46.0,
        reports=(base.reports[0], drifted, full.reports[2]),
        executor="serial",
    )
    return base, full, target


@pytest.fixture(scope="module")
def family_codecs(requests_payload, fleet_reports):
    """family -> (payload bytes, decoder from bytes)."""
    base, full, target = fleet_reports
    rng = np.random.default_rng(3)
    batches = [
        QueryBatch(
            site="site-a",
            measurements=rng.normal(-60.0, 3.0, size=(5, 4)),
            true_indices=rng.integers(0, 24, size=5),
            locations=grid_locations(4, 6),
        ),
        QueryBatch(site="site-b", measurements=rng.normal(-55.0, 2.0, size=(3, 4))),
    ]
    answers = [
        QueryAnswer(
            site="site-a",
            matcher="knn",
            generation=2,
            indices=np.array([1, 5, 9]),
            points=rng.normal(size=(3, 2)),
            cache_hits=2,
        ),
        QueryAnswer(site="site-b", matcher="omp", generation=0, indices=np.array([4])),
    ]
    delta = io.BytesIO()
    save_delta(delta, base, target)
    assert set(load_delta(io.BytesIO(delta.getvalue())).modes.values()) == {
        "same",
        "patch",
        "full",
    }
    return {
        "requests": (requests_payload, requests_from_bytes),
        "report": (
            _to_bytes(save_report, full),
            lambda data: load_report(io.BytesIO(data)),
        ),
        "delta": (
            delta.getvalue(),
            lambda data: apply_delta(base, load_delta(io.BytesIO(data))),
        ),
        "queries": (
            _to_bytes(save_queries, batches),
            lambda data: load_queries(io.BytesIO(data)),
        ),
        "answers": (
            _to_bytes(save_answers, answers),
            lambda data: load_answers(io.BytesIO(data)),
        ),
    }


@pytest.mark.parametrize(
    "family, seed",
    [("requests", 2), ("report", 3), ("delta", 4), ("queries", 5), ("answers", 6)],
)
def test_corrupted_payloads_never_decode_silently_wrong(family, seed, family_codecs):
    data, decode = family_codecs[family]
    original = decode(data)
    rng = np.random.default_rng(SEED + seed)
    rejected = 0
    for corrupted in _mutations(data, rng, FAMILY_FUZZ_ROUNDS):
        try:
            decoded = decode(corrupted)
        except WirePayloadError:
            rejected += 1
            continue
        assert _same(decoded, original)
    assert rejected > FAMILY_FUZZ_ROUNDS // 2


class TestWirePayloadErrorTyping:
    def test_is_a_value_error(self):
        # Existing `except ValueError` call sites keep catching wire faults.
        assert issubclass(WirePayloadError, ValueError)
