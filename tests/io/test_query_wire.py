"""Round-trips and corruption handling of the query/answer wire payloads."""

import json

import numpy as np
import pytest

from repro.io import (
    ANSWERS_FORMAT,
    QUERIES_FORMAT,
    WirePayloadError,
    load_answers,
    load_queries,
    payload_info,
    save_answers,
    save_queries,
)
from repro.query import QueryAnswer, QueryBatch, grid_locations


@pytest.fixture()
def batches(rng):
    locations = grid_locations(4, 6)
    truth = rng.integers(0, 24, size=5)
    return [
        QueryBatch(
            site="site-a",
            measurements=rng.normal(-60.0, 3.0, size=(5, 4)),
            true_indices=truth,
            locations=locations,
        ),
        QueryBatch(site="site-b", measurements=rng.normal(-55.0, 2.0, size=(3, 4))),
    ]


@pytest.fixture()
def answers(rng):
    return [
        QueryAnswer(
            site="site-a",
            matcher="knn",
            generation=2,
            indices=np.array([1, 5, 9]),
            points=rng.normal(size=(3, 2)),
            cache_hits=2,
        ),
        QueryAnswer(
            site="site-b",
            matcher="omp",
            generation=0,
            indices=np.array([4]),
        ),
    ]


def _rewrite_manifest(src, dst, mutate):
    with np.load(src, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        manifest = json.loads(str(payload["manifest"][()]))
    mutate(manifest)
    np.savez_compressed(dst, manifest=np.asarray(json.dumps(manifest)), **arrays)


class TestQueriesRoundTrip:
    def test_everything_preserved_exactly(self, batches, tmp_path):
        path = tmp_path / "queries.npz"
        save_queries(path, batches)
        loaded = load_queries(path)
        assert len(loaded) == 2
        for original, copy in zip(batches, loaded):
            assert copy.site == original.site
            np.testing.assert_array_equal(copy.measurements, original.measurements)
        np.testing.assert_array_equal(loaded[0].true_indices, batches[0].true_indices)
        np.testing.assert_array_equal(loaded[0].locations, batches[0].locations)
        assert loaded[1].true_indices is None
        assert loaded[1].locations is None

    def test_payload_info(self, batches, tmp_path):
        path = tmp_path / "queries.npz"
        save_queries(path, batches)
        info = payload_info(path)
        assert info["format"] == QUERIES_FORMAT
        assert info["count"] == 2

    def test_empty_workload_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_queries(tmp_path / "queries.npz", [])

    def test_non_batch_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_queries(tmp_path / "queries.npz", [np.zeros((2, 2))])


class TestAnswersRoundTrip:
    def test_everything_preserved_exactly(self, answers, tmp_path):
        path = tmp_path / "answers.npz"
        save_answers(path, answers)
        loaded = load_answers(path)
        assert len(loaded) == 2
        first, second = loaded
        assert (first.site, first.matcher) == ("site-a", "knn")
        assert first.generation == 2
        assert first.cache_hits == 2
        np.testing.assert_array_equal(first.indices, answers[0].indices)
        np.testing.assert_array_equal(first.points, answers[0].points)
        assert second.points is None
        assert second.cache_hits == 0

    def test_payload_info(self, answers, tmp_path):
        path = tmp_path / "answers.npz"
        save_answers(path, answers)
        assert payload_info(path)["format"] == ANSWERS_FORMAT

    def test_empty_answer_set_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            save_answers(tmp_path / "answers.npz", [])


class TestCorruptQueryPayloads:
    def test_loaders_reject_each_others_payloads(self, batches, answers, tmp_path):
        queries_path = tmp_path / "queries.npz"
        answers_path = tmp_path / "answers.npz"
        save_queries(queries_path, batches)
        save_answers(answers_path, answers)
        with pytest.raises(WirePayloadError, match=f"expected '{QUERIES_FORMAT}'"):
            load_queries(answers_path)
        with pytest.raises(WirePayloadError, match=f"expected '{ANSWERS_FORMAT}'"):
            load_answers(queries_path)

    def test_count_mismatch(self, batches, tmp_path):
        src = tmp_path / "queries.npz"
        dst = tmp_path / "bad.npz"
        save_queries(src, batches)
        _rewrite_manifest(src, dst, lambda m: m.update(count=99))
        with pytest.raises(WirePayloadError, match="mismatch"):
            load_queries(dst)

    def test_batch_count_lie_detected(self, batches, tmp_path):
        src = tmp_path / "queries.npz"
        dst = tmp_path / "bad.npz"
        save_queries(src, batches)

        def mutate(manifest):
            manifest["batches"][0]["count"] = 1

        _rewrite_manifest(src, dst, mutate)
        with pytest.raises(WirePayloadError, match="corrupt query batch 0"):
            load_queries(dst)

    def test_missing_measurement_array(self, batches, tmp_path):
        src = tmp_path / "queries.npz"
        dst = tmp_path / "bad.npz"
        save_queries(src, batches)
        with np.load(src, allow_pickle=False) as payload:
            arrays = {
                key: payload[key]
                for key in payload.files
                if key not in ("manifest", "batch0001__measurements")
            }
            manifest = str(payload["manifest"][()])
        np.savez_compressed(dst, manifest=np.asarray(manifest), **arrays)
        with pytest.raises(WirePayloadError, match="corrupt query batch 1"):
            load_queries(dst)

    def test_answer_points_shape_lie_detected(self, answers, tmp_path):
        src = tmp_path / "answers.npz"
        dst = tmp_path / "bad.npz"
        save_answers(src, answers)

        def mutate(manifest):
            manifest["answers"][1]["has_points"] = True

        _rewrite_manifest(src, dst, mutate)
        with pytest.raises(WirePayloadError, match="corrupt answer 1"):
            load_answers(dst)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WirePayloadError, match="cannot read wire payload"):
            load_queries(tmp_path / "nope.npz")


class TestAnswerBackendKey:
    """The v1 per-answer ``backend`` key: written constant, read and ignored."""

    def _with_backend(self, answers, tmp_path, backend):
        src = tmp_path / "answers.npz"
        dst = tmp_path / "legacy.npz"
        save_answers(src, answers)

        def mutate(manifest):
            for entry in manifest["answers"]:
                entry["backend"] = backend

        _rewrite_manifest(src, dst, mutate)
        return dst

    def test_fresh_payload_carries_the_constant_key(self, answers, tmp_path):
        path = tmp_path / "answers.npz"
        save_answers(path, answers)
        with np.load(path, allow_pickle=False) as payload:
            manifest = json.loads(str(payload["manifest"][()]))
        assert [entry["backend"] for entry in manifest["answers"]] == [
            "vectorized",
            "vectorized",
        ]

    @pytest.mark.parametrize("backend", ("vectorized", "looped"))
    def test_historical_backends_load(self, answers, tmp_path, backend):
        loaded = load_answers(self._with_backend(answers, tmp_path, backend))
        np.testing.assert_array_equal(loaded[0].indices, answers[0].indices)
        np.testing.assert_array_equal(loaded[0].points, answers[0].points)

    @pytest.mark.parametrize("backend", ("gpu", None, 3))
    def test_unknown_backend_rejected(self, answers, tmp_path, backend):
        with pytest.raises(WirePayloadError, match="backend"):
            load_answers(self._with_backend(answers, tmp_path, backend))
