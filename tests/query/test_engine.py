"""Unit tests for :mod:`repro.query.engine` (serving, cache, generations)."""

import numpy as np
import pytest

from repro.query import (
    GenerationStore,
    QueryBatch,
    QueryConfig,
    QueryEngine,
    QueryIndex,
    bind_matcher,
)
from repro.query.cache import ResultCache
from repro.query.engine import BoundSite


def _bound_site(index):
    return BoundSite(index=index, matcher=bind_matcher("knn", index))


class TestQueryConfig:
    def test_defaults_valid(self):
        config = QueryConfig()
        assert config.matcher == "knn"
        assert config.cache_size == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"matcher": "nearest"},
            {"cache_quantum_db": -0.25},
            {"cache_size": -1},
            {"cache_quantum_db": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QueryConfig(**kwargs)

    @pytest.mark.parametrize("quantum", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_quantum_rejected(self, quantum):
        # A NaN quantum turns every key into INT64_MIN and an infinite one
        # rounds every row to 0: one cached answer would serve every query.
        with pytest.raises(ValueError, match="finite"):
            QueryConfig(cache_size=16, cache_quantum_db=quantum)
        with pytest.raises(ValueError, match="finite"):
            ResultCache(16, quantum)


class TestGenerationStore:
    def test_current_before_publish_raises(self):
        with pytest.raises(RuntimeError, match="no database generation"):
            GenerationStore().current()

    def test_publish_assigns_ordinals(self, query_index):
        store = GenerationStore()
        first = store.publish({"a": _bound_site(query_index)})
        second = store.publish({"a": _bound_site(query_index)}, label="fresh")
        assert (first.ordinal, second.ordinal) == (0, 1)
        assert second.label == "fresh"
        assert store.current() is second
        assert store.generation_count == 2

    def test_empty_generation_rejected(self):
        with pytest.raises(ValueError, match="no sites"):
            GenerationStore().publish({})


class TestQueryEngineServing:
    def test_publish_report_and_serve(self, refreshed_fleet):
        engine = QueryEngine()
        generation = engine.publish_report(refreshed_fleet)
        assert generation.label == "refresh@45d"
        assert engine.sites == tuple(sorted(refreshed_fleet.sites))

        site = refreshed_fleet.sites[0]
        matrix = refreshed_fleet.report_for(site).matrix
        answer = engine.localize_batch(site, matrix.values.T[:5])
        np.testing.assert_array_equal(answer.indices, np.arange(5))
        assert answer.points is not None and answer.points.shape == (5, 2)
        assert answer.generation == generation.ordinal
        assert answer.matcher == "knn"

    def test_sites_empty_before_publish(self):
        assert QueryEngine().sites == ()

    def test_serving_before_publish_raises(self, striped_fingerprint):
        with pytest.raises(RuntimeError, match="publish"):
            QueryEngine().localize_batch("site", striped_fingerprint.values.T[:2])

    def test_unknown_site_rejected(self, refreshed_fleet):
        engine = QueryEngine()
        engine.publish_report(refreshed_fleet)
        queries = np.zeros((1, 4))
        with pytest.raises(ValueError, match="unknown site"):
            engine.localize_batch("nowhere", queries)

    def test_wrong_link_count_rejected(self, refreshed_fleet):
        engine = QueryEngine()
        engine.publish_report(refreshed_fleet)
        with pytest.raises(ValueError, match="columns"):
            engine.localize_batch(refreshed_fleet.sites[0], np.zeros((2, 9)))

    def test_answer_echoes_batch_site(self, refreshed_fleet):
        engine = QueryEngine()
        engine.publish_report(refreshed_fleet)
        site = refreshed_fleet.sites[1]
        matrix = refreshed_fleet.report_for(site).matrix
        batch = QueryBatch(site=site, measurements=matrix.values.T[:3])
        answer = engine.answer(batch)
        assert answer.site == site
        assert answer.count == 3

    def test_publish_indexes_without_locations(self, striped_fingerprint):
        engine = QueryEngine()
        index = QueryIndex.build("bare", striped_fingerprint)
        engine.publish_indexes({"bare": index})
        answer = engine.localize_batch("bare", striped_fingerprint.values.T[:4])
        np.testing.assert_array_equal(answer.indices, np.arange(4))
        assert answer.points is None

    def test_answer_independent_of_batch_layout(self, refreshed_fleet, rng):
        site = refreshed_fleet.sites[0]
        matrix = refreshed_fleet.report_for(site).matrix
        queries = matrix.values.T[rng.integers(0, matrix.location_count, 40)]
        queries = queries + rng.normal(0.0, 0.5, queries.shape)
        answers = []
        for cache_size in (0, 64):
            for batch in (np.ascontiguousarray(queries), np.asfortranarray(queries)):
                engine = QueryEngine(QueryConfig(cache_size=cache_size))
                engine.publish_report(refreshed_fleet)
                answers.append(engine.localize_batch(site, batch))
        for answer in answers[1:]:
            assert np.array_equal(answer.indices, answers[0].indices)
            assert np.array_equal(answer.points, answers[0].points)


class TestResultCaching:
    @pytest.fixture()
    def cached_engine(self, query_index):
        engine = QueryEngine(QueryConfig(cache_size=64))
        engine.publish_indexes({"test-site": query_index})
        return engine

    def test_repeat_batch_hits_cache(self, cached_engine, noisy_queries):
        measurements, _ = noisy_queries
        cold = cached_engine.localize_batch("test-site", measurements)
        warm = cached_engine.localize_batch("test-site", measurements)
        assert cold.cache_hits == 0
        assert warm.cache_hits == measurements.shape[0]
        np.testing.assert_array_equal(warm.indices, cold.indices)
        np.testing.assert_allclose(warm.points, cold.points)
        assert cached_engine.cache_stats.hits == measurements.shape[0]

    def test_partial_hits_assemble_correctly(self, cached_engine, noisy_queries):
        measurements, _ = noisy_queries
        half = measurements[: measurements.shape[0] // 2]
        cached_engine.localize_batch("test-site", half)
        full = cached_engine.localize_batch("test-site", measurements)
        assert full.cache_hits == half.shape[0]
        uncached = QueryEngine()
        uncached.publish_indexes(
            {"test-site": cached_engine.store.current().sites["test-site"].index}
        )
        exact = uncached.localize_batch("test-site", measurements)
        np.testing.assert_array_equal(full.indices, exact.indices)
        np.testing.assert_allclose(full.points, exact.points)

    def test_answers_do_not_alias_cache_entries(self, cached_engine, noisy_queries):
        measurements, _ = noisy_queries
        cold = cached_engine.localize_batch("test-site", measurements)
        expected = cold.points.copy()
        cold.points[:] = 0.0
        warm = cached_engine.localize_batch("test-site", measurements)
        np.testing.assert_array_equal(warm.points, expected)
        warm.points[:] = 1.0
        again = cached_engine.localize_batch("test-site", measurements)
        np.testing.assert_array_equal(again.points, expected)

    def test_new_generation_invalidates(self, cached_engine, query_index, noisy_queries):
        measurements, _ = noisy_queries
        cached_engine.localize_batch("test-site", measurements)
        cached_engine.publish_indexes({"test-site": query_index})
        refreshed = cached_engine.localize_batch("test-site", measurements)
        assert refreshed.cache_hits == 0  # keys carry the generation ordinal

    def test_quantization_shares_nearby_queries(self, query_index, striped_fingerprint):
        engine = QueryEngine(QueryConfig(cache_size=8, cache_quantum_db=1.0))
        engine.publish_indexes({"test-site": query_index})
        base = striped_fingerprint.values.T[:1]
        engine.localize_batch("test-site", base)
        nudged = engine.localize_batch("test-site", base + 0.01)
        assert nudged.cache_hits == 1

    def test_disabled_cache_reports_no_hits(self, query_index, noisy_queries):
        measurements, _ = noisy_queries
        engine = QueryEngine()
        engine.publish_indexes({"test-site": query_index})
        engine.localize_batch("test-site", measurements)
        again = engine.localize_batch("test-site", measurements)
        assert again.cache_hits == 0
        assert engine.cache_stats.capacity == 0
