"""Batch-vs-loop parity of every matcher.

The central pin of the read path: for each matcher (kNN / OMP / SVR / RASS)
the vectorized path must reproduce the per-query looped oracle
(:func:`tests.oracles.localize_looped`) — identical grid indices and
coordinates within 1e-10 — so the serving engine can ride the GEMM path
without changing any answer.
"""

import numpy as np
import pytest

from repro.localization.knn import KNNConfig, KNNLocalizer
from repro.localization.omp import OMPConfig
from repro.query import QueryIndex, bind_matcher, grid_locations
from repro.query.matchers import MATCHERS, _snap_to_grid
from tests.oracles import localize_looped

PARITY_ATOL = 1e-10


def _answer_pair(matcher, index, measurements, **configs):
    """``(vectorized answer, looped-oracle answer)`` of one bound matcher."""
    bound = bind_matcher(matcher, index, **configs)
    return bound.localize(measurements), localize_looped(bound, measurements)


class TestBackendParity:
    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_vectorized_matches_looped(self, matcher, query_index, noisy_queries):
        measurements, _ = noisy_queries
        (v_indices, v_points), (l_indices, l_points) = _answer_pair(
            matcher, query_index, measurements
        )
        np.testing.assert_array_equal(v_indices, l_indices)
        np.testing.assert_allclose(v_points, l_points, atol=PARITY_ATOL)

    @pytest.mark.parametrize("matcher", ("knn", "omp"))
    def test_parity_without_locations(self, matcher, striped_fingerprint, noisy_queries):
        measurements, _ = noisy_queries
        index = QueryIndex.build("site", striped_fingerprint)
        (v_indices, v_points), (l_indices, l_points) = _answer_pair(
            matcher, index, measurements
        )
        np.testing.assert_array_equal(v_indices, l_indices)
        assert v_points is None and l_points is None

    def test_knn_parity_uncentered_unweighted(self, query_index, noisy_queries):
        measurements, _ = noisy_queries
        config = KNNConfig(neighbours=1, weighted=False, center_columns=False)
        (v_indices, v_points), (l_indices, l_points) = _answer_pair(
            "knn", query_index, measurements, knn=config
        )
        np.testing.assert_array_equal(v_indices, l_indices)
        np.testing.assert_allclose(v_points, l_points, atol=PARITY_ATOL)

    def test_omp_multi_atom_parity(self, query_index, noisy_queries):
        measurements, _ = noisy_queries
        config = OMPConfig(sparsity=3)
        (v_indices, v_points), (l_indices, l_points) = _answer_pair(
            "omp", query_index, measurements, omp=config
        )
        np.testing.assert_array_equal(v_indices, l_indices)
        np.testing.assert_allclose(v_points, l_points, atol=PARITY_ATOL)

    def test_single_query_batch(self, query_index, striped_fingerprint):
        measurement = striped_fingerprint.column(7)[None, :]
        for matcher in MATCHERS:
            (v_indices, _), (l_indices, _) = _answer_pair(
                matcher, query_index, measurement
            )
            np.testing.assert_array_equal(v_indices, l_indices)


class TestKNNOneDistancePass:
    """The bound kNN matcher derives its indices and points from one
    ``(B, N)`` distance matrix; the answers must equal the two separate
    batched calls (each computing its own distances) bit for bit."""

    @pytest.mark.parametrize("batch", (1, 64))
    @pytest.mark.parametrize("with_locations", (True, False))
    @pytest.mark.parametrize(
        "config",
        (KNNConfig(), KNNConfig(neighbours=1, weighted=False, center_columns=False)),
        ids=("default", "nearest-uncentered"),
    )
    def test_answers_equal_separate_calls(
        self, striped_fingerprint, rng, batch, with_locations, config
    ):
        matrix = striped_fingerprint
        locations = (
            grid_locations(matrix.link_count, matrix.locations_per_link)
            if with_locations
            else None
        )
        index = QueryIndex.build("site", matrix, locations=locations)
        columns = rng.integers(0, matrix.location_count, size=batch)
        measurements = matrix.values.T[columns] + rng.normal(
            0.0, 0.15, size=(batch, matrix.link_count)
        )
        indices, points = bind_matcher("knn", index, knn=config).localize(
            measurements
        )
        separate = KNNLocalizer(index.values, index.locations, config)
        expected = separate.localize_batch(measurements)
        assert indices.dtype == expected.dtype
        np.testing.assert_array_equal(indices, expected)
        if with_locations:
            expected_points = separate.localize_points_batch(measurements)
            assert points.shape == expected_points.shape
            assert points.tobytes() == expected_points.tobytes()
        else:
            assert points is None

    def test_one_distance_matrix_per_batch(
        self, query_index, noisy_queries, monkeypatch
    ):
        measurements, _ = noisy_queries
        calls = []
        original = KNNLocalizer._distances_batch

        def counting(self, batch):
            calls.append(batch.shape)
            return original(self, batch)

        monkeypatch.setattr(KNNLocalizer, "_distances_batch", counting)
        bind_matcher("knn", query_index).localize(measurements)
        assert calls == [measurements.shape]


class TestMatcherBehaviour:
    def test_knn_recovers_exact_columns(self, query_index, striped_fingerprint):
        matcher = bind_matcher("knn", query_index)
        indices, _ = matcher.localize(striped_fingerprint.values.T[:6])
        np.testing.assert_array_equal(indices, np.arange(6))

    def test_omp_recovers_exact_columns(self, query_index, striped_fingerprint):
        matcher = bind_matcher("omp", query_index)
        indices, _ = matcher.localize(striped_fingerprint.values.T[:6])
        np.testing.assert_array_equal(indices, np.arange(6))

    def test_svr_differs_from_rass_by_centering(self, query_index):
        svr = bind_matcher("svr", query_index)
        rass = bind_matcher("rass", query_index)
        assert svr.config.center_features is False
        assert rass.config.center_features is True
        assert svr.name == "svr"
        assert rass.name == "rass"

    def test_rass_requires_locations(self, striped_fingerprint):
        index = QueryIndex.build("site", striped_fingerprint)
        for name in ("svr", "rass"):
            with pytest.raises(ValueError, match="location table"):
                bind_matcher(name, index)

    def test_unknown_matcher_and_backend_rejected(self, query_index):
        with pytest.raises(ValueError, match="unknown matcher"):
            bind_matcher("nearest", query_index)
        # Matching has a single path: the backend argument is gone.
        with pytest.raises(TypeError):
            bind_matcher("knn", query_index, backend="vectorized")

    def test_snap_to_grid_recovers_exact_points(self):
        locations = grid_locations(3, 4)
        np.testing.assert_array_equal(
            _snap_to_grid(locations[[2, 7, 11]], locations), [2, 7, 11]
        )
