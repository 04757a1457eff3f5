"""Unit and property tests for :mod:`repro.fingerprint.matrix`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fingerprint.matrix import FingerprintMatrix


def make_matrix(links=4, width=6, fill=-60.0):
    values = np.full((links, links * width), fill)
    return FingerprintMatrix(values=values, locations_per_link=width)


class TestConstruction:
    def test_shape_properties(self, striped_fingerprint):
        assert striped_fingerprint.link_count == 4
        assert striped_fingerprint.location_count == 24
        assert striped_fingerprint.shape == (4, 24)

    def test_rejects_inconsistent_columns(self):
        with pytest.raises(ValueError):
            FingerprintMatrix(values=np.zeros((4, 23)), locations_per_link=6)

    def test_rejects_non_positive_stripe(self):
        with pytest.raises(ValueError):
            FingerprintMatrix(values=np.zeros((4, 24)), locations_per_link=0)

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(ValueError):
            FingerprintMatrix(
                values=np.zeros((4, 24)),
                locations_per_link=6,
                no_decrease_mask=np.zeros((4, 23)),
            )

    def test_rejects_non_binary_mask(self):
        with pytest.raises(ValueError):
            FingerprintMatrix(
                values=np.zeros((4, 24)),
                locations_per_link=6,
                no_decrease_mask=np.full((4, 24), 0.5),
            )

    def test_default_mask_structural(self):
        matrix = make_matrix()
        mask = matrix.index_matrix()
        # Own link and adjacent links are labor-cost entries (mask 0).
        assert mask[0, 0] == 0.0
        assert mask[1, 0] == 0.0
        assert mask[2, 0] == 1.0
        assert mask[3, 0] == 1.0

    def test_copy_is_deep(self, striped_fingerprint):
        clone = striped_fingerprint.copy()
        clone.values[0, 0] = 0.0
        assert striped_fingerprint.values[0, 0] != 0.0


class TestStripeMath:
    def test_link_of_column(self):
        matrix = make_matrix(links=3, width=5)
        assert matrix.link_of_column(0) == 0
        assert matrix.link_of_column(4) == 0
        assert matrix.link_of_column(5) == 1
        assert matrix.link_of_column(14) == 2

    def test_stripe_columns(self):
        matrix = make_matrix(links=3, width=5)
        stripe = [j for j in range(15) if matrix.link_of_column(j) == 1]
        assert stripe == [5, 6, 7, 8, 9]

    def test_out_of_range_rejected(self):
        matrix = make_matrix()
        with pytest.raises(ValueError):
            matrix.link_of_column(99)


class TestDerivedMatrices:
    def test_largely_decrease_shape(self, striped_fingerprint):
        xd = striped_fingerprint.largely_decrease_matrix()
        assert xd.shape == (4, 6)

    def test_largely_decrease_values_match_diagonal_stripes(self, striped_fingerprint):
        xd = striped_fingerprint.largely_decrease_matrix()
        for i in range(4):
            np.testing.assert_allclose(
                xd[i], striped_fingerprint.values[i, i * 6 : (i + 1) * 6]
            )

    def test_no_decrease_matrix_is_masked(self, striped_fingerprint):
        xb = striped_fingerprint.no_decrease_matrix()
        mask = striped_fingerprint.index_matrix()
        np.testing.assert_allclose(xb, striped_fingerprint.values * mask)

    def test_columns_extraction(self, striped_fingerprint):
        columns = striped_fingerprint.columns([0, 5, 10])
        assert columns.shape == (4, 3)
        np.testing.assert_allclose(columns[:, 1], striped_fingerprint.values[:, 5])

    def test_column_extraction_single(self, striped_fingerprint):
        np.testing.assert_allclose(
            striped_fingerprint.column(3), striped_fingerprint.values[:, 3]
        )

    def test_column_out_of_range(self, striped_fingerprint):
        with pytest.raises(ValueError):
            striped_fingerprint.column(99)


class TestMetrics:
    def test_reconstruction_error_zero_for_identical(self, striped_fingerprint):
        assert striped_fingerprint.reconstruction_error_db(striped_fingerprint) == 0.0

    def test_reconstruction_error_of_offset(self, striped_fingerprint):
        other = striped_fingerprint.values + 2.0
        assert striped_fingerprint.reconstruction_error_db(other) == pytest.approx(2.0)

    def test_per_column_errors_shape(self, striped_fingerprint):
        errors = striped_fingerprint.per_column_errors_db(striped_fingerprint.values + 1.0)
        assert errors.shape == (24,)
        np.testing.assert_allclose(errors, 1.0)

    def test_shape_mismatch_rejected(self, striped_fingerprint):
        with pytest.raises(ValueError):
            striped_fingerprint.reconstruction_error_db(np.zeros((4, 23)))

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_error_equals_absolute_offset(self, offset):
        matrix = make_matrix()
        assert matrix.reconstruction_error_db(matrix.values + offset) == pytest.approx(
            abs(offset)
        )
