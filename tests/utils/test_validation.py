"""Unit tests for :mod:`repro.utils.validation`."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils import validation


class TestAsFloatArray:
    def test_list_converted(self):
        array = validation.as_float_array([1, 2, 3])
        assert array.dtype == float

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            validation.as_float_array([1.0, np.nan])

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError):
            validation.as_float_array(["a", "b"])


class TestCheck2D:
    def test_accepts_matrix(self):
        matrix = validation.check_2d([[1.0, 2.0], [3.0, 4.0]])
        assert matrix.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            validation.check_2d([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validation.check_2d(np.zeros((0, 3)))


class TestCheck1D:
    def test_accepts_vector(self):
        assert validation.check_1d([1.0, 2.0]).shape == (2,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            validation.check_1d([[1.0], [2.0]])


class TestCheckMatchingShapes:
    def test_matching_ok(self):
        validation.check_matching_shapes(np.zeros((2, 2)), np.ones((2, 2)))

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            validation.check_matching_shapes(np.zeros((2, 2)), np.ones((2, 3)))


class TestIndexChecks:

    def test_check_indices_accepts_unique(self):
        result = validation.check_indices([0, 2, 4], 5)
        np.testing.assert_array_equal(result, [0, 2, 4])

    def test_check_indices_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validation.check_indices([1, 1], 5)

    def test_check_indices_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validation.check_indices([0, 7], 5)

    def test_check_indices_rejects_empty(self):
        with pytest.raises(ValueError):
            validation.check_indices([], 5)


#: Mostly 0s and 1s, plus every value whose verdict could go either way.
_MASK_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -0.0]),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.5, -1.0, 1.0 + 1e-16, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestCheckBinaryMask:
    @given(
        mask=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
            elements=_MASK_VALUES,
        )
    )
    @example(mask=np.array([[0.0, 1.0], [-0.0, 1.0]]))
    @example(mask=np.array([0.0, np.nan]))
    @example(mask=np.array([1.0, np.inf]))
    @example(mask=np.array([0.5]))
    def test_agrees_with_isin(self, mask):
        binary = bool(np.all(np.isin(mask, (0.0, 1.0))))
        if binary:
            assert validation.check_binary_mask(mask, "m") is mask
        else:
            with pytest.raises(ValueError, match="m must contain only 0 and 1"):
                validation.check_binary_mask(mask, "m")

