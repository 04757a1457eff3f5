"""Unit tests for :mod:`repro.fingerprint.masks`."""

import numpy as np
import pytest

from repro.environments import environment_by_name
from repro.environments.builder import build_deployment
from repro.fingerprint.masks import DecreaseClassification, ElementCategory, classify_elements
from tests.oracles import classify_elements_looped


class TestClassification:
    def test_shape(self, small_deployment):
        classification = classify_elements(small_deployment)
        assert classification.shape == (
            small_deployment.link_count,
            small_deployment.location_count,
        )

    def test_own_stripe_is_large_decrease(self, small_deployment):
        classification = classify_elements(small_deployment)
        for j in range(small_deployment.location_count):
            own = small_deployment.link_of_location(j)
            assert classification.categories[own, j] == ElementCategory.LARGE.value

    def test_masks_partition_elements(self, small_deployment):
        classification = classify_elements(small_deployment)
        assert set(np.unique(classification.categories)) <= {
            category.value for category in ElementCategory
        }

    def test_far_links_have_no_decrease(self, small_deployment):
        classification = classify_elements(small_deployment)
        # A location on link 0's stripe should not affect link 3 (three stripes away).
        j = 0  # the first location on link 0's stripe
        assert classification.categories[3, j] == ElementCategory.NONE.value

    def test_fraction_no_decrease_positive(self, small_deployment):
        classification = classify_elements(small_deployment)
        assert 0.0 < classification.no_decrease_mask.mean() < 1.0

    def test_structural_mode_matches_figure4_sketch(self, small_deployment):
        classification = classify_elements(small_deployment, use_geometry=False)
        j = small_deployment.locations_per_link  # the first location on link 1's stripe
        assert classification.categories[1, j] == ElementCategory.LARGE.value
        assert classification.categories[0, j] == ElementCategory.SMALL.value
        assert classification.categories[2, j] == ElementCategory.SMALL.value
        assert classification.categories[3, j] == ElementCategory.NONE.value

    def test_geometry_and_structural_agree_on_own_stripe(self, small_deployment):
        geometric = classify_elements(small_deployment, use_geometry=True)
        structural = classify_elements(small_deployment, use_geometry=False)
        # Both agree that every column's own link is a large decrease.
        for j in range(small_deployment.location_count):
            own = small_deployment.link_of_location(j)
            assert geometric.categories[own, j] == structural.categories[own, j]


class TestMatchesScalarOracle:
    @pytest.mark.parametrize("env", ["office", "hall", "library"])
    @pytest.mark.parametrize("use_geometry", [True, False])
    def test_equals_looped_classification(self, env, use_geometry):
        for seed in (0, 5):
            deployment = build_deployment(environment_by_name(env), seed=seed)
            got = classify_elements(deployment, use_geometry=use_geometry).categories
            want = classify_elements_looped(deployment, use_geometry=use_geometry).categories
            assert got.dtype == want.dtype and got.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(got, want)
