"""Unit tests for :mod:`repro.environments` (specs, builder, deployments)."""

from collections import Counter

import numpy as np
import pytest

from repro.environments import (
    build_deployment,
    hall_environment,
    library_environment,
    office_environment,
)
from repro.environments.base import EnvironmentSpec
from repro.environments.builder import multipath_config_for_level
from tests.oracles import segment_distance_scalar


class TestEnvironmentSpecs:
    def test_office_matches_paper(self):
        spec = office_environment()
        assert spec.link_count == 8
        assert spec.total_locations == 96  # closest stripe-aligned value to 94
        assert spec.multipath_level == "medium"
        assert (spec.width_m, spec.height_m) == (12.0, 9.0)

    def test_library_matches_paper(self):
        spec = library_environment()
        assert spec.link_count == 6
        assert spec.total_locations == 72
        assert spec.multipath_level == "high"

    def test_hall_matches_paper(self):
        spec = hall_environment()
        assert spec.link_count == 8
        assert spec.total_locations == 120
        assert spec.multipath_level == "low"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width_m": 0.0},
            {"link_count": 1},
            {"locations_per_link": 1},
            {"grid_spacing_m": 0.0},
            {"multipath_level": "extreme"},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        base = dict(
            name="x", width_m=10.0, height_m=8.0, link_count=4, locations_per_link=6
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            EnvironmentSpec(**base)

    def test_multipath_level_lookup(self):
        assert multipath_config_for_level("high").scatterer_count > multipath_config_for_level(
            "low"
        ).scatterer_count
        with pytest.raises(ValueError):
            multipath_config_for_level("unknown")


class TestBuildDeployment:
    def test_counts_match_spec(self, small_spec):
        deployment = build_deployment(small_spec, seed=1)
        assert deployment.link_count == small_spec.link_count
        assert deployment.location_count == small_spec.total_locations

    def test_links_inside_area(self, small_spec):
        deployment = build_deployment(small_spec, seed=1)
        for link in deployment.links:
            for point in (link.transmitter, link.receiver):
                assert 0.0 <= point.x <= small_spec.width_m
                assert 0.0 <= point.y <= small_spec.height_m

    def test_stripe_locations_lie_on_their_link(self, small_spec):
        deployment = build_deployment(small_spec, seed=1)
        for j in range(deployment.location_count):
            link = deployment.links[deployment.link_of_location(j)]
            location = deployment.location_point(j)
            assert segment_distance_scalar(
                location, link.transmitter, link.receiver
            ) < 1e-9

    def test_deterministic_given_seed(self, small_spec):
        a = build_deployment(small_spec, seed=3)
        b = build_deployment(small_spec, seed=3)
        assert a.channel.baseline_rss_dbm(0) == b.channel.baseline_rss_dbm(0)

    def test_seed_changes_channel(self, small_spec):
        a = build_deployment(small_spec, seed=3)
        b = build_deployment(small_spec, seed=4)
        assert a.channel.baseline_rss_dbm(0) != b.channel.baseline_rss_dbm(0)

    def test_too_small_area_rejected(self):
        spec = EnvironmentSpec(
            name="tiny", width_m=2.0, height_m=0.8, link_count=2, locations_per_link=2
        )
        with pytest.raises(ValueError):
            build_deployment(spec)


class TestDeploymentHelpers:
    def test_stripe_indices_partition_locations(self, small_deployment):
        owners = Counter(
            small_deployment.link_of_location(j)
            for j in range(small_deployment.location_count)
        )
        width = small_deployment.locations_per_link
        assert owners == {i: width for i in range(small_deployment.link_count)}

    def test_link_of_location_consistent_with_stripes(self, small_deployment):
        # Each link's stripe is one contiguous block of columns, in link order.
        owners = [
            small_deployment.link_of_location(j)
            for j in range(small_deployment.location_count)
        ]
        assert owners == sorted(owners)

    def test_location_array_shape(self, small_deployment):
        array = small_deployment.location_array()
        assert array.shape == (small_deployment.location_count, 2)

    def test_invalid_indices_rejected(self, small_deployment):
        with pytest.raises(ValueError):
            small_deployment.link_of_location(-1)
