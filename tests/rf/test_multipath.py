"""Unit tests for :mod:`repro.rf.multipath`."""

import numpy as np
import pytest

from repro.rf.geometry import Link, LinkArrays, Point, points_array
from repro.rf.multipath import MultipathConfig, MultipathField


@pytest.fixture()
def link() -> Link:
    return Link(index=0, transmitter=Point(0.0, 2.0), receiver=Point(10.0, 2.0))


def static_offset(field, link):
    return field.static_offset_field(field.link_weights(LinkArrays.of([link])))[0]


def target_offsets(field, link, targets):
    weights = field.link_weights(LinkArrays.of([link]))
    return field.target_offset_field(weights, points_array(targets))[0]


class TestMultipathConfig:
    def test_defaults_valid(self):
        MultipathConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scatterer_count": -1},
            {"strength_std_db": -0.1},
            {"interaction_range_m": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MultipathConfig(**kwargs)


class TestMultipathField:
    def test_scatterer_count_respected(self):
        field = MultipathField(MultipathConfig(scatterer_count=7), 10.0, 8.0, rng=1)
        assert len(field.scatterers) == 7

    def test_scatterers_inside_area(self):
        field = MultipathField(MultipathConfig(scatterer_count=20), 10.0, 8.0, rng=1)
        for scatterer in field.scatterers:
            assert 0.0 <= scatterer.position.x <= 10.0
            assert 0.0 <= scatterer.position.y <= 8.0

    def test_reproducible_with_seed(self, link):
        a = static_offset(MultipathField(MultipathConfig(), 10.0, 8.0, rng=4), link)
        b = static_offset(MultipathField(MultipathConfig(), 10.0, 8.0, rng=4), link)
        assert a == b

    def test_empty_field_contributes_nothing(self, link):
        field = MultipathField(MultipathConfig(scatterer_count=0), 10.0, 8.0, rng=1)
        assert static_offset(field, link) == 0.0
        assert target_offsets(field, link, [Point(5.0, 2.0)])[0] == 0.0

    def test_target_offset_decays_with_distance(self, link):
        field = MultipathField(MultipathConfig(scatterer_count=15), 10.0, 8.0, rng=2)
        near = target_offsets(field, link, [Point(x, 2.0) for x in range(1, 10)])
        far = target_offsets(field, link, [Point(x, 7.5) for x in range(1, 10)])
        near_total, far_total = np.abs(near).sum(), np.abs(far).sum()
        assert near_total > far_total

    def test_richer_field_larger_perturbation(self, link):
        poor = MultipathField(MultipathConfig(scatterer_count=2), 10.0, 8.0, rng=3)
        rich = MultipathField(MultipathConfig(scatterer_count=40), 10.0, 8.0, rng=3)
        target = Point(4.0, 2.5)
        assert abs(target_offsets(rich, link, [target])[0]) >= abs(
            target_offsets(poor, link, [target])[0]
        ) * 0.5  # richer fields are not guaranteed larger pointwise, but same order

    def test_invalid_area_rejected(self):
        with pytest.raises(ValueError):
            MultipathField(MultipathConfig(), 0.0, 5.0, rng=1)
