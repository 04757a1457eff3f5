"""Unit tests for :mod:`repro.rf.target` (human obstruction model)."""

import numpy as np
import pytest

from repro.rf.geometry import Link, LinkArrays, Point, points_array
from repro.rf.target import ObstructionState, TargetConfig, TargetModel
from tests.oracles import attenuation_db_scalar, obstruction_state_scalar


@pytest.fixture()
def link() -> Link:
    return Link(index=0, transmitter=Point(0.0, 0.0), receiver=Point(10.0, 0.0))


@pytest.fixture()
def model() -> TargetModel:
    return TargetModel(TargetConfig())


def attenuation(model, link, *locations):
    """Attenuation (dB) on ``link`` with the target at each location."""
    geometry = LinkArrays.of([link]).geometry(points_array(locations))
    return model.attenuation_field(geometry)[0]


class TestObstructionState:
    def test_on_path_is_blocking(self, model, link):
        assert model.obstruction_state(link, Point(3.0, 0.0)) is ObstructionState.BLOCKING

    def test_far_away_is_outside(self, model, link):
        assert model.obstruction_state(link, Point(5.0, 5.0)) is ObstructionState.OUTSIDE

    def test_near_path_is_fresnel(self, model, link):
        # Slightly off the direct path but within the expanded Fresnel margin.
        state = model.obstruction_state(link, Point(5.0, 0.6))
        assert state in (ObstructionState.FRESNEL, ObstructionState.BLOCKING)
        assert state is not ObstructionState.OUTSIDE


class TestAttenuation:
    def test_blocking_larger_than_fresnel(self, model, link):
        blocking, fresnel, outside = attenuation(
            model, link, Point(2.0, 0.0), Point(2.0, 0.7), Point(2.0, 5.0)
        )
        assert blocking > fresnel > outside

    def test_outside_attenuation_negligible(self, model, link):
        assert attenuation(model, link, Point(5.0, 6.0))[0] <= 0.1

    def test_stronger_near_transceiver_than_midpoint(self, model, link):
        near_tx, midpoint = attenuation(model, link, Point(1.0, 0.0), Point(5.0, 0.0))
        assert near_tx > midpoint

    def test_asymmetry_tx_side_stronger(self, link):
        model = TargetModel(TargetConfig(asymmetry=0.4))
        tx_side, rx_side = attenuation(model, link, Point(2.0, 0.0), Point(8.0, 0.0))
        assert tx_side > rx_side

    def test_zero_asymmetry_is_symmetric(self, link):
        model = TargetModel(TargetConfig(asymmetry=0.0))
        tx_side, rx_side = attenuation(model, link, Point(2.0, 0.0), Point(8.0, 0.0))
        assert tx_side == pytest.approx(rx_side, abs=1e-6)

    def test_attenuation_always_positive(self, model, link):
        grid = [Point(x, y) for x in (0.5, 2.5, 5.0, 7.5, 9.5) for y in (0.0, 0.3, 1.0, 3.0)]
        assert np.all(attenuation(model, link, *grid) > 0.0)


class TestTargetConfigValidation:
    def test_default_is_valid(self):
        TargetConfig()

    def test_rejects_blocking_below_midpoint(self):
        with pytest.raises(ValueError):
            TargetConfig(blocking_attenuation_db=2.0, midpoint_attenuation_db=4.0)

    def test_rejects_small_fresnel_margin(self):
        with pytest.raises(ValueError):
            TargetConfig(fresnel_margin=0.5)

    def test_rejects_non_positive_body(self):
        with pytest.raises(ValueError):
            TargetConfig(body_radius_m=0.0)

    def test_rejects_extreme_asymmetry(self):
        with pytest.raises(ValueError):
            TargetConfig(asymmetry=1.5)


class TestFieldMatchesScalarOracle:
    def test_dense_cloud_around_a_slanted_link(self, model):
        """Thousands of targets, most of them blocking or inside the FFZ,
        where the Gaussian decay and the Fresnel ring are evaluated."""
        link = Link(index=0, transmitter=Point(0.3, 0.7), receiver=Point(9.1, 3.4))
        rng = np.random.default_rng(5)
        along = rng.uniform(-0.1, 1.1, 4000)
        offset = rng.normal(0.0, 0.6, 4000)
        direction = np.array([8.8, 2.7]) / np.hypot(8.8, 2.7)
        normal = np.array([-direction[1], direction[0]])
        points = (
            np.array([0.3, 0.7]) + along[:, None] * np.array([8.8, 2.7]) + offset[:, None] * normal
        )
        geometry = LinkArrays.of([link]).geometry(points)
        attenuation = model.attenuation_field(geometry)[0]
        states = model.obstruction_field(geometry)[0]
        targets = [Point(x, y) for x, y in points.tolist()]
        assert np.count_nonzero(states == 2) > 500 and np.count_nonzero(states == 1) > 500
        np.testing.assert_array_equal(
            attenuation, [attenuation_db_scalar(model.config, link, p) for p in targets]
        )
        assert [model.STATES[code] for code in states] == [
            obstruction_state_scalar(model.config, link, p) for p in targets
        ]
