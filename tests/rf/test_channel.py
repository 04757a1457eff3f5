"""Unit tests for :mod:`repro.rf.channel` (link-level RSS composition)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.environments import environment_by_name
from repro.environments.builder import build_deployment
from repro.rf.channel import ChannelConfig, LinkChannel
from repro.rf.geometry import Link, Point
from repro.rf.multipath import MultipathConfig
from repro.rf.target import ObstructionState
from tests.oracles import (
    mean_rss_dbm_scalar,
    measure_rss_dbm_scalar,
    measure_vector_looped,
    noise_sample_scalar,
)


@pytest.fixture()
def channel() -> LinkChannel:
    links = [
        Link(index=0, transmitter=Point(0.5, 1.0), receiver=Point(9.5, 1.0)),
        Link(index=1, transmitter=Point(0.5, 3.0), receiver=Point(9.5, 3.0)),
        Link(index=2, transmitter=Point(0.5, 5.0), receiver=Point(9.5, 5.0)),
    ]
    return LinkChannel(links, area_width=10.0, area_height=6.0, seed=5)


class TestChannelConstruction:
    def test_requires_links(self):
        with pytest.raises(ValueError):
            LinkChannel([], 10.0, 6.0)

    def test_link_count(self, channel):
        assert channel.link_count == 3

    def test_invalid_quantization_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(rss_quantization_db=-0.5)


class TestMeanRSS:
    def test_target_on_link_reduces_rss(self, channel):
        baseline = channel.mean_rss_dbm(0, None, 0.0)
        blocked = channel.mean_rss_dbm(0, Point(5.0, 1.0), 0.0)
        assert blocked < baseline - 2.0

    def test_target_far_away_barely_changes_rss(self, channel):
        baseline = channel.mean_rss_dbm(0, None, 0.0)
        far = channel.mean_rss_dbm(0, Point(5.0, 5.0), 0.0)
        assert abs(far - baseline) < 1.0

    def test_rss_above_floor(self, channel):
        assert channel.mean_rss_dbm(0, Point(5.0, 1.0), 0.0) >= channel.config.rss_floor_dbm

    def test_long_term_drift_changes_rss(self, channel):
        now = channel.mean_rss_dbm(1, Point(5.0, 3.0), 0.0)
        later = channel.mean_rss_dbm(1, Point(5.0, 3.0), 45.0)
        assert now != later

    def test_baseline_rss_matches_mean_rss_without_target(self, channel):
        assert channel.baseline_rss_dbm(2, 0.0) == pytest.approx(
            channel.mean_rss_dbm(2, None, 0.0)
        )


class TestMeasurement:
    def test_quantization_step(self, channel):
        value = channel.measure_vector(Point(3.0, 1.0), 0.0)[0]
        step = channel.config.rss_quantization_db
        assert abs(value / step - round(value / step)) < 1e-9

    def test_noiseless_measurement_matches_mean(self, channel):
        mean = channel.mean_rss_dbm(0, Point(3.0, 1.0), 0.0)
        measured = channel.measure_vector(Point(3.0, 1.0), 0.0, with_noise=False)[0]
        assert measured == pytest.approx(mean, abs=channel.config.rss_quantization_db)

    def test_measure_vector_shape(self, channel):
        vector = channel.measure_vector(Point(4.0, 3.0), samples=3)
        assert vector.shape == (3,)

    def test_measure_vector_rejects_bad_samples(self, channel):
        with pytest.raises(ValueError):
            channel.measure_vector(Point(4.0, 3.0), samples=0)

    def test_averaging_reduces_variance(self, channel):
        singles = [channel.measure_vector(Point(4.0, 1.0), samples=1)[0] for _ in range(30)]
        averaged = [channel.measure_vector(Point(4.0, 1.0), samples=10)[0] for _ in range(30)]
        assert np.std(averaged) < np.std(singles) + 1e-9

    def test_obstruction_state_exposed(self, channel):
        assert channel.obstruction_state(0, Point(5.0, 1.0)) is ObstructionState.BLOCKING

    def test_time_series_length(self, channel):
        series = channel.rss_time_series(0, duration_s=10.0, sample_interval_s=0.5)
        assert series.shape == (20,)

    def test_time_series_rejects_bad_args(self, channel):
        with pytest.raises(ValueError):
            channel.rss_time_series(0, duration_s=0.0)

    def test_short_term_variation_spans_several_db(self, channel):
        # Fig. 1: ~5 dB swings over 100 s at a fixed location.
        series = channel.rss_time_series(0, 100.0, 0.5, target_location=Point(5.0, 1.0))
        assert series.max() - series.min() >= 2.0


# ------------------------------------------------ field vs the scalar oracle
def _host_matches_math() -> bool:
    """Whether numpy's array kernels round like ``math`` on this host.

    The field reproduces the scalar model bit for bit where ``np.cos`` and
    ``np.float_power`` agree with ``math.cos`` and float ``**`` (the C
    library's).  On a host where they do not, unquantised means may differ
    in the last bits; the differential tests then allow 1e-12 dB and nothing
    more.  (``hypot`` is pinned to ``math.hypot`` exactly in test_geometry.)
    """
    a = np.random.default_rng(0).uniform(-40.0, 40.0, 4096)
    return np.array_equal(np.cos(a), [math.cos(x) for x in a.tolist()]) and np.array_equal(
        np.float_power(a, 2), [x**2 for x in a.tolist()]
    )


MEAN_ATOL = 0.0 if _host_matches_math() else 1e-12


def _fresh_office(seed: int):
    return build_deployment(environment_by_name("office"), seed=seed)


class TestMeanFieldMatchesScalarOracle:
    @pytest.mark.parametrize("env", ["office", "hall", "library"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_link_and_location(self, env, seed):
        deployment = build_deployment(environment_by_name(env), seed=seed)
        channel = deployment.channel
        for days in (0.0, 5.0, 45.0):
            field = channel.mean_rss_field(deployment.location_array(), days)
            assert field.shape == (deployment.link_count, deployment.location_count)
            expected = np.array(
                [
                    [mean_rss_dbm_scalar(channel, i, p, days) for p in deployment.locations]
                    for i in range(deployment.link_count)
                ]
            )
            np.testing.assert_allclose(field, expected, rtol=0, atol=MEAN_ATOL)
            target_free = channel.mean_rss_field(None, days)
            assert target_free.shape == (deployment.link_count,)
            np.testing.assert_allclose(
                target_free,
                [mean_rss_dbm_scalar(channel, i, None, days) for i in range(deployment.link_count)],
                rtol=0,
                atol=MEAN_ATOL,
            )

    def test_scalar_views_are_the_field(self, channel):
        locations = [Point(5.0, 1.0), Point(2.0, 4.0)]
        field = channel.mean_rss_field(locations, 45.0)
        for i in range(channel.link_count):
            for j, point in enumerate(locations):
                assert channel.mean_rss_dbm(i, point, 45.0) == field[i, j]
            assert channel.baseline_rss_dbm(i, 45.0) == channel.mean_rss_field(None, 45.0)[i]


# Micrometre resolution keeps distances out of the subnormal range, below
# which ``hypot`` may round apart from ``math.hypot``.
coordinate = st.floats(-3.0, 15.0, allow_nan=False).map(lambda v: round(v, 6))
point = st.tuples(coordinate, coordinate)


@st.composite
def layouts(draw):
    """Random links (some zero-length) and targets on, at the ends of,
    near and far from them, inside and outside the 10 x 8 m area."""
    links = []
    for index in range(draw(st.integers(1, 4))):
        tx = Point(*draw(point))
        rx = tx if draw(st.booleans()) and index == 0 else Point(*draw(point))
        links.append(Link(index=index, transmitter=tx, receiver=rx))
    targets = [Point(*p) for p in draw(st.lists(point, min_size=1, max_size=6))]
    for link in links:
        fraction = draw(st.sampled_from([0.0, 1.0, 0.5, 0.25]))
        targets.append(
            Point(
                link.transmitter.x + fraction * (link.receiver.x - link.transmitter.x),
                link.transmitter.y + fraction * (link.receiver.y - link.transmitter.y),
            )
        )
    return links, targets


class TestMeanFieldProperty:
    @given(
        layout=layouts(),
        days=st.one_of(st.just(0.0), st.floats(0.0, 120.0, allow_subnormal=False)),
        floor=st.sampled_from([-95.0, -55.0, -30.0]),
        scatterers=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_field_equals_scalar_oracle(self, layout, days, floor, scatterers, seed):
        """Exact equality with the scalar model over random layouts: zero-length
        links, targets on a link and at its ends (Fresnel radius 0, the 1e-6
        clamp), points outside the area, day 0 and a floor that clamps."""
        links, targets = layout
        config = ChannelConfig(
            multipath=MultipathConfig(scatterer_count=scatterers),
            rss_floor_dbm=floor,
        )
        channel = LinkChannel(links, area_width=10.0, area_height=8.0, config=config, seed=seed)
        field = channel.mean_rss_field(targets, days)
        expected = [
            [mean_rss_dbm_scalar(channel, i, p, days) for p in targets]
            for i in range(len(links))
        ]
        np.testing.assert_allclose(field, expected, rtol=0, atol=MEAN_ATOL)
        assert np.all(field >= floor)
        np.testing.assert_allclose(
            channel.mean_rss_field(None, days),
            [mean_rss_dbm_scalar(channel, i, None, days) for i in range(len(links))],
            rtol=0,
            atol=MEAN_ATOL,
        )
        states = channel.obstruction_field(targets)
        for i, link in enumerate(links):
            for j, target in enumerate(targets):
                assert channel.target_model.STATES[states[i, j]] is channel.obstruction_state(
                    i, target
                )

    @pytest.mark.parametrize(
        "target",
        [Point(1.0, 1.0), Point(7.0, 1.0), Point(4.0, 1.0), Point(-2.0, 12.0)],
        ids=["zero-length-link-end", "link-end", "on-link", "outside-area"],
    )
    def test_edge_cases(self, target):
        """Named instances of the branches the property samples: a zero-length
        link, targets at a link end (Fresnel radius 0) and on it, a point
        outside the area, day 0 and a floor that clamps."""
        links = [
            Link(index=0, transmitter=Point(1.0, 1.0), receiver=Point(1.0, 1.0)),
            Link(index=1, transmitter=Point(1.0, 1.0), receiver=Point(7.0, 1.0)),
        ]
        for floor in (-95.0, -10.0):
            channel = LinkChannel(links, 10.0, 8.0, ChannelConfig(rss_floor_dbm=floor), seed=3)
            for days in (0.0, 45.0):
                field = channel.mean_rss_field([target], days)[:, 0]
                expected = [mean_rss_dbm_scalar(channel, i, target, days) for i in range(2)]
                np.testing.assert_allclose(field, expected, rtol=0, atol=MEAN_ATOL)
        assert np.all(field == -10.0)


class TestDrawOrder:
    """Shadowing is drawn lazily from the noise generator: a fresh channel's
    readings must interleave shadow(i) with the noise exactly as the
    one-link-at-a-time path did."""

    @pytest.mark.parametrize("with_noise", [True, False])
    def test_measure_vector_on_fresh_channel(self, with_noise):
        fast, slow = _fresh_office(4).channel, _fresh_office(4).channel
        location = Point(3.1, 2.4)
        for target, days, samples in ((location, 5.0, 3), (None, 45.0, 2), (location, 0.0, 1)):
            got = fast.measure_vector(target, days, samples, with_noise)
            want = measure_vector_looped(slow, target, days, samples, with_noise)
            np.testing.assert_array_equal(got, want)

    def test_measure_rss_and_time_series_on_fresh_channel(self):
        fast, slow = _fresh_office(6).channel, _fresh_office(6).channel
        location = Point(6.0, 4.2)
        series = fast.rss_time_series(3, 5.0, 0.5, target_location=location, elapsed_days=45.0)
        slow._noise.reset()
        expected = [measure_rss_dbm_scalar(slow, 3, location, 45.0) for _ in range(10)]
        np.testing.assert_array_equal(series, expected)
        assert noise_sample_scalar(slow._noise) == float(fast._noise.sample_burst(1)[0])

    def test_measure_field_is_successive_vectors(self):
        fast, slow = _fresh_office(8).channel, _fresh_office(8).channel
        locations = [Point(1.3, 1.6), Point(9.0, 5.1), Point(4.4, 7.9)]
        field = fast.measure_field(locations, 45.0, samples=2)
        assert field.flags["C_CONTIGUOUS"]
        expected = np.stack(
            [measure_vector_looped(slow, p, 45.0, 2) for p in locations], axis=1
        )
        np.testing.assert_array_equal(field, expected)
