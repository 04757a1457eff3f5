"""Unit tests for :mod:`repro.rf.geometry`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rf.geometry import (
    Link,
    LinkArrays,
    Point,
    first_fresnel_radius,
    hypot,
    make_grid_centres,
    point_segment_distance,
    points_array,
    projection_parameter,
    wavelength,
)
from tests.oracles import fresnel_radius_scalar, projection_scalar, segment_distance_scalar

coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
# Micrometre resolution keeps distances out of the subnormal range, below
# which ``hypot`` may differ from ``math.hypot`` in the last bit.
metres = coords.map(lambda v: round(v, 6))


class TestPoint:
    def test_distance_symmetric(self):
        a, b = Point(0.0, 0.0), Point(3.0, 4.0)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert b.distance_to(a) == pytest.approx(5.0)

    def test_as_array(self):
        np.testing.assert_allclose(points_array([Point(1.0, 2.0)]), [[1.0, 2.0]])

    @given(coords, coords, coords, coords)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, ax, ay, bx, by):
        origin = Point(0.0, 0.0)
        a, b = Point(ax, ay), Point(bx, by)
        assert origin.distance_to(b) <= origin.distance_to(a) + a.distance_to(b) + 1e-9


class TestWavelengthAndFresnel:
    def test_wavelength_of_2g4(self):
        assert wavelength(2.437e9) == pytest.approx(0.123, abs=0.001)

    def test_wavelength_rejects_non_positive(self):
        with pytest.raises(ValueError):
            wavelength(0.0)

    def test_fresnel_radius_zero_at_ends(self):
        assert first_fresnel_radius(0.0, 10.0, 0.12) == 0.0
        assert first_fresnel_radius(10.0, 0.0, 0.12) == 0.0

    def test_fresnel_radius_maximal_at_midpoint(self):
        length, lam = 10.0, 0.12
        mid = first_fresnel_radius(length / 2, length / 2, lam)
        off = first_fresnel_radius(2.0, 8.0, lam)
        assert mid > off

    def test_fresnel_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            first_fresnel_radius(-1.0, 5.0, 0.12)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_fresnel_radius_non_negative(self, d1, d2):
        assert first_fresnel_radius(d1, d2, 0.123) >= 0.0


class TestProjectionAndDistance:
    def test_projection_clipped_to_unit_interval(self):
        start, end = Point(0.0, 0.0), Point(10.0, 0.0)
        assert projection_parameter(Point(-5.0, 0.0), start, end) == 0.0
        assert projection_parameter(Point(15.0, 0.0), start, end) == 1.0
        assert projection_parameter(Point(5.0, 3.0), start, end) == pytest.approx(0.5)

    def test_degenerate_segment(self):
        point = Point(1.0, 1.0)
        assert projection_parameter(point, Point(0, 0), Point(0, 0)) == 0.0
        assert point_segment_distance(point, Point(0, 0), Point(0, 0)) == pytest.approx(
            math.sqrt(2)
        )

    def test_perpendicular_distance(self):
        start, end = Point(0.0, 0.0), Point(10.0, 0.0)
        assert point_segment_distance(Point(5.0, 2.0), start, end) == pytest.approx(2.0)

    def test_distance_beyond_endpoint(self):
        start, end = Point(0.0, 0.0), Point(10.0, 0.0)
        assert point_segment_distance(Point(13.0, 4.0), start, end) == pytest.approx(5.0)


class TestLink:
    def make_link(self) -> Link:
        return Link(index=0, transmitter=Point(0.0, 1.0), receiver=Point(10.0, 1.0))

    def test_length_and_midpoint(self):
        link = self.make_link()
        assert link.length == pytest.approx(10.0)
        assert (link.midpoint().x, link.midpoint().y) == (5.0, 1.0)

    def test_along_fraction(self):
        link = self.make_link()
        fraction = projection_parameter(Point(2.5, 5.0), link.transmitter, link.receiver)
        assert fraction == pytest.approx(0.25)

    def test_distance_from(self):
        link = self.make_link()
        distance = point_segment_distance(Point(5.0, 4.0), link.transmitter, link.receiver)
        assert distance == pytest.approx(3.0)

    def test_fresnel_radius_midpoint_largest(self):
        link = self.make_link()
        points = points_array([Point(5.0, 1.0), Point(1.0, 1.0)])
        mid, end = LinkArrays.of([link]).geometry(points).fresnel[0]
        assert mid > end > 0.0


class TestArrayGeometry:
    @given(
        st.lists(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
        st.floats(-60.0, 60.0, allow_nan=False),
        st.floats(-60.0, 60.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypot_is_math_hypot(self, wide, a, b):
        """Bit for bit at any magnitude with a normal larger input, zeros and
        subnormal smaller inputs included."""
        x = np.array([wide[0], a, a, 0.0, 5e-324])
        y = np.array([wide[1], b, 0.0, 0.0, b])
        expected = [math.hypot(p, q) for p, q in zip(x.tolist(), y.tolist())]
        np.testing.assert_array_equal(hypot(x, y), expected)

    @given(st.floats(0.0, 1e-309), st.floats(0.0, 1e-309))
    @settings(max_examples=50, deadline=None)
    def test_hypot_subnormal_within_one_ulp(self, a, b):
        got = float(hypot(np.array([a]), np.array([b]))[0])
        want = math.hypot(a, b)
        assert got in (want, np.nextafter(want, 0.0), np.nextafter(want, 1.0))

    def test_hypot_random_bulk(self):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-30.0, 30.0, (2, 20000))
        expected = [math.hypot(p, q) for p, q in zip(x.tolist(), y.tolist())]
        np.testing.assert_array_equal(hypot(x, y), expected)

    def test_projection_random_bulk(self):
        """Many random segments and points against the scalar formulas."""
        rng = np.random.default_rng(11)
        # About one segment in a thousand has a squared length where numpy's
        # ``x * x`` and the scalar ``x**2`` round apart.
        coordinates = rng.uniform(-20.0, 20.0, (4000, 4))
        links = [
            Link(index=i, transmitter=Point(a, b), receiver=Point(c, d))
            for i, (a, b, c, d) in enumerate(coordinates.tolist())
        ]
        points = [Point(x, y) for x, y in rng.uniform(-25.0, 25.0, (3, 2)).tolist()]
        geometry = LinkArrays.of(links).geometry(points_array(points))
        for name, scalar in (
            ("fraction", lambda link, p: projection_scalar(p, link.transmitter, link.receiver)),
            ("distance", lambda link, p: segment_distance_scalar(p, link.transmitter, link.receiver)),
            ("fresnel", fresnel_radius_scalar),
        ):
            expected = [[scalar(link, p) for p in points] for link in links]
            np.testing.assert_array_equal(getattr(geometry, name), expected, err_msg=name)

    @given(
        st.lists(st.tuples(metres, metres, metres, metres), min_size=1, max_size=4),
        st.lists(st.tuples(metres, metres), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_link_geometry_equals_scalar(self, segments, targets):
        links = [
            Link(index=i, transmitter=Point(a, b), receiver=Point(c, d))
            for i, (a, b, c, d) in enumerate(segments)
        ]
        links.append(Link(index=len(links), transmitter=Point(1.0, 2.0), receiver=Point(1.0, 2.0)))
        points = [Point(*t) for t in targets] + [links[0].transmitter, links[0].receiver]
        geometry = LinkArrays.of(links).geometry(points_array(points))
        for i, link in enumerate(links):
            for j, p in enumerate(points):
                start, end = link.transmitter, link.receiver
                assert geometry.fraction[i, j] == projection_scalar(p, start, end)
                assert geometry.distance[i, j] == segment_distance_scalar(p, start, end)
                assert geometry.fresnel[i, j] == fresnel_radius_scalar(link, p)


class TestGrid:
    def test_grid_count(self):
        centres = make_grid_centres(3.0, 2.0, 1.0)
        assert len(centres) == 6

    def test_grid_excluded_rectangle(self):
        centres = make_grid_centres(3.0, 1.0, 1.0, excluded=[(0.0, 0.0, 1.0, 1.0)])
        assert len(centres) == 2

    def test_grid_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            make_grid_centres(0.0, 2.0, 1.0)
