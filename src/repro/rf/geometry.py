"""Planar geometry primitives: points, links, grids and Fresnel-zone math.

The monitoring area is modelled in 2-D (the paper places transceivers and the
target's torso at a common 1 m height, so the geometry that matters for
obstruction is planar).  A *link* is the segment between a transmitter and a
receiver; the first Fresnel zone (FFZ) around that segment determines whether
a target affects the link strongly, weakly, or not at all.

The radio model evaluates a whole site at once: :class:`LinkArrays` holds the
links as columns and :meth:`LinkArrays.geometry` projects ``k`` points onto
``m`` links as ``(m, k)`` arrays.  The scalar helpers below are views over
the same array code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Point",
    "Link",
    "SPEED_OF_LIGHT",
    "WIFI_2G4_FREQUENCY_HZ",
    "wavelength",
    "first_fresnel_radius",
    "point_segment_distance",
    "projection_parameter",
    "make_grid_centres",
    "hypot",
    "points_array",
    "project_onto_segments",
    "LinkArrays",
    "LinkGeometry",
]

SPEED_OF_LIGHT = 299_792_458.0
"""Speed of light in metres per second."""

WIFI_2G4_FREQUENCY_HZ = 2.437e9
"""Centre frequency of Wi-Fi channel 6, used by the paper's 2.4 GHz links."""


@dataclass(frozen=True)
class Point:
    """A point in the 2-D monitoring area (metres)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Link:
    """A wireless link between a transmitter and a receiver.

    Attributes
    ----------
    index:
        Zero-based link index (row index in the fingerprint matrix).
    transmitter, receiver:
        End points of the link.
    frequency_hz:
        Carrier frequency; defaults to Wi-Fi channel 6.
    """

    index: int
    transmitter: Point
    receiver: Point
    frequency_hz: float = WIFI_2G4_FREQUENCY_HZ

    @property
    def length(self) -> float:
        """Distance between transmitter and receiver in metres."""
        return self.transmitter.distance_to(self.receiver)

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in metres."""
        return wavelength(self.frequency_hz)

    def midpoint(self) -> Point:
        """Geometric midpoint of the link."""
        return Point(
            (self.transmitter.x + self.receiver.x) / 2.0,
            (self.transmitter.y + self.receiver.y) / 2.0,
        )


def wavelength(frequency_hz: float) -> float:
    """Wavelength in metres for a given carrier frequency."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise Euclidean norm, bit-identical to :func:`math.hypot`.

    ``np.hypot`` (the C library's) and :func:`math.hypot` round differently
    in a fraction of a percent of cases.  This is CPython's compensated
    two-term norm, step for step, so array geometry equals the scalar
    ``Point.distance_to`` exactly: scale by the larger magnitude's binary
    exponent, accumulate the squares as split products with their rounding
    errors, take the square root and apply one Newton correction.  Inputs
    must be finite.  When both are below 2**-1023 in magnitude (subnormal),
    the result may differ from ``math.hypot`` in the last bit.
    """
    ax, ay = np.abs(dx), np.abs(dy)
    largest = np.maximum(ax, ay)
    tiny = np.frexp(largest)[1] < -1023  # subnormal scale: 2**-e would overflow
    if tiny.any():
        with np.errstate(over="ignore"):
            ax, ay = (np.where(tiny, v / sys.float_info.min, v) for v in (ax, ay))
        largest = np.maximum(ax, ay)
    scale = np.ldexp(1.0, -np.frexp(largest)[1])

    def split(value):
        t = value * _VELTKAMP
        hi = t - (t - value)
        return hi, value - hi

    def accumulate(total, error, term):
        new = total + term
        return new, error + ((total - new) + term)

    total = np.ones_like(largest)
    err1 = np.zeros_like(largest)
    err2 = np.zeros_like(largest)
    err3 = np.zeros_like(largest)
    for value in (ax, ay):
        hi, lo = split(value * scale)
        total, err1 = accumulate(total, err1, hi * hi)
        total, err2 = accumulate(total, err2, 2.0 * hi * lo)
        err3 = err3 + lo * lo
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(total - 1.0 + (err1 + err2 + err3))
        hi, lo = split(root)
        total, err1 = accumulate(total, err1, -hi * hi)
        total, err2 = accumulate(total, err2, -2.0 * hi * lo)
        total, err3 = accumulate(total, err3, -lo * lo)
        residual = total - 1.0 + (err1 + err2 + err3)
        norm = (root + residual / (2.0 * root)) / scale
    norm = np.where(tiny, sys.float_info.min * norm, norm)
    return np.where(largest == 0.0, 0.0, norm)


def first_fresnel_radius(
    d1: Union[float, np.ndarray], d2: Union[float, np.ndarray], wavelength_m
) -> Union[float, np.ndarray]:
    """Radius of the first Fresnel zone at distances ``d1`` and ``d2`` from the ends.

    ``r = sqrt(lambda * d1 * d2 / (d1 + d2))``.  At the link's end points the
    radius is zero, which matches the physical intuition that standing right
    next to a transceiver always blocks the link.  Accepts scalars (returns
    a float) or broadcastable arrays.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    if np.any(d1 < 0) or np.any(d2 < 0):
        raise ValueError("distances along the link must be non-negative")
    total = d1 + d2
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.sqrt(np.maximum(wavelength_m * d1 * d2 / total, 0.0))
    radius = np.where(total == 0, 0.0, radius)
    return float(radius) if radius.ndim == 0 else radius


def points_array(points: Union[np.ndarray, Sequence[Point]]) -> np.ndarray:
    """``(k, 2)`` coordinates of a point sequence (arrays pass through)."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=float).reshape(-1, 2)
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def project_onto_segments(
    starts: np.ndarray, ends: np.ndarray, points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Project ``k`` points onto ``m`` segments.

    Returns ``(fraction, distance)``, both ``(m, k)``: the projection
    parameter clipped to [0, 1] (0 at the start, 1 at the end; 0 for a
    zero-length segment) and the distance to the closest point of the
    segment.
    """
    sx, sy = starts[:, 0:1], starts[:, 1:2]
    seg_dx, seg_dy = ends[:, 0:1] - sx, ends[:, 1:2] - sy
    # float_power is the C library's pow, like the scalar model's ``x**2``.
    seg_len_sq = np.float_power(seg_dx, 2) + np.float_power(seg_dy, 2)
    px, py = points[:, 0], points[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - sx) * seg_dx + (py - sy) * seg_dy) / seg_len_sq
    t = np.where(seg_len_sq == 0, 0.0, np.minimum(1.0, np.maximum(0.0, t)))
    distance = hypot(px - (sx + t * seg_dx), py - (sy + t * seg_dy))
    return t, distance


def projection_parameter(location: Point, start: Point, end: Point) -> float:
    """Projection of ``location`` onto segment ``start``-``end`` normalised to [0, 1]."""
    return float(_project_one(location, start, end)[0])


def point_segment_distance(location: Point, start: Point, end: Point) -> float:
    """Shortest distance from ``location`` to the segment ``start``-``end``."""
    return float(_project_one(location, start, end)[1])


def _project_one(location: Point, start: Point, end: Point) -> Tuple[np.ndarray, np.ndarray]:
    fraction, distance = project_onto_segments(
        points_array([start]), points_array([end]), points_array([location])
    )
    return fraction[0, 0], distance[0, 0]


@dataclass(frozen=True)
class LinkGeometry:
    """Where ``k`` points sit relative to ``m`` links, as ``(m, k)`` arrays.

    Attributes
    ----------
    fraction:
        Projection onto the link, clipped to [0, 1] (0 at the transmitter).
    distance:
        Distance to the link segment.
    fresnel:
        First-Fresnel-zone radius of the link at the projection.
    """

    fraction: np.ndarray
    distance: np.ndarray
    fresnel: np.ndarray


@dataclass(frozen=True)
class LinkArrays:
    """A list of links as column arrays, for field-at-a-time geometry.

    ``start`` and ``end`` are ``(m, 2)`` transmitter and receiver
    coordinates; ``length`` and ``wavelength`` are ``(m,)``.
    """

    start: np.ndarray
    end: np.ndarray
    length: np.ndarray
    wavelength: np.ndarray

    @classmethod
    def of(cls, links: Sequence[Link]) -> "LinkArrays":
        """Column arrays of ``links``, in order."""
        return cls(
            start=points_array([link.transmitter for link in links]),
            end=points_array([link.receiver for link in links]),
            length=np.array([link.length for link in links], dtype=float),
            wavelength=np.array([link.wavelength for link in links], dtype=float),
        )

    def take(self, rows: np.ndarray) -> "LinkArrays":
        """The links at ``rows``."""
        return LinkArrays(
            self.start[rows], self.end[rows], self.length[rows], self.wavelength[rows]
        )

    def midpoints(self) -> np.ndarray:
        """``(m, 2)`` link midpoints."""
        return (self.start + self.end) / 2.0

    def geometry(self, points: np.ndarray) -> LinkGeometry:
        """Project ``(k, 2)`` points onto every link."""
        fraction, distance = project_onto_segments(self.start, self.end, points)
        length = self.length[:, None]
        fresnel = first_fresnel_radius(
            fraction * length, (1.0 - fraction) * length, self.wavelength[:, None]
        )
        return LinkGeometry(fraction=fraction, distance=distance, fresnel=fresnel)


def make_grid_centres(
    width: float,
    height: float,
    grid_size: float,
    origin: Tuple[float, float] = (0.0, 0.0),
    excluded: Sequence[Tuple[float, float, float, float]] = (),
) -> List[Point]:
    """Generate grid-cell centres covering a ``width x height`` area.

    Parameters
    ----------
    width, height:
        Dimensions of the monitoring area in metres.
    grid_size:
        Edge length of a square grid cell (the paper uses 0.6 m).
    origin:
        Coordinates of the area's lower-left corner.
    excluded:
        Axis-aligned rectangles ``(x_min, y_min, x_max, y_max)`` that are not
        part of the effective area (furniture, book racks, ...).  Cells whose
        centre falls inside an excluded rectangle are dropped, mirroring the
        paper's "effective area" grids.
    """
    if width <= 0 or height <= 0 or grid_size <= 0:
        raise ValueError("width, height and grid_size must be positive")
    ox, oy = origin
    n_cols = int(round(width / grid_size))
    n_rows = int(round(height / grid_size))
    centres: List[Point] = []
    for row in range(n_rows):
        for col in range(n_cols):
            cx = ox + (col + 0.5) * grid_size
            cy = oy + (row + 0.5) * grid_size
            if any(
                x_min <= cx <= x_max and y_min <= cy <= y_max
                for x_min, y_min, x_max, y_max in excluded
            ):
                continue
            centres.append(Point(cx, cy))
    return centres

