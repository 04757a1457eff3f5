"""Deployment data structures.

A *deployment* couples an environment specification (size, grid layout,
multipath richness) with the concrete link geometry and the number of
location grids per link.  The fingerprint matrix built on top of a deployment
has one row per link and one column per grid location; the grid ordering
follows the paper's convention (Fig. 3): the locations of link ``i`` occupy
columns ``(i-1) * N/M .. i * N/M - 1``, i.e. columns are grouped into
per-link stripes so that the largely-decrease matrix ``X_D`` is simply the
diagonal of stripes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.rf.channel import ChannelConfig, LinkChannel
from repro.rf.geometry import Link, Point

__all__ = ["EnvironmentSpec", "Deployment"]


@dataclass(frozen=True)
class EnvironmentSpec:
    """Static description of a monitoring environment.

    Attributes
    ----------
    name:
        Human-readable name ("office", "library", "hall").
    width_m, height_m:
        Physical dimensions of the monitoring area.
    link_count:
        Number of parallel transmitter/receiver pairs (``M``).
    locations_per_link:
        Number of grid locations assigned to each link's stripe
        (``N / M``); the paper's office uses 94 grids over 8 links, which we
        round to a per-link stripe so the matrix structure is exact.
    grid_spacing_m:
        Distance between adjacent grid locations along a link (0.6 m in the
        paper).
    multipath_level:
        Qualitative multipath richness ("low", "medium", "high"), used by the
        builder to size the scatterer field.
    channel_config:
        Full physical-layer configuration for the environment.
    """

    name: str
    width_m: float
    height_m: float
    link_count: int
    locations_per_link: int
    grid_spacing_m: float = 0.6
    multipath_level: str = "medium"
    channel_config: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("environment dimensions must be positive")
        if self.link_count <= 1:
            raise ValueError("link_count must be at least 2")
        if self.locations_per_link <= 1:
            raise ValueError("locations_per_link must be at least 2")
        if self.grid_spacing_m <= 0:
            raise ValueError("grid_spacing_m must be positive")
        if self.multipath_level not in {"low", "medium", "high"}:
            raise ValueError("multipath_level must be 'low', 'medium' or 'high'")

    @property
    def total_locations(self) -> int:
        """Total number of grid locations ``N = M * (N/M)``."""
        return self.link_count * self.locations_per_link


@dataclass
class Deployment:
    """A concrete deployment: links, grid locations and the radio channel."""

    spec: EnvironmentSpec
    links: List[Link]
    locations: List[Point]
    channel: LinkChannel

    def __post_init__(self) -> None:
        if len(self.links) != self.spec.link_count:
            raise ValueError("number of links does not match the specification")
        if len(self.locations) != self.spec.total_locations:
            raise ValueError("number of locations does not match the specification")

    @property
    def link_count(self) -> int:
        """Number of links ``M``."""
        return len(self.links)

    @property
    def location_count(self) -> int:
        """Number of grid locations ``N``."""
        return len(self.locations)

    @property
    def locations_per_link(self) -> int:
        """Stripe width ``N / M``."""
        return self.spec.locations_per_link

    def location_array(self) -> np.ndarray:
        """All grid locations as an ``(N, 2)`` array of coordinates."""
        return np.array([[p.x, p.y] for p in self.locations], dtype=float)

    def link_of_location(self, location_index: int) -> int:
        """Index of the link whose stripe contains ``location_index``."""
        if not 0 <= location_index < self.location_count:
            raise ValueError(
                f"location_index must lie in [0, {self.location_count - 1}]"
            )
        return location_index // self.locations_per_link

    def location_point(self, location_index: int) -> Point:
        """Coordinates of a grid location."""
        return self.locations[location_index]
