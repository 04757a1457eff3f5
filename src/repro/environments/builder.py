"""Deployment builder: place parallel links and the per-link grid stripes.

The paper deploys ``M`` parallel transmitter/receiver pairs across the area
(Fig. 3).  The builder places link ``i`` as a horizontal segment at a fixed
``y`` coordinate; the ``N/M`` grid locations of that link's stripe are spread
evenly along the segment, which mirrors the paper's column ordering where
location ``j = (i-1) * N/M + u`` is the ``u``-th grid on link ``i``.

Grid locations deliberately lie *on* the link paths: that is what generates
the large / small / no-decrease structure of the fingerprint matrix — a
target standing on link ``i``'s stripe blocks link ``i`` (large decrease),
sits inside the Fresnel zone of the adjacent links (small decrease), and has
no measurable effect on far-away links (no decrease).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.environments.base import Deployment, EnvironmentSpec
from repro.rf.channel import LinkChannel
from repro.rf.geometry import Link, Point
from repro.rf.multipath import MultipathConfig

__all__ = ["build_deployment", "multipath_config_for_level"]

_MULTIPATH_LEVELS = {
    "low": MultipathConfig(
        scatterer_count=4, strength_std_db=0.5, target_coupling_db=0.35
    ),
    "medium": MultipathConfig(
        scatterer_count=14, strength_std_db=1.0, target_coupling_db=0.8
    ),
    "high": MultipathConfig(
        scatterer_count=28, strength_std_db=1.5, target_coupling_db=1.3
    ),
}


def multipath_config_for_level(level: str) -> MultipathConfig:
    """Multipath configuration associated with a qualitative richness level."""
    try:
        return _MULTIPATH_LEVELS[level]
    except KeyError as exc:
        raise ValueError(
            f"unknown multipath level {level!r}; expected one of {sorted(_MULTIPATH_LEVELS)}"
        ) from exc


def build_deployment(spec: EnvironmentSpec, seed: Optional[int] = None) -> Deployment:
    """Construct a :class:`Deployment` from an environment specification.

    Parameters
    ----------
    spec:
        Environment description (size, link count, stripe width, multipath
        level, channel configuration).
    seed:
        Seed controlling the random parts of the radio substrate (shadowing,
        scatterer placement, temporal drift realisations).  Two deployments
        built from the same spec and seed produce identical RSS.
    """
    margin = 0.5  # keep transceivers slightly inside the walls
    usable_height = spec.height_m - 2 * margin
    if usable_height <= 0:
        raise ValueError("environment too small for the 0.5 m deployment margin")

    # Evenly spaced horizontal links.
    links = []
    for i in range(spec.link_count):
        y = margin + usable_height * (i + 0.5) / spec.link_count
        transmitter = Point(margin, y)
        receiver = Point(spec.width_m - margin, y)
        links.append(Link(index=i, transmitter=transmitter, receiver=receiver))

    # Grid locations: per-link stripes along each link.
    locations = []
    for i, link in enumerate(links):
        for u in range(spec.locations_per_link):
            fraction = (u + 0.5) / spec.locations_per_link
            x = link.transmitter.x + fraction * (link.receiver.x - link.transmitter.x)
            y = link.transmitter.y + fraction * (link.receiver.y - link.transmitter.y)
            locations.append(Point(x, y))

    channel_config = spec.channel_config
    desired_multipath = multipath_config_for_level(spec.multipath_level)
    if channel_config.multipath != desired_multipath:
        channel_config = replace(channel_config, multipath=desired_multipath)

    channel = LinkChannel(
        links=links,
        area_width=spec.width_m,
        area_height=spec.height_m,
        config=channel_config,
        seed=seed,
    )
    return Deployment(spec=spec, links=links, locations=locations, channel=channel)
