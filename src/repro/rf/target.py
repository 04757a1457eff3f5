"""Human-target obstruction model.

When a person stands in the monitoring area the RSS of each link changes
according to where the person is relative to the link (Fig. 3 / Fig. 4 of the
paper):

* **Blocking the direct path** — large RSS decrease.  The decrease is
  strongest near the transceivers and weakest at the midpoint of the link,
  because the first Fresnel zone is narrowest at the ends (Section IV-C.1).
* **Inside the first Fresnel zone (FFZ) but not blocking** — small decrease.
* **Outside the FFZ** — essentially no change (these are the *no-decrease*
  elements that can be measured without a person present).

The model below maps the target location to an attenuation (in dB) per link.
It is deliberately smooth in the target position so that neighbouring
locations produce similar attenuation (Observation 2) and parallel adjacent
links see similar attenuation profiles (Observation 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from repro.rf.geometry import Link, LinkArrays, LinkGeometry, Point, points_array

__all__ = ["ObstructionState", "TargetConfig", "TargetModel"]


class ObstructionState(str, Enum):
    """Qualitative effect of the target on a link."""

    BLOCKING = "blocking"
    FRESNEL = "fresnel"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class TargetConfig:
    """Parameters of the human obstruction model.

    Attributes
    ----------
    body_radius_m:
        Effective radius of the human body cross-section (a 1.72 m person
        has a torso roughly 0.35-0.4 m across).
    blocking_attenuation_db:
        Peak attenuation when the body fully blocks the link near a
        transceiver.
    midpoint_attenuation_db:
        Attenuation when blocking the link at its midpoint, where the Fresnel
        zone is widest and the body obstructs a smaller fraction of it.
    fresnel_attenuation_db:
        Attenuation scale when the target is inside the FFZ but not blocking.
    fresnel_margin:
        Multiple of the FFZ radius within which the target still has a small
        effect.
    outside_epsilon_db:
        Residual attenuation outside the FFZ (effectively measurement-level).
    asymmetry:
        Transmitter/receiver asymmetry of the obstruction profile.  Real
        links are not perfectly symmetric (the near-transmitter antenna
        pattern and the body's orientation differ from the receiver side);
        a positive value strengthens attenuation on the transmitter half of
        the link and weakens it on the receiver half, which also removes the
        artificial mirror ambiguity a perfectly symmetric profile would give
        the localizer.
    """

    body_radius_m: float = 0.2
    blocking_attenuation_db: float = 9.0
    midpoint_attenuation_db: float = 4.5
    fresnel_attenuation_db: float = 1.8
    fresnel_margin: float = 2.5
    outside_epsilon_db: float = 0.05
    asymmetry: float = 0.35

    def __post_init__(self) -> None:
        if self.body_radius_m <= 0:
            raise ValueError("body_radius_m must be positive")
        if self.blocking_attenuation_db < self.midpoint_attenuation_db:
            raise ValueError(
                "blocking_attenuation_db must be >= midpoint_attenuation_db "
                "(the paper observes larger decreases near the transceivers)"
            )
        if self.fresnel_margin < 1.0:
            raise ValueError("fresnel_margin must be >= 1")
        if not -1.0 < self.asymmetry < 1.0:
            raise ValueError("asymmetry must lie in (-1, 1)")


class TargetModel:
    """Maps target locations to per-link attenuation.

    The array methods take a :class:`~repro.rf.geometry.LinkGeometry` of
    ``m`` links against ``k`` target locations and return ``(m, k)`` arrays;
    the per-link methods are views over them.
    """

    #: Obstruction state of each code :meth:`obstruction_field` returns.
    STATES = (ObstructionState.OUTSIDE, ObstructionState.FRESNEL, ObstructionState.BLOCKING)

    def __init__(self, config: TargetConfig | None = None) -> None:
        self.config = config or TargetConfig()

    def _zones(self, geometry: LinkGeometry) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clamped Fresnel radius, blocking mask and inside-the-FFZ mask."""
        cfg = self.config
        fresnel = np.maximum(geometry.fresnel, 1e-6)
        blocking = geometry.distance <= cfg.body_radius_m + 0.5 * fresnel
        inside = geometry.distance <= cfg.body_radius_m + cfg.fresnel_margin * fresnel
        return fresnel, blocking, inside

    def obstruction_field(self, geometry: LinkGeometry) -> np.ndarray:
        """Integer codes into :attr:`STATES`: 2 blocking, 1 FFZ, 0 outside."""
        _, blocking, inside = self._zones(geometry)
        return inside.astype(np.int64) + blocking

    def attenuation_field(self, geometry: LinkGeometry) -> np.ndarray:
        """Attenuation (positive dB) the target causes, per link and location.

        The blocking attenuation follows the paper's description of the RSS
        profile along a link: strongest close to the transceivers, weakest at
        the midpoint, varying smoothly in between.  Off the direct path the
        attenuation decays with the ratio of the lateral offset to the local
        Fresnel-zone radius.
        """
        cfg = self.config
        fresnel, blocking, inside = self._zones(geometry)
        fraction, distance = geometry.fraction, geometry.distance
        # Profile along the link: 1.0 at the ends, dipping at the midpoint.
        end_weight = np.abs(2.0 * fraction - 1.0)
        peak = (
            cfg.midpoint_attenuation_db
            + (cfg.blocking_attenuation_db - cfg.midpoint_attenuation_db) * end_weight
        )
        # Transmitter/receiver asymmetry: stronger on the TX half (fraction
        # near 0), weaker on the RX half (fraction near 1).
        asym_factor = np.maximum(1.0 + cfg.asymmetry * (1.0 - 2.0 * fraction), 0.1)
        peak = peak * asym_factor
        attenuation = np.full(distance.shape, cfg.outside_epsilon_db)

        # Blocking: smooth Gaussian decay from the peak as the body moves off
        # the exact path.  About one element per location blocks, so the decay
        # is taken with ``math`` there, rounding exactly like the scalar model
        # (numpy's SIMD exp and pow round differently in the last bit).
        ratio = (distance / (cfg.body_radius_m + fresnel))[blocking]
        decay = np.array([math.exp(-(r**2)) for r in ratio.tolist()], dtype=float)
        attenuation[blocking] = np.maximum(
            peak[blocking] * decay, cfg.fresnel_attenuation_db
        )

        # Inside the FFZ but not blocking: a small decrease that fades towards
        # the edge of the (margin-expanded) Fresnel zone.
        ring = inside & ~blocking
        outer = cfg.body_radius_m + cfg.fresnel_margin * fresnel
        inner = cfg.body_radius_m + 0.5 * fresnel
        span = np.maximum(outer - inner, 1e-6)
        closeness = np.maximum(0.0, np.minimum(1.0, (outer - distance) / span))
        attenuation[ring] = np.maximum(
            cfg.fresnel_attenuation_db * closeness * asym_factor, cfg.outside_epsilon_db
        )[ring]
        return attenuation

    def obstruction_state(self, link: Link, location: Point) -> ObstructionState:
        """Classify the target's effect on ``link`` (blocking / FFZ / outside)."""
        return self.STATES[int(self.obstruction_field(_one(link, location))[0, 0])]


def _one(link: Link, location: Point) -> LinkGeometry:
    return LinkArrays.of([link]).geometry(points_array([location]))
