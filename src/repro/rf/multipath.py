"""Multipath model: a static field of scatterers perturbing each link.

Indoor RSS is shaped by reflections off walls, furniture and metal racks.  We
model each environment as a set of point scatterers with random reflection
coefficients.  A scatterer contributes a small, location-dependent ripple to
the RSS of a link, and — importantly for iUpdater — a *target-position-
dependent* component: when the target stands near a scatterer that lies close
to a link, it perturbs the reflected path and hence the fingerprint.

This is what makes the simulated fingerprint matrix *approximately* (rather
than exactly) low rank, reproducing Observation 1 / Fig. 5 of the paper: the
dominant rank-1 structure comes from the direct-path obstruction profile,
while the multipath ripples add small independent components across links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.rf.geometry import LinkArrays, Point, hypot, points_array
from repro.utils.random import RngLike, make_rng

__all__ = ["Scatterer", "MultipathConfig", "MultipathField"]


@dataclass(frozen=True)
class Scatterer:
    """A point scatterer with a reflection strength expressed in dB."""

    position: Point
    strength_db: float


@dataclass(frozen=True)
class MultipathConfig:
    """Parameters controlling the richness of the multipath field.

    Attributes
    ----------
    scatterer_count:
        Number of scatterers in the area.  The library environment (metal
        book racks) uses a large count, the empty hall a small one.
    strength_std_db:
        Standard deviation of per-scatterer reflection strengths.
    interaction_range_m:
        Distance scale over which a target standing near a scatterer or near
        the reflected path perturbs the link.
    target_coupling_db:
        Scale of the target-position-dependent multipath perturbation.
    """

    scatterer_count: int = 12
    strength_std_db: float = 1.0
    interaction_range_m: float = 1.5
    target_coupling_db: float = 0.8

    def __post_init__(self) -> None:
        if self.scatterer_count < 0:
            raise ValueError("scatterer_count must be non-negative")
        if self.strength_std_db < 0 or self.target_coupling_db < 0:
            raise ValueError("strength scales must be non-negative")
        if self.interaction_range_m <= 0:
            raise ValueError("interaction_range_m must be positive")


class MultipathField:
    """A static field of scatterers covering the monitoring area."""

    def __init__(
        self,
        config: MultipathConfig,
        area_width: float,
        area_height: float,
        rng: RngLike = None,
    ) -> None:
        if area_width <= 0 or area_height <= 0:
            raise ValueError("area dimensions must be positive")
        self.config = config
        self.area_width = float(area_width)
        self.area_height = float(area_height)
        rng = make_rng(rng)
        self._scatterers = self._generate_scatterers(rng)
        self._positions = points_array([sc.position for sc in self._scatterers])
        self._strengths = [sc.strength_db for sc in self._scatterers]

    def _generate_scatterers(self, rng: np.random.Generator) -> List[Scatterer]:
        scatterers: List[Scatterer] = []
        for _ in range(self.config.scatterer_count):
            position = Point(
                float(rng.uniform(0.0, self.area_width)),
                float(rng.uniform(0.0, self.area_height)),
            )
            strength = float(rng.normal(0.0, self.config.strength_std_db))
            scatterers.append(Scatterer(position=position, strength_db=strength))
        return scatterers

    @property
    def scatterers(self) -> Sequence[Scatterer]:
        """The (immutable) list of scatterers."""
        return tuple(self._scatterers)

    def link_weights(self, links: LinkArrays) -> np.ndarray:
        """``(m, S)`` coupling of each scatterer to each link.

        The weight decays with the scatterer's distance from the link
        segment; a channel computes it once for its links.
        """
        distance = links.geometry(self._positions).distance
        return np.exp(-distance / self.config.interaction_range_m)

    def static_offset_field(self, weights: np.ndarray) -> np.ndarray:
        """Target-independent multipath ripple of each link, ``(m,)``.

        Scatterers close to a link contribute constructively or
        destructively depending on their (random) strength.  ``weights``
        comes from :meth:`link_weights`.
        """
        offset = np.zeros(weights.shape[0])
        for s, strength in enumerate(self._strengths):
            offset = offset + strength * weights[:, s]
        return offset

    def target_offset_field(self, weights: np.ndarray, locations: np.ndarray) -> np.ndarray:
        """Target-position-dependent multipath perturbation, ``(m, k)``.

        A target standing near a scatterer that is itself relevant to the
        link perturbs the reflected path.  The perturbation is a smooth
        deterministic function of the target position, so neighbouring
        locations still produce similar fingerprints (Observation 2), but it
        differs across links enough to break exact low-rankness.
        ``locations`` is ``(k, 2)``.
        """
        positions = self._positions
        target_distance = hypot(
            locations[:, 0:1] - positions[:, 0], locations[:, 1:2] - positions[:, 1]
        )
        target_weight = np.exp(-target_distance / self.config.interaction_range_m)
        offset = np.zeros((weights.shape[0], locations.shape[0]))
        # Scatterer by scatterer, so the sum rounds like the scalar model's.
        for s, strength in enumerate(self._strengths):
            offset = offset + (strength * weights[:, s])[:, None] * target_weight[:, s]
        return self.config.target_coupling_db * offset
