"""Large-scale propagation model: log-distance path loss with shadowing.

The received signal strength (without a target present) along a link is
modelled as::

    RSS(d) = P_tx + G_sys - PL(d0) - 10 * n * log10(d / d0) + X_sigma

where ``n`` is the path-loss exponent (environment dependent), ``PL(d0)`` is
the close-in free-space reference loss and ``X_sigma`` is a static,
link-specific log-normal shadowing term (drawn once per deployment, because
shadowing from walls and furniture does not fluctuate second to second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.rf.geometry import SPEED_OF_LIGHT, WIFI_2G4_FREQUENCY_HZ
from repro.utils.random import RngLike, make_rng

__all__ = ["PropagationConfig", "PathLossModel", "free_space_path_loss"]


def free_space_path_loss(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB at ``distance_m`` metres.

    Uses the standard Friis form ``20 log10(4 pi d f / c)``.  A minimum
    distance of 1 cm avoids the singularity at zero.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    distance = max(distance_m, 0.01)
    return 20.0 * math.log10(4.0 * math.pi * distance * frequency_hz / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class PropagationConfig:
    """Parameters of the large-scale propagation model.

    Attributes
    ----------
    tx_power_dbm:
        Transmit power plus antenna gains.  TP-Link WR742N routers transmit
        at about 20 dBm.
    path_loss_exponent:
        Log-distance exponent; ~2.0 for the open hall, larger for cluttered
        environments.
    reference_distance_m:
        Close-in reference distance ``d0``.
    shadowing_std_db:
        Standard deviation of the static per-link shadowing term.
    frequency_hz:
        Carrier frequency.
    """

    tx_power_dbm: float = 20.0
    path_loss_exponent: float = 2.2
    reference_distance_m: float = 1.0
    shadowing_std_db: float = 2.0
    frequency_hz: float = WIFI_2G4_FREQUENCY_HZ

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if self.reference_distance_m <= 0:
            raise ValueError("reference_distance_m must be positive")
        if self.shadowing_std_db < 0:
            raise ValueError("shadowing_std_db must be non-negative")


class PathLossModel:
    """Log-distance path-loss model with a frozen per-link shadowing offset."""

    def __init__(self, config: PropagationConfig, rng: RngLike = None) -> None:
        self.config = config
        self._rng = make_rng(rng)
        self._shadowing_cache: dict[int, float] = {}

    def reference_loss_db(self) -> float:
        """Path loss at the reference distance ``d0``."""
        return free_space_path_loss(
            self.config.reference_distance_m, self.config.frequency_hz
        )

    def path_loss_db(self, distance_m: float) -> float:
        """Deterministic log-distance path loss at ``distance_m`` metres."""
        distance = max(distance_m, self.config.reference_distance_m)
        return self.reference_loss_db() + 10.0 * self.config.path_loss_exponent * math.log10(
            distance / self.config.reference_distance_m
        )

    def shadowing_db(self, link_index: int) -> float:
        """Static shadowing offset for a link, drawn once and cached."""
        if link_index not in self._shadowing_cache:
            self._shadowing_cache[link_index] = float(
                self._rng.normal(0.0, self.config.shadowing_std_db)
            )
        return self._shadowing_cache[link_index]

    def baseline_rss_dbm(self, distance_m: float, link_index: int = 0) -> float:
        """Target-free RSS of a link of length ``distance_m``."""
        return (
            self.config.tx_power_dbm
            - self.path_loss_db(distance_m)
            + self.shadowing_db(link_index)
        )
