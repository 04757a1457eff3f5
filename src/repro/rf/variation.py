"""Temporal RSS variation: short-term noise and long-term drift.

The paper motivates iUpdater with two observations about RSS dynamics:

* **Short term** (Fig. 1): readings at a fixed location fluctuate by up to
  ~5 dB over 100 s because of interference, fans, people moving elsewhere,
  and receiver quantisation.
* **Long term** (Fig. 2): even with nothing moving, the mean RSS drifts by
  ~2.5 dB after 5 days and ~6 dB after 45 days (temperature, humidity,
  furniture changes), which makes the fingerprint database stale.

``ShortTermNoise`` models the former as an AR(1) process plus heavy-ish
tailed impulsive outliers.  ``LongTermDrift`` models the latter as the sum of
a global environment shift, a per-link hardware/gain drift, and a smooth
spatial-field drift (so the *differences* between neighbouring locations and
adjacent links stay much more stable than the raw RSS — Observation 2/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.rf.geometry import Point, points_array
from repro.utils.random import RngLike, derive_rng, make_rng

__all__ = ["VariationConfig", "ShortTermNoise", "LongTermDrift"]


@dataclass(frozen=True)
class VariationConfig:
    """Parameters of the temporal variation processes.

    Attributes
    ----------
    short_term_std_db:
        Standard deviation of the short-term fluctuation process.
    short_term_correlation:
        AR(1) coefficient of consecutive 0.5 s samples.
    outlier_probability:
        Probability that a sample is an impulsive outlier.
    outlier_std_db:
        Standard deviation of outlier amplitudes.
    drift_scale_db:
        Scale of the global long-term drift; calibrated so the shift is
        ≈2.5 dB after 5 days and ≈6 dB after 45 days as in Fig. 2.
    link_drift_std_db:
        Per-link drift scale (hardware gain / antenna aging).
    spatial_drift_std_db:
        Scale of the smooth spatial drift field.
    spatial_drift_length_m:
        Correlation length of the spatial drift field; large values keep
        neighbouring locations drifting together.
    drift_time_constant_days:
        Saturation time constant of the drift magnitude.
    """

    short_term_std_db: float = 1.2
    short_term_correlation: float = 0.7
    outlier_probability: float = 0.05
    outlier_std_db: float = 2.5
    drift_scale_db: float = 5.5
    link_drift_std_db: float = 2.5
    spatial_drift_std_db: float = 2.5
    spatial_drift_length_m: float = 4.0
    drift_time_constant_days: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.short_term_correlation < 1:
            raise ValueError("short_term_correlation must lie in [0, 1)")
        if not 0 <= self.outlier_probability <= 1:
            raise ValueError("outlier_probability must lie in [0, 1]")
        for name in (
            "short_term_std_db",
            "outlier_std_db",
            "drift_scale_db",
            "link_drift_std_db",
            "spatial_drift_std_db",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.spatial_drift_length_m <= 0 or self.drift_time_constant_days <= 0:
            raise ValueError("length and time scales must be positive")


class ShortTermNoise:
    """AR(1) short-term fluctuation with occasional impulsive outliers."""

    def __init__(self, config: VariationConfig, rng: RngLike = None) -> None:
        self.config = config
        self._rng = make_rng(rng)
        self._state = 0.0

    def reset(self) -> None:
        """Reset the AR(1) state (start of a new measurement burst)."""
        self._state = 0.0

    def sample(self) -> float:
        """Draw the next noise sample (dB)."""
        return float(self.sample_burst(1)[0])

    def sample_burst(self, count: int) -> np.ndarray:
        """Draw ``count`` consecutive samples (one measurement burst)."""
        if count <= 0:
            raise ValueError("count must be positive")
        cfg = self.config
        innovation_std = cfg.short_term_std_db * math.sqrt(
            max(1.0 - cfg.short_term_correlation**2, 1e-9)
        )
        normal, uniform = self._rng.normal, self._rng.random
        burst = np.empty(count)
        state = self._state
        for k in range(count):
            state = cfg.short_term_correlation * state + normal(0.0, innovation_std)
            noise = state
            if uniform() < cfg.outlier_probability:
                noise += normal(0.0, cfg.outlier_std_db)
            burst[k] = noise
        self._state = state
        return burst


class LongTermDrift:
    """Deterministic-per-seed long-term drift field.

    The drift at elapsed time ``t`` (days) is::

        drift(link, location, t) = saturation(t) * (global + link_term + spatial(location))

    where ``saturation(t) = 1 - exp(-t / tau)`` grows smoothly with time so
    the 5-day shift is a fraction of the 45-day shift, matching Fig. 2.  The
    per-seed realisation is derived deterministically from the base seed and
    the time stamp, so re-sampling a time stamp always yields the same drift.
    """

    def __init__(self, config: VariationConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self._seed = 0 if seed is None else int(seed)

    def _saturation(self, elapsed_days: float) -> float:
        if elapsed_days < 0:
            raise ValueError("elapsed_days must be non-negative")
        return 1.0 - math.exp(-elapsed_days / self.config.drift_time_constant_days)

    def global_shift_db(self, elapsed_days: float) -> float:
        """Environment-wide RSS shift at ``elapsed_days``."""
        rng = derive_rng(self._seed, 101, int(round(elapsed_days * 1000)))
        direction = 1.0 if rng.random() < 0.5 else -1.0
        magnitude = self.config.drift_scale_db * self._saturation(elapsed_days)
        # Small stochastic modulation (±15 %) so repeated campaigns differ.
        modulation = 1.0 + 0.15 * float(rng.normal())
        return direction * magnitude * max(modulation, 0.5)

    def link_shift_field(self, link_indices: Sequence[int], elapsed_days: float) -> np.ndarray:
        """Per-link drift (receiver gain, antenna aging), ``(r,)``."""
        saturation = self._saturation(elapsed_days)
        stamp = int(round(elapsed_days * 1000))
        return np.array(
            [
                derive_rng(self._seed, 211, int(i), stamp).normal(
                    0.0, self.config.link_drift_std_db
                )
                * saturation
                for i in link_indices
            ],
            dtype=float,
        )

    def spatial_shift_field(self, locations: np.ndarray, elapsed_days: float) -> np.ndarray:
        """Smooth spatial drift (furniture moved, doors opened), ``(k,)``.

        Implemented as a low-frequency random cosine field whose phase and
        orientation depend only on the time stamp, guaranteeing spatial
        smoothness: nearby locations receive nearly identical shifts, which
        preserves the stability of neighbouring-location differences.
        ``locations`` is ``(k, 2)``.
        """
        rng = derive_rng(self._seed, 307, int(round(elapsed_days * 1000)))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        amplitude = float(
            abs(rng.normal(0.0, self.config.spatial_drift_std_db))
            * self._saturation(elapsed_days)
        )
        wave_number = 2.0 * math.pi / (2.0 * self.config.spatial_drift_length_m)
        projected = locations[:, 0] * math.cos(angle) + locations[:, 1] * math.sin(angle)
        return amplitude * np.cos(wave_number * projected + phase)

    def total_shift_field(
        self, link_indices: Sequence[int], locations: np.ndarray, elapsed_days: float
    ) -> np.ndarray:
        """Total long-term drift of ``r`` links at ``k`` locations, ``(r, k)``.

        The global and spatial parameters are derived once per call and the
        per-link term once per link.
        """
        links = self.global_shift_db(elapsed_days) + self.link_shift_field(
            link_indices, elapsed_days
        )
        return links[:, None] + self.spatial_shift_field(locations, elapsed_days)

    def total_shift_db(
        self, link_index: int, location: Point, elapsed_days: float
    ) -> float:
        """Total long-term drift for a link / location pair."""
        return float(
            self.total_shift_field([link_index], points_array([location]), elapsed_days)[0, 0]
        )
