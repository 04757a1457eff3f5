"""Link-level RSS composition.

``LinkChannel`` composes the propagation, multipath, target-obstruction and
temporal-variation models into the quantity the rest of the system consumes:
an RSS reading (dBm) for a link, optionally with a target at a grid location,
at a given elapsed time, with or without short-term noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.rf.geometry import Link, LinkArrays, Point, points_array
from repro.rf.multipath import MultipathConfig, MultipathField
from repro.rf.propagation import PathLossModel, PropagationConfig
from repro.rf.target import ObstructionState, TargetConfig, TargetModel
from repro.rf.variation import LongTermDrift, ShortTermNoise, VariationConfig
from repro.utils.random import RngLike, make_rng

__all__ = ["ChannelConfig", "LinkChannel"]


@dataclass(frozen=True)
class ChannelConfig:
    """Bundle of all physical-layer configuration objects.

    A single ``ChannelConfig`` fully describes the radio behaviour of a
    deployment; environments differ only in these parameters plus geometry.
    """

    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    multipath: MultipathConfig = field(default_factory=MultipathConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    variation: VariationConfig = field(default_factory=VariationConfig)
    rss_quantization_db: float = 0.5
    rss_floor_dbm: float = -95.0

    def __post_init__(self) -> None:
        if self.rss_quantization_db < 0:
            raise ValueError("rss_quantization_db must be non-negative")


class LinkChannel:
    """RSS generator for one deployment (a set of links in one area).

    The radio is evaluated a field at a time: :meth:`mean_rss_field` gives
    the noise-free mean of every link for ``k`` target locations at once,
    and the per-link methods are views over it.

    Draw order: the static shadowing terms are drawn lazily from the same
    generator as the short-term noise, so a fresh channel's first burst
    draws shadow(0), noise, shadow(1), noise, ...  The measuring methods
    keep that order (each link's shadowing at its first touch inside the
    sequential noise loop) and add the mean field afterwards, so every
    seeded reading matches the one-link-at-a-time order.
    """

    def __init__(
        self,
        links: list[Link],
        area_width: float,
        area_height: float,
        config: Optional[ChannelConfig] = None,
        seed: RngLike = None,
    ) -> None:
        if not links:
            raise ValueError("links must be non-empty")
        self.links = list(links)
        self.config = config or ChannelConfig()
        self._seed = seed if isinstance(seed, int) else None
        rng = make_rng(seed)
        self.path_loss = PathLossModel(self.config.propagation, rng=rng)
        self.multipath = MultipathField(
            self.config.multipath, area_width, area_height, rng=rng
        )
        self.target_model = TargetModel(self.config.target)
        self.drift = LongTermDrift(self.config.variation, seed=self._seed or 0)
        self._noise = ShortTermNoise(self.config.variation, rng=rng)
        self._arrays = LinkArrays.of(self.links)
        self._scatter_weights = self.multipath.link_weights(self._arrays)
        self._static_offset = self.multipath.static_offset_field(self._scatter_weights)

    @property
    def link_count(self) -> int:
        """Number of links in the deployment."""
        return len(self.links)

    # ------------------------------------------------------------ mean field
    def _mean_field(
        self, rows: np.ndarray, locations: Optional[np.ndarray], elapsed_days: float
    ) -> np.ndarray:
        """Noise-free mean RSS of the links at ``rows``: ``(r, k)``, or ``(r,)``
        target-free (each link's drift taken at its midpoint)."""
        # Path loss plus shadowing; draws a row's shadowing if still undrawn.
        rss = np.array(
            [self.path_loss.baseline_rss_dbm(self._arrays.length[i], i) for i in rows]
        )
        rss = rss + self._static_offset[rows]
        if locations is None:
            drift = self.drift.total_shift_field(
                rows, self._arrays.midpoints()[rows], elapsed_days
            ).diagonal()
        else:
            rss = (
                rss[:, None]
                - self.target_model.attenuation_field(self._arrays.take(rows).geometry(locations))
                + self.multipath.target_offset_field(self._scatter_weights[rows], locations)
            )
            drift = self.drift.total_shift_field(rows, locations, elapsed_days)
        return np.maximum(rss + drift, self.config.rss_floor_dbm)

    def mean_rss_field(
        self,
        locations: Union[None, np.ndarray, Sequence[Point]] = None,
        elapsed_days: float = 0.0,
    ) -> np.ndarray:
        """Noise-free mean RSS of every link, for ``k`` target locations at once.

        ``locations`` is a ``(k, 2)`` array or a sequence of points.  Returns
        ``(m, k)`` (column ``j``: the target at location ``j``), or ``(m,)``
        target-free when ``locations`` is None.
        """
        points = None if locations is None else points_array(locations)
        return self._mean_field(np.arange(self.link_count), points, elapsed_days)

    def obstruction_field(self, locations: Union[np.ndarray, Sequence[Point]]) -> np.ndarray:
        """``(m, k)`` obstruction codes (``TargetModel.STATES``: 2 blocking,
        1 inside the FFZ, 0 outside) of every link for each location."""
        return self.target_model.obstruction_field(
            self._arrays.geometry(points_array(locations))
        )

    def baseline_rss_dbm(self, link_index: int, elapsed_days: float = 0.0) -> float:
        """Target-free mean RSS of a link at a given elapsed time (no noise)."""
        return self.mean_rss_dbm(link_index, None, elapsed_days)

    def mean_rss_dbm(
        self,
        link_index: int,
        target_location: Optional[Point] = None,
        elapsed_days: float = 0.0,
    ) -> float:
        """Noise-free mean RSS of a link with an optional target present."""
        points = None if target_location is None else points_array([target_location])
        return float(self._mean_field(np.array([link_index]), points, elapsed_days).flat[0])

    def obstruction_state(self, link_index: int, location: Point) -> ObstructionState:
        """Expose the target model's link/location classification."""
        return self.target_model.obstruction_state(self.links[link_index], location)

    # ----------------------------------------------------------- measurement
    def _touch_noise(self, count: int, with_noise: bool, link: int) -> np.ndarray:
        """Draw link ``link``'s shadowing (if still undrawn), then ``count``
        noise samples."""
        self.path_loss.shadowing_db(link)
        if not with_noise:
            return np.zeros(count)
        return self._noise.sample_burst(count)

    def _readings(self, mean, noise):
        """Quantised readings ``mean + noise``, clamped to the RSS floor
        (``np.round`` rounds half to even, like ``round``)."""
        rss = np.maximum(mean + noise, self.config.rss_floor_dbm)
        step = self.config.rss_quantization_db
        return rss if step <= 0 else np.round(rss / step) * step

    def measure_field(
        self,
        locations: Union[None, np.ndarray, Sequence[Point]],
        elapsed_days: float = 0.0,
        samples: int = 1,
        with_noise: bool = True,
    ) -> np.ndarray:
        """Sample-averaged readings of every link with the target at each of
        ``locations`` in turn: ``(m, k)``, or ``(m,)`` target-free.

        Equal to ``k`` successive :meth:`measure_vector` calls: the noise is
        drawn location by location, sample by sample, link by link.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        m = self.link_count
        points = None if locations is None else points_array(locations)
        bursts = 1 if points is None else len(points)
        draws = bursts * samples * m
        noise = np.zeros(draws)
        if draws:
            # The first location's first sample touches each link's shadowing.
            noise[:m] = [self._touch_noise(1, with_noise, i)[0] for i in range(m)]
            if with_noise and draws > m:
                noise[m:] = self._noise.sample_burst(draws - m)
        noise = noise.reshape(bursts, samples, m)
        mean = self._mean_field(np.arange(m), points, elapsed_days)
        if points is None:
            return self._readings(mean, noise[0]).mean(axis=0)
        readings = self._readings(mean.T[:, None, :], noise)
        return np.ascontiguousarray(readings.mean(axis=1).T)

    def measure_baseline(
        self, elapsed_days: float = 0.0, samples: int = 1, with_noise: bool = True
    ) -> np.ndarray:
        """Target-free readings of every link averaged over ``samples``, ``(m,)``.

        Measured link by link (each link's whole burst before the next), the
        order of a walk past the links with nobody in the area.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        noise = np.array(
            [self._touch_noise(samples, with_noise, i) for i in range(self.link_count)]
        )
        mean = self._mean_field(np.arange(self.link_count), None, elapsed_days)
        return self._readings(mean[:, None], noise).mean(axis=1)

    def measure_vector(
        self,
        target_location: Optional[Point] = None,
        elapsed_days: float = 0.0,
        samples: int = 1,
        with_noise: bool = True,
    ) -> np.ndarray:
        """RSS vector across all links, averaged over ``samples`` readings.

        This is the quantity a survey collects at one grid location (one
        fingerprint-matrix column) or the online measurement used for
        localization.
        """
        locations = None if target_location is None else [target_location]
        readings = self.measure_field(locations, elapsed_days, samples, with_noise)
        return readings if target_location is None else readings[:, 0]

    def rss_time_series(
        self,
        link_index: int,
        duration_s: float,
        sample_interval_s: float = 0.5,
        target_location: Optional[Point] = None,
        elapsed_days: float = 0.0,
    ) -> np.ndarray:
        """Simulate a time series of RSS samples (used for Fig. 1 / Fig. 6)."""
        if duration_s <= 0 or sample_interval_s <= 0:
            raise ValueError("duration and sample interval must be positive")
        count = int(round(duration_s / sample_interval_s))
        self._noise.reset()
        if count == 0:
            return np.zeros(0)
        mean = self.mean_rss_dbm(link_index, target_location, elapsed_days)
        return self._readings(mean, self._noise.sample_burst(count))
