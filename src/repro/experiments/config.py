"""Shared configuration of the evaluation experiments.

The paper's evaluation uses three environments, six survey time stamps over
three months, and a fixed set of reference-location counts.  To keep the
benchmark suite fast enough for CI while still exercising the full pipeline,
``ExperimentConfig`` exposes a ``quick()`` preset (fewer time stamps, fewer
localization trials) and a ``full()`` preset matching the paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.environments import (
    hall_environment,
    library_environment,
    office_environment,
)
from repro.environments.base import EnvironmentSpec
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig

__all__ = ["ExperimentConfig", "PAPER_LATER_TIMESTAMPS"]

PAPER_LATER_TIMESTAMPS: Tuple[float, ...] = (3.0, 5.0, 15.0, 45.0, 90.0)
"""The five post-original survey stamps of the paper (days)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by the per-figure experiments.

    Attributes
    ----------
    timestamps_days:
        Survey time stamps, always including day 0.
    localization_trials:
        Number of online localization trials per configuration.
    seed:
        Master random seed for the simulated substrate.
    survey_samples, reference_samples, online_samples:
        Sampling depths used by the measurement collector.
    """

    timestamps_days: Tuple[float, ...] = (0.0,) + PAPER_LATER_TIMESTAMPS
    localization_trials: int = 60
    seed: int = 7
    survey_samples: int = 20
    reference_samples: int = 5
    online_samples: int = 2

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A fast preset for benchmarks / CI (single later stamp, few trials)."""
        return cls(
            timestamps_days=(0.0, 45.0),
            localization_trials=40,
            survey_samples=8,
        )

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """The paper-faithful preset (all six stamps, more trials)."""
        return cls(
            timestamps_days=(0.0,) + PAPER_LATER_TIMESTAMPS,
            localization_trials=80,
            survey_samples=30,
        )

    @property
    def later_timestamps(self) -> Tuple[float, ...]:
        """All configured stamps except day 0."""
        return tuple(t for t in self.timestamps_days if t > 0)

    def campaign_config(self) -> CampaignConfig:
        """Build the :class:`CampaignConfig` corresponding to this preset."""
        return CampaignConfig(
            timestamps_days=self.timestamps_days,
            collection=CollectionConfig(
                survey_samples=self.survey_samples,
                reference_samples=self.reference_samples,
                online_samples=self.online_samples,
            ),
            seed=self.seed,
        )

    def environments(self) -> Dict[str, EnvironmentSpec]:
        """The paper's three environments, keyed by name."""
        return {
            "hall": hall_environment(),
            "office": office_environment(),
            "library": library_environment(),
        }
