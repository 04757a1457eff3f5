"""Multi-timestamp survey campaigns.

The paper's evaluation spans six surveys over three months in each
environment.  ``SurveyCampaign`` reproduces that protocol against the
simulated substrate: it builds a deployment, surveys the ground-truth
fingerprint matrix at each requested time stamp, and exposes helpers for
running iUpdater updates and localization trials at any of those stamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.updater import IUpdater, UpdaterConfig, UpdateResult
from repro.environments.base import Deployment, EnvironmentSpec
from repro.environments.builder import build_deployment
from repro.fingerprint.database import PAPER_TIMESTAMPS_DAYS, FingerprintDatabase
from repro.fingerprint.matrix import FingerprintMatrix
from repro.simulation.collector import CollectionConfig, MeasurementCollector
from repro.utils.random import make_rng

__all__ = ["CampaignConfig", "SurveyCampaign", "SITE_SEED_STRIDE"]

SITE_SEED_STRIDE = 101
"""Seed offset between the sites of a fleet: site ``k`` surveys with
``seed + k * SITE_SEED_STRIDE``, so every deployment gets an independent
radio substrate."""


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a survey campaign.

    Attributes
    ----------
    timestamps_days:
        Elapsed-day stamps at which ground-truth surveys are taken; defaults
        to the paper's six stamps (0, 3, 5, 15, 45, 90 days).
    collection:
        Sampling configuration of the measurement collector.
    updater:
        Configuration of the iUpdater pipeline runs.
    seed:
        Master seed controlling the radio substrate and all sampling.
    """

    timestamps_days: Tuple[float, ...] = PAPER_TIMESTAMPS_DAYS
    collection: CollectionConfig = field(default_factory=CollectionConfig)
    updater: UpdaterConfig = field(default_factory=UpdaterConfig)
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.timestamps_days:
            raise ValueError("timestamps_days must be non-empty")
        if any(t < 0 for t in self.timestamps_days):
            raise ValueError("timestamps must be non-negative")
        if 0.0 not in self.timestamps_days:
            raise ValueError("the campaign must include the original time (day 0)")


class SurveyCampaign:
    """A full simulated measurement campaign in one environment."""

    def __init__(self, spec: EnvironmentSpec, config: Optional[CampaignConfig] = None) -> None:
        self.spec = spec
        self.config = config or CampaignConfig()
        self.deployment: Deployment = build_deployment(spec, seed=self.config.seed)
        self.collector = MeasurementCollector(self.deployment, self.config.collection)
        self._database: Optional[FingerprintDatabase] = None
        self._rng = make_rng(self.config.seed)

    # ------------------------------------------------------------ ground truth
    @property
    def database(self) -> FingerprintDatabase:
        """Ground-truth fingerprint snapshots at every campaign time stamp."""
        if self._database is None:
            original = self.collector.survey_fingerprint(elapsed_days=0.0)
            database = FingerprintDatabase(original)
            for days in self.config.timestamps_days:
                if days == 0.0:
                    continue
                snapshot = self.collector.survey_fingerprint(elapsed_days=days)
                database.add_snapshot(days, snapshot, mark_as_current=False)
            self._database = database
        return self._database

    def ground_truth(self, elapsed_days: float) -> FingerprintMatrix:
        """The ground-truth fingerprint matrix surveyed at ``elapsed_days``."""
        return self.database.get(elapsed_days)

    # ------------------------------------------------------------------ updates
    def make_updater(self, config: Optional[UpdaterConfig] = None) -> IUpdater:
        """Create an iUpdater pipeline seeded with the original matrix."""
        return IUpdater(
            baseline=self.database.original,
            config=config or self.config.updater,
            rng=self.config.seed,
        )

    def collect_update_inputs(
        self, elapsed_days: float, reference_indices: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collect the raw inputs of one update at ``elapsed_days``.

        Returns the no-decrease matrix ``X_B``, its index matrix ``B`` and
        the fresh reference matrix ``X_R`` — exactly what an
        :class:`~repro.service.types.UpdateRequest` needs, so the fleet
        service can gather many sites' measurements without running the
        per-site pipeline.
        """
        observed, mask = self.collector.collect_no_decrease(elapsed_days=elapsed_days)
        reference = self.collector.collect_reference(
            reference_indices, elapsed_days=elapsed_days
        )
        return observed, mask, reference

    def run_update(
        self,
        elapsed_days: float,
        updater: Optional[IUpdater] = None,
        reference_indices: Optional[Sequence[int]] = None,
    ) -> UpdateResult:
        """Run a fingerprint update at ``elapsed_days``.

        Collects the no-decrease matrix (nobody present) and fresh reference
        measurements at the MIC locations (or a caller-supplied set), then
        reconstructs the matrix with the self-augmented RSVD.
        """
        updater = updater or self.make_updater()
        if reference_indices is None:
            reference_indices = updater.reference_indices
        observed, mask, reference = self.collect_update_inputs(
            elapsed_days, reference_indices
        )
        return updater.update(
            no_decrease_matrix=observed,
            no_decrease_mask=mask,
            reference_matrix=reference,
            reference_indices=reference_indices,
        )

    # ----------------------------------------------------------- localization
    def sample_test_locations(self, count: int) -> np.ndarray:
        """Draw ``count`` random true target locations (grid indices)."""
        if count <= 0:
            raise ValueError("count must be positive")
        n = self.deployment.location_count
        return self._rng.choice(n, size=min(count, n), replace=False)

    def online_measurements(
        self, location_indices: Sequence[int], elapsed_days: float
    ) -> np.ndarray:
        """Online RSS vectors for a set of true locations at a time stamp."""
        return self.collector.online_batch(location_indices, elapsed_days=elapsed_days)

    def localization_errors(
        self,
        fingerprint: FingerprintMatrix,
        location_indices: Sequence[int],
        elapsed_days: float,
        localizer_factory=None,
    ) -> np.ndarray:
        """Per-trial localization errors (metres) using a fingerprint matrix.

        Parameters
        ----------
        fingerprint:
            The matrix the localizer matches against (ground truth,
            reconstructed, or stale).
        location_indices:
            True target grid indices for the trials.
        elapsed_days:
            Time stamp at which the online measurements are simulated.
        localizer_factory:
            Callable ``(fingerprint, locations) -> localizer`` with a
            ``localize_point`` method.  Defaults to the OMP localizer.
        """
        from repro.localization.omp import OMPLocalizer

        locations = self.deployment.location_array()
        if localizer_factory is None:
            localizer = OMPLocalizer(fingerprint, locations)
        else:
            localizer = localizer_factory(fingerprint, locations)
        measurements = self.online_measurements(location_indices, elapsed_days)
        errors = []
        for row, true_index in zip(measurements, location_indices):
            estimate = localizer.localize_point(row)
            truth = locations[int(true_index)]
            errors.append(float(np.linalg.norm(estimate - truth)))
        return np.asarray(errors, dtype=float)
