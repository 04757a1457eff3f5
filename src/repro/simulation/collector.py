"""Measurement collection against the simulated radio substrate.

``MeasurementCollector`` plays the role of the paper's "Reconstruction Data
Collection Module" plus the ground-truth survey crew: it walks the simulated
deployment and produces

* full ground-truth surveys (every location, with a target present) — what a
  traditional fingerprint system collects,
* the no-decrease matrix ``X_B`` (measured with nobody in the area),
* the reference matrix ``X_R`` (fresh measurements at a handful of reference
  locations), and
* online RSS vectors for localization trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.environments.base import Deployment
from repro.fingerprint.masks import DecreaseClassification, classify_elements
from repro.fingerprint.matrix import FingerprintMatrix
from repro.utils.validation import check_indices

__all__ = ["CollectionConfig", "MeasurementCollector"]


@dataclass(frozen=True)
class CollectionConfig:
    """Sampling parameters of the measurement collector.

    Attributes
    ----------
    survey_samples:
        Number of RSS samples averaged per location during a ground-truth
        survey (traditional systems use ~50).
    reference_samples:
        Number of samples averaged at a reference location (iUpdater uses 5).
    online_samples:
        Number of samples averaged for an online localization measurement
        (iUpdater's low-latency operating point is a single beacon).
    with_noise:
        Whether short-term noise is applied to the simulated readings.
    """

    survey_samples: int = 50
    reference_samples: int = 5
    online_samples: int = 2
    with_noise: bool = True

    def __post_init__(self) -> None:
        for name in ("survey_samples", "reference_samples", "online_samples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class MeasurementCollector:
    """Collects RSS measurements from a simulated deployment."""

    def __init__(
        self,
        deployment: Deployment,
        config: Optional[CollectionConfig] = None,
    ) -> None:
        self.deployment = deployment
        self.config = config or CollectionConfig()
        self._classification: Optional[DecreaseClassification] = None

    @property
    def classification(self) -> DecreaseClassification:
        """Element classification (large / small / no decrease) of the deployment."""
        if self._classification is None:
            self._classification = classify_elements(self.deployment)
        return self._classification

    # ----------------------------------------------------------- full surveys
    def _measure(self, indices, elapsed_days: float, samples: int) -> np.ndarray:
        """``(m, k)`` sample-averaged readings with the target at each of the
        grid ``indices`` in turn (one field evaluation)."""
        return self.deployment.channel.measure_field(
            self.deployment.location_array()[np.asarray(indices, dtype=int)],
            elapsed_days=elapsed_days,
            samples=samples,
            with_noise=self.config.with_noise,
        )

    def survey_fingerprint(
        self,
        elapsed_days: float = 0.0,
        samples: Optional[int] = None,
    ) -> FingerprintMatrix:
        """Collect a full ground-truth fingerprint matrix (target at every grid)."""
        samples = samples or self.config.survey_samples
        values = self._measure(np.arange(self.deployment.location_count), elapsed_days, samples)
        return FingerprintMatrix(
            values=values,
            locations_per_link=self.deployment.locations_per_link,
            no_decrease_mask=self.classification.no_decrease_mask,
        )

    # ------------------------------------------------------- partial surveys
    def collect_no_decrease(
        self, elapsed_days: float = 0.0, samples: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Collect the no-decrease matrix ``X_B`` and its index matrix ``B``.

        The no-decrease elements barely change when a person is present, so
        they are measured without a target: every link's target-free RSS is
        recorded and written into the columns whose classification says "no
        decrease".
        """
        samples = samples or self.config.reference_samples
        n = self.deployment.location_count
        mask = self.classification.no_decrease_mask
        baseline = self.deployment.channel.measure_baseline(
            elapsed_days, samples=samples, with_noise=self.config.with_noise
        )
        observed = np.tile(baseline[:, None], (1, n)) * mask
        return observed, mask.copy()

    def collect_reference(
        self,
        reference_indices: Sequence[int],
        elapsed_days: float = 0.0,
        samples: Optional[int] = None,
    ) -> np.ndarray:
        """Collect the reference matrix ``X_R`` (target at each reference grid)."""
        indices = check_indices(
            reference_indices, self.deployment.location_count, "reference_indices"
        )
        samples = samples or self.config.reference_samples
        return self._measure(indices, elapsed_days, samples)

    def collect_partial_survey(
        self,
        fraction: float,
        elapsed_days: float = 0.0,
        samples: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Survey a random ``fraction`` of the locations (Claim-3 experiments).

        Returns an observed matrix and a mask marking the surveyed columns
        (all rows of a surveyed column are observed).
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        rng = rng or np.random.default_rng(0)
        n = self.deployment.location_count
        count = max(1, int(round(fraction * n)))
        chosen = rng.choice(n, size=count, replace=False)
        samples = samples or self.config.reference_samples
        m = self.deployment.link_count
        observed = np.zeros((m, n), dtype=float)
        mask = np.zeros((m, n), dtype=float)
        observed[:, chosen] = self._measure(chosen, elapsed_days, samples)
        mask[:, chosen] = 1.0
        return observed, mask

    # --------------------------------------------------------------- online
    def online_measurement(
        self,
        location_index: int,
        elapsed_days: float = 0.0,
        samples: Optional[int] = None,
    ) -> np.ndarray:
        """One online RSS vector with the target at ``location_index``."""
        return self.online_batch([location_index], elapsed_days, samples)[0]

    def online_batch(
        self,
        location_indices: Sequence[int],
        elapsed_days: float = 0.0,
        samples: Optional[int] = None,
    ) -> np.ndarray:
        """Online RSS vectors (rows) for a list of true target locations."""
        indices = np.asarray(location_indices, dtype=int).reshape(-1)
        if np.any((indices < 0) | (indices >= self.deployment.location_count)):
            raise ValueError("location_index out of range")
        samples = samples or self.config.online_samples
        return np.ascontiguousarray(self._measure(indices, elapsed_days, samples).T)
