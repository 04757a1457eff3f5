"""The high-level iUpdater pipeline.

``IUpdater`` ties the four modules of the system overview (Section III)
together:

1. **Inherent Correlation Acquisition** — select the MIC reference locations
   from the original (or latest-updated) fingerprint matrix and solve the
   LRR problem for the correlation matrix ``Z``.
2. **Reconstruction Data Collection** — the caller supplies the no-decrease
   matrix ``X_B`` (measured with nobody present) and the reference matrix
   ``X_R`` (fresh measurements at the reference locations); helpers on the
   simulation side produce both.
3. **Fingerprint Matrix Reconstruction** — run the self-augmented RSVD with
   Constraint 1 (``X_R Z``) and Constraint 2 (continuity / similarity).
4. **Target Localization** — hand the reconstructed matrix to the OMP
   localizer (:mod:`repro.localization.omp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.lrr import LRRConfig, LRRResult, low_rank_representation
from repro.core.mic import MICResult, select_reference_locations
from repro.core.self_augmented import SelfAugmentedConfig, SelfAugmentedResult
from repro.fingerprint.matrix import FingerprintMatrix
from repro.utils.random import RngLike
from repro.utils.validation import check_2d

__all__ = ["UpdaterConfig", "UpdateResult", "IUpdater"]


@dataclass(frozen=True)
class UpdaterConfig:
    """Configuration of the full iUpdater pipeline.

    Attributes
    ----------
    reference_count:
        Number of reference locations; ``None`` uses the matrix rank (the
        paper's minimal choice, equal to the number of links).
    mic_strategy:
        Reference-selection strategy (``"qr"`` or ``"gauss"``).
    lrr:
        Configuration of the low-rank-representation solve.
    solver:
        Configuration of the self-augmented RSVD solver.
    include_reference_in_mask:
        When True (default) the fresh reference columns are also added to the
        observation mask so the data-fit term sees them directly, in addition
        to Constraint 1.
    """

    reference_count: Optional[int] = None
    mic_strategy: str = "qr"
    lrr: LRRConfig = field(default_factory=LRRConfig)
    solver: SelfAugmentedConfig = field(default_factory=SelfAugmentedConfig)
    include_reference_in_mask: bool = True


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one fingerprint-database update.

    Attributes
    ----------
    matrix:
        The reconstructed fingerprint matrix.
    reference_indices:
        Column indices of the reference locations that were measured.
    mic:
        The MIC-selection result used (indices, rank, sub-matrix).
    lrr:
        The LRR solve result (correlation matrix ``Z``).
    solver:
        The self-augmented RSVD result.
    """

    matrix: FingerprintMatrix
    reference_indices: tuple
    mic: MICResult
    lrr: Optional[LRRResult]
    solver: SelfAugmentedResult

    @property
    def estimate(self) -> np.ndarray:
        """Raw reconstructed matrix values."""
        return self.matrix.values


class IUpdater:
    """The iUpdater fingerprint-update pipeline.

    Parameters
    ----------
    baseline:
        The original (or latest-updated) fingerprint matrix from which the
        MIC reference locations and the correlation matrix are derived.
    config:
        Pipeline configuration.
    rng:
        Seed or generator controlling the solver's random initialisation.
    """

    def __init__(
        self,
        baseline: FingerprintMatrix,
        config: Optional[UpdaterConfig] = None,
        rng: RngLike = None,
    ) -> None:
        self.baseline = baseline
        self.config = config or UpdaterConfig()
        self._rng = rng
        self._mic: Optional[MICResult] = None
        self._lrr: Optional[LRRResult] = None

    # ------------------------------------------------------------ module 1
    def acquire_correlation(self) -> tuple[MICResult, LRRResult]:
        """Run the Inherent Correlation Acquisition module.

        Selects the MIC reference locations from the baseline matrix and
        solves the LRR problem for the correlation matrix ``Z``.  The result
        is cached for the updater's lifetime.
        """
        if self._mic is None or self._lrr is None:
            self._mic = select_reference_locations(
                self.baseline.values,
                count=self.config.reference_count,
                strategy=self.config.mic_strategy,
            )
            self._lrr = low_rank_representation(
                self.baseline.values,
                self._mic.mic_matrix,
                config=self.config.lrr,
            )
        return self._mic, self._lrr

    @property
    def reference_indices(self) -> tuple:
        """Column indices where fresh measurements must be collected."""
        mic, _ = self.acquire_correlation()
        return mic.indices

    # ------------------------------------------------------------ module 3
    def update(
        self,
        no_decrease_matrix: np.ndarray,
        no_decrease_mask: np.ndarray,
        reference_matrix: np.ndarray,
        reference_indices: Optional[Sequence[int]] = None,
    ) -> UpdateResult:
        """Reconstruct the fingerprint matrix from fresh measurements.

        This is now a thin single-site adapter over the fleet service
        (:class:`repro.service.UpdateService`): the call builds a one-site
        :class:`~repro.service.types.UpdateRequest` carrying the pipeline's
        cached MIC / LRR results and returns the service's
        :class:`UpdateResult` unchanged, so existing callers keep identical
        results (pinned by ``tests/service/test_fleet_parity.py``).

        Parameters
        ----------
        no_decrease_matrix:
            ``X_B`` — fresh no-decrease measurements (zero where unobserved).
        no_decrease_mask:
            Index matrix ``B`` matching ``no_decrease_matrix``.
        reference_matrix:
            ``X_R`` — fresh measurements at the reference locations, one
            column per reference location, ordered like
            ``reference_indices``.
        reference_indices:
            Column indices the reference measurements correspond to.
            Defaults to the pipeline's own MIC selection.
        """
        # Imported here: repro.service builds on this module, so the shim
        # cannot import it at module load time.
        from repro.service.service import UpdateService
        from repro.service.types import UpdateRequest

        no_decrease_matrix = check_2d(no_decrease_matrix, "no_decrease_matrix")
        no_decrease_mask = check_2d(no_decrease_mask, "no_decrease_mask")
        reference_matrix = check_2d(reference_matrix, "reference_matrix")

        mic, lrr = self.acquire_correlation()
        if reference_indices is None:
            reference_indices = mic.indices
        reference_indices = tuple(int(i) for i in reference_indices)

        request = UpdateRequest(
            site="site",
            baseline=self.baseline,
            no_decrease_matrix=no_decrease_matrix,
            no_decrease_mask=no_decrease_mask,
            reference_matrix=reference_matrix,
            reference_indices=reference_indices,
            config=self.config,
            rng=self._rng,
            correlation=(mic, lrr),
        )
        return UpdateService().update(request).result
