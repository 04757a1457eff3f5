"""Per-site preparation: turn an :class:`UpdateRequest` into a solvable state.

This is the **ingest** stage of the service pipeline, factored out of
:class:`~repro.service.service.UpdateService` so that any execution backend
— the in-process :class:`~repro.service.executor.SerialExecutor` or a
remote :class:`~repro.service.remote.WorkerServer` that just rehydrated
its shard from a :mod:`repro.io` payload — runs the exact same code path:
Inherent Correlation Acquisition (MIC + LRR, skipped when the request
carries a precomputed ``correlation``), the Constraint-1 prediction
``P = X_R Z``, the merge of the fresh reference columns into the observation
mask, and the staged :class:`~repro.core.self_augmented.SweepState`.

Preparation is deterministic for a given request (MIC and LRR are
deterministic in the baseline; the solver init draws from the request's
seed), which is what lets a worker rebuild a shard's states
bit-identically to the coordinator that planned them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.lrr import LRRResult, low_rank_representation
from repro.core.mic import MICResult, select_reference_locations
from repro.core.self_augmented import SelfAugmentedResult, SweepState
from repro.core.updater import UpdateResult
from repro.fingerprint.matrix import FingerprintMatrix
from repro.service.types import UpdateReport, UpdateRequest

__all__ = ["PreparedSite", "prepare_request"]


@dataclass
class PreparedSite:
    """A request after Inherent Correlation Acquisition, ready to solve."""

    request: UpdateRequest
    mic: MICResult
    lrr: LRRResult
    reference_indices: Tuple[int, ...]
    state: SweepState

    def report(self, solver_result: SelfAugmentedResult) -> UpdateReport:
        request = self.request
        baseline = request.baseline
        matrix = FingerprintMatrix(
            values=solver_result.estimate,
            locations_per_link=baseline.locations_per_link,
            no_decrease_mask=baseline.no_decrease_mask.copy()
            if baseline.no_decrease_mask is not None
            else None,
        )
        result = UpdateResult(
            matrix=matrix,
            reference_indices=self.reference_indices,
            mic=self.mic,
            lrr=self.lrr,
            solver=solver_result,
        )
        return UpdateReport(
            site=request.site,
            result=result,
            sweeps=solver_result.iterations,
            converged=solver_result.converged,
            warm_started=self.state.warm_started,
        )


def prepare_request(request: UpdateRequest) -> PreparedSite:
    """Run Inherent Correlation Acquisition and stage the site's solve.

    This is the per-site half of the pipeline ``IUpdater.update`` used to
    own: MIC selection + LRR on the baseline, the Constraint-1 prediction
    ``P = X_R Z``, and the merge of the fresh reference columns into the
    observation mask.
    """
    config = request.config
    if request.correlation is not None:
        mic, lrr = request.correlation
    else:
        mic = select_reference_locations(
            request.baseline.values,
            count=config.reference_count,
            strategy=config.mic_strategy,
        )
        lrr = low_rank_representation(
            request.baseline.values, mic.mic_matrix, config=config.lrr
        )

    reference_indices = request.reference_indices
    if reference_indices is None:
        reference_indices = tuple(int(i) for i in mic.indices)
    if request.reference_matrix.shape[1] != len(reference_indices):
        raise ValueError(
            "reference_matrix must have one column per reference index"
        )

    # Constraint 1 prediction P = X_R Z, valid when the reference columns
    # match the MIC columns the correlation matrix was built from.
    if len(reference_indices) == lrr.correlation.shape[0]:
        prediction: Optional[np.ndarray] = lrr.predict(request.reference_matrix)
    else:
        prediction = None

    observed = request.no_decrease_matrix.copy()
    mask = request.no_decrease_mask.copy()
    if config.include_reference_in_mask:
        for k, j in enumerate(reference_indices):
            observed[:, j] = request.reference_matrix[:, k]
            mask[:, j] = 1.0

    state = SweepState(
        observed,
        mask,
        request.baseline.locations_per_link,
        prediction=prediction,
        config=config.solver,
        rng=request.rng,
    )
    if request.warm_start is not None:
        state.warm_start(
            request.warm_start.left,
            request.warm_start.right,
            request.warm_start.objective,
        )
    return PreparedSite(
        request=request,
        mic=mic,
        lrr=lrr,
        reference_indices=reference_indices,
        state=state,
    )
