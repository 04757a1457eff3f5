"""Core algorithms: the paper's primary contribution.

* :mod:`repro.core.constraints` — the structural matrices ``T`` (neighbour
  relationship), ``G`` (location continuity) and ``H`` (adjacent-link
  similarity) of Section IV-C.
* :mod:`repro.core.mic` — maximum-independent-column (reference location)
  selection of Section IV-B.
* :mod:`repro.core.lrr` — low-rank representation (inherent correlation
  matrix ``Z``) solved with an inexact augmented Lagrange multiplier method.
* :mod:`repro.core.rsvd` — the basic regularized-SVD matrix factorisation of
  Section IV-A.
* :mod:`repro.core.self_augmented` — the self-augmented RSVD solver
  (Algorithm 1) combining the basic RSVD with both constraints.
* :mod:`repro.core.stacked` — the lockstep driver advancing many sites'
  :class:`~repro.core.self_augmented.SweepState` solves through one stacked
  batched solve per sweep (the fleet service's engine).
* :mod:`repro.core.analysis` — SVD / NLC / ALS diagnostics used in Section II.
* :mod:`repro.core.updater` — the high-level :class:`IUpdater` pipeline.
"""

from repro.core.analysis import (
    als_values,
    low_rank_report,
    nlc_values,
    singular_value_profile,
)
from repro.core.constraints import (
    continuity_matrix,
    relationship_matrix,
    similarity_matrix,
)
from repro.core.lrr import LRRConfig, LRRResult, low_rank_representation
from repro.core.mic import MICResult, select_reference_locations
from repro.core.rsvd import RSVDConfig, RSVDResult, rsvd_complete
from repro.core.self_augmented import (
    SelfAugmentedConfig,
    SelfAugmentedResult,
    SweepState,
    self_augmented_rsvd,
    solve_state,
)
from repro.core.stacked import run_stacked_sweeps
from repro.core.updater import IUpdater, UpdaterConfig, UpdateResult

__all__ = [
    "als_values",
    "low_rank_report",
    "nlc_values",
    "singular_value_profile",
    "continuity_matrix",
    "relationship_matrix",
    "similarity_matrix",
    "LRRConfig",
    "LRRResult",
    "low_rank_representation",
    "MICResult",
    "select_reference_locations",
    "RSVDConfig",
    "RSVDResult",
    "rsvd_complete",
    "SelfAugmentedConfig",
    "SelfAugmentedResult",
    "SweepState",
    "self_augmented_rsvd",
    "solve_state",
    "run_stacked_sweeps",
    "IUpdater",
    "UpdaterConfig",
    "UpdateResult",
]
