"""Core algorithms: the paper's primary contribution.

* :mod:`repro.core.constraints` — the structural matrices ``T`` (neighbour
  relationship), ``G`` (location continuity) and ``H`` (adjacent-link
  similarity) of Section IV-C.
* :mod:`repro.core.mic` — maximum-independent-column (reference location)
  selection of Section IV-B.
* :mod:`repro.core.lrr` — low-rank representation (inherent correlation
  matrix ``Z``) solved with an inexact augmented Lagrange multiplier method.
* :mod:`repro.core.self_augmented` — the self-augmented RSVD solver
  (Algorithm 1).  The basic regularized-SVD factorisation of Section IV-A
  (Eq. 11) is the same solver with both constraints turned off
  (``SelfAugmentedConfig(use_reference_constraint=False,
  use_structure_constraint=False)``).
* :mod:`repro.core.stacked` — the lockstep driver advancing many sites'
  :class:`~repro.core.self_augmented.SweepState` solves through one stacked
  batched solve per sweep (the fleet service's engine).
* :mod:`repro.core.analysis` — SVD / NLC / ALS diagnostics used in Section II.
* :mod:`repro.core.updater` — the high-level :class:`IUpdater` pipeline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "als_values": "repro.core.analysis",
        "low_rank_report": "repro.core.analysis",
        "nlc_values": "repro.core.analysis",
        "singular_value_profile": "repro.core.analysis",
        "continuity_matrix": "repro.core.constraints",
        "relationship_matrix": "repro.core.constraints",
        "similarity_matrix": "repro.core.constraints",
        "LRRConfig": "repro.core.lrr",
        "LRRResult": "repro.core.lrr",
        "low_rank_representation": "repro.core.lrr",
        "MICResult": "repro.core.mic",
        "select_reference_locations": "repro.core.mic",
        "SelfAugmentedConfig": "repro.core.self_augmented",
        "SelfAugmentedResult": "repro.core.self_augmented",
        "SweepState": "repro.core.self_augmented",
        "self_augmented_rsvd": "repro.core.self_augmented",
        "solve_state": "repro.core.self_augmented",
        "run_stacked_sweeps": "repro.core.stacked",
        "IUpdater": "repro.core.updater",
        "UpdaterConfig": "repro.core.updater",
        "UpdateResult": "repro.core.updater",
    },
)
