"""Lockstep driver for many self-augmented ALS solves.

This is the computational heart of the fleet update service
(:mod:`repro.service`): a set of per-site :class:`~repro.core.self_augmented.SweepState`
objects — one per fingerprint matrix, with heterogeneous shapes and ranks —
is advanced sweep by sweep *together*.  Sites of the same shape form a
bucket that advances as one stacked state (``SweepState.stack``), so each
sweep builds the systems and the stop test once per bucket; the R-column
and L-row normal-equation stacks of every bucket are then concatenated per
factorisation rank and solved with one batched LAPACK call per distinct
rank through :func:`~repro.utils.linalg.stacked_rank_solve`, instead of
looping a Python-level solver over the sites.

Because batched LU factorises each ``(r, r)`` slice independently and a
stacked state computes every site's terms exactly as that site alone would,
every site's iterates are bit-identical to what a standalone
:func:`~repro.core.self_augmented.self_augmented_rsvd` run would produce —
sites that converge early are written back and cut out of their bucket
(``SweepState.shrink``) while the rest keep sweeping.

The same independence is what makes the fleet *shardable*: a shard (any
subset of the states) advanced through :func:`run_stacked_sweeps` produces,
per site, exactly the floats the full stack would have produced.  :func:`sweep_stack_nbytes`
estimates the per-sweep system-stack footprint of one state so the scheduler
(:mod:`repro.service.shard`) can size shards to a byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.self_augmented import SelfAugmentedResult, SweepState
from repro.utils.linalg import stacked_rank_solve, system_stack_nbytes

__all__ = [
    "ShardResult",
    "run_stacked_sweeps",
    "solve_shard",
    "sweep_stack_nbytes",
]


@dataclass(frozen=True)
class ShardResult:
    """Outcome of solving one shard's states: the gather-side value type.

    This is what an execution backend (:mod:`repro.service.executor`) hands
    back per shard — whether it solved the states in-process or in a worker
    that rehydrated them from a wire payload.  It is a plain dataclass of
    arrays and scalars, so it crosses process boundaries by pickling without
    perturbing a single float.

    Attributes
    ----------
    results:
        One finalized :class:`~repro.core.self_augmented.SelfAugmentedResult`
        per member state, in the shard's member order.
    sweeps:
        Lockstep sweeps the shard executed (``max`` over its members).
    fallback:
        Whether the stacked run was abandoned and the members were solved
        individually (per-shard singularity isolation).
    """

    results: Tuple[SelfAugmentedResult, ...]
    sweeps: int
    fallback: bool = False


def _buckets(states: Sequence[SweepState]) -> List[SweepState]:
    """Group states by :attr:`~repro.core.self_augmented.SweepState.bucket_key`:
    one stacked state per shared key, a lone state as itself."""
    groups: Dict[tuple, List[SweepState]] = {}
    for state in states:
        groups.setdefault(state.bucket_key, []).append(state)
    return [
        members[0] if len(members) == 1 else SweepState.stack(members)
        for members in groups.values()
    ]


def run_stacked_sweeps(states: Sequence[SweepState]) -> int:
    """Drive every state to convergence (or its iteration budget) in lockstep.

    States that share a shape bucket (``(m, n, rank, locations_per_link,
    use_reference, use_structure, iterations)``) advance as one stacked
    state: one system build, one structural-target extraction and one stop
    test per bucket per sweep.  The R (then L) systems of every bucket go
    through one :func:`~repro.utils.linalg.stacked_rank_solve` call per
    half-sweep.  When a member converges or exhausts its own budget, it is
    written back and its bucket shrinks in place to the survivors
    (:meth:`~repro.core.self_augmented.SweepState.shrink`).

    Returns the number of stacked sweeps executed — the fleet-level iteration
    count, ``max`` over the per-site sweep counts.  Only the given states are
    advanced, which is what a shard-sized call relies on.
    """
    buckets = _buckets([state for state in states if state.active])
    sweeps = 0
    while buckets:
        sweeps += 1
        for bucket in buckets:
            bucket.begin_sweep()
        rights = stacked_rank_solve([bucket.right_systems() for bucket in buckets])
        for bucket, solution in zip(buckets, rights):
            bucket.set_right(solution)
        lefts = stacked_rank_solve([bucket.left_systems() for bucket in buckets])
        for bucket, solution in zip(buckets, lefts):
            bucket.set_left(solution)
        for bucket in buckets:
            bucket.finish_sweep()
        buckets = [kept for kept in (b.shrink() for b in buckets) if kept is not None]
    return sweeps


def sweep_stack_nbytes(state: SweepState) -> int:
    """Estimated peak system-stack bytes one sweep of ``state`` materialises.

    The R-column update dominates: it stacks ``n`` (one per matrix column)
    ``(r, r)`` systems plus right-hand sides, dwarfing the ``m``-system L-row
    stack since ``n = m * locations_per_link``.  The scheduler sums this over
    a shard's sites and keeps the total under its byte budget.
    """
    return system_stack_nbytes(state.n, state.rank)


def solve_shard(states: Sequence[SweepState]) -> ShardResult:
    """Advance one shard's states to convergence and package the outcome.

    The happy path of every execution backend: one lockstep run over the
    shard, then one finalized result per member, in member order.  Numerical
    failures (``LinAlgError`` / ``FloatingPointError``) propagate to the
    caller, which owns the per-shard fallback policy.
    """
    sweeps = run_stacked_sweeps(states)
    return ShardResult(
        results=tuple(state.finalize() for state in states), sweeps=sweeps
    )

