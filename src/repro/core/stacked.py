"""Lockstep driver for many self-augmented ALS solves.

This is the computational heart of the fleet update service
(:mod:`repro.service`): a set of per-site :class:`~repro.core.self_augmented.SweepState`
objects — one per fingerprint matrix, with heterogeneous shapes and ranks —
is advanced sweep by sweep *together*.  Every sweep, the per-site R-column and
L-row normal-equation stacks are concatenated per factorisation rank and
solved with one batched LAPACK call per distinct rank through
:func:`~repro.utils.linalg.stacked_rank_solve`, instead of looping a
Python-level solver over the sites.

Because batched LU factorises each ``(r, r)`` slice independently, every
site's iterates are bit-identical to what a standalone
:func:`~repro.core.self_augmented.self_augmented_rsvd` run would produce — sites that converge early simply drop out of the
stack while the rest keep sweeping.

The same independence is what makes the fleet *shardable*: a shard (any
subset of the states) advanced through :func:`run_stacked_sweeps` produces,
per site, exactly the floats the full stack would have produced.  :func:`sweep_stack_nbytes`
estimates the per-sweep system-stack footprint of one state so the scheduler
(:mod:`repro.service.shard`) can size shards to a byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

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


def run_stacked_sweeps(states: Sequence[SweepState]) -> int:
    """Drive every state to convergence (or its iteration budget) in lockstep.

    Returns the number of stacked sweeps executed — the fleet-level iteration
    count, ``max`` over the per-site sweep counts.  Only the given states are
    advanced, which is what a shard-sized call relies on.
    """
    active = [state for state in states if state.active]
    sweeps = 0
    while active:
        sweeps += 1
        for state in active:
            state.begin_sweep()
        rights = stacked_rank_solve([state.right_systems() for state in active])
        for state, solution in zip(active, rights):
            state.set_right(solution)
        lefts = stacked_rank_solve([state.left_systems() for state in active])
        for state, solution in zip(active, lefts):
            state.set_left(solution)
        for state in active:
            state.finish_sweep()
        active = [state for state in active if state.active]
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

