"""Shard planning: split a fleet into cache-sized, rank-grouped batches.

The fleet service used to stack *every* site into one lockstep
solve, so a 500-site fleet built one enormous ``(Σ columns, r, r)`` system
stack per sweep regardless of cache size.  The scheduler in this module
turns that into an explicit plan:

1. **Rank grouping** — requests are grouped by factorisation rank, never
   mixed.  Equal-rank stacks concatenate without padding, which preserves
   the bitwise-parity guarantee (identity-padding is *not* bit-exact: BLAS
   picks different kernels for different matrix sizes, so
   :func:`~repro.utils.linalg.stacked_rank_solve` never pads).
2. **Byte budgeting** — each rank group is split into shards whose summed
   per-sweep system-stack bytes (:func:`~repro.core.stacked.sweep_stack_nbytes`)
   stay under ``ShardConfig.max_stack_bytes``, defaulting to an L3-ish
   32 MiB so one process can refresh hundreds of sites without the stacked
   solve spilling to main memory.

Because batched LU factorises each slice independently, any shard split of
a rank group is bit-identical, per site, to the unsharded solve — pinned by
``tests/service/test_fleet_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_MAX_STACK_BYTES",
    "ShardConfig",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "mark_executed",
    "resolve_shard_config",
]

DEFAULT_MAX_STACK_BYTES = 32 * 1024 * 1024
"""Default per-shard system-stack budget (L3-ish: 32 MiB)."""


@dataclass(frozen=True)
class ShardConfig:
    """Configuration of the fleet shard planner.

    Attributes
    ----------
    max_stack_bytes:
        Per-shard budget for the concatenated per-sweep system stack, in
        bytes.  ``None`` disables splitting (one shard per rank group — the
        pre-sharding behaviour).  A site whose own stack exceeds the budget
        still gets a (singleton) shard; the budget bounds *grouping*, it
        never refuses work.
    """

    max_stack_bytes: Optional[int] = DEFAULT_MAX_STACK_BYTES

    def __post_init__(self) -> None:
        if self.max_stack_bytes is not None and self.max_stack_bytes <= 0:
            raise ValueError(
                f"max_stack_bytes must be positive or None, got {self.max_stack_bytes}"
            )


@dataclass(frozen=True)
class Shard:
    """One schedulable unit: same-rank sites solved in one lockstep run.

    Attributes
    ----------
    index:
        Position of the shard in the plan's execution order.
    rank:
        Factorisation rank shared by every member site.
    sites:
        Member site identifiers, in request order.
    members:
        Request positions of the member sites (indices into the request
        sequence the plan was built from).
    stack_bytes:
        Estimated peak system-stack bytes one sweep of this shard
        materialises (sum of the members' per-site estimates).
    sweeps:
        Lockstep sweeps the shard executed (0 until executed).
    fallback:
        Whether execution abandoned the stacked run and solved the member
        sites individually (per-shard singularity isolation).
    """

    index: int
    rank: int
    sites: Tuple[str, ...]
    members: Tuple[int, ...]
    stack_bytes: int
    sweeps: int = 0
    fallback: bool = False

    @property
    def site_count(self) -> int:
        """Number of member sites."""
        return len(self.sites)


@dataclass(frozen=True)
class ShardPlan:
    """The executed (or to-be-executed) shard schedule of one fleet refresh."""

    shards: Tuple[Shard, ...]
    max_stack_bytes: Optional[int]

    @property
    def shard_count(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    @property
    def site_count(self) -> int:
        """Total number of sites across all shards."""
        return sum(shard.site_count for shard in self.shards)

    @property
    def peak_stack_bytes(self) -> int:
        """Largest per-shard system-stack estimate — the memory high-water mark."""
        return max((shard.stack_bytes for shard in self.shards), default=0)

    @property
    def ranks(self) -> Tuple[int, ...]:
        """Distinct factorisation ranks, in first-appearance order."""
        seen: Dict[int, None] = {}
        for shard in self.shards:
            seen.setdefault(shard.rank, None)
        return tuple(seen)

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary (for reporting / CLI output)."""
        return {
            "shards": float(self.shard_count),
            "sites": float(self.site_count),
            "rank_groups": float(len(self.ranks)),
            "peak_stack_bytes": float(self.peak_stack_bytes),
            "fallback_shards": float(sum(s.fallback for s in self.shards)),
        }

    # ------------------------------------------------------------------- wire
    def to_json(self) -> dict:
        """Plain-JSON representation (used by the NPZ report wire format)."""
        return {
            "max_stack_bytes": self.max_stack_bytes,
            "shards": [
                {
                    "index": shard.index,
                    "rank": shard.rank,
                    "sites": list(shard.sites),
                    "members": list(shard.members),
                    "stack_bytes": shard.stack_bytes,
                    "sweeps": shard.sweeps,
                    "fallback": shard.fallback,
                }
                for shard in self.shards
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ShardPlan":
        """Rebuild a plan from :meth:`to_json` output; raises ``ValueError`` on corrupt input."""
        try:
            shards = tuple(
                Shard(
                    index=int(entry["index"]),
                    rank=int(entry["rank"]),
                    sites=tuple(str(site) for site in entry["sites"]),
                    members=tuple(int(i) for i in entry["members"]),
                    stack_bytes=int(entry["stack_bytes"]),
                    sweeps=int(entry["sweeps"]),
                    fallback=bool(entry["fallback"]),
                )
                for entry in data["shards"]
            )
            max_bytes = data["max_stack_bytes"]
            return cls(
                shards=shards,
                max_stack_bytes=None if max_bytes is None else int(max_bytes),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt shard plan payload: {exc}") from exc


def resolve_shard_config(
    shards: Union[ShardConfig, int, None]
) -> ShardConfig:
    """Normalise the ``shards=`` argument of ``UpdateService.update_fleet``.

    ``None`` keeps the pre-sharding behaviour (unbounded shards, one per
    rank group); an integer is shorthand for ``ShardConfig(max_stack_bytes=n)``.
    """
    if shards is None:
        return ShardConfig(max_stack_bytes=None)
    if isinstance(shards, ShardConfig):
        return shards
    if isinstance(shards, int) and not isinstance(shards, bool):
        return ShardConfig(max_stack_bytes=shards)
    raise TypeError(
        f"shards must be a ShardConfig, a byte budget, or None, got {type(shards).__name__}"
    )


def plan_shards(
    sites: Sequence[str],
    ranks: Sequence[int],
    stack_bytes: Sequence[int],
    config: Optional[ShardConfig] = None,
    indices: Optional[Sequence[int]] = None,
) -> ShardPlan:
    """Group sites by rank and split each group into byte-budgeted shards.

    Parameters
    ----------
    sites, ranks, stack_bytes:
        Parallel per-site sequences: identifier, factorisation rank and
        estimated per-sweep system-stack bytes.
    config:
        Shard configuration; defaults to the L3-ish byte budget.
    indices:
        Optional request positions recorded as the shards' ``members``;
        defaults to ``0..len(sites)-1``.

    Rank groups form in first-appearance order and preserve request order
    internally, so reports reassemble deterministically.  Within a group a
    greedy pass accumulates sites until the next one would exceed the byte
    budget; a single oversized site becomes a singleton shard (the budget
    bounds grouping, it never refuses work).
    """
    if not len(sites) == len(ranks) == len(stack_bytes):
        raise ValueError(
            "sites, ranks and stack_bytes must be parallel sequences "
            f"(got lengths {len(sites)}, {len(ranks)}, {len(stack_bytes)})"
        )
    if indices is None:
        indices = range(len(sites))
    elif len(indices) != len(sites):
        raise ValueError("indices must parallel sites when given")
    config = config or ShardConfig()
    budget = config.max_stack_bytes

    by_rank: Dict[int, List[int]] = {}
    for position, rank in enumerate(ranks):
        by_rank.setdefault(int(rank), []).append(position)

    shards: List[Shard] = []
    for rank, positions in by_rank.items():
        group: List[int] = []
        group_bytes = 0
        for position in positions:
            site_bytes = int(stack_bytes[position])
            if group and budget is not None and group_bytes + site_bytes > budget:
                shards.append(
                    _make_shard(len(shards), rank, group, group_bytes, sites, indices)
                )
                group, group_bytes = [], 0
            group.append(position)
            group_bytes += site_bytes
        if group:
            shards.append(
                _make_shard(len(shards), rank, group, group_bytes, sites, indices)
            )
    return ShardPlan(shards=tuple(shards), max_stack_bytes=budget)


def _make_shard(
    index: int,
    rank: int,
    positions: Sequence[int],
    total_bytes: int,
    sites: Sequence[str],
    indices: Sequence[int],
) -> Shard:
    return Shard(
        index=index,
        rank=rank,
        sites=tuple(str(sites[p]) for p in positions),
        members=tuple(int(indices[p]) for p in positions),
        stack_bytes=int(total_bytes),
    )


def mark_executed(plan: ShardPlan, shard_index: int, sweeps: int, fallback: bool = False) -> ShardPlan:
    """Return a plan with one shard's execution outcome recorded."""
    shards = list(plan.shards)
    shards[shard_index] = replace(
        shards[shard_index], sweeps=int(sweeps), fallback=bool(fallback)
    )
    return replace(plan, shards=tuple(shards))
