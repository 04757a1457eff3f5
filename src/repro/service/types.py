"""Request / response model of the fleet update service.

The service speaks three value types:

* :class:`UpdateRequest` — everything one *site* (one deployed fingerprint
  database) contributes to a refresh: its baseline matrix, the fresh
  no-decrease and reference measurements, the pipeline configuration and the
  solver seed.
* :class:`UpdateReport` — the per-site outcome, wrapping the familiar
  :class:`~repro.core.updater.UpdateResult` with service-level bookkeeping
  (how many sweeps, why the solve stopped, warm start).
* :class:`FleetReport` — one refresh of a whole fleet: the per-site reports
  plus reconstruction-error summaries against ground truth where the caller
  (typically :class:`~repro.service.fleet.FleetCampaign`) knows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.lrr import LRRResult
from repro.core.mic import MICResult
from repro.core.updater import UpdaterConfig, UpdateResult
from repro.fingerprint.matrix import FingerprintMatrix
from repro.service.shard import ShardPlan
from repro.utils.random import RngLike
from repro.utils.validation import (
    check_2d,
    check_binary_mask,
    check_matching_shapes,
)

__all__ = ["WarmFactors", "UpdateRequest", "UpdateReport", "FleetReport"]

#: Each :attr:`UpdateReport.stop_reason` and the :meth:`FleetReport.aggregate`
#: key counting the sites that stopped for it.
_STOP_COUNT_KEYS = {
    "warm-unchanged": "stop_unchanged",
    "tolerance": "stop_tolerance",
    "budget": "stop_budget",
}


@dataclass(frozen=True)
class WarmFactors:
    """Previous-generation factors a site's solve resumes from.

    Attributes
    ----------
    left, right:
        The ``L`` (``M x r``) / ``R`` (``N x r``) factors of the previous
        refresh, fed to :meth:`~repro.core.self_augmented.SweepState.warm_start`.
    objective:
        The previous generation's final objective.  When given, a refresh
        whose warm factors' objective on the new data is within the solver
        tolerance of it stops with zero sweeps and reproduces the factors
        bit for bit.
    """

    left: np.ndarray
    right: np.ndarray
    objective: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", check_2d(self.left, "left"))
        object.__setattr__(self, "right", check_2d(self.right, "right"))
        if self.left.shape[1] != self.right.shape[1]:
            raise ValueError(
                f"warm factors disagree on rank: left is {self.left.shape}, "
                f"right is {self.right.shape}"
            )
        if self.objective is not None:
            object.__setattr__(self, "objective", float(self.objective))


@dataclass
class UpdateRequest:
    """One site's input to a fleet refresh.

    Attributes
    ----------
    site:
        Stable identifier of the site (e.g. the environment name).
    baseline:
        The site's original (or latest-updated) fingerprint matrix, from
        which the MIC reference locations and the correlation matrix are
        derived.
    no_decrease_matrix, no_decrease_mask:
        Fresh ``X_B`` measurements and their index matrix ``B``.
    reference_matrix:
        Fresh ``X_R`` measurements, one column per reference location.
    reference_indices:
        Column indices the reference measurements correspond to; ``None``
        defers to the site's own MIC selection.
    config:
        Pipeline configuration (MIC strategy, LRR, solver).
    rng:
        Seed or generator for the solver's random initialisation.
    correlation:
        Optional precomputed ``(MICResult, LRRResult)`` pair, so callers that
        already ran Inherent Correlation Acquisition (e.g. the
        :class:`~repro.core.updater.IUpdater` shim or a repeated campaign)
        do not pay for it again.
    warm_start:
        Optional :class:`WarmFactors` from the site's previous refresh.
        Carried on the request (rather than service state) so the factors
        ride the scatter wire and every executor backend — including worker
        processes that rehydrate the request from bytes — warm-starts
        identically.
    """

    site: str
    baseline: FingerprintMatrix
    no_decrease_matrix: np.ndarray
    no_decrease_mask: np.ndarray
    reference_matrix: np.ndarray
    reference_indices: Optional[Tuple[int, ...]] = None
    config: UpdaterConfig = field(default_factory=UpdaterConfig)
    rng: RngLike = None
    correlation: Optional[Tuple[MICResult, LRRResult]] = None
    warm_start: Optional[WarmFactors] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("site must be a non-empty identifier")
        if not isinstance(self.baseline, FingerprintMatrix):
            raise TypeError("baseline must be a FingerprintMatrix")
        self.no_decrease_matrix = check_2d(self.no_decrease_matrix, "no_decrease_matrix")
        self.no_decrease_mask = check_2d(self.no_decrease_mask, "no_decrease_mask")
        self.reference_matrix = check_2d(self.reference_matrix, "reference_matrix")
        check_matching_shapes(
            self.no_decrease_matrix,
            self.no_decrease_mask,
            "no_decrease_matrix",
            "no_decrease_mask",
        )
        if self.no_decrease_matrix.shape != self.baseline.shape:
            raise ValueError(
                f"no_decrease_matrix shape {self.no_decrease_matrix.shape} does not "
                f"match the baseline {self.baseline.shape}"
            )
        check_binary_mask(self.no_decrease_mask, "no_decrease_mask")
        if self.reference_matrix.shape[0] != self.baseline.link_count:
            raise ValueError(
                "reference_matrix must have one row per link "
                f"({self.baseline.link_count}), got {self.reference_matrix.shape[0]}"
            )
        if self.reference_indices is not None:
            self.reference_indices = tuple(int(i) for i in self.reference_indices)
            if self.reference_matrix.shape[1] != len(self.reference_indices):
                raise ValueError(
                    "reference_matrix must have one column per reference index"
                )
        if self.warm_start is not None:
            m, n = self.baseline.shape
            if (
                self.warm_start.left.shape[0] != m
                or self.warm_start.right.shape[0] != n
            ):
                raise ValueError(
                    f"warm_start factors {self.warm_start.left.shape} / "
                    f"{self.warm_start.right.shape} do not match the "
                    f"baseline {self.baseline.shape}"
                )


@dataclass(frozen=True)
class UpdateReport:
    """The service's per-site response to an :class:`UpdateRequest`.

    Attributes
    ----------
    site:
        The identifier echoed back from the request.
    result:
        The full :class:`~repro.core.updater.UpdateResult` (matrix, MIC, LRR,
        solver outcome), identical to what ``IUpdater.update`` returns.
    sweeps:
        Alternating sweeps this site consumed.
    converged:
        Whether the site's solve stopped before its sweep budget: the
        estimate's relative change per sweep fell below the solver
        tolerance, or a warm start found its data unchanged.
    warm_started:
        Whether this site's solve resumed from a previous generation's
        factors instead of a cold init.
    """

    site: str
    result: UpdateResult
    sweeps: int
    converged: bool
    warm_started: bool = False

    @property
    def stop_reason(self) -> str:
        """Why the solve stopped: ``"warm-unchanged"`` (a warm start whose
        data had not moved, zero sweeps), ``"tolerance"`` (the estimate
        stopped moving) or ``"budget"`` (the sweep cap)."""
        if not self.converged:
            return "budget"
        if self.warm_started and self.sweeps == 0:
            return "warm-unchanged"
        return "tolerance"

    @property
    def matrix(self) -> FingerprintMatrix:
        """The reconstructed fingerprint matrix."""
        return self.result.matrix

    @property
    def estimate(self) -> np.ndarray:
        """Raw reconstructed matrix values."""
        return self.result.estimate

    @property
    def objective(self) -> float:
        """Final solver objective value."""
        return self.result.solver.objective


@dataclass(frozen=True)
class FleetReport:
    """One fleet-wide refresh: per-site reports plus aggregate summaries.

    Built by :meth:`~repro.service.service.UpdateService.refresh_fleet` (and
    rebuilt by the wire decoder).

    Attributes
    ----------
    elapsed_days:
        The time stamp the refresh was run at.
    reports:
        Per-site :class:`UpdateReport` objects, in request order.
    errors_db:
        Per-site mean absolute reconstruction error (dB) of the refreshed
        matrix against ground truth, where ground truth is known.
    stale_errors_db:
        Per-site error (dB) of the *unrefreshed* baseline against the same
        ground truth — the "do nothing" comparison.
    stacked_sweeps:
        Number of lockstep sweeps the stacked solve executed (the maximum
        over the per-site sweep counts).
    plan:
        The executed :class:`~repro.service.shard.ShardPlan` — which sites
        rode which rank-grouped, byte-budgeted shard, per-shard sweep counts
        and any singularity fallbacks.  ``None`` when the producer did not
        record one.
    executor:
        Name of the :class:`~repro.service.executor.ShardExecutor` backend
        that ran the plan (``"serial"`` or ``"remote"``; reports written
        before the in-host process pool was deleted may say ``"process"``);
        ``None`` when the producer did not record one.
    workers:
        Workers the executor fanned shards out to (0 for in-process
        execution).  Purely bookkeeping: results are
        bit-identical for any worker count.
    sweeps_saved:
        Per-site sweeps the warm start saved below the lineage's cold
        count: the previous report's sweeps plus its own ``sweeps_saved``
        for the site, minus this refresh's sweeps.  Recorded only for
        warm-started sites.
    """

    elapsed_days: float
    reports: Tuple[UpdateReport, ...]
    errors_db: Dict[str, float] = field(default_factory=dict)
    stale_errors_db: Dict[str, float] = field(default_factory=dict)
    stacked_sweeps: int = 0
    plan: Optional[ShardPlan] = None
    executor: Optional[str] = None
    workers: int = 0
    sweeps_saved: Dict[str, int] = field(default_factory=dict)

    @property
    def sites(self) -> Tuple[str, ...]:
        """Site identifiers in report order."""
        return tuple(report.site for report in self.reports)

    def report_for(self, site: str) -> UpdateReport:
        """The per-site report for ``site``."""
        for report in self.reports:
            if report.site == site:
                return report
        raise KeyError(f"no report for site {site!r}; have {list(self.sites)}")

    @property
    def mean_error_db(self) -> float:
        """Mean of the per-site reconstruction errors."""
        if not self.errors_db:
            return float("nan")
        return float(np.mean(list(self.errors_db.values())))

    def aggregate(self) -> Dict[str, float]:
        """Flat scalar summary of the refresh (for reporting / CLI output)."""
        summary: Dict[str, float] = {
            "sites": float(len(self.reports)),
            "stacked_sweeps": float(self.stacked_sweeps),
        }
        reasons = [r.stop_reason for r in self.reports]
        for reason, key in _STOP_COUNT_KEYS.items():
            summary[key] = float(reasons.count(reason))
        warm_sites = sum(r.warm_started for r in self.reports)
        if warm_sites:
            summary["warm_sites"] = float(warm_sites)
        if self.sweeps_saved:
            summary["sweeps_saved"] = float(sum(self.sweeps_saved.values()))
        if self.plan is not None:
            summary["shards"] = float(self.plan.shard_count)
            summary["peak_stack_bytes"] = float(self.plan.peak_stack_bytes)
        if self.executor is not None:
            summary["workers"] = float(self.workers)
        if self.errors_db:
            errors = np.asarray(list(self.errors_db.values()), dtype=float)
            summary["mean_error_db"] = float(errors.mean())
            summary["max_error_db"] = float(errors.max())
        if self.stale_errors_db:
            stale = np.asarray(list(self.stale_errors_db.values()), dtype=float)
            summary["mean_stale_error_db"] = float(stale.mean())
        return summary
