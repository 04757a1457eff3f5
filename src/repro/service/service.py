"""The batched multi-site update service: an ingest → plan → execute pipeline.

``UpdateService.refresh_fleet`` is the canonical way to refresh fingerprint
databases.  It accepts any number of
:class:`~repro.service.types.UpdateRequest` objects — sites with
heterogeneous matrix shapes and factorisation ranks are fine — and runs
the whole fleet through a three-stage pipeline:

1. **Ingest / prepare** — per-site Inherent Correlation Acquisition (MIC +
   LRR, skipped when the request carries a precomputed ``correlation``), the
   Constraint-1 prediction and the staged
   :class:`~repro.core.self_augmented.SweepState`
   (:func:`~repro.service.prepare.prepare_request`).  Requests can come from
   anywhere: built in memory by :class:`~repro.service.fleet.FleetCampaign`,
   or loaded from a serialized payload via :func:`repro.io.load_requests`.
2. **Plan** — :func:`~repro.service.shard.plan_shards` groups the
   sites by factorisation rank (equal-rank stacks concatenate without
   padding, preserving the bitwise-parity guarantee; identity-padding is NOT
   bit-exact) and splits each rank group into shards sized by the
   :class:`~repro.service.shard.ShardConfig` byte budget, so one process can
   refresh hundreds of sites without the per-sweep system stack outgrowing
   cache.
3. **Execute** — a pluggable :class:`~repro.service.executor.ShardExecutor`
   backend runs the plan: the default
   :class:`~repro.service.executor.SerialExecutor` advances every shard in
   this process through :func:`~repro.core.stacked.solve_shard`, while
   :class:`~repro.service.remote.RemoteExecutor` scatters shards over HTTP
   workers (each rehydrates its shard from a :mod:`repro.io` wire payload)
   and gathers the results — bit-identical either way.  Per-shard
   singularity isolation applies in both: a shard whose stacked run dies on
   a numerical error falls back to re-preparing and solving its member
   sites individually, so co-tenants are never left with the abandoned
   run's partially-advanced sweeps (a site that fails even in isolation
   raises a ``RuntimeError`` naming it, so the caller can exclude it and
   resubmit).  Reports are reassembled in request order into the one
   :class:`~repro.service.types.FleetReport` the call returns, along with
   the executed plan, the executor name and worker count and the sweeps a
   warm start saved.

Per-site results are bit-identical to independent
:meth:`~repro.core.updater.IUpdater.update` runs for every shard split and
every executor backend — pinned by ``tests/service/test_fleet_parity.py``,
``tests/service/test_executor.py`` and
``tests/service/test_remote_faults.py``: batched LU factorises each slice
independently, and heterogeneous ranks are solved per rank group rather
than padded, so no site's floating-point result is perturbed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.core.stacked import sweep_stack_nbytes
from repro.service.executor import ShardExecutor, resolve_executor
from repro.service.prepare import PreparedSite, prepare_request
from repro.service.shard import (
    ShardConfig,
    ShardPlan,
    plan_shards,
    resolve_shard_config,
)
from repro.service.types import (
    FleetReport,
    UpdateReport,
    UpdateRequest,
    WarmFactors,
)

__all__ = ["UpdateService"]


class UpdateService:
    """Fleet-first fingerprint update service over the stacked ALS core."""

    def __init__(self) -> None:
        self._report = self.refresh_fleet([])

    # The three views below exist only because perfbench's refresh helper
    # reads them after ``update_fleet``; new code reads the report.
    @property
    def last_stacked_sweeps(self) -> int:
        """``stacked_sweeps`` of the last :meth:`update_fleet` report (for perfbench)."""
        return self._report.stacked_sweeps

    @property
    def last_plan(self) -> Optional[ShardPlan]:
        """``plan`` of the last :meth:`update_fleet` report (for perfbench)."""
        return self._report.plan

    @property
    def last_sweeps_saved(self) -> Dict[str, int]:
        """``sweeps_saved`` of the last :meth:`update_fleet` report (for
        perfbench): each warm-started site's lineage cold sweeps minus its
        sweeps."""
        return dict(self._report.sweeps_saved)

    def update(self, request: UpdateRequest) -> UpdateReport:
        """Refresh a single site (a one-request fleet)."""
        return self.refresh_fleet([request]).reports[0]

    def update_fleet(
        self,
        requests: Sequence[UpdateRequest],
        shards: Union[ShardConfig, int, None] = None,
        executor: Union[ShardExecutor, str, None] = None,
        warm_from: Optional[FleetReport] = None,
    ) -> List[UpdateReport]:
        """:meth:`refresh_fleet`'s per-site reports; the report backs the views."""
        self._report = self.refresh_fleet(
            requests, shards=shards, executor=executor, warm_from=warm_from
        )
        return list(self._report.reports)

    def refresh_fleet(
        self,
        requests: Sequence[UpdateRequest],
        *,
        elapsed_days: float = 0.0,
        shards: Union[ShardConfig, int, None] = None,
        executor: Union[ShardExecutor, str, None] = None,
        warm_from: Optional[FleetReport] = None,
    ) -> FleetReport:
        """Refresh every requested site through the prepare/plan/execute pipeline.

        Parameters
        ----------
        requests:
            The fleet, one request per site; heterogeneous shapes and ranks
            are fine.
        elapsed_days:
            The time stamp the refresh is run at, recorded on the report.
        shards:
            Shard scheduling: ``None`` (default) plans one unbounded shard
            per rank group — the historical all-in-lockstep behaviour; a
            :class:`~repro.service.shard.ShardConfig` (or a plain byte
            budget) additionally splits each rank group so every shard's
            per-sweep system stack fits the budget.
        executor:
            Execution backend: ``None`` / ``"serial"`` (default) solves every
            shard in this process; a configured
            :class:`~repro.service.remote.RemoteExecutor` scatters shards
            over HTTP workers.  Results are bit-identical either way
            (``RemoteExecutor`` requires integer request seeds).  Any other
            string raises a ``ValueError``.
        warm_from:
            Previous generation's :class:`~repro.service.types.FleetReport`.
            Sites present in it (with matching shapes and rank) resume from
            its factors instead of a cold init; sites it does not cover —
            or whose geometry changed — fall back to the cold path
            unchanged.

        Returns the one :class:`~repro.service.types.FleetReport` of the
        run (per-site reports in request order, plan, stacked sweeps,
        executor, workers and sweeps saved); any shard split and any
        executor backend yields bit-identical per-site results.
        """
        requests = list(requests)
        backend = resolve_executor(executor)
        if not requests:
            return FleetReport(
                elapsed_days=float(elapsed_days),
                reports=(),
                executor=backend.name,
                workers=backend.workers,
            )
        sites = [request.site for request in requests]
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate site identifiers in fleet request: {sites}")
        if warm_from is not None:
            requests = [
                self._warm_request(request, warm_from) for request in requests
            ]

        prepared = [self._prepare(request) for request in requests]
        plan = self._plan(prepared, resolve_shard_config(shards))
        plan, solver_results = backend.execute(prepared, plan)
        reports = tuple(
            site.report(solver_results[index]) for index, site in enumerate(prepared)
        )
        # Each site's lineage cold count, carried forward along a warm chain.
        cold = {} if warm_from is None else {
            r.site: r.sweeps + warm_from.sweeps_saved.get(r.site, 0)
            for r in warm_from.reports
        }
        return FleetReport(
            elapsed_days=float(elapsed_days),
            reports=reports,
            stacked_sweeps=max((shard.sweeps for shard in plan.shards), default=0),
            plan=plan,
            executor=backend.name,
            workers=backend.workers,
            sweeps_saved={
                r.site: cold[r.site] - r.sweeps
                for r in reports
                if r.warm_started and r.site in cold
            },
        )

    # ------------------------------------------------------------ preparation
    def _prepare(self, request: UpdateRequest) -> PreparedSite:
        """Stage one site's solve (see :func:`repro.service.prepare.prepare_request`)."""
        return prepare_request(request)

    def _warm_request(
        self, request: UpdateRequest, warm_from: FleetReport
    ) -> UpdateRequest:
        """Attach the previous generation's factors to one site's request.

        Falls back to the cold request untouched when the site is absent
        from the previous report, already carries explicit warm factors, or
        the previous factors no longer fit the request's geometry (shape or
        resolved rank changed between generations).
        """
        if request.warm_start is not None:
            return request
        try:
            previous = warm_from.report_for(request.site)
        except KeyError:
            return request
        solver = previous.result.solver
        m, n = request.baseline.shape
        cfg = request.config.solver
        rank = min(cfg.rank if cfg.rank is not None else m, m, n)
        if solver.left.shape != (m, rank) or solver.right.shape != (n, rank):
            return request
        return replace(
            request,
            warm_start=WarmFactors(
                left=solver.left,
                right=solver.right,
                objective=solver.objective,
            ),
        )

    # --------------------------------------------------------------- planning
    def _plan(
        self, prepared: Sequence[PreparedSite], config: ShardConfig
    ) -> ShardPlan:
        """Build the rank-grouped, byte-budgeted schedule of every site."""
        return plan_shards(
            sites=[site.request.site for site in prepared],
            ranks=[site.state.rank for site in prepared],
            stack_bytes=[sweep_stack_nbytes(site.state) for site in prepared],
            config=config,
        )

