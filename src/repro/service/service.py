"""The batched multi-site update service: an ingest → plan → execute pipeline.

``UpdateService`` is the canonical way to refresh fingerprint databases.  It
accepts any number of :class:`~repro.service.types.UpdateRequest` objects —
sites with heterogeneous matrix shapes and factorisation ranks are fine —
and runs the whole fleet through a three-stage pipeline:

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
   resubmit).  Reports are reassembled in request order, and the executed
   plan is available as :attr:`UpdateService.last_plan` and travels on
   :class:`~repro.service.types.FleetReport` along with the executor name
   and worker count.

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
        self._last_stacked_sweeps = 0
        self._last_plan: Optional[ShardPlan] = None
        self._last_executor: Optional[ShardExecutor] = None
        self._last_sweeps_saved: Dict[str, int] = {}

    @property
    def last_stacked_sweeps(self) -> int:
        """Lockstep sweeps the most recent :meth:`update_fleet` executed.

        With a sharded plan this is the maximum over the per-shard sweep
        counts, which equals the maximum over the per-site sweep counts —
        the same fleet-level iteration number the unsharded lockstep
        reported.
        """
        return self._last_stacked_sweeps

    @property
    def last_plan(self) -> Optional[ShardPlan]:
        """The executed shard plan of the most recent :meth:`update_fleet`."""
        return self._last_plan

    @property
    def last_executor(self) -> Optional[ShardExecutor]:
        """The execution backend the most recent :meth:`update_fleet` used."""
        return self._last_executor

    @property
    def last_sweeps_saved(self) -> Dict[str, int]:
        """Per-site sweeps the most recent warm-started refresh saved.

        ``previous generation's sweeps - this refresh's sweeps`` for every
        site that warm-started from a ``warm_from`` report; empty for cold
        refreshes.
        """
        return dict(self._last_sweeps_saved)

    def update(self, request: UpdateRequest) -> UpdateReport:
        """Refresh a single site (a one-request fleet)."""
        return self.update_fleet([request])[0]

    def update_fleet(
        self,
        requests: Sequence[UpdateRequest],
        shards: Union[ShardConfig, int, None] = None,
        executor: Union[ShardExecutor, str, None] = None,
        warm_from: Optional[FleetReport] = None,
    ) -> List[UpdateReport]:
        """Refresh every requested site through the prepare/plan/execute pipeline.

        Parameters
        ----------
        requests:
            The fleet, one request per site; heterogeneous shapes and ranks
            are fine.
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
            unchanged.  Per-site sweeps saved land in
            :attr:`last_sweeps_saved`.

        Returns the per-site reports in request order; any shard split and
        any executor backend yields bit-identical per-site results.
        """
        requests = list(requests)
        backend = resolve_executor(executor)
        if not requests:
            self._last_stacked_sweeps = 0
            self._last_plan = None
            self._last_executor = backend
            self._last_sweeps_saved = {}
            return []
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

        self._last_plan = plan
        self._last_executor = backend
        self._last_stacked_sweeps = max(
            (shard.sweeps for shard in plan.shards), default=0
        )

        reports = [
            site.report(solver_results[index]) for index, site in enumerate(prepared)
        ]

        self._last_sweeps_saved = {}
        if warm_from is not None:
            for report in reports:
                if not report.warm_started:
                    continue
                try:
                    previous = warm_from.report_for(report.site)
                except KeyError:
                    continue
                self._last_sweeps_saved[report.site] = (
                    previous.sweeps - report.sweeps
                )
        return reports

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
