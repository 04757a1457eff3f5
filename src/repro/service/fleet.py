"""Fleet campaigns: many sites, one stacked refresh per time stamp.

``FleetCampaign`` scales the single-environment
:class:`~repro.simulation.campaign.SurveyCampaign` protocol to the paper's
whole evaluation: it builds the office / hall / library deployments (or any
registered subset, or caller-supplied specs), surveys each site's
ground-truth database, and at every survey stamp refreshes *all* sites with
one :meth:`UpdateService.refresh_fleet` call — the per-sweep normal equations
of every site land in a single stacked batched solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.updater import IUpdater
from repro.environments import environment_by_name
from repro.environments.base import EnvironmentSpec
from repro.service.executor import ShardExecutor
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.types import FleetReport, UpdateRequest
from repro.simulation.campaign import SITE_SEED_STRIDE, CampaignConfig, SurveyCampaign

__all__ = ["FleetConfig", "FleetCampaign", "PAPER_FLEET"]

PAPER_FLEET: Tuple[str, ...] = ("office", "hall", "library")
"""The paper's three evaluation environments."""


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of a multi-site fleet campaign.

    Attributes
    ----------
    environments:
        Names of registered environments to deploy (see
        :data:`~repro.environments.ENVIRONMENT_FACTORIES`).  Ignored when the
        campaign is built from explicit specs.
    campaign:
        The per-site campaign protocol (time stamps, collection depths,
        updater configuration); shared by every site.  Site ``k`` uses
        seed ``campaign.seed + k * SITE_SEED_STRIDE``.
    """

    environments: Tuple[str, ...] = PAPER_FLEET
    campaign: CampaignConfig = field(default_factory=CampaignConfig)

    def __post_init__(self) -> None:
        if not self.environments:
            raise ValueError("environments must be non-empty")
        if len(set(self.environments)) != len(self.environments):
            raise ValueError(f"duplicate environments: {self.environments}")


class FleetCampaign:
    """A simulated measurement campaign across a fleet of sites.

    Parameters
    ----------
    specs:
        Optional explicit ``{site: EnvironmentSpec}`` mapping.  When omitted,
        the specs are built from ``config.environments`` via the environment
        registry.
    config:
        Fleet configuration; defaults to the paper's three environments on
        the default campaign protocol.
    service:
        The :class:`UpdateService` performing the stacked refreshes
        (injectable for testing).
    """

    def __init__(
        self,
        specs: Optional[Mapping[str, EnvironmentSpec]] = None,
        config: Optional[FleetConfig] = None,
        service: Optional[UpdateService] = None,
    ) -> None:
        self.config = config or FleetConfig()
        if specs is None:
            specs = {
                name: environment_by_name(name) for name in self.config.environments
            }
        if not specs:
            raise ValueError("the fleet needs at least one site")
        self.specs: Dict[str, EnvironmentSpec] = dict(specs)
        self.service = service or UpdateService()
        self.campaigns: Dict[str, SurveyCampaign] = {}
        for index, (site, spec) in enumerate(self.specs.items()):
            site_config = replace(
                self.config.campaign,
                seed=self.config.campaign.seed + index * SITE_SEED_STRIDE,
            )
            self.campaigns[site] = SurveyCampaign(spec, site_config)
        self._updaters: Dict[str, IUpdater] = {}

    # ---------------------------------------------------------------- access
    @property
    def sites(self) -> Tuple[str, ...]:
        """Site identifiers, in deployment order."""
        return tuple(self.campaigns)

    def campaign(self, site: str) -> SurveyCampaign:
        """The per-site survey campaign for ``site``."""
        try:
            return self.campaigns[site]
        except KeyError:
            raise ValueError(
                f"unknown site {site!r}; have {list(self.campaigns)}"
            ) from None

    def updater(self, site: str) -> IUpdater:
        """The site's (cached) pipeline, holding its MIC / LRR results."""
        if site not in self._updaters:
            self._updaters[site] = self.campaign(site).make_updater()
        return self._updaters[site]

    # -------------------------------------------------------------- refreshes
    def build_requests(self, elapsed_days: float) -> List[UpdateRequest]:
        """Collect every site's fresh measurements into update requests."""
        requests: List[UpdateRequest] = []
        for site in self.sites:
            campaign = self.campaigns[site]
            updater = self.updater(site)
            mic, lrr = updater.acquire_correlation()
            reference_indices = tuple(int(i) for i in mic.indices)
            observed, mask, reference = campaign.collect_update_inputs(
                elapsed_days, reference_indices
            )
            requests.append(
                UpdateRequest(
                    site=site,
                    baseline=updater.baseline,
                    no_decrease_matrix=observed,
                    no_decrease_mask=mask,
                    reference_matrix=reference,
                    reference_indices=reference_indices,
                    config=updater.config,
                    rng=campaign.config.seed,
                    correlation=(mic, lrr),
                )
            )
        return requests

    def refresh(
        self,
        elapsed_days: float,
        shards: Union[ShardConfig, int, None] = None,
        executor: Union["ShardExecutor", str, None] = None,
        warm_from: Optional[FleetReport] = None,
    ) -> FleetReport:
        """Refresh every site's database at ``elapsed_days`` in one stacked solve.

        ``shards``, ``executor`` and ``warm_from`` are forwarded to
        :meth:`UpdateService.refresh_fleet`, whose report gains the per-site
        errors against ground truth.
        """
        fleet = self.service.refresh_fleet(
            self.build_requests(elapsed_days),
            elapsed_days=elapsed_days,
            shards=shards,
            executor=executor,
            warm_from=warm_from,
        )
        errors: Dict[str, float] = {}
        stale: Dict[str, float] = {}
        for report in fleet.reports:
            campaign = self.campaigns[report.site]
            if elapsed_days not in campaign.database:
                # Refreshes between survey stamps are legal; there is simply
                # no ground truth to grade them against.
                continue
            truth = campaign.ground_truth(elapsed_days)
            errors[report.site] = report.matrix.reconstruction_error_db(truth)
            stale[report.site] = campaign.database.original.reconstruction_error_db(
                truth
            )
        return replace(fleet, errors_db=errors, stale_errors_db=stale)

    def refresh_all(self) -> Dict[float, FleetReport]:
        """Refresh the fleet at every post-original campaign time stamp."""
        return {
            days: self.refresh(days)
            for days in self.config.campaign.timestamps_days
            if days > 0
        }
