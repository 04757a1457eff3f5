"""Synthesize fleets of simulated sites as serializable update requests.

The fleet service accepts requests from anywhere; this module manufactures
them at scale from the environment registry, so that wire-format payloads
(``fleet export``), benchmarks and tests can exercise hundreds of
heterogeneous sites without hand-building each deployment.  Every site gets
its own simulated substrate (spec cycled from the registry, per-site seed
offset) and contributes one fully-collected
:class:`~repro.service.types.UpdateRequest` — baseline, fresh no-decrease
and reference measurements, pipeline config, solver seed and the
precomputed MIC/LRR correlation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.updater import UpdaterConfig
from repro.environments import ENVIRONMENT_FACTORIES, environment_by_name
from repro.service.types import UpdateRequest
from repro.simulation.campaign import SITE_SEED_STRIDE, CampaignConfig, SurveyCampaign
from repro.simulation.collector import CollectionConfig

__all__ = ["synthesize_fleet"]


def _cycled(value: Union[int, Sequence[int], None], index: int) -> Optional[int]:
    """Pick the per-site override: scalars apply to all, sequences cycle."""
    if value is None:
        return None
    if isinstance(value, int):
        return value
    if not len(value):
        return None
    return int(value[index % len(value)])


def synthesize_fleet(
    count: int,
    environments: Optional[Sequence[str]] = None,
    elapsed_days: float = 45.0,
    seed: int = 7,
    link_count: Union[int, Sequence[int], None] = None,
    locations_per_link: Union[int, Sequence[int], None] = None,
    collection: Optional[CollectionConfig] = None,
    updater: Optional[UpdaterConfig] = None,
) -> List[UpdateRequest]:
    """Build ``count`` sites' update requests from the environment registry.

    Parameters
    ----------
    count:
        Number of sites to synthesize.
    environments:
        Registered environment names to cycle through; defaults to the whole
        registry (office, hall, library), which already yields heterogeneous
        shapes and factorisation ranks.
    elapsed_days:
        The refresh stamp the fresh measurements are collected at.
    seed:
        Site ``k`` gets substrate seed ``seed + k * SITE_SEED_STRIDE`` so
        every deployment has an independent radio substrate.
    link_count, locations_per_link:
        Optional deployment-size overrides.  A scalar applies to every site;
        a sequence is cycled per site (handy for forcing a mixed-rank fleet
        at CI size).
    collection:
        Measurement sampling depths; defaults to a fast CI-sized
        configuration.
    updater:
        Pipeline configuration shared by every site.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if elapsed_days <= 0:
        raise ValueError(f"elapsed_days must be positive, got {elapsed_days}")
    names = (
        list(environments) if environments is not None else list(ENVIRONMENT_FACTORIES)
    )
    if not names:
        raise ValueError("environments must be non-empty when given")
    collection = collection or CollectionConfig(
        survey_samples=3, reference_samples=2, online_samples=1
    )
    updater = updater or UpdaterConfig()

    requests: List[UpdateRequest] = []
    for k in range(count):
        name = names[k % len(names)]
        overrides = {}
        links = _cycled(link_count, k)
        if links is not None:
            overrides["link_count"] = links
        width = _cycled(locations_per_link, k)
        if width is not None:
            overrides["locations_per_link"] = width
        spec = environment_by_name(name, **overrides)
        site_seed = seed + k * SITE_SEED_STRIDE
        campaign = SurveyCampaign(
            spec,
            CampaignConfig(
                timestamps_days=(0.0, elapsed_days),
                collection=collection,
                updater=updater,
                seed=site_seed,
            ),
        )
        pipeline = campaign.make_updater()
        mic, lrr = pipeline.acquire_correlation()
        reference_indices = tuple(int(i) for i in mic.indices)
        observed, mask, reference = campaign.collect_update_inputs(
            elapsed_days, reference_indices
        )
        requests.append(
            UpdateRequest(
                site=f"{name}-{k:03d}",
                baseline=pipeline.baseline,
                no_decrease_matrix=observed,
                no_decrease_mask=mask,
                reference_matrix=reference,
                reference_indices=reference_indices,
                config=pipeline.config,
                rng=site_seed,
                correlation=(mic, lrr),
            )
        )
    return requests
