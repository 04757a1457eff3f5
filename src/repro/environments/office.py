"""The office environment (9 m x 12 m, 8 links, 94 effective grids).

The paper's office has desks and cubicles producing a mix of line-of-sight
and non-line-of-sight links ("medium" multipath).  94 effective grids do not
divide evenly into 8 per-link stripes, so we use 96 grids (12 per link); the
two extra grids correspond to cells the paper excluded for furniture and do
not change any of the matrix-structure arguments.
"""

from __future__ import annotations

from repro.environments.base import EnvironmentSpec
from repro.rf.channel import ChannelConfig
from repro.rf.propagation import PropagationConfig
from repro.rf.variation import VariationConfig

__all__ = ["office_environment"]


def office_environment(
    locations_per_link: int = 12,
    link_count: int = 8,
    channel_config: ChannelConfig | None = None,
) -> EnvironmentSpec:
    """Environment specification for the paper's office testbed.

    Parameters
    ----------
    locations_per_link:
        Stripe width ``N / M``; the default of 12 gives 96 grid locations,
        the closest stripe-aligned value to the paper's 94.
    link_count:
        Number of parallel Wi-Fi links (8 in the paper).
    channel_config:
        Optional override of the physical-layer configuration.
    """
    if channel_config is None:
        channel_config = ChannelConfig(
            propagation=PropagationConfig(path_loss_exponent=2.6, shadowing_std_db=2.5),
            variation=VariationConfig(),
        )
    return EnvironmentSpec(
        name="office",
        width_m=12.0,
        height_m=9.0,
        link_count=link_count,
        locations_per_link=locations_per_link,
        grid_spacing_m=0.6,
        multipath_level="medium",
        channel_config=channel_config,
    )
