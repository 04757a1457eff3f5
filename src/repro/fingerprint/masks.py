"""Classification of fingerprint-matrix elements.

Every element ``x_ij`` of the fingerprint matrix falls into one of three
categories depending on where location ``j`` sits relative to link ``i``
(Fig. 4 of the paper):

* ``LARGE`` — the target blocks the direct path of link ``i`` (location ``j``
  lies on link ``i``'s stripe).  These elements form the largely-decrease
  matrix ``X_D``.
* ``SMALL`` — the target is inside the first Fresnel zone of link ``i`` but
  not blocking it (typically the stripes of the adjacent links).
* ``NONE``  — the target is outside the Fresnel zone; the RSS is essentially
  the target-free baseline, so it can be measured with nobody present.  These
  form the no-decrease matrix ``X_B`` and its index matrix ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.environments.base import Deployment

__all__ = ["ElementCategory", "DecreaseClassification", "classify_elements"]


class ElementCategory(int, Enum):
    """Category of a fingerprint-matrix element."""

    NONE = 0
    SMALL = 1
    LARGE = 2


@dataclass(frozen=True)
class DecreaseClassification:
    """Per-element categories plus the derived masks.

    Attributes
    ----------
    categories:
        ``(M, N)`` integer matrix of :class:`ElementCategory` values.
    """

    categories: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the underlying fingerprint matrix."""
        return self.categories.shape

    @property
    def no_decrease_mask(self) -> np.ndarray:
        """The index matrix ``B``: 1 where the element has no RSS decrease."""
        return (self.categories == ElementCategory.NONE.value).astype(float)


def classify_elements(
    deployment: Deployment, use_geometry: bool = True
) -> DecreaseClassification:
    """Classify every (link, location) pair of a deployment.

    Parameters
    ----------
    deployment:
        The deployment whose fingerprint matrix is being described.
    use_geometry:
        When True (default) the classification queries the target-obstruction
        model's Fresnel-zone geometry.  When False, a purely structural
        classification is used instead: a location's own stripe is LARGE, the
        stripes of the immediately adjacent links are SMALL, everything else
        is NONE.  The structural mode matches the idealised matrix sketch of
        Fig. 4 and is useful for unit tests.
    """
    links = np.arange(deployment.link_count)[:, None]
    own_link = np.arange(deployment.location_count) // deployment.locations_per_link
    if use_geometry:
        # Obstruction codes are the category values: 2 blocking, 1 FFZ, 0 outside.
        categories = deployment.channel.obstruction_field(deployment.location_array())
    else:
        categories = np.where(
            np.abs(links - own_link) == 1,
            ElementCategory.SMALL.value,
            ElementCategory.NONE.value,
        )
    # The target always blocks the link whose stripe it stands on, regardless
    # of what the geometric model says (numerical edge cases at stripe ends).
    categories = np.where(links == own_link, ElementCategory.LARGE.value, categories)
    return DecreaseClassification(categories=categories)
