"""Shared fixtures for the query-engine tests.

The matchers and the engine are exercised over the small striped
fingerprint from the top-level conftest plus one genuinely refreshed
two-site fleet (module-scoped: the refresh is the slow part).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.query import QueryIndex, grid_locations
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet
from repro.service.types import FleetReport


@pytest.fixture()
def query_index(striped_fingerprint) -> QueryIndex:
    """Index over the striped fingerprint with its deterministic grid."""
    matrix = striped_fingerprint
    return QueryIndex.build(
        "test-site",
        matrix,
        locations=grid_locations(matrix.link_count, matrix.locations_per_link),
    )


@pytest.fixture()
def noisy_queries(striped_fingerprint, rng) -> tuple:
    """(measurements, truth): noisy copies of random dictionary columns."""
    truth = rng.integers(0, striped_fingerprint.location_count, size=12)
    measurements = striped_fingerprint.values.T[truth] + rng.normal(
        0.0, 0.15, size=(truth.size, striped_fingerprint.link_count)
    )
    return measurements, truth


@pytest.fixture(scope="module")
def refreshed_fleet() -> FleetReport:
    """A genuinely refreshed two-site fleet report."""
    requests = synthesize_fleet(
        2, link_count=4, locations_per_link=6, seed=17
    )
    return UpdateService().refresh_fleet(requests, elapsed_days=45.0)
