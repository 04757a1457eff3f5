"""The engine's cached serve path against the row-at-a-time oracle.

:meth:`QueryEngine.localize_batch` quantizes a whole batch in one pass and
assembles answers without per-row indexing;
:func:`tests.oracles.localize_cached_looped` keys, copies and assembles one
row at a time.  Fed the same batch sequence, the two must agree bit for
bit: answers, hit counts, cache counters, stored entries and LRU order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import QueryConfig, QueryEngine, QueryIndex, grid_locations
from tests.oracles import cache_key_looped, localize_cached_looped

POOL_SIZE = 8

batches = st.lists(
    st.tuples(
        st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=9),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)


def _pool(values: np.ndarray, quantum: float, seed: int) -> np.ndarray:
    """Query rows: noisy dictionary columns, rows sitting exactly on
    half-quantum ties, and nudged copies that share a key with a neighbour."""
    rng = np.random.default_rng(seed)
    columns = values.T[rng.integers(0, values.shape[1], POOL_SIZE)]
    noisy = columns[:3] + rng.normal(0.0, 0.5, (3, values.shape[0]))
    ties = (2.0 * np.floor(columns[3:6] / quantum) + 1.0) * quantum / 2.0
    nudged = noisy[:2] + rng.uniform(-0.02, 0.02, (2, values.shape[0])) * quantum
    return np.vstack([noisy, ties, nudged])


def _assert_same_state(engine: QueryEngine, oracle: QueryEngine) -> None:
    assert engine.cache_stats == oracle.cache_stats
    assert list(engine.cache._entries) == list(oracle.cache._entries)
    for (index, point), (want_index, want_point) in zip(
        engine.cache._entries.values(), oracle.cache._entries.values()
    ):
        assert type(index) is int and index == want_index
        assert (point is None) == (want_point is None)
        if point is not None:
            assert np.array_equal(point, want_point)


@settings(max_examples=60, deadline=None)
@given(
    sequence=batches,
    capacity=st.integers(1, 8),
    matcher=st.sampled_from(["knn", "omp"]),
    with_locations=st.booleans(),
    quantum=st.sampled_from([0.25, 1.0]),
    swap_at=st.integers(0, 10),
    seed=st.integers(0, 2**16),
)
def test_cached_path_matches_looped_oracle(
    refreshed_fleet, sequence, capacity, matcher, with_locations, quantum, swap_at, seed
):
    site = refreshed_fleet.sites[0]
    matrix = refreshed_fleet.report_for(site).matrix
    locations = (
        grid_locations(matrix.link_count, matrix.locations_per_link)
        if with_locations
        else None
    )
    index = QueryIndex.build(site, matrix, locations=locations)
    config = QueryConfig(matcher=matcher, cache_size=capacity, cache_quantum_db=quantum)
    engine, oracle = QueryEngine(config), QueryEngine(config)
    for served in (engine, oracle):
        served.publish_indexes({site: index})
    pool = _pool(matrix.values, quantum, seed)

    for step, (rows, fortran) in enumerate(sequence):
        if step == swap_at:
            for served in (engine, oracle):
                served.publish_indexes({site: index})
        batch = np.asfortranarray(pool[rows]) if fortran else pool[rows]

        generation = engine.store.current().ordinal
        keys = engine.cache.keys(site, generation, matcher, batch)
        for row, key in enumerate(keys):
            assert key == engine.cache.key(site, generation, matcher, batch[row])
            assert key == cache_key_looped(quantum, site, generation, matcher, batch[row])

        got = engine.localize_batch(site, batch)
        want = localize_cached_looped(oracle, site, batch)
        assert got.generation == want.generation
        assert got.cache_hits == want.cache_hits
        assert got.indices.dtype == want.indices.dtype
        assert np.array_equal(got.indices, want.indices)
        if with_locations:
            assert got.points.dtype == want.points.dtype
            assert np.array_equal(got.points, want.points)
        else:
            assert got.points is None and want.points is None
        _assert_same_state(engine, oracle)
