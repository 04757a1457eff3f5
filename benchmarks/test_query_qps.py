"""Serving throughput: looped vs vectorized queries/sec on the read path.

A refreshed synthetic site is published into a :class:`QueryEngine`, and the
same query workload is timed through the engine's vectorized
``localize_batch``, through the same engine with a 4096-entry result cache,
and through the per-query loop of :func:`tests.oracles.localize_looped` over
the engine's bound matcher, at batch sizes 1, 64 and 1024.  Answers must be
identical (the parity invariant the serving engine rests on); the rows are
printed as ``BENCH_query_qps_*`` (and optionally written as JSON for CI
artifacts via ``REPRO_BENCH_JSON``).  The cached path's first call of each
batch misses on every row (``cached_cold_qps_b*``); its best repeat answers
every row from the cache (``cached_qps_b*``).

The hard performance assertion — the vectorized path clears ≥ 10x the
looped throughput at the 1024-query batch — is the point of the read path:
one distance-matrix GEMM instead of 1024 per-query evaluations.  It can be
skipped on noisy runners via ``REPRO_SKIP_PERF_ASSERT``; the parity
assertions always run.
"""

import os
import time

import numpy as np
import pytest

from repro.query import QueryConfig, QueryEngine
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet
from tests.oracles import localize_looped

from benchmarks._harness import record

BATCH_SIZES = (1, 64, 1024)
REPEATS = 3
MIN_SPEEDUP_AT_1024 = 10.0
CACHE_SIZE = 4096


@pytest.fixture(scope="module")
def served_site():
    """One genuinely refreshed site published into the engine."""
    requests = synthesize_fleet(
        1, elapsed_days=45.0, seed=11, link_count=8, locations_per_link=8
    )
    report = UpdateService().refresh_fleet(requests, elapsed_days=45.0)
    engine = QueryEngine(QueryConfig(matcher="knn"))
    engine.publish_report(report)
    cached = QueryEngine(QueryConfig(matcher="knn", cache_size=CACHE_SIZE))
    cached.publish_report(report)
    site = report.sites[0]
    matcher = engine.store.current().sites[site].matcher
    paths = {
        "looped": lambda queries: localize_looped(matcher, queries),
        "vectorized": lambda queries: engine.localize_batch(site, queries),
        "cached": lambda queries: cached.localize_batch(site, queries),
    }
    return paths, report.report_for(site).matrix


def test_query_qps_vectorized_vs_looped(served_site):
    """Identical answers, ≥ 10x throughput at the 1024-query batch."""
    paths, matrix = served_site
    rng = np.random.default_rng(29)

    rows = {
        "links": matrix.link_count,
        "grids": matrix.location_count,
        "matcher": "knn",
    }
    qps = {}
    for batch_size in BATCH_SIZES:
        truth = rng.integers(0, matrix.location_count, size=batch_size)
        queries = matrix.values.T[truth] + rng.normal(
            0.0, 0.5, size=(batch_size, matrix.link_count)
        )
        answers = {}
        for name, localize in paths.items():
            seconds = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                answers[name] = localize(queries)
                seconds.append(time.perf_counter() - start)
            qps[(name, batch_size)] = batch_size / min(seconds)
            if name == "cached":
                qps[("cached_cold", batch_size)] = batch_size / seconds[0]

        # Hard invariant: vectorization never changes an answer.
        fast = answers["vectorized"]
        looped_indices, looped_points = answers["looped"]
        np.testing.assert_array_equal(fast.indices, looped_indices)
        np.testing.assert_allclose(fast.points, looped_points, atol=1e-10)
        # Nor does the result cache: hits replay the exact miss answers.
        warm = answers["cached"]
        assert warm.cache_hits == batch_size
        np.testing.assert_array_equal(warm.indices, fast.indices)
        np.testing.assert_array_equal(warm.points, fast.points)

        rows[f"looped_qps_b{batch_size}"] = round(qps[("looped", batch_size)], 1)
        rows[f"vectorized_qps_b{batch_size}"] = round(
            qps[("vectorized", batch_size)], 1
        )
        rows[f"speedup_b{batch_size}"] = round(
            qps[("vectorized", batch_size)] / qps[("looped", batch_size)], 2
        )
        rows[f"cached_cold_qps_b{batch_size}"] = round(
            qps[("cached_cold", batch_size)], 1
        )
        rows[f"cached_qps_b{batch_size}"] = round(qps[("cached", batch_size)], 1)

    print()
    for key, value in rows.items():
        print(f"BENCH_query_qps_{key}: {value}")

    record("query_qps", rows)

    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        pytest.skip("REPRO_SKIP_PERF_ASSERT set; BENCH_ rows recorded above")
    largest = BATCH_SIZES[-1]
    speedup = rows[f"speedup_b{largest}"]
    assert speedup >= MIN_SPEEDUP_AT_1024, (
        f"vectorized path only {speedup:.1f}x over looped at "
        f"{largest}-query batches; the GEMM path should clear "
        f"{MIN_SPEEDUP_AT_1024:.0f}x"
    )
