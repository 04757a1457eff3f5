"""Shape-bucketed lockstep sweeps against the per-site path.

``run_stacked_sweeps`` advances states that share a bucket key as one
stacked :class:`SweepState` (``(S, m, r)`` factors, ``(S,)`` per-site
scalars).  Stacking must not move a float: every finalized field of every
member equals a solo :func:`solve_state` run bit for bit, and stays within
1e-10 of the per-column reference loop (:func:`tests.oracles.solve_state_looped`)
on these well-conditioned configurations.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.utils.linalg as linalg
from repro.core.self_augmented import SelfAugmentedConfig, SweepState, solve_state
from repro.core.stacked import run_stacked_sweeps
from tests.oracles import solve_state_looped

ORACLE_TOL = 1e-10


def make_state(
    m,
    width,
    rank,
    seed,
    *,
    tolerance=1e-7,
    max_iterations=12,
    reference=True,
    structure=True,
    regularization=0.5,
    drift=0.0,
    warm=None,
    unobserved_column=False,
):
    """A seeded low-rank problem; ``warm="unchanged"`` / ``"drifted"``
    warm-starts it from a solo solve of the undrifted problem."""
    rng = np.random.default_rng(seed)
    n = m * width
    truth = -60.0 + rng.normal(size=(m, 2)) @ rng.normal(size=(2, n))
    mask = (rng.random((m, n)) < 0.7).astype(float)
    mask[0, 1] = 1.0
    if unobserved_column:
        mask[:, 0] = 0.0
    prediction = truth + rng.normal(scale=0.1, size=truth.shape)
    config = SelfAugmentedConfig(
        rank=rank,
        regularization=regularization,
        max_iterations=max_iterations,
        tolerance=tolerance,
        use_reference_constraint=reference,
        use_structure_constraint=structure,
    )

    def build(values):
        return SweepState(values * mask, mask, width, prediction, config, rng=seed)

    state = build(truth + drift)
    if warm is not None:
        previous = build(truth)
        solve_state(previous)
        left, right, objective = previous.export_factors()
        state.warm_start(left, right, objective if warm == "unchanged" else None)
    return state


#: A mixed fleet: three shapes, ranks 3 and 2, members that leave their
#: bucket at different sweeps (tolerance stops at sweeps 7 and 1, budgets
#: of 3 and 12), warm starts (one converging at 0 sweeps) and the two
#: constraint ablations.
MIXED_FLEET = (
    dict(m=6, width=4, rank=3, seed=1),
    dict(m=6, width=4, rank=3, seed=2, tolerance=3e-4),
    dict(m=6, width=4, rank=3, seed=3, max_iterations=3),
    dict(m=6, width=4, rank=3, seed=4, warm="drifted", drift=0.3, tolerance=1e-2),
    dict(m=6, width=4, rank=3, seed=5),
    dict(m=5, width=6, rank=3, seed=6),
    dict(m=5, width=6, rank=3, seed=7, warm="unchanged"),
    dict(m=5, width=6, rank=3, seed=8, tolerance=3e-2),
    dict(m=4, width=5, rank=2, seed=9),
    dict(m=4, width=5, rank=2, seed=10, max_iterations=5),
    dict(m=4, width=5, rank=2, seed=11, reference=False),
    dict(m=4, width=5, rank=2, seed=12, structure=False),
    dict(m=4, width=5, rank=2, seed=13, structure=False, tolerance=5e-2),
)


def assert_bit_identical(got, expect):
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(expect, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def assert_near_oracle(got, oracle):
    """Estimates within 1e-10 dB; factors (entries up to ~20) and the
    objective within 1e-10 of their own scale."""
    np.testing.assert_allclose(got.estimate, oracle.estimate, atol=ORACLE_TOL, rtol=0)
    for name in ("left", "right"):
        expect = getattr(oracle, name)
        np.testing.assert_allclose(
            getattr(got, name), expect, atol=ORACLE_TOL * np.abs(expect).max(), rtol=0
        )
    assert got.objective == pytest.approx(oracle.objective, rel=ORACLE_TOL)
    assert got.iterations == oracle.iterations
    assert got.converged == oracle.converged
    assert got.reference_weight == oracle.reference_weight
    assert got.structure_weight == oracle.structure_weight


def bucketed(specs):
    states = [make_state(**spec) for spec in specs]
    sweeps = run_stacked_sweeps(states)
    return sweeps, [state.finalize() for state in states]


class TestMixedFleet:
    @pytest.fixture(scope="class")
    def outcome(self):
        return bucketed(MIXED_FLEET)

    def test_every_field_matches_the_solo_run(self, outcome):
        _, results = outcome
        for spec, result in zip(MIXED_FLEET, results):
            assert_bit_identical(result, solve_state(make_state(**spec)))

    def test_within_tolerance_of_the_looped_oracle(self, outcome):
        _, results = outcome
        for spec, result in zip(MIXED_FLEET, results):
            assert_near_oracle(result, solve_state_looped(make_state(**spec)))

    def test_members_leave_at_different_sweeps(self, outcome):
        sweeps, results = outcome
        iterations = [result.iterations for result in results]
        assert iterations[6] == 0 and results[6].converged  # unchanged warm start
        assert iterations[2] == 3 and iterations[9] == 5  # own budgets
        assert len(set(iterations[:5])) == 4  # one bucket, four exit sweeps
        assert results[1].converged and results[3].converged  # tolerance stops
        assert sweeps == max(iterations)

    def test_same_shape_sites_share_a_bucket(self, monkeypatch):
        stacked = []
        original = SweepState.stack.__func__

        def spy(cls, states):
            states = tuple(states)
            stacked.append(len(states))
            return original(cls, states)

        monkeypatch.setattr(SweepState, "stack", classmethod(spy))
        bucketed(MIXED_FLEET)
        # Cold buckets: shape A (5 members), B (2 active), C with both
        # constraints (2) and C without structure (2); the reference
        # ablation rides alone.
        assert sorted(stacked[:4]) == [2, 2, 2, 5]


class TestStackRoundTrip:
    def test_stack_rejects_mixed_keys(self):
        a = make_state(m=4, width=5, rank=2, seed=1)
        b = make_state(m=4, width=5, rank=2, seed=2, reference=False)
        with pytest.raises(ValueError, match="bucket keys"):
            SweepState.stack([a, b])
        with pytest.raises(ValueError, match="at least one"):
            SweepState.stack([])

    def test_stacked_state_cannot_finalize(self):
        states = [make_state(m=4, width=5, rank=2, seed=k) for k in (1, 2)]
        stacked = SweepState.stack(states)
        with pytest.raises(ValueError, match="members"):
            stacked.finalize()
        assert stacked.unstack() == tuple(states)

    def test_per_site_scalars_become_arrays(self):
        states = [
            make_state(m=4, width=5, rank=2, seed=1, tolerance=1e-3),
            make_state(m=4, width=5, rank=2, seed=2, max_iterations=4),
        ]
        stacked = SweepState.stack(states)
        assert stacked.left.shape == (2, 4, 2)
        assert stacked.right.shape == (2, 20, 2)
        assert stacked.mask.shape == (2, 4, 20)
        np.testing.assert_array_equal(stacked.tolerance, [1e-3, 1e-7])
        np.testing.assert_array_equal(stacked.max_iterations, [12, 4])
        np.testing.assert_array_equal(stacked.active, [True, True])


class TestSingularSlice:
    def test_singular_site_leaves_bucket_mates_unchanged(self, monkeypatch):
        """A site whose R-system for column 0 is exactly singular (no
        regularisation, no constraints, column 0 unobserved) drags its whole
        bucket through the per-slice fallback; the mates' bits must not
        move."""
        common = dict(m=4, width=5, rank=2, reference=False, structure=False)
        specs = [
            dict(common, seed=1),
            dict(common, seed=2, regularization=0.0, unobserved_column=True),
            dict(common, seed=3),
        ]
        fallbacks = []
        original = linalg.safe_solve

        def counting(lhs, rhs, ridge=1e-10):
            fallbacks.append(1)
            return original(lhs, rhs, ridge=ridge)

        monkeypatch.setattr(linalg, "safe_solve", counting)
        _, results = bucketed(specs)
        assert fallbacks, "the singular slice never reached the fallback"
        for spec, result in zip(specs, results):
            assert_bit_identical(result, solve_state(make_state(**spec)))
        assert np.all(np.isfinite(results[1].estimate))


@st.composite
def bucket_specs(draw):
    """One to six members sharing a shape and rank, plus an odd one out.

    Tolerances and budgets vary per member, so members leave the bucket on
    their estimate-change stop or their budget at different sweeps."""
    m = draw(st.integers(2, 6))
    width = draw(st.integers(2, 5))
    rank = draw(st.integers(1, m))
    regularization = draw(st.sampled_from((0.01, 0.5)))
    size = draw(st.integers(1, 6))
    members = [
        dict(
            m=m,
            width=width,
            rank=rank,
            seed=draw(st.integers(0, 10_000)),
            regularization=regularization,
            tolerance=draw(st.sampled_from((1e-4, 3e-4, 1e-3, 1e-2))),
            max_iterations=draw(st.integers(1, 20)),
        )
        for _ in range(size)
    ]
    other_m = draw(st.integers(2, 5))
    members.append(
        dict(m=other_m, width=3, rank=min(2, other_m), seed=draw(st.integers(0, 10_000)))
    )
    return members


class TestBucketProperty:
    @given(bucket_specs())
    @settings(max_examples=25, deadline=None)
    def test_bucketed_equals_solo(self, specs):
        _, results = bucketed(specs)
        for spec, result in zip(specs, results):
            assert_bit_identical(result, solve_state(make_state(**spec)))
