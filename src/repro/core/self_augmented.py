"""Self-augmented RSVD: Algorithm 1 of the paper.

The full reconstruction objective (Eq. 18) augments the basic RSVD data-fit
term with two constraints::

    min_{L, R}   lambda (||L||_F^2 + ||R||_F^2)          (rank regulariser)
               + ||B o (L R^T) - X_B||_F^2               (no-decrease fit)
               + w1 ||L R^T - X_R Z||_F^2                (Constraint 1)
               + w2 (||X_D G||_F^2 + ||H X_D||_F^2)      (Constraint 2)

where

* ``X_B`` / ``B`` are the no-decrease observations and their index matrix,
* ``X_R`` holds fresh measurements at the MIC reference locations and ``Z``
  is the inherent correlation matrix, so ``P = X_R Z`` is a full-matrix
  prediction that pins down the otherwise non-unique factorisation,
* ``X_D`` is the largely-decrease part of the *estimate* ``L R^T`` (the
  diagonal stripes), ``G`` is the neighbour-continuity matrix and ``H`` the
  adjacent-link-similarity matrix; the two quadratic penalties smooth the
  estimate along links and across adjacent links, suppressing short-term RSS
  outliers.

The solver alternates exact per-column ridge solves for ``R`` (the paper's
``MyInverse`` with terms ``Q1..Q5`` / ``C1..C5``) and per-row solves for
``L``.  As the paper notes, the three non-data terms can have very different
magnitudes and would otherwise overshadow each other, so each term carries a
weight; by default the weights are auto-scaled to a common order of magnitude
on the first iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.constraints import continuity_matrix, similarity_matrix
from repro.utils.linalg import batched_safe_solve, masked_gram_stack
from repro.utils.random import RngLike, make_rng
from repro.utils.validation import (
    as_float_array,
    check_2d,
    check_binary_mask,
    check_matching_shapes,
)

__all__ = [
    "SelfAugmentedConfig",
    "SelfAugmentedResult",
    "self_augmented_rsvd",
    "solve_state",
    "SweepState",
]


@dataclass(frozen=True)
class SelfAugmentedConfig:
    """Configuration of the self-augmented RSVD solver.

    Attributes
    ----------
    rank:
        Factorisation rank ``r`` (defaults to the number of links ``M``).
    regularization:
        The multiplier ``lambda`` on ``||L||^2 + ||R||^2``.
    max_iterations:
        Number of alternating sweeps (the paper's iteration count ``t``).
    tolerance:
        Early-stopping threshold ``tau`` on the estimate's relative change:
        a solve stops after the sweep ``k`` where
        ``||X_k - X_{k-1}||_F < tau ||X_{k-1}||_F`` (``X = L R^T``).  A warm
        start's zero-sweep check tests the relative change of the objective
        against the same value (see :meth:`SweepState.warm_start`).
    reference_weight:
        Weight ``w1`` of Constraint 1 (reference/correlation fit).  ``None``
        enables auto-scaling relative to the data-fit term.
    structure_weight:
        Weight ``w2`` of Constraint 2 (continuity + similarity penalties).
        ``None`` enables auto-scaling.
    use_reference_constraint, use_structure_constraint:
        Ablation switches for Fig. 16.
    init_scale:
        Standard deviation of the random initialisation ``L0`` (ignored by
        ``init="svd"``, whose factors are already on the data scale).
    init:
        Cold-start strategy for ``L0``.  ``"random"`` (default, bit-pinned)
        draws from the rng; ``"svd"`` seeds the factors with a truncated SVD
        of the masked observations (``scipy.sparse.linalg.svds`` with a
        deterministic start vector, dense ``np.linalg.svd`` when the rank is
        full or SciPy is unavailable).
    """

    rank: Optional[int] = None
    regularization: float = 0.01
    max_iterations: int = 40
    tolerance: float = 3e-4
    reference_weight: Optional[float] = None
    structure_weight: Optional[float] = None
    use_reference_constraint: bool = True
    use_structure_constraint: bool = True
    init_scale: float = 1.0
    init: str = "random"

    def __post_init__(self) -> None:
        if self.rank is not None and self.rank <= 0:
            raise ValueError("rank must be positive when given")
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        for name in ("reference_weight", "structure_weight"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative when given")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")
        if self.init not in ("random", "svd"):
            raise ValueError(
                f"init must be 'random' or 'svd', got {self.init!r}"
            )


@dataclass(frozen=True)
class SelfAugmentedResult:
    """Outcome of the self-augmented RSVD reconstruction.

    Attributes
    ----------
    estimate:
        The reconstructed fingerprint matrix ``X_hat = L R^T``.
    left, right:
        The factors ``L`` (``M x r``) and ``R`` (``N x r``).
    objective:
        Final objective value.
    iterations:
        Number of alternating sweeps executed.
    converged:
        Whether the solve stopped on its tolerance rather than its sweep
        budget: the estimate's relative change fell below it, or a warm
        start's data had not moved (zero sweeps).
    reference_weight, structure_weight:
        The (possibly auto-scaled) constraint weights actually used.
    """

    estimate: np.ndarray
    left: np.ndarray
    right: np.ndarray
    objective: float
    iterations: int
    converged: bool
    reference_weight: float
    structure_weight: float


def _per_site(value, trailing: int):
    """A per-site scalar (a float, or an ``(S,)`` array for a stacked state)
    shaped to broadcast against ``trailing`` more axes."""
    if isinstance(value, np.ndarray):
        return value.reshape(value.shape + (1,) * trailing)
    return value


def _site_sum(values: np.ndarray):
    """Sum of each site's trailing matrix: a scalar for one site, ``(S,)``
    for a stack.  A row reduction over the flattened matrix adds in the
    order ``np.sum`` adds one site's matrix, so stacking moves no bits."""
    return values.reshape(values.shape[:-2] + (-1,)).sum(axis=-1)


def _unbox(value):
    """Python scalar for one site, the ``(S,)`` array for a stack."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def _transpose(matrix: np.ndarray) -> np.ndarray:
    """Transpose of the trailing matrix (of every site's, for a stack)."""
    return matrix.swapaxes(-1, -2)


def _objective(
    estimate: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    observed: np.ndarray,
    mask: np.ndarray,
    prediction: Optional[np.ndarray],
    g: Optional[np.ndarray],
    h: Optional[np.ndarray],
    locations_per_link: int,
    lam,
    w1,
    w2,
):
    """Eq. 18 per site at ``estimate = L R^T``: a float for one site, an
    ``(S,)`` array for a stack (``lam`` / ``w1`` / ``w2`` are then ``(S,)``
    too)."""
    value = lam * (_site_sum(left**2) + _site_sum(right**2))
    value += _site_sum((mask * estimate - observed) ** 2)
    if prediction is not None:
        value += w1 * _site_sum((estimate - prediction) ** 2)
    if g is not None and h is not None:
        xd = _extract_stripes(estimate, locations_per_link)
        value += w2 * (_site_sum((xd @ g) ** 2) + _site_sum((h @ xd) ** 2))
    return _unbox(value)


def _stripe_blocks(matrix: np.ndarray, locations_per_link: int) -> np.ndarray:
    """``(..., M, M, width)`` view of an ``(..., M, M * width)`` matrix: block
    ``[i, k]`` is link ``i``'s row over link ``k``'s stripe of columns."""
    m = matrix.shape[-2]
    return matrix.reshape(matrix.shape[:-2] + (m, m, locations_per_link))


def _extract_stripes(matrix: np.ndarray, locations_per_link: int) -> np.ndarray:
    """Largely-decrease matrix of an estimate (diagonal stripe extraction)."""
    links = np.arange(matrix.shape[-2])
    return _stripe_blocks(matrix, locations_per_link)[..., links, links, :]


def _svd_init(target: np.ndarray, rank: int, rng: RngLike) -> np.ndarray:
    """Truncated-SVD cold start: ``L0 = U_r sqrt(S_r)`` of the masked data.

    Uses ``scipy.sparse.linalg.svds`` with a deterministic start vector drawn
    from ``rng`` (ARPACK's default start vector is random, which would break
    reproducibility).  ``svds`` requires ``k < min(m, n)``, so the full-rank
    case — the default, since ``rank`` defaults to ``M = min(M, N)`` — and
    environments without SciPy fall back to the dense LAPACK SVD, which is
    deterministic on its own.
    """
    m, n = target.shape
    k = min(rank, m, n)
    if k < min(m, n):
        try:
            from scipy.sparse.linalg import svds
        except ImportError:
            svds = None
        if svds is not None:
            v0 = make_rng(rng).standard_normal(min(m, n))
            u, s, _ = svds(target, k=k, v0=v0)
            # svds returns singular values in ascending order; pin descending.
            order = np.argsort(s)[::-1]
            u, s = u[:, order], s[order]
            return u * np.sqrt(s)
    u, s, _ = np.linalg.svd(target, full_matrices=False)
    return u[:, :k] * np.sqrt(s[:k])


class SweepState:
    """Validated, resumable state of one self-augmented ALS solve — or of a
    bucket of same-shape solves advanced as one tensor.

    The state owns everything :func:`self_augmented_rsvd` needs between
    sweeps: the validated inputs, the (possibly auto-scaled) constraint
    weights, the hoisted Constraint-2 constants, the current factors and the
    convergence bookkeeping.  Each sweep is driven from outside in four
    steps — :meth:`begin_sweep`, a solve of :meth:`right_systems`, a solve of
    :meth:`left_systems`, :meth:`finish_sweep` — which is what lets the
    fleet-stacked solver (:mod:`repro.core.stacked`) advance many sites in
    lockstep while concatenating their per-sweep systems into a single
    batched solve.  Driving a single state to convergence reproduces
    :func:`self_augmented_rsvd` bit for bit.

    The sweep steps are written over an optional leading site axis.
    :meth:`stack` turns states sharing a :attr:`bucket_key` into one state
    whose factors are ``(S, m, r)`` / ``(S, n, r)``, whose inputs are
    ``(S, m, n)`` and whose per-site scalars (``lam``, ``w1``, ``w2``,
    ``tolerance``, ``max_iterations`` and the convergence flag) are ``(S,)``
    arrays, as is the estimate ``L R^T`` the stop test compares against;
    :meth:`shrink` writes each member back when it stops.  Stacked matmuls
    run one gemm per site slice, element-wise terms keep the single-site
    association order and every stop-test sum reduces per site, so each
    member moves exactly as it would alone.  The Eq. 18 objective is only
    reported, so :meth:`finalize` evaluates it once, per member.
    """

    #: Per-site arrays a stacked state carries along a new leading axis.
    _SITE_ARRAYS = (
        "observed",
        "mask",
        "masked_observed",
        "prediction_array",
        "structural_scale",
        "left",
        "right",
        "estimate",
    )
    #: Per-site scalars a stacked state carries as ``(S,)`` arrays.
    _SITE_SCALARS = (
        "lam",
        "w1",
        "w2",
        "tolerance",
        "max_iterations",
        "converged",
    )
    #: What the members of a bucket share: the bucket key and its constants.
    _SHARED = (
        "m",
        "n",
        "rank",
        "locations_per_link",
        "use_reference",
        "use_structure",
        "iterations",
        "g",
        "h",
        "identity",
        "g_column_sq",
        "h_column_sq",
        "_structure_active",
    )

    def __init__(
        self,
        observed: np.ndarray,
        mask: np.ndarray,
        locations_per_link: int,
        prediction: Optional[np.ndarray] = None,
        config: Optional[SelfAugmentedConfig] = None,
        rng: RngLike = None,
    ) -> None:
        # C order, as the stacked copies of a bucket are: a member's gemm
        # operands and reductions then see the same layout stacked or alone.
        observed = np.ascontiguousarray(check_2d(observed, "observed"))
        mask = np.ascontiguousarray(check_2d(mask, "mask"))
        check_matching_shapes(observed, mask, "observed", "mask")
        check_binary_mask(mask)
        m, n = observed.shape
        if locations_per_link <= 0 or n != m * locations_per_link:
            raise ValueError(
                f"locations_per_link={locations_per_link} inconsistent with matrix shape {observed.shape}"
            )
        if not np.any(observed):
            raise ValueError(
                "observed matrix is entirely zero (fully unobserved); the "
                "self-augmented RSVD needs at least one observed entry to "
                "scale its constraint weights"
            )
        cfg = config or SelfAugmentedConfig()
        if prediction is not None:
            prediction = np.ascontiguousarray(check_2d(prediction, "prediction"))
            check_matching_shapes(prediction, observed, "prediction", "observed")

        self.observed = observed
        self.mask = mask
        self.locations_per_link = locations_per_link
        self.prediction = prediction
        self.cfg = cfg
        self.members: tuple = ()
        self.m = m
        self.n = n
        self.use_reference = cfg.use_reference_constraint and prediction is not None
        self.use_structure = cfg.use_structure_constraint
        self.g = continuity_matrix(locations_per_link) if self.use_structure else None
        self.h = similarity_matrix(m) if self.use_structure else None

        rank = cfg.rank if cfg.rank is not None else m
        self.rank = min(rank, m, n)
        self.lam = cfg.regularization
        self.tolerance = cfg.tolerance
        self.max_iterations = cfg.max_iterations
        self.identity = np.eye(self.rank)

        if cfg.init == "svd":
            self.left = _svd_init(mask * observed, self.rank, rng)
        else:
            self.left = cfg.init_scale * make_rng(rng).standard_normal(
                (m, self.rank)
            )
        self.right = np.zeros((n, self.rank))
        # L R^T of the current factors: the next sweep's structural targets
        # and the previous iterate of its stop test.  L0 R0^T = 0, so the
        # first sweep of a cold solve cannot stop.
        self.estimate = np.zeros((m, n))

        # ------------------------------------------------------------ weights
        # Scale the constraint terms to the same order of magnitude as the
        # data-fit term (Section IV-E).  The data-fit magnitude is estimated
        # from the observed entries; the reference term from the prediction.
        data_scale = float(np.sum(observed**2)) or 1.0
        if self.use_reference:
            if cfg.reference_weight is not None:
                self.w1 = cfg.reference_weight
            else:
                reference_scale = float(np.sum(np.asarray(prediction) ** 2)) or 1.0
                self.w1 = data_scale / reference_scale
        else:
            self.w1 = 0.0
        if self.use_structure:
            if cfg.structure_weight is not None:
                self.w2 = cfg.structure_weight
            else:
                # The structural penalties act on per-element dB differences,
                # the same scale as the per-element data-fit residuals; a
                # small sub-unit weight keeps them influential for outlier
                # suppression without blurring the discriminative structure
                # of the columns.
                self.w2 = 0.1
        else:
            self.w2 = 0.0

        self.masked_observed = mask * observed
        self.prediction_array = (
            np.asarray(prediction) if self.use_reference else None
        )
        self.g_column_sq = self.h_column_sq = self.structural_scale = None
        if self.use_structure:
            # Constraint-2 coefficients are functions of the constant G / H
            # matrices only: hoist them out of the sweep instead of
            # recomputing np.sum(G[:, jj]**2) per column per iteration.
            self.g_column_sq = np.sum(np.asarray(self.g) ** 2, axis=0)
            self.h_column_sq = np.sum(np.asarray(self.h) ** 2, axis=0)
            # (M, width): the rank-1 weight of column (link i, offset o).
            self.structural_scale = self.w2 * (
                self.g_column_sq[None, :] + self.h_column_sq[:, None]
            )

        self.converged = False
        self.iterations = 0
        self.warm_started = False
        self._structure_active = False
        self._estimate_stripe: Optional[np.ndarray] = None

    # -------------------------------------------------------------- buckets
    @property
    def bucket_key(self) -> tuple:
        """States with equal keys can advance as one stacked state."""
        return (
            self.m,
            self.n,
            self.rank,
            self.locations_per_link,
            self.use_reference,
            self.use_structure,
            self.iterations,
        )

    @classmethod
    def stack(cls, states) -> "SweepState":
        """One state advancing ``states`` (which share a :attr:`bucket_key`)
        together along a leading site axis.  :meth:`shrink` writes the
        members back; :meth:`finalize` stays per member."""
        states = tuple(states)
        if not states:
            raise ValueError("stack needs at least one state")
        key = states[0].bucket_key
        for state in states:
            if state.members:
                raise ValueError("cannot stack an already stacked state")
            if state.bucket_key != key:
                raise ValueError(
                    f"cannot stack bucket keys {state.bucket_key} and {key}"
                )
        stacked = cls.__new__(cls)
        for name in cls._SHARED:
            setattr(stacked, name, getattr(states[0], name))
        for name in cls._SITE_ARRAYS:
            first = getattr(states[0], name)
            setattr(
                stacked,
                name,
                None
                if first is None
                else np.stack([getattr(state, name) for state in states]),
            )
        for name in cls._SITE_SCALARS:
            setattr(stacked, name, np.array([getattr(s, name) for s in states]))
        stacked.members = states
        stacked._estimate_stripe = None
        return stacked

    def shrink(self) -> Optional["SweepState"]:
        """Write back every member that stopped and return what sweeps on:
        this state cut down to its survivors, a lone survivor itself, or
        ``None`` once all have stopped.  A lone state returns itself while
        it is active."""
        active = self.active
        if not self.members:
            return self if active else None
        if active.all():
            return self
        survivors = np.flatnonzero(active)
        for k, state in enumerate(self.members):
            if not active[k] or len(survivors) == 1:
                state.left = self.left[k].copy()
                state.right = self.right[k].copy()
                state.estimate = self.estimate[k]
                state.converged = bool(self.converged[k])
                state.iterations = self.iterations
                state._structure_active = self._structure_active
        if len(survivors) < 2:
            return self.members[survivors[0]] if len(survivors) else None
        for name in self._SITE_ARRAYS + self._SITE_SCALARS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[survivors])
        self.members = tuple(self.members[k] for k in survivors)
        return self

    # ------------------------------------------------------------ warm start
    def warm_start(
        self,
        left: np.ndarray,
        right: np.ndarray,
        objective=None,
    ) -> bool:
        """Resume from a previous generation's factors.

        Replaces the cold-start factors with ``left`` / ``right`` and resets
        the convergence bookkeeping so the sweep budget starts over.  The
        warm estimate ``L R^T`` is the first sweep's previous iterate, so a
        barely-drifted refresh stops after a single sweep — and when
        ``objective`` (the previous generation's final objective) is given
        and the warm factors' objective *on the new data* matches it within
        the configured tolerance, the state is marked converged immediately:
        an unchanged refresh runs zero sweeps and :meth:`finalize` reproduces
        the previous factors bit for bit.

        Returns whether the state converged without needing any sweeps (per
        site, for a stacked state).
        """
        left = as_float_array(left, "left")
        right = as_float_array(right, "right")
        for name, factor, current in (
            ("left", left, self.left),
            ("right", right, self.right),
        ):
            if factor.shape != current.shape:
                raise ValueError(
                    f"warm-start {name} factor has shape {factor.shape}; "
                    f"this state needs {current.shape}"
                )
        self.left = left.copy()
        self.right = right.copy()
        self.iterations = 0
        self.warm_started = True
        self.estimate = self.left @ _transpose(self.right)
        converged = False
        if objective is not None:
            current = self._evaluate(self.estimate)
            with np.errstate(invalid="ignore"):
                change = np.abs(objective - current) / np.maximum(objective, 1e-12)
                converged = np.isfinite(objective) & (change < self.tolerance)
        self.converged = _unbox(converged)
        return self.converged

    # ----------------------------------------------------------- sweep driver
    @property
    def active(self):
        """Whether another sweep should run (not converged, budget left);
        per site for a stacked state."""
        # ``^ True`` negates a bool and a bool array alike.
        return (self.iterations < self.max_iterations) & (self.converged ^ True)

    def begin_sweep(self) -> None:
        """Start the next sweep: advance the iteration counter and evaluate
        the Constraint-2 structural targets on the estimate of the *previous*
        sweep (or the Constraint-1 prediction on the first sweep), once per
        sweep: pulling every stripe element towards the average of its
        along-link neighbours (continuity, matrix G) and towards the adjacent
        link's value at the same relative position (similarity, matrix H)."""
        self.iterations += 1
        self._structure_active = self.use_structure and (
            self.iterations > 1 or self.use_reference
        )
        if self._structure_active:
            if self.iterations == 1:
                reference_estimate = self.prediction_array
            else:
                reference_estimate = self.estimate
            self._estimate_stripe = _extract_stripes(
                reference_estimate, self.locations_per_link
            )

    def right_systems(self) -> tuple:
        """Stacked normal equations of the R-column update.

        Every column system shares lhs = lam I + L^T diag(B[:, j]) L plus the
        (column-independent) Constraint-1 Gram term and a rank-1 Constraint-2
        correction; stacking all n of them (of every member, for a stacked
        state) lets one batched LAPACK call solve the whole sweep.
        """
        left = self.left
        # In-place accumulation keeps each element's association order:
        # ((lam I + gram) + w1 L^T L) + scale * (l l^T).
        lhs = masked_gram_stack(left, self.mask)
        lhs += _per_site(self.lam, 3) * self.identity
        rhs = _transpose(self.masked_observed) @ left
        if self.use_reference:
            lhs += _per_site(self.w1, 3) * (_transpose(left) @ left)[..., None, :, :]
            rhs += _per_site(self.w1, 2) * (_transpose(self.prediction_array) @ left)
        if self._structure_active:
            # Column (link i, offset o) is row i of an (M, width) stripe
            # grid: it adds scale[i, o] * l_i l_i^T to the lhs and
            # target[i, o] * l_i to the rhs, l_i broadcast over the stripe.
            row_outer = left[..., :, :, None] * left[..., :, None, :]
            lhs += (
                self.structural_scale[..., None, None] * row_outer[..., None, :, :]
            ).reshape(lhs.shape)
            target_scale = _per_site(self.w2, 2) * (
                self.g_column_sq * _neighbour_average_stripes(self._estimate_stripe)
                + self.h_column_sq[:, None]
                * _adjacent_link_stripes(self._estimate_stripe)
            )
            rhs += (target_scale[..., None] * left[..., :, None, :]).reshape(rhs.shape)
        return lhs.reshape(-1, self.rank, self.rank), rhs.reshape(-1, self.rank)

    def set_right(self, solution: np.ndarray) -> None:
        """Install the solved R factor for the current sweep."""
        self.right = solution.reshape(self.right.shape)

    def left_systems(self) -> tuple:
        """Stacked normal equations of the L-row update."""
        right = self.right
        lhs = masked_gram_stack(right, _transpose(self.mask))
        lhs += _per_site(self.lam, 3) * self.identity
        rhs = self.masked_observed @ right
        if self.use_reference:
            lhs += _per_site(self.w1, 3) * (_transpose(right) @ right)[..., None, :, :]
            rhs += _per_site(self.w1, 2) * (self.prediction_array @ right)
        return lhs.reshape(-1, self.rank, self.rank), rhs.reshape(-1, self.rank)

    def set_left(self, solution: np.ndarray) -> None:
        """Install the solved L factor for the current sweep."""
        self.left = solution.reshape(self.left.shape)

    def _evaluate(self, estimate: np.ndarray):
        return _objective(
            estimate,
            self.left,
            self.right,
            self.observed,
            self.mask,
            self.prediction_array,
            self.g,
            self.h,
            self.locations_per_link,
            self.lam,
            self.w1,
            self.w2,
        )

    def finish_sweep(self):
        """Form the estimate ``X_k = L R^T`` once and stop each site whose
        ``||X_k - X_{k-1}||_F`` fell below ``tolerance * ||X_{k-1}||_F``.

        Returns whether the state converged (per site, for a stacked state).
        """
        estimate = self.left @ _transpose(self.right)
        change = np.sqrt(_site_sum((estimate - self.estimate) ** 2))
        scale = np.sqrt(_site_sum(self.estimate**2))
        # A zero previous estimate (a cold first sweep) bounds the change
        # by 0, which no change is below.
        self.converged = _unbox(change < self.tolerance * scale)
        self.estimate = estimate
        return self.converged

    def finalize(self) -> SelfAugmentedResult:
        """Package the converged factors as a :class:`SelfAugmentedResult`,
        with the objective evaluated once on the last estimate ``L R^T``."""
        if self.members:
            raise ValueError("finalize the members of a stacked state (shrink)")
        estimate = self.estimate
        objective = self._evaluate(estimate)
        if self.use_structure:
            estimate = _smooth_stripes(estimate, self.locations_per_link, weight=0.6)
        return SelfAugmentedResult(
            estimate=estimate,
            left=self.left,
            right=self.right,
            objective=float(objective),
            iterations=self.iterations,
            converged=self.converged,
            reference_weight=float(self.w1),
            structure_weight=float(self.w2),
        )


def self_augmented_rsvd(
    observed: np.ndarray,
    mask: np.ndarray,
    locations_per_link: int,
    prediction: Optional[np.ndarray] = None,
    config: Optional[SelfAugmentedConfig] = None,
    rng: RngLike = None,
) -> SelfAugmentedResult:
    """Reconstruct the fingerprint matrix with the self-augmented RSVD.

    Parameters
    ----------
    observed:
        ``X_B`` — no-decrease observations (zero where unobserved).
    mask:
        Index matrix ``B`` (1 where ``observed`` holds a real measurement).
        Entries corresponding to fresh reference columns may also be set to 1
        with the measured values placed in ``observed``; the reference
        information additionally enters through ``prediction``.
    locations_per_link:
        Stripe width ``N / M`` used to address the largely-decrease entries.
    prediction:
        ``P = X_R @ Z`` — the Constraint-1 full-matrix prediction.  ``None``
        disables Constraint 1 (basic-RSVD ablation).
    config:
        Solver configuration.
    rng:
        Seed or generator for the random initialisation ``L0``.
    """
    state = SweepState(
        observed, mask, locations_per_link, prediction, config, rng
    )
    return solve_state(state)


def solve_state(state: SweepState) -> SelfAugmentedResult:
    """Drive a prepared :class:`SweepState` to convergence on its own.

    One batched solve per half-sweep; this is what
    :func:`self_augmented_rsvd` runs for a standalone solve.
    """
    while state.active:
        state.begin_sweep()
        state.set_right(batched_safe_solve(*state.right_systems()))
        state.set_left(batched_safe_solve(*state.left_systems()))
        state.finish_sweep()
    return state.finalize()


def _neighbour_average_stripes(stripes: np.ndarray) -> np.ndarray:
    """Average of each stripe element's along-link neighbours (the element
    itself when its stripe has width 1)."""
    width = stripes.shape[-1]
    if width == 1:
        return stripes.astype(float, copy=True)
    targets = np.empty_like(stripes, dtype=float)
    targets[..., 1:-1] = 0.5 * (stripes[..., :-2] + stripes[..., 2:])
    targets[..., 0] = stripes[..., 1]
    targets[..., -1] = stripes[..., -2]
    return targets


def _adjacent_link_stripes(stripes: np.ndarray) -> np.ndarray:
    """Value of the adjacent link at the same relative stripe position: the
    previous link, the next one for link 0, the element itself when there is
    a single link."""
    m = stripes.shape[-2]
    if m == 1:
        return stripes.astype(float, copy=True)
    targets = np.empty_like(stripes, dtype=float)
    targets[..., 1:, :] = stripes[..., :-1, :]
    targets[..., 0, :] = stripes[..., 1, :]
    return targets


def _smooth_stripes(
    estimate: np.ndarray,
    locations_per_link: int,
    weight: float,
    outlier_sigmas: float = 2.0,
) -> np.ndarray:
    """Outlier-removal pass on the largely-decrease stripes (Constraint 2).

    The continuity and similarity properties say each stripe element should
    be close to the average of its along-link neighbours and to the adjacent
    link's value at the same relative position.  Elements whose deviation
    from the neighbour average exceeds ``outlier_sigmas`` standard deviations
    of all such deviations are treated as short-term-variation outliers and
    pulled a fraction ``weight`` of the way towards their structural target;
    well-behaved elements are left untouched so the discriminative structure
    of the fingerprint columns is preserved.
    """
    result = estimate.copy()
    stripes = _extract_stripes(estimate, locations_per_link)
    neighbour = _neighbour_average_stripes(stripes)
    targets = 0.7 * neighbour + 0.3 * _adjacent_link_stripes(stripes)
    deviations = stripes - neighbour
    scale = float(np.std(deviations))
    if scale <= 0:
        return result
    smoothed = stripes.copy()
    outliers = np.abs(deviations) > outlier_sigmas * scale
    smoothed[outliers] = (1.0 - weight) * stripes[outliers] + weight * targets[outliers]
    links = np.arange(estimate.shape[0])
    _stripe_blocks(result, locations_per_link)[links, links] = smoothed
    return result
