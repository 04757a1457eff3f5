"""Small linear-algebra helpers used across the core solvers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_2d

__all__ = [
    "frobenius_norm",
    "masked_frobenius_error",
    "normalized_singular_values",
    "relative_energy",
    "effective_rank",
    "safe_solve",
    "batched_safe_solve",
    "masked_gram_stack",
    "pad_rank_stack",
    "stacked_rank_solve",
    "system_stack_nbytes",
    "column_normalize",
    "soft_threshold",
    "singular_value_threshold",
    "l21_column_shrink",
    "mean_absolute_error",
    "root_mean_square_error",
]


def frobenius_norm(matrix: np.ndarray) -> float:
    """Return the Frobenius norm of a matrix (or the 2-norm of a vector)."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float)))


def masked_frobenius_error(
    estimate: np.ndarray, target: np.ndarray, mask: Optional[np.ndarray] = None
) -> float:
    """Frobenius error between two matrices, optionally restricted to a mask.

    Parameters
    ----------
    estimate, target:
        Matrices of identical shape.
    mask:
        Optional boolean / 0-1 matrix; only entries where the mask is nonzero
        contribute to the error.
    """
    estimate = np.asarray(estimate, dtype=float)
    target = np.asarray(target, dtype=float)
    if estimate.shape != target.shape:
        raise ValueError(
            f"estimate shape {estimate.shape} does not match target {target.shape}"
        )
    difference = estimate - target
    if mask is not None:
        mask = np.asarray(mask, dtype=float)
        if mask.shape != estimate.shape:
            raise ValueError("mask shape does not match the matrices")
        difference = difference * mask
    return float(np.linalg.norm(difference))


def normalized_singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of ``matrix`` normalised so the largest equals one."""
    matrix = check_2d(matrix, "matrix")
    values = np.linalg.svd(matrix, compute_uv=False)
    top = values[0] if values[0] > 0 else 1.0
    return values / top


def relative_energy(matrix: np.ndarray, count: int) -> float:
    """Fraction of the singular-value energy captured by the ``count`` largest.

    The paper's low-rank diagnostics (Fig. 5) use the ratio
    ``sum(sigma_1..sigma_count) / sum(sigma_i)``.
    """
    matrix = check_2d(matrix, "matrix")
    values = np.linalg.svd(matrix, compute_uv=False)
    total = float(values.sum())
    if total == 0:
        return 1.0
    count = max(1, min(int(count), values.size))
    return float(values[:count].sum() / total)


def effective_rank(matrix: np.ndarray, energy: float = 0.99) -> int:
    """Smallest number of singular values capturing ``energy`` of the total."""
    matrix = check_2d(matrix, "matrix")
    values = np.linalg.svd(matrix, compute_uv=False)
    total = float(values.sum())
    if total == 0:
        return 0
    cumulative = np.cumsum(values) / total
    return int(np.searchsorted(cumulative, energy) + 1)


def safe_solve(lhs: np.ndarray, rhs: np.ndarray, ridge: float = 1e-10) -> np.ndarray:
    """Solve ``lhs @ x = rhs`` robustly.

    Falls back to a ridge-regularised least-squares solution when the system
    is singular or badly conditioned, which happens routinely in the early
    alternating-least-squares iterations when a factor is still rank
    deficient.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        regularised = lhs + ridge * np.eye(lhs.shape[0])
        return np.linalg.lstsq(regularised, rhs, rcond=None)[0]


def _check_stack(lhs: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce one ``(batch, r, r)`` / ``(batch, r)`` system stack."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if lhs.ndim != 3 or lhs.shape[1] != lhs.shape[2]:
        raise ValueError(f"lhs must be a (batch, r, r) stack, got {lhs.shape}")
    if rhs.shape != lhs.shape[:2]:
        raise ValueError(
            f"rhs shape {rhs.shape} does not match lhs batch {lhs.shape[:2]}"
        )
    return lhs, rhs


def batched_safe_solve(
    lhs: np.ndarray, rhs: np.ndarray, ridge: float = 1e-10
) -> np.ndarray:
    """Solve a stack of small linear systems ``lhs[k] @ x[k] = rhs[k]``.

    Parameters
    ----------
    lhs:
        Stacked coefficient matrices of shape ``(batch, r, r)``.
    rhs:
        Stacked right-hand sides of shape ``(batch, r)``.
    ridge:
        Regularisation used by the singular-system fallback.

    The happy path dispatches a single batched ``np.linalg.solve`` over the
    ``(batch, r, r)`` tensor, which is how the alternating-least-squares
    sweeps turn ``n`` tiny per-column ridge solves into one LAPACK call.
    NumPy raises ``LinAlgError`` if *any* slice is singular, in which case we
    fall back to :func:`safe_solve` per slice so only the offending systems
    pay for the regularised least-squares retry, exactly as a per-slice
    :func:`safe_solve` would.
    """
    lhs, rhs = _check_stack(lhs, rhs)
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        solutions = np.empty_like(rhs)
        for k in range(lhs.shape[0]):
            solutions[k] = safe_solve(lhs[k], rhs[k], ridge=ridge)
        return solutions


def system_stack_nbytes(batch: int, rank: int, itemsize: int = 8) -> int:
    """Bytes one ``(batch, rank, rank)`` + ``(batch, rank)`` system stack holds.

    This is the unit the fleet scheduler budgets against: every
    alternating-least-squares sweep materialises one such stack per solve
    direction, so keeping the concatenated stack of a shard under the L3-ish
    cache budget keeps the batched LAPACK calls resident.
    """
    if batch < 0 or rank < 0:
        raise ValueError(f"batch and rank must be non-negative, got {batch}, {rank}")
    return int(itemsize) * int(batch) * int(rank) * (int(rank) + 1)


def pad_rank_stack(
    lhs: np.ndarray, rhs: np.ndarray, rank: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Embed a ``(batch, r, r)`` system stack into a larger target ``rank``.

    The real systems occupy the leading ``r x r`` block of each padded slice;
    the trailing diagonal is filled with ones and the padded right-hand-side
    entries with zeros, so the padded solutions carry exact zeros in the
    padding coordinates.  Because the padding rows/columns are zero off the
    diagonal, LU elimination never pivots them into the real block and, in
    exact arithmetic, the leading ``r`` solution entries equal the unpadded
    solutions.  In floating point they can differ by last-ulp rounding noise:
    BLAS picks different kernels for different matrix sizes, so the padded
    ``rank x rank`` elimination may sum in a different order than the
    ``r x r`` one.  :func:`stacked_rank_solve` therefore only pads when asked
    (``strategy="pad"``) and groups equal ranks by default, which is exact.
    """
    lhs, rhs = _check_stack(lhs, rhs)
    batch, r = lhs.shape[:2]
    if rank < r:
        raise ValueError(f"target rank {rank} is smaller than the stack rank {r}")
    if rank == r:
        return lhs, rhs
    padded_lhs = np.zeros((batch, rank, rank), dtype=float)
    padded_lhs[:, :r, :r] = lhs
    pad = np.arange(r, rank)
    padded_lhs[:, pad, pad] = 1.0
    padded_rhs = np.zeros((batch, rank), dtype=float)
    padded_rhs[:, :r] = rhs
    return padded_lhs, padded_rhs


def stacked_rank_solve(systems, ridge: float = 1e-10, strategy: str = "group") -> list:
    """Solve several ``(batch_k, r_k, r_k)`` system stacks together.

    Parameters
    ----------
    systems:
        Sequence of ``(lhs, rhs)`` pairs, each a stack accepted by
        :func:`batched_safe_solve`.  The stacks may have different batch sizes
        *and* different ranks ``r_k``.
    ridge:
        Regularisation forwarded to the singular-system fallback.
    strategy:
        ``"group"`` (default) concatenates stacks of equal rank along the
        batch axis and issues one batched solve per distinct rank.  Each
        slice is factorised independently by LAPACK, so every stack's
        solutions are **bit-identical** to solving it alone — the property
        the fleet parity guarantee rests on — while a fleet with one shared
        rank still collapses to a single LAPACK call per sweep.  A singular
        slice anywhere triggers a per-stack retry, so a clean stack keeps
        its exact float path even when a co-tenant needs the regularised
        fallback.
        ``"pad"`` embeds all stacks into the largest rank with
        :func:`pad_rank_stack` and issues exactly one call regardless of
        rank mix, at the cost of last-ulp rounding differences (BLAS kernel
        selection depends on the matrix size) and of cubically more work on
        the padded slices.

    Returns the per-stack solutions (``(batch_k, r_k)`` arrays) in input
    order.  This is how a fleet of heterogeneous sites turns every per-site
    sweep solve into stacked batched solves instead of a Python loop.
    """
    if strategy not in ("group", "pad"):
        raise ValueError(f"unknown strategy {strategy!r}; expected 'group' or 'pad'")
    systems = list(systems)
    if not systems:
        return []
    if len(systems) == 1:
        lhs, rhs = systems[0]
        return [batched_safe_solve(lhs, rhs, ridge=ridge)]
    shaped = [_check_stack(lhs, rhs) for lhs, rhs in systems]

    results: list = [None] * len(shaped)
    if strategy == "pad":
        rank = max(lhs.shape[1] for lhs, _ in shaped)
        padded = [pad_rank_stack(lhs, rhs, rank) for lhs, rhs in shaped]
        stacked_lhs = np.concatenate([lhs for lhs, _ in padded], axis=0)
        stacked_rhs = np.concatenate([rhs for _, rhs in padded], axis=0)
        try:
            solutions = np.linalg.solve(stacked_lhs, stacked_rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # A singular slice in one stack must not drag the other stacks
            # through the regularised fallback: retry each stack alone so
            # only the owner pays for it.
            return [batched_safe_solve(lhs, rhs, ridge=ridge) for lhs, rhs in shaped]
        offset = 0
        for index, (lhs, rhs) in enumerate(shaped):
            batch, r = rhs.shape
            results[index] = solutions[offset : offset + batch, :r].copy()
            offset += batch
        return results

    by_rank: dict = {}
    for index, (lhs, rhs) in enumerate(shaped):
        by_rank.setdefault(lhs.shape[1], []).append(index)
    for indices in by_rank.values():
        if len(indices) == 1:
            index = indices[0]
            lhs, rhs = shaped[index]
            results[index] = batched_safe_solve(lhs, rhs, ridge=ridge)
            continue
        stacked_lhs = np.concatenate([shaped[i][0] for i in indices], axis=0)
        stacked_rhs = np.concatenate([shaped[i][1] for i in indices], axis=0)
        try:
            solutions = np.linalg.solve(stacked_lhs, stacked_rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # Keep stacks independent under singularity (see the pad branch):
            # a clean co-tenant keeps its exact batched-solve float path.
            for index in indices:
                results[index] = batched_safe_solve(*shaped[index], ridge=ridge)
            continue
        offset = 0
        for index in indices:
            batch = shaped[index][1].shape[0]
            results[index] = solutions[offset : offset + batch].copy()
            offset += batch
    return results


def masked_gram_stack(factor: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stack of weighted Gram matrices ``sum_i weights[i, k] * f_i f_i^T``.

    Parameters
    ----------
    factor:
        Factor matrix of shape ``(m, r)`` whose rows ``f_i`` are combined.
    weights:
        Weight matrix of shape ``(m, batch)``; column ``k`` selects/weights
        the rows contributing to the ``k``-th Gram matrix.

    Returns the ``(batch, r, r)`` tensor whose ``k``-th slice is
    ``factor.T @ diag(weights[:, k]) @ factor``.  This is the left-hand-side
    bulk of every masked ridge system in an alternating-least-squares sweep;
    building all of them with one ``(batch, m) @ (m, r*r)`` matmul replaces
    ``batch`` tiny per-column Gram products.
    """
    factor = np.asarray(factor, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if factor.ndim != 2 or weights.ndim != 2:
        raise ValueError("factor and weights must be 2-D")
    if weights.shape[0] != factor.shape[0]:
        raise ValueError(
            f"weights rows {weights.shape[0]} must match factor rows {factor.shape[0]}"
        )
    m, rank = factor.shape
    pairs = (factor[:, :, None] * factor[:, None, :]).reshape(m, rank * rank)
    return (weights.T @ pairs).reshape(weights.shape[1], rank, rank)


def column_normalize(matrix: np.ndarray) -> np.ndarray:
    """Normalise each column of ``matrix`` by the sum of absolute values.

    Columns whose absolute sum is zero are left untouched.  Used to build the
    continuity matrix ``G`` from ``T + G_diag`` as described in Section IV-C.
    """
    matrix = np.asarray(matrix, dtype=float).copy()
    scale = np.abs(matrix).sum(axis=0)
    nonzero = scale > 0
    matrix[:, nonzero] = matrix[:, nonzero] / scale[nonzero]
    return matrix


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise soft-thresholding operator used in ALM iterations."""
    values = np.asarray(values, dtype=float)
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def singular_value_threshold(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Singular-value soft thresholding (proximal operator of the nuclear norm)."""
    matrix = np.asarray(matrix, dtype=float)
    left, values, right_t = np.linalg.svd(matrix, full_matrices=False)
    shrunk = np.maximum(values - threshold, 0.0)
    return (left * shrunk) @ right_t


def l21_column_shrink(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal operator of the column-wise ``l2,1`` norm.

    Each column is shrunk towards zero by ``threshold`` in Euclidean norm;
    columns whose norm is below the threshold become exactly zero.  This is
    the error-term update of the LRR solver (Section IV-B, Eq. 12).
    """
    matrix = np.asarray(matrix, dtype=float)
    result = np.zeros_like(matrix)
    norms = np.linalg.norm(matrix, axis=0)
    keep = norms > threshold
    if np.any(keep):
        scale = (norms[keep] - threshold) / norms[keep]
        result[:, keep] = matrix[:, keep] * scale
    return result


def mean_absolute_error(estimate: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute elementwise error between two equal-shape arrays."""
    estimate = np.asarray(estimate, dtype=float)
    target = np.asarray(target, dtype=float)
    if estimate.shape != target.shape:
        raise ValueError("shapes do not match")
    return float(np.mean(np.abs(estimate - target)))


def root_mean_square_error(estimate: np.ndarray, target: np.ndarray) -> float:
    """Root-mean-square elementwise error between two equal-shape arrays."""
    estimate = np.asarray(estimate, dtype=float)
    target = np.asarray(target, dtype=float)
    if estimate.shape != target.shape:
        raise ValueError("shapes do not match")
    return float(np.sqrt(np.mean((estimate - target) ** 2)))


def reconstruction_error_per_element(
    estimate: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Absolute per-element reconstruction error (in dB for RSS matrices)."""
    estimate = np.asarray(estimate, dtype=float)
    target = np.asarray(target, dtype=float)
    if estimate.shape != target.shape:
        raise ValueError("shapes do not match")
    return np.abs(estimate - target)


def pairwise_euclidean(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between two sets of 2-D points."""
    points_a = np.atleast_2d(np.asarray(points_a, dtype=float))
    points_b = np.atleast_2d(np.asarray(points_b, dtype=float))
    diff = points_a[:, None, :] - points_b[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))
