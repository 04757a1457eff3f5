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


def stacked_rank_solve(systems, ridge: float = 1e-10) -> list:
    """Solve several ``(batch_k, r_k, r_k)`` system stacks together.

    Parameters
    ----------
    systems:
        Sequence of ``(lhs, rhs)`` pairs, each a stack accepted by
        :func:`batched_safe_solve`.  The stacks may have different batch sizes
        *and* different ranks ``r_k``.
    ridge:
        Regularisation forwarded to the singular-system fallback.

    Stacks of equal rank are concatenated along the batch axis and solved
    with one batched call per distinct rank; ranks are never padded to a
    common size (BLAS picks kernels by matrix size, so padding is not
    bit-exact).  Each slice is factorised independently by LAPACK, so every
    stack's solutions are **bit-identical** to solving it alone — the
    property the fleet parity guarantee rests on — while a fleet with one
    shared rank still collapses to a single LAPACK call per sweep.  A
    singular slice anywhere triggers a per-stack retry, so a clean stack
    keeps its exact float path even when a co-tenant needs the regularised
    fallback.

    Returns the per-stack solutions (``(batch_k, r_k)`` arrays) in input
    order.  This is how a fleet of heterogeneous sites turns every per-site
    sweep solve into stacked batched solves instead of a Python loop.
    """
    systems = list(systems)
    if not systems:
        return []
    if len(systems) == 1:
        lhs, rhs = systems[0]
        return [batched_safe_solve(lhs, rhs, ridge=ridge)]
    shaped = [_check_stack(lhs, rhs) for lhs, rhs in systems]

    results: list = [None] * len(shaped)
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
            # A singular slice in one stack must not drag the other stacks
            # through the regularised fallback: retry each stack alone so
            # only the owner pays for it.
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

    Both arguments may carry the same leading axes (a stack of sites,
    ``(S, m, r)`` with ``(S, m, batch)``); the result is then
    ``(S, batch, r, r)``, one gemm per site exactly as for that site alone.
    """
    factor = np.asarray(factor, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if factor.ndim < 2 or weights.shape[:-1] != factor.shape[:-1]:
        raise ValueError(
            f"weights {weights.shape} must match the rows of factor "
            f"{factor.shape} (and its leading axes, if any)"
        )
    *lead, m, rank = factor.shape
    pairs = (factor[..., None] * factor[..., None, :]).reshape(*lead, m, rank * rank)
    return (weights.swapaxes(-1, -2) @ pairs).reshape(
        *lead, weights.shape[-1], rank, rank
    )


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
