"""Maximum-independent-column (MIC) selection of reference locations.

The whole fingerprint matrix can be represented exactly by its maximum set
of linearly independent columns; the paper selects the grid locations of
those columns as the reference locations at which fresh RSS measurements are
collected (Section IV-B).  The number of MIC columns equals the matrix rank,
which for an ``M x N`` fingerprint matrix is at most ``M`` (8 in the office),
far smaller than the ``N`` (≈94) locations a full re-survey would require.

Because the real fingerprint matrix is only *approximately* low rank and is
noisy, a strict "first non-zero pivot after elementary column transformation"
rule is numerically fragile.  Two strategies are provided:

* ``"qr"`` (default) — rank-revealing QR with column pivoting.  The pivoted
  columns are exactly a maximal independent set and are additionally ordered
  by how much new energy each column contributes, which makes truncation to
  a requested count well-defined.
* ``"gauss"`` — Gaussian elimination over the columns, mirroring the paper's
  elementary-column-transformation description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_2d

__all__ = ["MICResult", "select_reference_locations", "numerical_rank"]


@dataclass(frozen=True)
class MICResult:
    """Outcome of MIC-based reference-location selection.

    Attributes
    ----------
    indices:
        Column (location) indices selected as reference locations, in
        selection order.
    rank:
        Numerical rank estimate of the matrix.
    mic_matrix:
        The ``M x len(indices)`` sub-matrix of the selected columns.
    strategy:
        Which selection strategy produced the result.
    """

    indices: tuple
    rank: int
    mic_matrix: np.ndarray
    strategy: str

    @property
    def count(self) -> int:
        """Number of selected reference locations."""
        return len(self.indices)


def numerical_rank(matrix: np.ndarray, tolerance: Optional[float] = None) -> int:
    """Numerical rank of a matrix with an SVD-based tolerance."""
    matrix = check_2d(matrix, "matrix")
    return int(np.linalg.matrix_rank(matrix, tol=tolerance))


def _qr_selection(matrix: np.ndarray, count: int) -> List[int]:
    """Column-pivoted QR: the first ``count`` pivots are the MIC columns."""
    import scipy.linalg  # deferred: importing repro.core must not load scipy

    _, _, pivots = scipy.linalg.qr(matrix, mode="economic", pivoting=True)
    return [int(p) for p in pivots[:count]]


def _gauss_selection(matrix: np.ndarray, count: int, tolerance: float) -> List[int]:
    """Greedy Gaussian elimination over columns.

    Walk the columns left to right, keeping a column when it is not (within
    ``tolerance``) a linear combination of the columns already kept.  This is
    the direct analogue of locating the first non-zero element of each row
    after elementary column transformations.
    """
    selected: List[int] = []
    basis: List[np.ndarray] = []
    n = matrix.shape[1]
    for j in range(n):
        column = matrix[:, j].astype(float)
        residual = column.copy()
        for b in basis:
            residual -= (residual @ b) * b
        norm = np.linalg.norm(residual)
        if norm > tolerance * max(np.linalg.norm(column), 1.0):
            basis.append(residual / norm)
            selected.append(j)
        if len(selected) >= count:
            break
    return selected


def select_reference_locations(
    matrix: np.ndarray,
    count: Optional[int] = None,
    strategy: str = "qr",
    tolerance: float = 1e-8,
) -> MICResult:
    """Select reference locations as the maximum independent columns.

    Parameters
    ----------
    matrix:
        The fingerprint matrix (``M x N``) from which to derive reference
        locations — typically the original or latest-updated matrix.
    count:
        Number of reference locations to select.  Defaults to the numerical
        rank of the matrix (which is the paper's minimal choice, equal to the
        number of links for the benchmark matrices).  Requests above ``N``
        are rejected; requests above the rank are honoured by padding with
        the next-best pivot columns (used by the Fig. 14 "8+1" experiment).
    strategy:
        ``"qr"`` (rank-revealing QR, default) or ``"gauss"`` (elementary
        column transformation analogue).
    tolerance:
        Relative tolerance used by the Gaussian strategy to decide linear
        independence.
    """
    matrix = check_2d(matrix, "matrix")
    n = matrix.shape[1]
    rank = numerical_rank(matrix)
    if count is None:
        count = rank
    count = int(count)
    if count <= 0:
        raise ValueError("count must be positive")
    if count > n:
        raise ValueError(f"cannot select {count} columns from a matrix with {n} columns")

    if strategy == "qr":
        indices = _qr_selection(matrix, count)
    elif strategy == "gauss":
        indices = _gauss_selection(matrix, count, tolerance)
        if len(indices) < count:
            # Pad with QR pivots not already selected (requests beyond the
            # numerically independent set, e.g. the "+1 random" experiments).
            extra = [j for j in _qr_selection(matrix, n) if j not in indices]
            indices.extend(extra[: count - len(indices)])
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected 'qr' or 'gauss'")

    indices = indices[:count]
    mic_matrix = matrix[:, indices].copy()
    return MICResult(
        indices=tuple(int(i) for i in indices),
        rank=rank,
        mic_matrix=mic_matrix,
        strategy=strategy,
    )
