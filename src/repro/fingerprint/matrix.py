"""The fingerprint matrix abstraction.

``FingerprintMatrix`` wraps the raw ``M x N`` RSS matrix together with the
stripe structure (``N / M`` locations per link) and exposes the derived
quantities the paper manipulates:

* the **largely-decrease matrix** ``X_D`` of shape ``M x (N/M)`` — the RSS
  readings where the target blocks a link's direct path (Definition 2);
* the **no-decrease matrix** ``X_B = B ∘ X`` and its index matrix ``B``;
* column extraction for reference locations and MIC sub-matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.validation import check_2d, check_binary_mask, check_indices

__all__ = ["FingerprintMatrix"]


@dataclass
class FingerprintMatrix:
    """An ``M x N`` fingerprint matrix with per-link stripe structure.

    Attributes
    ----------
    values:
        The RSS readings in dBm, shape ``(M, N)``.
    locations_per_link:
        Stripe width ``N / M``.  Column ``j`` belongs to link
        ``j // locations_per_link`` and offset ``j % locations_per_link``
        within that link's stripe.
    no_decrease_mask:
        Optional index matrix ``B`` (1 where the element has no RSS decrease
        and can be measured without a person).  When omitted, the structural
        default is used: stripes of links at distance >= 2 from the column's
        own link are considered no-decrease.
    """

    values: np.ndarray
    locations_per_link: int
    no_decrease_mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.values = check_2d(self.values, "values")
        m, n = self.values.shape
        if self.locations_per_link <= 0:
            raise ValueError("locations_per_link must be positive")
        if n != m * self.locations_per_link:
            raise ValueError(
                f"matrix with {m} links and stripe width {self.locations_per_link} "
                f"must have {m * self.locations_per_link} columns, got {n}"
            )
        if self.no_decrease_mask is None:
            self.no_decrease_mask = self._structural_no_decrease_mask()
        else:
            self.no_decrease_mask = check_2d(self.no_decrease_mask, "no_decrease_mask")
            if self.no_decrease_mask.shape != self.values.shape:
                raise ValueError("no_decrease_mask shape must match values shape")
            check_binary_mask(self.no_decrease_mask, "no_decrease_mask")

    # ------------------------------------------------------------------ shape
    @property
    def link_count(self) -> int:
        """Number of links ``M`` (rows)."""
        return self.values.shape[0]

    @property
    def location_count(self) -> int:
        """Number of grid locations ``N`` (columns)."""
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(M, N)`` of the matrix."""
        return self.values.shape

    def copy(self) -> "FingerprintMatrix":
        """Deep copy of the fingerprint matrix."""
        return FingerprintMatrix(
            values=self.values.copy(),
            locations_per_link=self.locations_per_link,
            no_decrease_mask=None
            if self.no_decrease_mask is None
            else self.no_decrease_mask.copy(),
        )

    # ------------------------------------------------------------ stripe math
    def link_of_column(self, column: int) -> int:
        """Link index whose stripe contains ``column``."""
        if not 0 <= column < self.location_count:
            raise ValueError(f"column must lie in [0, {self.location_count - 1}]")
        return column // self.locations_per_link

    def _structural_no_decrease_mask(self) -> np.ndarray:
        """Default ``B``: links two or more stripes away see no decrease."""
        m, n = self.values.shape
        mask = np.zeros((m, n), dtype=float)
        for j in range(n):
            own = self.link_of_column(j)
            for i in range(m):
                if abs(i - own) >= 2:
                    mask[i, j] = 1.0
        return mask

    # -------------------------------------------------------- derived matrices
    def largely_decrease_matrix(self) -> np.ndarray:
        """The ``M x (N/M)`` largely-decrease matrix ``X_D`` (Definition 2).

        ``X_D[i, u] = X[i, (i * N/M) + u]`` — the RSS of link ``i`` when the
        target stands at the ``u``-th grid on link ``i``'s own stripe.
        """
        width = self.locations_per_link
        xd = np.zeros((self.link_count, width), dtype=float)
        for i in range(self.link_count):
            xd[i, :] = self.values[i, i * width : (i + 1) * width]
        return xd

    def no_decrease_matrix(self) -> np.ndarray:
        """``X_B = B ∘ X`` — the observable entries with nobody present."""
        return self.values * self.no_decrease_mask

    def index_matrix(self) -> np.ndarray:
        """The 0/1 index matrix ``B``."""
        assert self.no_decrease_mask is not None
        return self.no_decrease_mask.copy()

    def columns(self, indices: Sequence[int]) -> np.ndarray:
        """Extract a set of columns (e.g. the reference matrix ``X_R``)."""
        idx = check_indices(indices, self.location_count, "column indices")
        return self.values[:, idx].copy()

    def column(self, index: int) -> np.ndarray:
        """A single column (the fingerprint of one location)."""
        if not 0 <= index < self.location_count:
            raise ValueError(f"index must lie in [0, {self.location_count - 1}]")
        return self.values[:, index].copy()

    # ---------------------------------------------------------------- metrics
    def reconstruction_error_db(self, other: "FingerprintMatrix | np.ndarray") -> float:
        """Mean absolute per-element error against another matrix, in dB.

        This is the reconstruction-performance metric of Section VI-A ("the
        difference between reconstructed matrix and ground truth matrix").
        """
        other_values = other.values if isinstance(other, FingerprintMatrix) else other
        other_values = np.asarray(other_values, dtype=float)
        if other_values.shape != self.values.shape:
            raise ValueError("matrices must share the same shape")
        return float(np.mean(np.abs(self.values - other_values)))

    def per_column_errors_db(self, other: "FingerprintMatrix | np.ndarray") -> np.ndarray:
        """Mean absolute error per column (used for error CDFs)."""
        other_values = other.values if isinstance(other, FingerprintMatrix) else other
        other_values = np.asarray(other_values, dtype=float)
        if other_values.shape != self.values.shape:
            raise ValueError("matrices must share the same shape")
        return np.mean(np.abs(self.values - other_values), axis=0)
