"""Time-stamped fingerprint database.

The paper builds six ground-truth fingerprint matrices over three months
(0, 3, 5, 15, 45 and 90 days).  ``FingerprintDatabase`` stores those
snapshots, tracks which one is "current" (i.e. the latest matrix the operator
has actually updated), and provides the original-time matrix from which the
MIC vectors and the inherent correlation matrix are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.fingerprint.matrix import FingerprintMatrix

__all__ = ["TimestampedFingerprint", "FingerprintDatabase", "PAPER_TIMESTAMPS_DAYS"]

PAPER_TIMESTAMPS_DAYS: Tuple[float, ...] = (0.0, 3.0, 5.0, 15.0, 45.0, 90.0)
"""The six survey time stamps used in the paper's evaluation (days)."""


@dataclass(frozen=True)
class TimestampedFingerprint:
    """A fingerprint matrix snapshot taken at a given elapsed time."""

    elapsed_days: float
    matrix: FingerprintMatrix

    def __post_init__(self) -> None:
        if self.elapsed_days < 0:
            raise ValueError("elapsed_days must be non-negative")


class FingerprintDatabase:
    """An ordered collection of fingerprint snapshots.

    The database always contains at least the original-time snapshot
    (``elapsed_days == 0``); later snapshots may be ground-truth surveys (for
    evaluation) or reconstructed matrices produced by iUpdater.
    """

    def __init__(self, original: FingerprintMatrix) -> None:
        self._snapshots: Dict[float, TimestampedFingerprint] = {}
        self._latest_updated_days: float = 0.0
        self.add_snapshot(0.0, original)

    # ------------------------------------------------------------- inspection
    @property
    def timestamps(self) -> List[float]:
        """Sorted list of elapsed-day time stamps currently stored."""
        return sorted(self._snapshots)

    @property
    def original(self) -> FingerprintMatrix:
        """The matrix surveyed at the original time (day 0)."""
        return self._snapshots[0.0].matrix

    @property
    def current(self) -> FingerprintMatrix:
        """The most recently updated matrix (used to derive MIC vectors)."""
        return self._snapshots[self._latest_updated_days].matrix

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self) -> Iterator[TimestampedFingerprint]:
        for days in self.timestamps:
            yield self._snapshots[days]

    def __contains__(self, elapsed_days: float) -> bool:
        return float(elapsed_days) in self._snapshots

    def get(self, elapsed_days: float) -> FingerprintMatrix:
        """Return the snapshot at ``elapsed_days`` (exact match required)."""
        key = float(elapsed_days)
        if key not in self._snapshots:
            raise KeyError(
                f"no snapshot at {elapsed_days} days; available: {self.timestamps}"
            )
        return self._snapshots[key].matrix

    # -------------------------------------------------------------- mutation
    def add_snapshot(
        self,
        elapsed_days: float,
        matrix: FingerprintMatrix,
        mark_as_current: bool = True,
    ) -> None:
        """Store a snapshot; optionally mark it as the current matrix."""
        key = float(elapsed_days)
        if key < 0:
            raise ValueError("elapsed_days must be non-negative")
        if self._snapshots:
            reference = next(iter(self._snapshots.values())).matrix
            if matrix.shape != reference.shape:
                raise ValueError(
                    f"snapshot shape {matrix.shape} does not match database "
                    f"shape {reference.shape}"
                )
        self._snapshots[key] = TimestampedFingerprint(elapsed_days=key, matrix=matrix)
        if mark_as_current and key >= self._latest_updated_days:
            self._latest_updated_days = key
