"""OMP-based target localization (Section V).

The localization problem is modelled as sparse recovery: an online RSS
vector ``y`` (one reading per link) is approximately a sparse combination of
the fingerprint matrix's columns, ``y = X_hat @ w + noise`` with ``w`` an
(almost) one-hot indicator of the target's grid location.  Orthogonal
matching pursuit greedily selects the columns most correlated with the
residual and re-fits the coefficients by least squares at each step; the grid
whose column receives the largest coefficient is reported as the location
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.fingerprint.matrix import FingerprintMatrix
from repro.utils.validation import check_1d, check_2d

__all__ = ["OMPConfig", "OMPLocalizer", "orthogonal_matching_pursuit"]


@dataclass(frozen=True)
class OMPConfig:
    """Configuration of the OMP localizer.

    Attributes
    ----------
    sparsity:
        Maximum number of columns OMP may select (1 for a single target; a
        slightly larger value lets the weighted-centroid estimate interpolate
        between adjacent grids).
    residual_threshold:
        Stop once the squared residual drops below this value (the paper's
        ``xi``).
    center_columns:
        When True the dictionary and measurement are mean-centred before
        matching, which removes global RSS offsets (long-term drift) that
        would otherwise dominate the correlations.
    weighted_centroid:
        When True and ``sparsity > 1`` the location estimate is the
        coefficient-weighted centroid of the selected grids rather than the
        single best column.
    """

    sparsity: int = 1
    residual_threshold: float = 1e-6
    center_columns: bool = True
    weighted_centroid: bool = False

    def __post_init__(self) -> None:
        if self.sparsity <= 0:
            raise ValueError("sparsity must be positive")
        if self.residual_threshold < 0:
            raise ValueError("residual_threshold must be non-negative")


def orthogonal_matching_pursuit(
    dictionary: np.ndarray,
    measurement: np.ndarray,
    sparsity: int,
    residual_threshold: float = 1e-6,
) -> Tuple[np.ndarray, List[int]]:
    """Generic OMP solver.

    Parameters
    ----------
    dictionary:
        ``M x N`` dictionary whose columns are candidate atoms.
    measurement:
        Length-``M`` measurement vector.
    sparsity:
        Maximum number of atoms to select.
    residual_threshold:
        Early-stopping threshold on the squared residual norm.

    Returns
    -------
    (coefficients, support):
        Full-length coefficient vector (zeros off the support) and the list
        of selected column indices in selection order.
    """
    dictionary = check_2d(dictionary, "dictionary")
    measurement = check_1d(measurement, "measurement")
    if dictionary.shape[0] != measurement.size:
        raise ValueError("dictionary rows must match measurement length")
    sparsity = min(int(sparsity), dictionary.shape[1])

    norms = np.linalg.norm(dictionary, axis=0)
    norms[norms == 0] = 1.0
    residual = measurement.astype(float).copy()
    support: List[int] = []
    coefficients = np.zeros(dictionary.shape[1])

    for _ in range(sparsity):
        correlations = np.abs(dictionary.T @ residual) / norms
        correlations[support] = -np.inf
        best = int(np.argmax(correlations))
        support.append(best)
        sub = dictionary[:, support]
        solution, *_ = np.linalg.lstsq(sub, measurement, rcond=None)
        residual = measurement - sub @ solution
        if float(residual @ residual) < residual_threshold:
            break

    solution, *_ = np.linalg.lstsq(dictionary[:, support], measurement, rcond=None)
    coefficients[support] = solution
    return coefficients, support


class OMPLocalizer:
    """Matches online RSS vectors against a fingerprint matrix with OMP."""

    def __init__(
        self,
        fingerprint: FingerprintMatrix | np.ndarray,
        locations: Optional[np.ndarray] = None,
        config: Optional[OMPConfig] = None,
    ) -> None:
        """
        Parameters
        ----------
        fingerprint:
            The (reconstructed) fingerprint matrix used as the dictionary.
        locations:
            Optional ``(N, 2)`` array of grid coordinates; required only for
            weighted-centroid estimates and for error computation helpers.
        config:
            Localizer configuration.
        """
        values = (
            fingerprint.values
            if isinstance(fingerprint, FingerprintMatrix)
            else np.asarray(fingerprint, dtype=float)
        )
        self.dictionary = check_2d(values, "fingerprint")
        self.locations = None if locations is None else np.asarray(locations, dtype=float)
        if self.locations is not None and self.locations.shape[0] != self.dictionary.shape[1]:
            raise ValueError("locations must have one row per fingerprint column")
        self.config = config or OMPConfig()
        self._column_means = self.dictionary.mean(axis=0)
        self._grand_mean = float(self.dictionary.mean())
        # Hoisted: the centered dictionary is query-independent, so it is
        # built once here instead of on every localization call.
        if self.config.center_columns:
            self._centered = self.dictionary - self.dictionary.mean(
                axis=0, keepdims=True
            )
        else:
            self._centered = self.dictionary

    def _prepare(self, measurement: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        vector = measurement.astype(float)
        if self.config.center_columns:
            vector = vector - float(vector.mean())
        return self._centered, vector

    def localize_index(self, measurement: np.ndarray) -> int:
        """Return the grid index of the best-matching fingerprint column."""
        measurement = check_1d(measurement, "measurement")
        dictionary, vector = self._prepare(measurement)
        coefficients, support = orthogonal_matching_pursuit(
            dictionary,
            vector,
            sparsity=self.config.sparsity,
            residual_threshold=self.config.residual_threshold,
        )
        weights = np.abs(coefficients[support])
        if weights.sum() <= 0:
            return int(support[0])
        return int(support[int(np.argmax(weights))])

    def localize_point(self, measurement: np.ndarray) -> np.ndarray:
        """Return the estimated coordinates of the target.

        Uses the weighted centroid of the OMP support when configured (and
        coordinates are available); otherwise the coordinates of the single
        best grid.
        """
        if self.locations is None:
            raise ValueError("locations were not provided to the localizer")
        measurement = check_1d(measurement, "measurement")
        dictionary, vector = self._prepare(measurement)
        coefficients, support = orthogonal_matching_pursuit(
            dictionary,
            vector,
            sparsity=self.config.sparsity,
            residual_threshold=self.config.residual_threshold,
        )
        weights = np.abs(coefficients[support])
        if self.config.weighted_centroid and weights.sum() > 0 and len(support) > 1:
            weights = weights / weights.sum()
            return (weights[None, :] @ self.locations[support]).ravel()
        best = support[int(np.argmax(weights))] if weights.sum() > 0 else support[0]
        return self.locations[best].copy()

    def localize_batch(self, measurements: np.ndarray) -> np.ndarray:
        """Localize a batch of measurements; returns grid indices."""
        measurements = check_2d(measurements, "measurements")
        return np.array([self.localize_index(row) for row in measurements], dtype=int)
