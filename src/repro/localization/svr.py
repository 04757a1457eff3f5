"""Support vector regression built on numpy/scipy (no scikit-learn).

The RASS baseline of the paper trains an SVR model mapping RSS fingerprints
to target coordinates.  Since no ML library is available offline, this module
implements an RBF-kernel support vector regressor by minimising the primal
objective with a *smoothed* epsilon-insensitive loss (squared hinge on the
excess over epsilon), solved with L-BFGS.  The smooth loss keeps the model an
SVR in spirit — flat (zero-gradient) region of width ``2 * epsilon``, ridge
penalty on the function norm — while remaining differentiable so scipy's
optimiser converges quickly on fingerprint-sized problems (tens to hundreds
of training points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.validation import check_1d, check_2d

__all__ = ["SVRConfig", "SupportVectorRegressor"]


@dataclass(frozen=True)
class SVRConfig:
    """Configuration of the RBF-kernel support vector regressor.

    Attributes
    ----------
    c:
        Regularisation trade-off (larger = fit training data more tightly).
    epsilon:
        Half-width of the insensitive tube (in target units).
    gamma:
        RBF kernel width; ``None`` uses the median-heuristic
        ``1 / (n_features * var(X))`` analogous to scikit-learn's ``scale``.
    max_iterations:
        L-BFGS iteration cap.
    """

    c: float = 10.0
    epsilon: float = 0.1
    gamma: Optional[float] = None
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive when given")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


class SupportVectorRegressor:
    """RBF-kernel SVR with a smoothed epsilon-insensitive loss."""

    def __init__(self, config: Optional[SVRConfig] = None) -> None:
        self.config = config or SVRConfig()
        self._train_x: Optional[np.ndarray] = None
        self._coefficients: Optional[np.ndarray] = None
        self._bias: float = 0.0
        self._gamma: float = 1.0

    # ----------------------------------------------------------------- kernel
    def _resolve_gamma(self, features: np.ndarray) -> float:
        if self.config.gamma is not None:
            return self.config.gamma
        variance = float(features.var())
        if variance <= 0:
            variance = 1.0
        return 1.0 / (features.shape[1] * variance)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq_a = np.sum(a**2, axis=1)[:, None]
        sq_b = np.sum(b**2, axis=1)[None, :]
        squared_distance = sq_a + sq_b - 2.0 * a @ b.T
        np.maximum(squared_distance, 0.0, out=squared_distance)
        return np.exp(-self._gamma * squared_distance)

    # ------------------------------------------------------------------- fit
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "SupportVectorRegressor":
        """Fit the regressor on ``(n_samples, n_features)`` data."""
        from scipy import optimize  # deferred: importing repro.query must not load scipy

        features = check_2d(features, "features")
        targets = check_1d(targets, "targets")
        if features.shape[0] != targets.size:
            raise ValueError("features and targets must have matching lengths")
        self._train_x = features.copy()
        self._gamma = self._resolve_gamma(features)
        kernel = self._kernel(features, features)
        n = features.shape[0]
        epsilon = self.config.epsilon
        c = self.config.c

        def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
            alpha = params[:n]
            bias = params[n]
            prediction = kernel @ alpha + bias
            residual = prediction - targets
            excess = np.abs(residual) - epsilon
            active = excess > 0
            loss = c * float(np.sum(excess[active] ** 2))
            reg = 0.5 * float(alpha @ kernel @ alpha)
            value = reg + loss

            grad_pred = np.zeros(n)
            grad_pred[active] = 2.0 * c * excess[active] * np.sign(residual[active])
            grad_alpha = kernel @ alpha + kernel @ grad_pred
            grad_bias = float(np.sum(grad_pred))
            gradient = np.concatenate([grad_alpha, [grad_bias]])
            return value, gradient

        initial = np.zeros(n + 1)
        initial[n] = float(np.mean(targets))
        result = optimize.minimize(
            objective,
            initial,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.config.max_iterations},
        )
        self._coefficients = result.x[:n]
        self._bias = float(result.x[n])
        return self

    # --------------------------------------------------------------- predict
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``(n_samples, n_features)`` inputs."""
        if self._train_x is None or self._coefficients is None:
            raise RuntimeError("the regressor has not been fitted")
        features = check_2d(features, "features")
        kernel = self._kernel(features, self._train_x)
        return kernel @ self._coefficients + self._bias
