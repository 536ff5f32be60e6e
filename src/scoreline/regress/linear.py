"""Multiple linear regression as one minimum-norm least-squares solve."""

from __future__ import annotations

import numpy as np

from .base import ModelBase, as_xy


class LinearModel(ModelBase):
    technique = "lr"

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept


def fit_lr(X, y, feature_names=None) -> LinearModel:
    """The minimum-norm least-squares fit, intercept included.

    Collinear or constant columns, or more columns than rows, leave many
    least-squares fits; the SVD solve picks the one of least norm and
    ``rank`` records the design's numerical rank (``p + 1`` at full rank).
    """
    X, y = as_xy(X, y)
    n, p = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    theta, _, rank, _ = np.linalg.lstsq(Xa, y, rcond=None)
    return LinearModel(p, feature_names, coef=theta[:p], intercept=float(theta[p]),
                       rank=int(rank))
