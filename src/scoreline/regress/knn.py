"""k-nearest-neighbours regression on standardized features."""

from __future__ import annotations

import numpy as np

from .base import KTooLarge, ModelBase, as_xy, standardize_apply, standardize_fit
from .kernels import knn_neighbor_means


class KnnModel(ModelBase):
    technique = "knn"

    def __init__(self, train_X: np.ndarray, train_y: np.ndarray, k: int,
                 scaler: tuple, feature_names=None):
        super().__init__(train_X.shape[1], feature_names)
        self.train_X = np.ascontiguousarray(train_X, dtype=np.float64)
        self.train_y = np.ascontiguousarray(train_y, dtype=np.float64)
        self.k = int(k)
        self.scaler_mean, self.scaler_std = scaler

    def _predict(self, X: np.ndarray) -> np.ndarray:
        Xs = np.ascontiguousarray(standardize_apply((self.scaler_mean, self.scaler_std), X))
        return knn_neighbor_means(self.train_X, self.train_y, Xs, self.k)


def fit_knn(X, y, k: int = 5, feature_names=None) -> KnnModel:
    """Memorize the training set; prediction averages the k nearest targets.

    Distances are Euclidean on standardized columns. Ties at the k-th
    distance keep the earlier training row.
    """
    X, y = as_xy(X, y)
    if k < 1:
        raise KTooLarge(f"k must be at least 1, got {k}")
    if k > X.shape[0]:
        raise KTooLarge(f"k={k} exceeds the {X.shape[0]} training rows")
    scaler = standardize_fit(X, feature_names)
    Xs = standardize_apply(scaler, X)
    return KnnModel(Xs, y, k, scaler, feature_names=feature_names)
