"""k-nearest-neighbours regression on standardized features."""

from __future__ import annotations

import numpy as np

from .base import (ARGUMENTS, KTooLarge, ModelBase, as_xy, check, standardize_apply,
                   standardize_fit)
from .kernels import knn_neighbor_means


class KnnModel(ModelBase):
    technique = "knn"

    def _predict(self, X: np.ndarray) -> np.ndarray:
        Xs = np.ascontiguousarray(standardize_apply((self.scaler_mean, self.scaler_std), X))
        return knn_neighbor_means(self.train_X, self.train_y, Xs, self.k)


def fit_knn(X, y, k: int = 5, feature_names=None) -> KnnModel:
    """Memorize the training set; prediction averages the k nearest targets.

    Distances are Euclidean on standardized columns. Ties at the k-th
    distance keep the earlier training row.
    """
    X, y = as_xy(X, y)
    k = check("k", k, *ARGUMENTS["k"])
    if k > X.shape[0]:
        raise KTooLarge(f"k={k} exceeds the {X.shape[0]} training rows")
    mean, std = standardize_fit(X, feature_names)
    Xs = standardize_apply((mean, std), X)
    return KnnModel(X.shape[1], feature_names, train_X=np.ascontiguousarray(Xs),
                    train_y=np.ascontiguousarray(y), k=k, scaler_mean=mean, scaler_std=std)
