"""Shared contracts for the regression engines: errors, scaling, metadata."""

from __future__ import annotations

import hashlib

import numpy as np


class RegressError(Exception):
    pass


class DimensionMismatch(RegressError):
    pass


class SchemaMismatch(RegressError):
    pass


class KTooLarge(RegressError):
    pass


class TooFewRows(RegressError):
    pass


class NonFiniteInput(RegressError):
    pass


class BadParameter(RegressError, ValueError):
    """An engine argument outside its range, or an unknown name."""


def standardize_fit(X: np.ndarray, feature_names=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-column training mean and standard deviation (population);
    NonFiniteInput names the first column whose either overflows float64,
    by its index and, given ``feature_names``, its name."""
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise DimensionMismatch("cannot standardize an empty matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X.mean(axis=0), X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        col = bad[0]
        named = f" ({feature_names[col]})" if feature_names else ""
        raise NonFiniteInput(f"column {col}{named} is too large to standardize: "
                             f"mean {mean[col]}, std {std[col]}")
    return mean, std


def standardize_apply(scaler: tuple, X: np.ndarray) -> np.ndarray:
    """Columns get training mean 0 and std 1; zero-variance columns map to 0."""
    mean, std = scaler
    X = np.asarray(X, dtype=np.float64)
    out = X - mean
    safe = np.where(std > 0.0, std, 1.0)
    out = out / safe
    out[:, std == 0.0] = 0.0
    return out


def fingerprint_features(n_features: int, feature_names) -> str:
    if feature_names:
        blob = "\x1f".join(feature_names).encode()
    else:
        blob = f"p={n_features}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class ModelBase:
    """Train/predict contract shared by all five engines.

    A trained model is immutable, remembers the feature layout it was fit
    on, and refuses to predict on rows of any other shape.
    """

    technique = "?"

    def __init__(self, n_features: int, feature_names=None):
        self.n_features = int(n_features)
        self.feature_names = tuple(feature_names) if feature_names else None
        self.fingerprint = fingerprint_features(self.n_features, self.feature_names)

    def _check_input(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d matrix, got ndim={X.ndim}")
        if X.shape[1] != self.n_features:
            raise SchemaMismatch(
                f"{self.technique} model was fit on {self.n_features} features, got {X.shape[1]}"
            )
        return X

    def predict(self, X) -> np.ndarray:
        X = self._check_input(X)
        # an overflow shows as a non-finite prediction, which the caller reports
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self._predict(X)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-d, got ndim={X.ndim}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"y length {y.shape} does not match {X.shape[0]} rows")
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        row, col = bad[0].tolist()
        raise NonFiniteInput(f"X holds {X[row, col]} at row {row}, column {col}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NonFiniteInput(f"y holds {y[bad[0]]} at row {bad[0]}")
    return X, y
