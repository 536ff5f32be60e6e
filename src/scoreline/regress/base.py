"""Shared contracts for the regression engines: errors, argument checks, scaling, metadata."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math

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


AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
POSITIVE = (lambda v: v > 0, "a finite positive number")
NON_NEGATIVE = (lambda v: v >= 0, "a finite non-negative number")
# each engine keyword's (kind, valid, words), the last two optional, for check
ARGUMENTS = {
    "k": (int, AT_LEAST_1),
    "max_depth": (int, AT_LEAST_1),
    "min_leaf": (int, AT_LEAST_1),
    "n_trees": (int, AT_LEAST_1),
    "max_features": (int, AT_LEAST_1, ("sqrt", "all")),
    "bootstrap": (bool,),
    "bootstrap_fraction": (float, (lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "seed": (int, NON_NEGATIVE),
    "C": (float, POSITIVE),
    "epsilon": (float, NON_NEGATIVE),
    "tol": (float, NON_NEGATIVE),
    "max_iter": (int, AT_LEAST_1),
    "gamma": (float, POSITIVE, ("scale",)),
    "kernel": (("linear", "rbf"),),
}
# the values of each kind, and its name in a message; a bool is no number
TYPES = {int: ((int, np.integer), "an integer"), bool: ((bool, np.bool_), "a boolean"),
         float: ((int, float, np.integer, np.floating), "a number"), str: (str, "a string")}


def check(name: str, value, kind=str, valid=None, words=()):
    """``value`` as argument ``name`` takes it, or BadParameter. ``kind`` is
    int, float, bool or str, or a tuple of choices; ``words`` are keywords
    an int or float takes in place of a number, whose text it reads too;
    ``valid`` is a (predicate, "what the value must be") pair. A number comes
    back a plain int or float, a bool a bool, a word or choice as given."""
    if value in (kind if isinstance(kind, tuple) else words):
        return value
    if isinstance(kind, tuple):
        raise BadParameter(f"{name} must be one of {kind}, got {value!r}")
    if words and isinstance(value, str):  # a number's text, as a flag gives it
        with contextlib.suppress(ValueError):
            value = kind(value)
    types, noun = TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) and kind is not bool:
        either = f"{', '.join(map(json.dumps, words))} or " if words else ""
        raise BadParameter(f"{name} must be {either}{noun}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # float() of an int past the float range
        raise BadParameter(f"{name} must be a finite number, got an integer too large "
                           "for a float") from None
    if kind is float and not math.isfinite(value):
        raise BadParameter(f"{name} must be a finite number, got {value!r}")
    if valid is not None and not valid[0](value):
        raise BadParameter(f"{name} must be {valid[1]}, got {value!r}")
    return value


def checked(**values) -> dict:
    """Each engine argument by name, checked by its ARGUMENTS rule."""
    return {name: check(name, value, *ARGUMENTS[name]) for name, value in values.items()}


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
    on, and refuses to predict on rows of any other shape. Its fields are
    its technique's row of ``store.PAYLOADS``, passed by name: a fit and
    ``load_model`` build it the same way.
    """

    technique = "?"

    def __init__(self, n_features: int, feature_names=None, **fields):
        self.n_features = int(n_features)
        self.feature_names = tuple(feature_names) if feature_names else None
        self.fingerprint = fingerprint_features(self.n_features, self.feature_names)
        vars(self).update(fields)

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
