"""Regression engines: five techniques behind one train/predict contract."""

from .base import (
    DimensionMismatch,
    KTooLarge,
    ModelBase,
    RegressError,
    Scaler,
    SchemaMismatch,
    TooFewRows,
    standardize_apply,
    standardize_fit,
)
from .forest import ForestModel, fit_rfr, resolve_max_features
from .knn import KnnModel, fit_knn
from .linear import LinearModel, fit_lr
from .store import BadArtifact, StoreError, UnsupportedVersion, load_model, save_model
from .svr import NotConvergedWarning, SvrModel, fit_svr
from .tree import TreeModel, TreeNode, fit_dtr

TECHNIQUES = ("lr", "knn", "dtr", "rfr", "svr")


def fit_model(technique: str, X, y, params: dict | None = None,
              feature_names=None) -> ModelBase:
    """Dispatch to one engine by its short name with keyword hyperparameters."""
    params = dict(params or {})
    if technique == "lr":
        return fit_lr(X, y, feature_names=feature_names)
    if technique == "knn":
        return fit_knn(X, y, feature_names=feature_names, **params)
    if technique == "dtr":
        return fit_dtr(X, y, feature_names=feature_names, **params)
    if technique == "rfr":
        return fit_rfr(X, y, feature_names=feature_names, **params)
    if technique == "svr":
        return fit_svr(X, y, feature_names=feature_names, **params)
    raise ValueError(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")


__all__ = [
    "BadArtifact",
    "DimensionMismatch",
    "ForestModel",
    "KTooLarge",
    "KnnModel",
    "LinearModel",
    "ModelBase",
    "NotConvergedWarning",
    "RegressError",
    "Scaler",
    "SchemaMismatch",
    "StoreError",
    "SvrModel",
    "TECHNIQUES",
    "TooFewRows",
    "TreeModel",
    "TreeNode",
    "UnsupportedVersion",
    "fit_dtr",
    "fit_knn",
    "fit_lr",
    "fit_model",
    "fit_rfr",
    "fit_svr",
    "load_model",
    "resolve_max_features",
    "save_model",
    "standardize_apply",
    "standardize_fit",
]
