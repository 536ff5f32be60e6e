"""Regression engines: five techniques behind one train/predict contract."""

from .base import (
    BadParameter,
    DimensionMismatch,
    KTooLarge,
    ModelBase,
    NonFiniteInput,
    RegressError,
    SchemaMismatch,
    TooFewRows,
    standardize_apply,
    standardize_fit,
)
from .knn import KnnModel, fit_knn
from .linear import LinearModel, fit_lr
from .store import BadArtifact, StoreError, UnsupportedVersion, load_model, save_model
from .svr import NotConvergedWarning, SvrModel, fit_svr
from .tree import ForestModel, TreeModel, fit_dtr, fit_rfr, resolve_max_features
from .workers import WorkerDied

_FITS = {"lr": fit_lr, "knn": fit_knn, "dtr": fit_dtr, "rfr": fit_rfr, "svr": fit_svr}
TECHNIQUES = tuple(_FITS)


def fit_model(technique: str, X, y, params: dict | None = None,
              feature_names=None) -> ModelBase:
    """Dispatch to one engine by its short name with keyword hyperparameters."""
    if technique not in _FITS:
        raise BadParameter(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
    return _FITS[technique](X, y, feature_names=feature_names, **(params or {}))


__all__ = [
    "BadArtifact",
    "BadParameter",
    "DimensionMismatch",
    "ForestModel",
    "KTooLarge",
    "KnnModel",
    "LinearModel",
    "ModelBase",
    "NonFiniteInput",
    "NotConvergedWarning",
    "RegressError",
    "SchemaMismatch",
    "StoreError",
    "SvrModel",
    "TECHNIQUES",
    "TooFewRows",
    "TreeModel",
    "UnsupportedVersion",
    "WorkerDied",
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
