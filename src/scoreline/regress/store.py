"""Versioned JSON persistence for trained models."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .base import ModelBase, Scaler
from .forest import forest_from_payload
from .knn import KnnModel
from .linear import LinearModel
from .svr import SvrModel
from .tree import TreeModel, node_from_dict

FORMAT_VERSION = 1


class StoreError(Exception):
    pass


class BadArtifact(StoreError):
    pass


class UnsupportedVersion(StoreError):
    pass


def save_model(model: ModelBase, path) -> None:
    envelope = {
        "format_version": FORMAT_VERSION,
        "technique": model.technique,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "fingerprint": model.fingerprint,
        "payload": model.payload(),
    }
    Path(path).write_text(json.dumps(envelope, sort_keys=True, indent=1) + "\n")


def _vector(payload: dict, key: str, length: int) -> np.ndarray:
    arr = np.asarray(payload[key], dtype=np.float64)
    if arr.shape != (length,):
        raise BadArtifact(f"{key} has shape {arr.shape}, expected ({length},)")
    return arr


def _matrix(payload: dict, key: str, width: int) -> np.ndarray:
    arr = np.asarray(payload[key], dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise BadArtifact(f"{key} has shape {arr.shape}, expected (rows, {width})")
    return arr


def _positive(payload: dict, key: str) -> float:
    value = payload[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value < math.inf):
        raise BadArtifact(f"{key} is {value!r}, expected a finite positive number")
    return float(value)


def _scaler_from(payload: dict, n_features: int) -> Scaler:
    return Scaler(mean=_vector(payload, "scaler_mean", n_features),
                  std=_vector(payload, "scaler_std", n_features))


def _model_from(technique: str, payload: dict, n_features: int, names) -> ModelBase:
    """Rebuild one model, checking the payload's indices and array shapes."""
    if technique == "lr":
        return LinearModel(coef=_vector(payload, "coef", n_features),
                           intercept=payload["intercept"], ridged=payload["ridged"],
                           feature_names=names)
    if technique == "knn":
        train_X = _matrix(payload, "train_X", n_features)
        rows = train_X.shape[0]
        k = int(payload["k"])
        if not 1 <= k <= rows:
            raise BadArtifact(f"k={k} outside 1..{rows} training rows")
        return KnnModel(train_X=train_X, train_y=_vector(payload, "train_y", rows), k=k,
                        scaler=_scaler_from(payload, n_features), feature_names=names)
    if technique == "dtr":
        return TreeModel(root=node_from_dict(payload["root"], n_features),
                         n_features=n_features,
                         max_depth=payload["max_depth"], min_leaf=payload["min_leaf"],
                         feature_names=names)
    if technique == "rfr":
        return forest_from_payload(payload, n_features, feature_names=names)
    if technique == "svr":
        kernel = payload["kernel"]
        common = dict(kernel=kernel, scaler=_scaler_from(payload, n_features),
                      params=payload["params"], status=payload["status"],
                      n_features=n_features, feature_names=names, b=payload["b"])
        if kernel == "linear":
            return SvrModel(**common, w=_vector(payload, "w", n_features))
        if kernel == "rbf":
            train_X = _matrix(payload, "train_X", n_features)
            return SvrModel(**common, beta=_vector(payload, "beta", train_X.shape[0]),
                            train_X=train_X, gamma=_positive(payload, "gamma"))
        raise BadArtifact(f"unknown SVR kernel {kernel!r}")
    raise BadArtifact(f"unknown technique {technique!r}")


def load_model(path) -> ModelBase:
    """Read a saved model; a payload whose structure does not fit its
    declared feature count raises BadArtifact instead of failing later in
    predict."""
    try:
        envelope = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BadArtifact(f"cannot read model artifact {path}: {exc}") from exc
    if not isinstance(envelope, dict) or "format_version" not in envelope:
        raise BadArtifact(f"{path} is not a model artifact")
    version = envelope["format_version"]
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path} uses format_version={version}, this build reads {FORMAT_VERSION}")
    try:
        n_features = int(envelope["n_features"])
        model = _model_from(envelope["technique"], envelope["payload"], n_features,
                            envelope["feature_names"])
    except BadArtifact as exc:
        raise BadArtifact(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise BadArtifact(f"{path} is missing or malformed fields: {exc}") from exc
    if envelope.get("fingerprint") != model.fingerprint:
        raise BadArtifact(f"{path} fingerprint does not match its feature layout")
    return model
