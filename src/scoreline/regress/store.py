"""Versioned JSON persistence for trained models."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .base import ModelBase, Scaler
from .forest import ForestModel
from .knn import KnnModel
from .linear import LinearModel
from .svr import SvrModel
from .tree import LEAF, Tree, TreeModel

FORMAT_VERSION = 2


class StoreError(Exception):
    pass


class BadArtifact(StoreError):
    pass


class UnsupportedVersion(StoreError):
    pass


def read_json(path, what: str):
    """A JSON file's content; BadArtifact names the file when it cannot be
    read, decoded or parsed, or nests too deeply for the parser."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise BadArtifact(f"cannot read {what} {path}: {exc}") from exc


def save_model(model: ModelBase, path) -> None:
    """Write ``json.dumps(envelope, sort_keys=True) + "\\n"``, each NumPy
    array of the payload as its ``tolist()``, one tree or matrix row at a
    time (see :func:`_json_pieces`)."""
    envelope = {
        "format_version": FORMAT_VERSION,
        "technique": model.technique,
        "n_features": model.n_features,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "fingerprint": model.fingerprint,
        "payload": model.payload(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(envelope))
        fh.write("\n")


# No indent: with one, CPython's json falls back to its pure-Python encoder.
_ENCODER = json.JSONEncoder(sort_keys=True, default=np.ndarray.tolist)


def _json_pieces(value):
    """The text of ``_ENCODER.encode(value)`` in pieces: a dict with string
    keys key by key, a list of lists, dicts or arrays (a forest's trees)
    and an array of rows item by item, anything else whole, an array
    converted by ``tolist()`` only then. So no piece outgrows one tree or
    one row, where one encoding of a forest keeps a chunk for each of its
    node values until it joins them."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_pieces(value[key])
        yield "}"
    elif (isinstance(value, np.ndarray) and value.ndim > 1
          or isinstance(value, list) and all(isinstance(item, (list, dict, np.ndarray))
                                             for item in value)):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _json_pieces(item)
        yield "]"
    else:
        yield _ENCODER.encode(value)


def _finite(key: str, arr: np.ndarray) -> np.ndarray:
    # a JSON null converts to NaN, so this refuses nulls too
    if not np.isfinite(arr).all():
        raise BadArtifact(f"{key} holds a null or non-finite value")
    return arr


def _vector(payload: dict, key: str, length: int) -> np.ndarray:
    arr = np.asarray(payload[key], dtype=np.float64)
    if arr.shape != (length,):
        raise BadArtifact(f"{key} has shape {arr.shape}, expected ({length},)")
    return _finite(key, arr)


def _matrix(payload: dict, key: str, width: int) -> np.ndarray:
    arr = np.asarray(payload[key], dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise BadArtifact(f"{key} has shape {arr.shape}, expected (rows, {width})")
    return _finite(key, arr)


def _positive(payload: dict, key: str) -> float:
    value = payload[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0.0 < value < math.inf):
        raise BadArtifact(f"{key} is {value!r}, expected a finite positive number")
    return float(value)


def _scaler_from(payload: dict, n_features: int) -> Scaler:
    mean = _vector(payload, "scaler_mean", n_features)
    std = _vector(payload, "scaler_std", n_features)
    if (std < 0.0).any():
        raise BadArtifact("scaler_std holds a negative value")
    return Scaler(mean=mean, std=std)


def _trees(blobs: list, n_features: int) -> list[Tree]:
    """Each tree's node arrays, checked so that predict can neither index
    outside them nor loop: every split node's children lie after it.

    Shapes, element types and emptiness are checked tree by tree; values
    and links once, over the trees' joined arrays. An error names the
    first tree's first failing check, as checking tree by tree would.
    """
    cols_of = []
    for blob in blobs:
        cols = [np.asarray(blob[name]) for name in Tree._fields]
        problem = None
        if len({col.shape for col in cols}) != 1 or cols[0].ndim != 1:
            problem = f"a tree's node arrays differ in shape: {[c.shape for c in cols]}"
        elif not cols[0].size:
            problem = "a tree has no nodes"
        else:
            problem = next((f"a tree's {name} holds {col.dtype} values"
                            for name, col, fill in zip(Tree._fields, cols, LEAF)
                            if col.dtype.kind not in ("if" if isinstance(fill, float) else "i")),
                           None)
        if problem:
            _check_nodes(cols_of, n_features)  # an earlier tree's error comes first
            raise BadArtifact(problem)
        cols_of.append(cols)
    return _check_nodes(cols_of, n_features)


def _check_nodes(cols_of: list, n_features: int) -> list[Tree]:
    """The trees of ``cols_of`` (each a list of node arrays), after checking
    their values and links on the joined arrays."""
    if not cols_of:
        return []
    sizes = np.array([len(cols[0]) for cols in cols_of])
    joined = Tree(*(np.concatenate(col).astype(type(fill))
                    for col, fill in zip(zip(*cols_of), LEAF)))
    tree = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    node = np.arange(len(tree)) - starts[tree]  # index within its tree
    feature, left, right = joined.feature, joined.left, joined.right
    split = feature != -1
    checks = [~np.isfinite(joined.value), ~np.isfinite(joined.threshold),
              split & ((feature < 0) | (feature >= n_features)),
              split & ((np.minimum(left, right) <= node)
                       | (np.maximum(left, right) >= sizes[tree])),
              ~split & ((left != -1) | (right != -1))]
    firsts = [(tree[at[0]], k, at[0]) for k, bad in enumerate(checks)
              for at in (np.flatnonzero(bad),) if len(at)]
    if firsts:
        _, k, at = min(firsts)
        if k < 2:
            name = ("value", "threshold")[k]
            raise BadArtifact(f"a tree node has {name} {getattr(joined, name)[at]}")
        problem = (f"splits on a feature outside 0..{n_features - 1}",
                   "has a child that does not lie after it within the tree",
                   "is a leaf with a child")[k - 2]
        raise BadArtifact(f"tree node {node[at]} {problem}: feature {feature[at]}, "
                          f"children {left[at]} and {right[at]}")
    return [Tree(*(col[start:start + size] for col in joined))
            for start, size in zip(starts.tolist(), sizes.tolist())]


def _model_from(technique: str, payload: dict, n_features: int, names) -> ModelBase:
    """Rebuild one model, checking the payload's indices and array shapes."""
    if technique == "lr":
        rank = payload["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int) or not 0 <= rank <= n_features + 1:
            raise BadArtifact(f"rank is {rank!r}, expected an integer in 0..{n_features + 1}")
        return LinearModel(coef=_vector(payload, "coef", n_features),
                           intercept=payload["intercept"], rank=rank, feature_names=names)
    if technique == "knn":
        train_X = _matrix(payload, "train_X", n_features)
        rows = train_X.shape[0]
        k = payload["k"]
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= rows:
            raise BadArtifact(f"k is {k!r}, expected an integer in 1..{rows}, the training rows")
        return KnnModel(train_X=train_X, train_y=_vector(payload, "train_y", rows), k=k,
                        scaler=_scaler_from(payload, n_features), feature_names=names)
    if technique in ("dtr", "rfr"):
        params, trees = payload["params"], payload["trees"]
        if technique == "dtr" and len(trees) != 1:
            raise BadArtifact(f"the tree model holds {len(trees)} trees, not 1")
        if technique == "rfr" and (not trees or len(trees) != params["n_trees"]):
            raise BadArtifact(
                f"the forest holds {len(trees)} trees, params.n_trees is {params['n_trees']!r}")
        model = TreeModel if technique == "dtr" else ForestModel
        return model(_trees(trees, n_features), n_features, params, feature_names=names)
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
    envelope = read_json(path, "model artifact")
    if not isinstance(envelope, dict) or "format_version" not in envelope:
        raise BadArtifact(f"{path} is not a model artifact")
    version = envelope["format_version"]
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path} uses format_version={version}, this build reads {FORMAT_VERSION}; "
            "retrain the model")
    try:
        n_features = int(envelope["n_features"])
        model = _model_from(envelope["technique"], envelope["payload"], n_features,
                            envelope["feature_names"])
    except BadArtifact as exc:
        raise BadArtifact(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise BadArtifact(f"{path} is missing or malformed fields: {exc}") from exc
    if envelope.get("fingerprint") != model.fingerprint:
        raise BadArtifact(f"{path} fingerprint does not match its feature layout")
    return model
