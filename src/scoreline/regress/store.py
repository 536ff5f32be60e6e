"""Versioned JSON persistence for trained models.

The format is the table ``ENVELOPE`` and, per technique, ``PAYLOADS``: each
key, which names the model attribute that holds it, and its kind. Saving
writes the attributes; loading reads each key through its kind. A stored
number is a finite JSON number, never a bool or null, and an integer where
a count or an index belongs."""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from operator import itemgetter
from pathlib import Path

import numpy as np

from .base import ModelBase
from .knn import KnnModel
from .linear import LinearModel
from .svr import SvrModel
from .tree import LEAF, ForestModel, Tree, TreeModel

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
    envelope = {"format_version": FORMAT_VERSION, "fingerprint": model.fingerprint,
                **fields_of(model, ENVELOPE),
                "payload": fields_of(model, PAYLOADS[model.technique])}
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(envelope))
        fh.write("\n")


# No indent: with one, CPython's json falls back to its pure-Python encoder.
_ENCODER = json.JSONEncoder(sort_keys=True, default=np.ndarray.tolist)


def _json_pieces(value):
    """The text of ``_ENCODER.encode(value)``, a Tree as the dict of its node
    arrays, in pieces: a dict with string keys key by key, a list of lists,
    dicts, Trees or arrays (a forest's trees) and an array of rows item by
    item, anything else whole, an array converted by ``tolist()`` only then.
    So no piece outgrows one tree or one row, where one encoding of a forest
    keeps a chunk for each of its node values until it joins them."""
    if isinstance(value, Tree):
        value = value._asdict()
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_pieces(value[key])
        yield "}"
    elif (isinstance(value, np.ndarray) and value.ndim > 1
          or isinstance(value, list) and all(isinstance(item, (list, dict, Tree, np.ndarray))
                                             for item in value)):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _json_pieces(item)
        yield "]"
    else:
        yield _ENCODER.encode(value)


def _numbers(key: str, value, ndim: int) -> np.ndarray:
    """``value`` as an array of ``ndim`` axes, each cell a JSON number: not
    a bool, a null, a string or a row of another length."""
    try:
        arr = np.asarray(value)
    except ValueError:  # rows of unequal length
        arr = np.asarray(None)
    if arr.ndim != ndim or arr.dtype.kind not in "iuf" or bool in map(type, (
            value if ndim == 1 else itertools.chain.from_iterable(value) if ndim else (value,))):
        raise BadArtifact(f"{key} is not a {'list of ' * ndim}JSON number{'s' * (ndim > 0)}")
    return arr


def _trees(key: str, blobs, got: dict) -> list[Tree]:
    """The trees, as many as ``params.n_trees`` if read and else one, each
    checked by :func:`_tree` in file order, so an error names the first
    faulty tree's first failing check."""
    if not isinstance(blobs, list):
        raise BadArtifact(f"{key} is {reprlib.repr(blobs)}, expected a JSON array")
    n_trees = got.get("params.n_trees")
    if len(blobs) != (n_trees or 1):
        raise BadArtifact(f"the forest holds {len(blobs)} trees, params.n_trees is {n_trees}"
                          if n_trees else f"the tree model holds {len(blobs)} trees, not 1")
    return [_tree(blob, got["n_features"]) for blob in blobs]


def _tree(blob, n_features: int) -> Tree:
    """One stored tree, checked so that predict can neither index outside
    it nor loop: its shapes, emptiness and element types, then its values
    and links. An error names the first failing check at its first node."""
    # a missing array reads as False, which is not a list
    cols = [_numbers(f"a tree's {name}", isinstance(blob, dict) and blob.get(name), 1)
            for name in Tree._fields]
    if len({col.shape for col in cols}) != 1:
        raise BadArtifact(f"a tree's node arrays differ in shape: {[col.shape for col in cols]}")
    if not cols[0].size:
        raise BadArtifact("a tree has no nodes")
    for name, col, fill in zip(Tree._fields, cols, LEAF):
        if col.dtype.kind not in ("if" if isinstance(fill, float) else "i"):
            raise BadArtifact(f"a tree's {name} holds {col.dtype} values")
    tree = Tree(*(col.astype(type(fill), copy=False) for col, fill in zip(cols, LEAF)))
    feature, left, right = tree.feature, tree.left, tree.right
    node, split = np.arange(len(feature)), feature != -1
    checks = [~np.isfinite(tree.value), ~np.isfinite(tree.threshold),
              split & ((feature < 0) | (feature >= n_features)),
              split & ((np.minimum(left, right) <= node) | (np.maximum(left, right) >= len(node))),
              ~split & ((left != -1) | (right != -1))]
    for k, bad in enumerate(checks):
        if bad.any():
            at = np.flatnonzero(bad)[0]
            if k < 2:
                name = ("value", "threshold")[k]
                raise BadArtifact(f"a tree node has {name} {getattr(tree, name)[at]}")
            problem = (f"splits on a feature outside 0..{n_features - 1}",
                       "has a child that does not lie after it within the tree",
                       "is a leaf with a child")[k - 2]
            raise BadArtifact(f"tree node {at} {problem}: feature {feature[at]}, "
                              f"children {left[at]} and {right[at]}")
    return tree


# A kind reads one stored value: ``kind(key, value, got)`` returns what the
# model keeps or raises BadArtifact. ``got`` holds the values read before it.

def _numeric(shape=(), low=-math.inf, high=lambda got: math.inf, integer=False):
    """Finite JSON numbers in ``low..high(got)``, integers if ``integer``:
    one, or an array of ``shape``, each axis None for any length or a
    function of ``got``."""
    def read(key, value, got):
        arr = _numbers(key, value, len(shape))
        arr, top = (arr if integer else arr.astype(np.float64, copy=False)), high(got)
        want = tuple(n if axis is None else axis(got) for n, axis in zip(arr.shape, shape))
        if (arr.shape != want or arr.dtype.kind != ("i" if integer else "f")
                or not (np.isfinite(arr) & (low <= arr) & (arr <= top)).all()):
            raise BadArtifact(f"{key} is {reprlib.repr(value)}, expected "
                              f"{'integers' if integer else 'finite numbers'} in {low}..{top}"
                              + f", shape {want}" * bool(shape))
        return arr if shape else arr.item()
    return read


def _carried(expected: str, fits):
    """A value for which ``fits`` holds, carried as it is."""
    def read(key, value, got):
        if not fits(value):
            raise BadArtifact(f"{key} is {reprlib.repr(value)}, expected {expected}")
        return value
    return read


def _rows(got):
    return len(got["train_X"])


_features = itemgetter("n_features")
OBJECT = _carried("a JSON object", lambda value: isinstance(value, dict))
KERNEL = _carried("linear or rbf", lambda value: value in ("linear", "rbf"))
NUMBER, VECTOR, MATRIX = _numeric(), _numeric((_features,)), _numeric((None, _features))
SCALER = [("scaler_mean", VECTOR), ("scaler_std", _numeric((_features,), low=0.0))]
SVR = [("kernel", KERNEL), ("params", OBJECT), ("status", OBJECT), ("b", NUMBER), *SCALER]

# Each row: the key, which names the model attribute that holds it (dotted:
# a field of a stored object, read and checked, not kept), and its kind.
# Rows are read in order.
PAYLOADS = {
    "lr": [("coef", VECTOR), ("intercept", NUMBER),
           ("rank", _numeric(low=0, high=lambda got: got["n_features"] + 1, integer=True))],
    "knn": [("train_X", MATRIX), ("train_y", _numeric((_rows,))),
            ("k", _numeric(low=1, high=_rows, integer=True)), *SCALER],
    "dtr": [("params", OBJECT), ("trees", _trees)],
    "rfr": [("params", OBJECT), ("params.n_trees", _numeric(low=1, integer=True)),
            ("trees", _trees)],
    "svr": {"linear": [*SVR, ("w", VECTOR)],
            "rbf": [*SVR, ("train_X", MATRIX), ("beta", _numeric((_rows,))),
                    ("gamma", _numeric(low=math.ulp(0.0)))]},
}
ENVELOPE = [("technique", _carried(f"one of {', '.join(PAYLOADS)}",
                                   lambda value: value in tuple(PAYLOADS))),
            ("n_features", _numeric(low=0, integer=True)),
            ("feature_names", _carried("null or a list of strings", lambda v: (
                v is None or isinstance(v, list) and all(type(name) is str for name in v))))]
MODELS = {model.technique: model
          for model in (LinearModel, KnnModel, TreeModel, ForestModel, SvrModel)}


def fields_of(model: ModelBase, table) -> dict:
    """Each undotted key of ``table`` (for svr, of its kernel's) and the
    model attribute of that name, NumPy arrays and Trees as they are."""
    table = table[model.kernel] if isinstance(table, dict) else table
    return {key: getattr(model, key) for key, _kind in table if "." not in key}


def _read(blob: dict, key: str, kind, got: dict):
    """``blob``'s field ``key`` (dotted: a field of an object read before;
    missing: null) read as ``kind``, also kept in ``got``."""
    for name in key.split("."):
        blob = blob.get(name)
    got[key] = kind(key, blob, got)
    return got[key]


def _model_from(envelope: dict) -> ModelBase:
    """The model whose attributes are the envelope's fields, each read
    through its kind and set under its undotted key; the model class's
    __init__ is not run."""
    got = {}
    for key, kind in ENVELOPE:
        _read(envelope, key, kind, got)
    payload, table = _read(envelope, "payload", OBJECT, got), PAYLOADS[got["technique"]]
    if isinstance(table, dict):  # svr, one table per kernel
        table = table[_read(payload, "kernel", KERNEL, got)]
    for key, kind in table:
        _read(payload, key, kind, got)
    model = MODELS[got["technique"]].__new__(MODELS[got["technique"]])
    ModelBase.__init__(model, got["n_features"], got["feature_names"])
    vars(model).update((key, got[key]) for key, _kind in table if "." not in key)
    return model


def load_model(path) -> ModelBase:
    """Read a saved model through its table; a field that does not fit
    raises BadArtifact instead of failing later in predict."""
    envelope = read_json(path, "model artifact")
    if not isinstance(envelope, dict) or "format_version" not in envelope:
        raise BadArtifact(f"{path} is not a model artifact")
    if envelope["format_version"] != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path} uses format_version={envelope['format_version']}, "
                                 f"this build reads {FORMAT_VERSION}; retrain the model")
    try:
        model = _model_from(envelope)
    except BadArtifact as exc:
        raise BadArtifact(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # a backstop: every field has a check
        raise BadArtifact(f"{path} is missing or malformed fields: {exc}") from exc
    if envelope.get("fingerprint") != model.fingerprint:
        raise BadArtifact(f"{path} fingerprint does not match its feature layout")
    return model
