"""CART-style decision tree regression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelBase, TooFewRows, as_xy
from .kernels import best_split


@dataclass
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1).

    Rows with ``value <= threshold`` go left. Every node keeps the mean
    target and row count seen during growth.
    """

    feature: int
    threshold: float
    value: float
    n: int
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def grow_tree(X: np.ndarray, y: np.ndarray, rows: np.ndarray, *,
              max_depth: int, min_leaf: int, max_features: int,
              rng: np.random.Generator | None) -> TreeNode:
    """Grow one tree over `rows` (indices into X / y).

    ``max_features`` limits the features scanned per split; when it covers
    every column the generator is never consulted, so a full-feature tree
    is bitwise independent of the RNG. Subsets are drawn in preorder
    (node, left subtree, right subtree) for determinism.
    """
    p = X.shape[1]
    full = np.arange(p, dtype=np.int64)

    def _grow(node_rows: np.ndarray, depth: int) -> TreeNode:
        node_y = y[node_rows]
        node = TreeNode(feature=-1, threshold=0.0,
                        value=float(node_y.mean()), n=int(node_rows.shape[0]))
        if depth >= max_depth or node.n < 2 * min_leaf:
            return node
        if np.all(node_y == node_y[0]):
            return node
        if rng is not None and max_features < p:
            feat_idx = np.sort(rng.choice(p, size=max_features, replace=False))
            feat_idx = feat_idx.astype(np.int64)
        else:
            feat_idx = full
        feat, thr, _sse = best_split(
            np.ascontiguousarray(X[node_rows]),
            np.ascontiguousarray(node_y),
            feat_idx, min_leaf)
        if feat < 0:
            return node
        go_left = X[node_rows, feat] <= thr
        node.feature = int(feat)
        node.threshold = float(thr)
        node.left = _grow(node_rows[go_left], depth + 1)
        node.right = _grow(node_rows[~go_left], depth + 1)
        return node

    return _grow(rows, 0)


def walk_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    for i in range(X.shape[0]):
        node = root
        while not node.is_leaf:
            node = node.left if X[i, node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value, "n": node.n}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "value": node.value,
        "n": node.n,
        "left": node_to_dict(node.left),
        "right": node_to_dict(node.right),
    }


def node_from_dict(blob: dict, n_features: int) -> TreeNode:
    """Rebuild a tree; a split node must name a feature in [0, n_features)
    and hold both children (KeyError or TypeError when one is missing)."""
    if "feature" not in blob:
        return TreeNode(feature=-1, threshold=0.0, value=float(blob["value"]),
                        n=int(blob["n"]))
    feature = int(blob["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(f"a tree node splits on feature {feature}, "
                         f"outside 0..{n_features - 1}")
    return TreeNode(
        feature=feature,
        threshold=float(blob["threshold"]),
        value=float(blob["value"]),
        n=int(blob["n"]),
        left=node_from_dict(blob["left"], n_features),
        right=node_from_dict(blob["right"], n_features),
    )


class TreeModel(ModelBase):
    technique = "dtr"

    def __init__(self, root: TreeNode, n_features: int, max_depth: int,
                 min_leaf: int, feature_names=None):
        super().__init__(n_features, feature_names)
        self.root = root
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return walk_tree(self.root, X)

    def payload(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "root": node_to_dict(self.root),
        }


def check_tree_params(max_depth: int, min_leaf: int) -> None:
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be at least 1, got {min_leaf}")


def fit_dtr(X, y, max_depth: int = 6, min_leaf: int = 5,
            feature_names=None) -> TreeModel:
    """Grow a CART regression tree on raw (unstandardized) features.

    Splits minimize summed child SSE with midpoint thresholds; ties go to
    the lowest feature index, then the lowest threshold. Growth stops at
    ``max_depth``, when a node cannot give both children ``min_leaf`` rows,
    or when targets are constant.
    """
    X, y = as_xy(X, y)
    check_tree_params(max_depth, min_leaf)
    if X.shape[0] < 2 * min_leaf:
        raise TooFewRows(
            f"need at least {2 * min_leaf} rows for min_leaf={min_leaf}, got {X.shape[0]}")
    rows = np.arange(X.shape[0], dtype=np.int64)
    root = grow_tree(X, y, rows, max_depth=max_depth, min_leaf=min_leaf,
                     max_features=X.shape[1], rng=None)
    return TreeModel(root, X.shape[1], max_depth, min_leaf,
                     feature_names=feature_names)
