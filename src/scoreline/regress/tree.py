"""CART-style decision tree regression."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import ModelBase, TooFewRows, as_xy
from .kernels import best_split, dense_ranks


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


def grow_trees(X: np.ndarray, y: np.ndarray, roots_rows, rngs, *,
               max_depth: int, min_leaf: int, max_features: int) -> list[TreeNode]:
    """Grow one tree per item of the iterable ``roots_rows`` (indices into
    X / y), in lockstep.

    Tree t draws its feature subsets from ``rngs[t]``, or scans every
    column when that is None or ``max_features`` covers them all; a tree
    that scans every column never consults its generator, so it is
    bitwise independent of the RNG. Each tree keeps its own preorder stack
    (node, left subtree, right subtree), and a tree that draws takes one
    split node a round, so each generator sees the draws in preorder, as
    in a tree grown alone. Each round scores the split nodes of every tree
    in one :func:`best_split` call.
    """
    p = X.shape[1]
    ranks = dense_ranks(X)
    full = np.arange(p, dtype=np.int64)
    # no list of the root rows outlives this: each is freed once it splits
    stacks = [[(TreeNode(feature=-1, threshold=0.0, value=0.0, n=0), rows, 0)]
              for rows in roots_rows]
    roots = [stack[0][0] for stack in stacks]
    while True:
        batch = []
        for stack, rng in zip(stacks, rngs):
            draws = rng is not None and max_features < p
            while stack:
                node, node_rows, depth = stack.pop()
                node_y = y[node_rows]
                node.n = node_rows.shape[0]
                node.value = float(np.add.reduce(node_y)) / node.n  # bitwise .mean()
                if (depth >= max_depth or node.n < 2 * min_leaf
                        or (node_y == node_y[0]).all()):
                    continue
                feat_idx = full
                if draws:
                    feat_idx = rng.choice(p, size=max_features, replace=False)
                    feat_idx.sort()
                batch.append((stack, node, node_rows, depth, feat_idx))
                if draws:
                    break
        if not batch:
            return roots
        feats, thrs, _sse = best_split(X, y, np.array([b[4] for b in batch]), min_leaf,
                                       [b[2] for b in batch], ranks)
        for (stack, node, node_rows, depth, _), feat, thr in zip(batch, feats.tolist(),
                                                                   thrs.tolist()):
            if feat < 0:
                continue
            go_left = X[node_rows, feat] <= thr
            node.feature, node.threshold = feat, thr
            node.left = TreeNode(feature=-1, threshold=0.0, value=0.0, n=0)
            node.right = TreeNode(feature=-1, threshold=0.0, value=0.0, n=0)
            stack.append((node.right, node_rows[~go_left], depth + 1))
            stack.append((node.left, node_rows[go_left], depth + 1))


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
    and hold both children (KeyError or TypeError when one is missing), and
    every value and threshold must be finite."""
    value = _finite(blob, "value")
    if "feature" not in blob:
        return TreeNode(feature=-1, threshold=0.0, value=value, n=int(blob["n"]))
    feature = int(blob["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(f"a tree node splits on feature {feature}, "
                         f"outside 0..{n_features - 1}")
    return TreeNode(
        feature=feature,
        threshold=_finite(blob, "threshold"),
        value=value,
        n=int(blob["n"]),
        left=node_from_dict(blob["left"], n_features),
        right=node_from_dict(blob["right"], n_features),
    )


def _finite(blob: dict, key: str) -> float:
    value = float(blob[key])
    if not math.isfinite(value):
        raise ValueError(f"a tree node has {key} {value}")
    return value


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
    root, = grow_trees(X, y, [rows], [None], max_depth=max_depth,
                       min_leaf=min_leaf, max_features=X.shape[1])
    return TreeModel(root, X.shape[1], max_depth, min_leaf,
                     feature_names=feature_names)
