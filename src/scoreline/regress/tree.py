"""CART-style decision tree regression."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .base import ModelBase, TooFewRows, as_xy
from .kernels import best_split, dense_ranks


class Tree(NamedTuple):
    """One tree as parallel node arrays; node 0 is the root.

    A split node sends rows with ``X[:, feature] <= threshold`` to node
    ``left`` and the rest to node ``right``; a leaf has feature, left and
    right -1. Every child's index is greater than its parent's. Every node
    keeps the mean target (``value``) and row count (``n``) seen in growth.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    n: np.ndarray
    left: np.ndarray
    right: np.ndarray


# a new node's entry in each array, and so each array's element type
LEAF = Tree(feature=-1, threshold=0.0, value=0.0, n=0, left=-1, right=-1)


def grow_trees(X: np.ndarray, y: np.ndarray, roots_rows, rngs, *,
               max_depth: int, min_leaf: int, max_features: int) -> list[Tree]:
    """Grow one tree per item of the iterable ``roots_rows`` (indices into
    X / y), in lockstep.

    Tree t draws its feature subsets from ``rngs[t]``, or scans every
    column when that is None or ``max_features`` covers them all; a tree
    that scans every column never consults its generator, so it is
    bitwise independent of the RNG. Each tree keeps its own preorder stack
    (node, left subtree, right subtree), and a tree that draws takes one
    split node a round, so each generator sees the draws in preorder, as
    in a tree grown alone. Each round scores the split nodes of every tree
    in one :func:`best_split` call. A node's two children are appended to
    its tree's arrays when it splits.
    """
    p = X.shape[1]
    ranks = dense_ranks(X)
    full = np.arange(p, dtype=np.int64)
    # no list of the root rows outlives this: each is freed once it splits
    stacks = [[(0, rows, 0)] for rows in roots_rows]
    trees = [Tree(*([fill] for fill in LEAF)) for _ in stacks]
    while True:
        batch = []
        for tree, stack, rng in zip(trees, stacks, rngs):
            draws = rng is not None and max_features < p
            while stack:
                node, node_rows, depth = stack.pop()
                node_y = y[node_rows]
                n = tree.n[node] = node_rows.shape[0]
                tree.value[node] = float(np.add.reduce(node_y)) / n  # bitwise .mean()
                if depth >= max_depth or n < 2 * min_leaf or (node_y == node_y[0]).all():
                    continue
                feat_idx = full
                if draws:
                    feat_idx = rng.choice(p, size=max_features, replace=False)
                    feat_idx.sort()
                batch.append((tree, stack, node, node_rows, depth, feat_idx))
                if draws:
                    break
        if not batch:
            return [Tree(*(np.array(col, dtype=type(fill)) for col, fill in zip(tree, LEAF)))
                    for tree in trees]
        feats, thrs, _sse = best_split(X, y, np.array([b[5] for b in batch]), min_leaf,
                                       [b[3] for b in batch], ranks)
        for (tree, stack, node, node_rows, depth, _), feat, thr in zip(batch, feats.tolist(),
                                                                         thrs.tolist()):
            if feat < 0:
                continue
            go_left = X[node_rows, feat] <= thr
            child = len(tree.feature)
            tree.feature[node], tree.threshold[node] = feat, thr
            tree.left[node], tree.right[node] = child, child + 1
            for col, fill in zip(tree, LEAF):
                col += (fill, fill)
            stack.append((child + 1, node_rows[~go_left], depth + 1))
            stack.append((child, node_rows[go_left], depth + 1))


def predict_trees(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """The mean over ``trees`` of the leaf value each row of X reaches.

    The trees' arrays are joined end to end, and each pass moves every
    (tree, row) pair at a split node one level down, so a pass costs one
    set of array operations however many trees there are. The (trees,
    rows) leaf values are reduced by ``.mean(axis=0)``: the same sums, in
    the same order, as stacking each tree's predictions.
    """
    sizes = [tree.feature.shape[0] for tree in trees]
    first = np.cumsum([0, *sizes[:-1]])
    shift = np.repeat(first, sizes)
    feature, threshold, value, _n, left, right = (np.concatenate(col) for col in zip(*trees))
    left, right = left + shift, right + shift
    rows = np.arange(X.shape[0])
    at = np.repeat(first[:, None], X.shape[0], axis=1)
    while True:
        feat = feature[at]
        split = feat >= 0
        if not split.any():
            return value[at].mean(axis=0)
        go_left = X[rows, feat] <= threshold[at]
        at = np.where(split, np.where(go_left, left[at], right[at]), at)


def tree_size(trees: list[Tree]) -> dict:
    """Total node count, and the depth of the deepest leaf (the root is at
    depth 0); one forward pass a tree, since children follow parents."""
    depths = []
    for tree in trees:
        depth = [0] * tree.feature.shape[0]
        for node, (left, right) in enumerate(zip(tree.left.tolist(), tree.right.tolist())):
            if left >= 0:
                depth[left] = depth[right] = depth[node] + 1
        depths += depth
    return {"nodes": len(depths), "depth": max(depths)}


class TreeModel(ModelBase):
    """One CART tree (dtr); its subclass ForestModel averages several."""

    technique = "dtr"

    def __init__(self, trees: list[Tree], n_features: int, params: dict,
                 feature_names=None):
        super().__init__(n_features, feature_names)
        self.trees = list(trees)
        self.params = dict(params)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return predict_trees(self.trees, X)


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
    trees = grow_trees(X, y, [rows], [None], max_depth=max_depth,
                       min_leaf=min_leaf, max_features=X.shape[1])
    return TreeModel(trees, X.shape[1], {"max_depth": int(max_depth), "min_leaf": int(min_leaf)},
                     feature_names=feature_names)
