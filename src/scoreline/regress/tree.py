"""CART regression trees and bagged forests of them. A decision tree is the
forest of one tree grown on every row, each split scanning every column
(Breiman, Machine Learning 45(1), 2001): fit_dtr is that call of fit_rfr."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .base import BadParameter, ModelBase, TooFewRows, as_xy
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
    column when ``max_features`` covers them all; a tree that scans every
    column never consults its generator, so it is bitwise independent of
    the RNG. Each tree keeps its own preorder stack
    (node, left subtree, right subtree), and a tree that draws takes one
    split node a round, so each generator sees the draws in preorder, as
    in a tree grown alone. Each round scores the split nodes of every tree
    in one :func:`best_split` call. A node's two children are appended to
    its tree's arrays when it splits.
    """
    p = X.shape[1]
    ranks = dense_ranks(X)
    full = np.arange(p, dtype=np.int64)
    draws = max_features < p
    # no list of the root rows outlives this: each is freed once it splits
    stacks = [[(0, rows, 0)] for rows in roots_rows]
    trees = [Tree(*([fill] for fill in LEAF)) for _ in stacks]
    while True:
        batch = []
        for tree, stack, rng in zip(trees, stacks, rngs):
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


class ForestModel(TreeModel):
    """The mean of several trees' predictions."""

    technique = "rfr"


def resolve_max_features(spec, p: int) -> int:
    """Feature-subset size per split: "sqrt" (ceil), an int, or None for all."""
    if spec is None or spec == "all":
        return p
    if spec == "sqrt":
        return math.ceil(math.sqrt(p))
    m = int(spec)
    if not 1 <= m <= p:
        raise BadParameter(f"feature subset size {m} outside 1..{p}")
    return m


def fit_rfr(X, y, n_trees: int = 100, max_depth: int = 6, min_leaf: int = 5,
            max_features="sqrt", bootstrap: bool = True,
            bootstrap_fraction: float = 1.0, seed: int = 0,
            feature_names=None) -> ForestModel:
    """Fit a bagged ensemble of CART trees on raw (unstandardized) features.

    Splits minimize summed child SSE with midpoint thresholds; ties go to
    the lowest feature index, then the lowest threshold. A tree stops
    growing at ``max_depth``, when a node cannot give both children
    ``min_leaf`` rows, or when targets are constant.

    Each tree draws from its own generator, spawned from the seed, in a
    fixed order: bootstrap rows first, then per-split feature subsets in
    preorder. With one tree, no bootstrap and a full feature subset, no
    random draw happens at all: that fit is :func:`fit_dtr`.

    Every tree grows in this process, all in one lockstep. A command that
    fits several models spreads whole fits over the CPUs instead (see
    ``scoreline.cli.run_fits``).
    """
    X, y = as_xy(X, y)
    if max_depth < 1:
        raise BadParameter(f"max_depth must be at least 1, got {max_depth}")
    if min_leaf < 1:
        raise BadParameter(f"min_leaf must be at least 1, got {min_leaf}")
    if n_trees < 1:
        raise BadParameter(f"n_trees must be at least 1, got {n_trees}")
    if not 0.0 < bootstrap_fraction <= 1.0:
        raise BadParameter(f"bootstrap fraction {bootstrap_fraction} outside (0, 1]")
    n, p = X.shape
    if n < 2 * min_leaf:
        raise TooFewRows(
            f"need at least {2 * min_leaf} rows for min_leaf={min_leaf}, got {n}")
    m_feat = resolve_max_features(max_features, p)
    sample_size = max(1, int(round(n * bootstrap_fraction)))

    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(n_trees)]
    all_rows = np.arange(n, dtype=np.int64)

    trees = grow_trees(
        X, y, (rng.integers(0, n, size=sample_size) if bootstrap else all_rows for rng in rngs),
        rngs, max_depth=max_depth, min_leaf=min_leaf, max_features=m_feat)

    params = {
        "n_trees": n_trees,
        "max_depth": max_depth,
        "min_leaf": min_leaf,
        "max_features": max_features if isinstance(max_features, str) or max_features is None else int(max_features),
        "bootstrap": bool(bootstrap),
        "bootstrap_fraction": float(bootstrap_fraction),
        "seed": int(seed),
    }
    return ForestModel(trees, p, params, feature_names=feature_names)


def fit_dtr(X, y, max_depth: int = 6, min_leaf: int = 5,
            feature_names=None) -> TreeModel:
    """Grow one CART regression tree: the forest of one tree on every row,
    each split scanning every column, which draws nothing (see
    :func:`fit_rfr` for the split and stopping rules)."""
    forest = fit_rfr(X, y, n_trees=1, max_depth=max_depth, min_leaf=min_leaf,
                     max_features="all", bootstrap=False, feature_names=feature_names)
    return TreeModel(forest.trees, forest.n_features,
                     {"max_depth": int(max_depth), "min_leaf": int(min_leaf)},
                     feature_names=feature_names)
