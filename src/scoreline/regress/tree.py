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
    X / y), all trees one depth level at a time.

    A level is held in arrays: its nodes' rows end to end, one segment a
    node, tree by tree, and each node's tree and index in that tree. One
    :func:`best_split` call scores the level's split nodes across all
    trees, each read from its segment of the row array by start and size.
    Tree t draws the feature subsets of its split nodes at a level from
    ``rngs[t]`` in one call, in level order: a node scans the
    ``max_features`` columns whose uniform draws are smallest. A tree that
    scans every column never consults its generator. So a tree depends on
    its own roots and generator alone, never on the other trees.

    The children come from one stable partition of the splitting nodes'
    rows, so each child keeps its parent's row order. A level's splits
    number their children in level order, left before right, and the next
    level takes the splits in reverse: the order in which a depth-first
    stack would take them, so a tree that draws nothing is numbered as one
    grown node by node from a stack.
    """
    p = X.shape[1]
    ranks = dense_ranks(X)
    roots = list(roots_rows)
    n_trees = len(roots)
    rows = np.concatenate(roots, dtype=ranks.dtype)  # int32 where every row index fits
    sizes = np.array([r.shape[0] for r in roots], dtype=np.int64)
    del roots  # each root's rows now live in the level's segments alone
    tree_of, index = np.arange(n_trees), np.zeros(n_trees, dtype=np.int64)
    count = np.ones(n_trees, dtype=np.int64)  # nodes numbered so far, per tree
    levels = []
    for depth in range(max_depth + 1):
        ends = np.cumsum(sizes)
        starts = ends - sizes
        ys = y[rows]
        nodes = Tree(*(np.full(sizes.shape[0], fill) for fill in LEAF))
        nodes.value[:] = [float(np.add.reduce(ys[a:b])) / (b - a)  # bitwise .mean()
                          for a, b in zip(starts.tolist(), ends.tolist())]
        nodes.n[:] = sizes
        levels.append((tree_of, index, nodes))
        split = np.flatnonzero((sizes >= 2 * min_leaf) & (
            np.minimum.reduceat(ys, starts) != np.maximum.reduceat(ys, starts)))
        del ys
        if depth == max_depth or not split.shape[0]:
            break
        if max_features < p:
            drawn = np.bincount(tree_of[split], minlength=n_trees).tolist()
            feat_idx = np.concatenate([
                np.argpartition(rng.random((k, p)), max_features - 1)[:, :max_features]
                for rng, k in zip(rngs, drawn) if k])
            feat_idx.sort()
        else:
            feat_idx = np.broadcast_to(np.arange(p), (split.shape[0], p))
        feats, thrs, _sse = best_split(X, y, feat_idx, min_leaf, rows, starts[split],
                                       sizes[split], ranks)
        found = feats >= 0
        split = split[found]
        if not split.shape[0]:
            break
        nodes.feature[split], nodes.threshold[split] = feats[found], thrs[found]
        # each tree's splits take their tree's next node numbers in level order
        split_tree = tree_of[split]
        per_tree = np.bincount(split_tree, minlength=n_trees)
        first = np.cumsum(per_tree) - per_tree
        rank = np.arange(split.shape[0]) - first[split_tree]
        nodes.left[split] = count[split_tree] + 2 * rank
        nodes.right[split] = nodes.left[split] + 1
        count += 2 * per_tree
        # the next level, tree by tree: the splits in reverse, each left child then right
        slot = 2 * (first[split_tree] + per_tree[split_tree] - 1 - rank)
        tree_of = np.empty(2 * split.shape[0], dtype=np.int64)
        tree_of[slot] = tree_of[slot + 1] = split_tree
        index = np.empty_like(tree_of)
        index[slot], index[slot + 1] = nodes.left[split], nodes.right[split]
        split_sizes = sizes[split]
        splitting = np.zeros(sizes.shape[0], dtype=bool)
        splitting[split] = True
        rows = rows[np.repeat(splitting, sizes)]
        # a child's slot, plus one for rows that go right; a stable argsort
        # of 16-bit keys is a radix sort
        key = np.repeat(slot.astype(np.uint16 if tree_of.shape[0] <= 1 << 16 else np.int64),
                        split_sizes)
        key += X[rows, np.repeat(nodes.feature[split], split_sizes)] > np.repeat(
            nodes.threshold[split], split_sizes)
        rows = rows[np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=tree_of.shape[0])
        del key  # before the next level's split search
    tree_of, index, nodes = zip(*levels)
    order = np.lexsort((np.concatenate(index), np.concatenate(tree_of)))
    bounds = np.cumsum(count)[:-1]
    return [Tree(*cols) for cols in zip(*(np.split(np.concatenate(col)[order], bounds)
                                          for col in zip(*nodes)))]


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

    Each tree draws from its own generator, spawned from the seed: its
    bootstrap rows first, then level by level one draw of the feature
    subsets of the level's split nodes (see :func:`grow_trees`). So a tree
    is the same whatever the other trees are: the first k trees of a
    forest are the forest of k trees with that seed. A forest with no
    bootstrap and a full feature subset draws nothing and makes no
    generator: with one tree, that fit is :func:`fit_dtr`.

    Every tree grows in this process, all trees level by level together. A
    command that fits several models spreads whole fits over the CPUs
    instead (see ``scoreline.cli.run_fits``).
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

    rngs = [None] * n_trees
    if bootstrap or m_feat < p:
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
