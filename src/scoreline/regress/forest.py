"""Random forest regression: bagged CART trees with feature subsampling."""

from __future__ import annotations

import math

import numpy as np

from . import workers
from .base import TooFewRows, as_xy
from .tree import TreeModel, check_tree_params, grow_trees


def resolve_max_features(spec, p: int) -> int:
    """Feature-subset size per split: "sqrt" (ceil), an int, or None for all."""
    if spec is None or spec == "all":
        return p
    if spec == "sqrt":
        return math.ceil(math.sqrt(p))
    m = int(spec)
    if not 1 <= m <= p:
        raise ValueError(f"feature subset size {m} outside 1..{p}")
    return m


class ForestModel(TreeModel):
    """The mean of several trees' predictions."""

    technique = "rfr"


def fit_rfr(X, y, n_trees: int = 100, max_depth: int = 6, min_leaf: int = 5,
            max_features="sqrt", bootstrap: bool = True,
            bootstrap_fraction: float = 1.0, seed: int = 0,
            feature_names=None) -> ForestModel:
    """Fit a bagged ensemble of CART trees.

    Each tree draws from its own generator, spawned from the seed, in a
    fixed order: bootstrap rows first, then per-split feature subsets in
    preorder. With one tree, no bootstrap and a full feature subset, no
    random draw happens at all and the result matches fit_dtr bitwise.

    The trees grow in contiguous groups, one per usable CPU: this process
    grows the first and a forked child each other (``workers.run_groups``),
    every group in lockstep with its own trees' generators, and the trees
    are joined in tree order. So the model does not depend on the CPU
    count. Growth is sequential where ``os.fork`` is missing or another
    Python thread runs, and the children's memory is not counted in this
    process's peak RSS.
    """
    X, y = as_xy(X, y)
    check_tree_params(max_depth, min_leaf)
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    if not 0.0 < bootstrap_fraction <= 1.0:
        raise ValueError(f"bootstrap fraction {bootstrap_fraction} outside (0, 1]")
    n, p = X.shape
    if n < 2 * min_leaf:
        raise TooFewRows(
            f"need at least {2 * min_leaf} rows for min_leaf={min_leaf}, got {n}")
    m_feat = resolve_max_features(max_features, p)
    sample_size = max(1, int(round(n * bootstrap_fraction)))

    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(n_trees)]
    all_rows = np.arange(n, dtype=np.int64)

    def grow(group: slice):
        return grow_trees(
            X, y, (rng.integers(0, n, size=sample_size) if bootstrap else all_rows
                   for rng in rngs[group]),
            rngs[group], max_depth=max_depth, min_leaf=min_leaf, max_features=m_feat)

    trees = [tree for part in workers.run_groups(grow, workers.split(n_trees)) for tree in part]

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

