"""Engine oracles: LR, KNN, DTR, RFR and SVR against independent references."""

import hashlib
import json
import os
import re
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    assert_no_child_left,
    exhaustive_tree_sse,
    forest_children_fail,
    leaf_tree,
    nested_payload,
    open_fd_count,
)

from scoreline import cli
from scoreline.features import SIDES
from scoreline.regress import (
    BadParameter,
    DimensionMismatch,
    ForestModel,
    KTooLarge,
    NonFiniteInput,
    NotConvergedWarning,
    RegressError,
    SchemaMismatch,
    TooFewRows,
    WorkerDied,
    fit_dtr,
    fit_knn,
    fit_lr,
    fit_model,
    fit_rfr,
    fit_svr,
    load_model,
    save_model,
    standardize_apply,
    standardize_fit,
    workers,
)
from scoreline.regress.kernels import best_split, dense_ranks
from scoreline.regress.tree import Tree, predict_trees, resolve_max_features, tree_size

# --------------------------------------------------------- standardization


def test_standardize_two_points():
    scaler = standardize_fit(np.array([[1.0], [3.0]]))
    out = standardize_apply(scaler, np.array([[1.0], [3.0]]))
    np.testing.assert_array_equal(out[:, 0], [-1.0, 1.0])


def test_standardize_constant_column():
    X = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
    out = standardize_apply(standardize_fit(X), X)
    np.testing.assert_array_equal(out[:, 0], [0.0, 0.0, 0.0])


def test_standardize_recenters():
    rng = np.random.default_rng(3)
    X = rng.normal(loc=5.0, scale=9.0, size=(60, 4))
    out = standardize_apply(standardize_fit(X), X)
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("technique, params", [("knn", {"k": 1}), ("svr", {}),
                                               ("svr", {"kernel": "rbf"})])
def test_standardize_names_the_refused_column(technique, params):
    """A column whose spread overflows is refused by index, and by name
    where the fit has feature names."""
    X = np.array([[1.0, 1e308], [2.0, -1e308], [3.0, 0.0]])
    y = np.array([0.0, 1.0, 2.0])
    text = "column 1{} is too large to standardize: mean 0.0, std inf"
    for names, named in ((["shots", "home d_Gls"], " (home d_Gls)"), (None, "")):
        with pytest.raises(NonFiniteInput) as caught:
            fit_model(technique, X, y, params, feature_names=names)
        assert str(caught.value) == text.format(named)
    with pytest.raises(NonFiniteInput) as caught:
        standardize_fit(X)
    assert str(caught.value) == text.format("")


# ------------------------------------------------------------------------ LR


def test_lr_recovers_line():
    x = np.linspace(-3, 3, 25)
    model = fit_lr(x.reshape(-1, 1), 2.0 * x + 1.0)
    assert abs(model.coef[0] - 2.0) < 1e-6
    assert abs(model.intercept - 1.0) < 1e-6
    assert model.rank == 2
    assert abs(model.predict(np.array([[10.0]]))[0] - 21.0) < 1e-5


def test_lr_orthogonal_residuals():
    """Normal-equation oracle: residuals orthogonal to every column."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 5))
    y = rng.normal(size=20)
    model = fit_lr(X, y)
    residual = y - model.predict(X)
    assert np.abs(X.T @ residual).max() < 1e-6
    assert abs(residual.sum()) < 1e-6  # intercept column too


def test_lr_matches_lstsq():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([0.5, -1.0, 2.0, 0.0]) + 0.7 + rng.normal(scale=0.1, size=30)
    model = fit_lr(X, y)
    Xa = np.hstack([X, np.ones((30, 1))])
    ref, *_ = np.linalg.lstsq(Xa, y, rcond=None)
    np.testing.assert_allclose(np.append(model.coef, model.intercept), ref,
                               atol=1e-8)


def wide_lr_data():
    """A players-style matrix: more columns than rows."""
    rng = np.random.default_rng(13)
    return rng.choice([-1.0, 0.0, 1.0], size=(8, 30)), rng.normal(size=8)


def test_lr_wide_matrix_ridge_fallback():
    """More columns than rows: rank at most the row count, and finite."""
    X, y = wide_lr_data()
    model = fit_lr(X, y)
    assert model.rank == 8
    assert np.isfinite(model.coef).all() and np.isfinite(model.intercept)
    assert np.isfinite(model.predict(X)).all()


def _theta(model):
    return np.append(model.coef, model.intercept)


def _with_intercept(X):
    return np.hstack([X, np.ones((len(X), 1))])


def test_lr_full_rank_matches_normal_equations():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(40, 6))
    y = X @ rng.normal(size=6) - 0.3 + rng.normal(scale=0.2, size=40)
    model = fit_lr(X, y)
    Xa = _with_intercept(X)
    assert model.rank == 7
    np.testing.assert_allclose(_theta(model), np.linalg.solve(Xa.T @ Xa, Xa.T @ y),
                               rtol=1e-9, atol=1e-10)


def duplicated_column_data():
    """Column 2 repeats column 0, so the design has rank p of p + 1."""
    rng = np.random.default_rng(15)
    X = rng.normal(size=(25, 4))
    X[:, 2] = X[:, 0]
    return X, X @ np.array([1.0, -2.0, 0.5, 0.0]) + 1.5 + rng.normal(scale=0.1, size=25)


@pytest.mark.parametrize("data, rank", [(wide_lr_data, 8), (duplicated_column_data, 4)],
                         ids=["wide", "duplicated-column"])
def test_lr_rank_deficient_is_minimum_norm(data, rank):
    """A rank-deficient design has many least-squares fits; lr takes the
    one of least norm, as the pseudo-inverse gives it, and records the rank."""
    X, y = data()
    model = fit_lr(X, y)
    assert model.rank == rank
    np.testing.assert_allclose(_theta(model), np.linalg.pinv(_with_intercept(X)) @ y,
                               rtol=1e-9, atol=1e-10)


def test_lr_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fit_lr(np.ones((4, 2)), np.ones(5))


# ----------------------------------------------------------------------- KNN


def test_knn_identity_neighbour():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    model = fit_knn(X, y, k=1)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-12)


def test_knn_mean_of_three():
    X = np.array([[0.0], [1.0], [2.0], [50.0]])
    y = np.array([0.0, 1.0, 2.0, 100.0])
    model = fit_knn(X, y, k=3)
    assert model.predict(np.array([[1.0]]))[0] == pytest.approx(1.0)


def test_knn_brute_force_oracle():
    """k=5 against an exhaustive distance sort on standardized features."""
    rng = np.random.default_rng(22)
    X = rng.normal(size=(40, 6)) * np.array([1, 10, 0.1, 5, 2, 1])
    y = rng.normal(size=40)
    queries = rng.normal(size=(15, 6)) * np.array([1, 10, 0.1, 5, 2, 1])
    model = fit_knn(X, y, k=5)

    scaler = standardize_fit(X)
    Xs = standardize_apply(scaler, X)
    Qs = standardize_apply(scaler, queries)
    expected = []
    for q in Qs:
        d = np.sqrt(((Xs - q) ** 2).sum(axis=1))
        idx = np.argsort(d, kind="stable")[:5]  # ties to the lower row index
        expected.append(y[idx].mean())
    np.testing.assert_allclose(model.predict(queries), expected, atol=1e-9)


def test_knn_distance_tie_breaks_low_index():
    X = np.array([[0.0], [2.0], [-2.0], [4.0]])  # rows 1 and 2 equidistant from 0
    y = np.array([10.0, 1.0, 2.0, 3.0])
    model = fit_knn(X, y, k=2)
    # neighbours of the origin query: row 0 (d=0) then row 1 (tie with 2)
    assert model.predict(np.array([[0.0]]))[0] == pytest.approx((10.0 + 1.0) / 2)


def test_knn_k_too_large():
    with pytest.raises(KTooLarge):
        fit_knn(np.ones((3, 2)), np.ones(3), k=4)


# ----------------------------------------------------------------------- DTR


def test_dtr_pure_split_at_midpoint():
    X = np.array([[0.0], [0.25], [0.75], [1.0]])
    y = np.array([0.0, 0.0, 2.0, 2.0])
    model = fit_dtr(X, y, max_depth=3, min_leaf=1)
    tree, = model.trees
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == pytest.approx(0.5)
    assert tree.left.tolist() == [1, -1, -1] and tree.right.tolist() == [2, -1, -1]
    assert tree.value[1:].tolist() == [0.0, 2.0]
    np.testing.assert_array_equal(model.predict(X), y)


def test_dtr_constant_target_single_leaf():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.full(10, 3.5)
    model = fit_dtr(X, y, max_depth=4, min_leaf=1)
    tree, = model.trees
    assert tree.feature.tolist() == [-1]
    assert tree.value.tolist() == [3.5]


def test_dtr_too_few_rows():
    with pytest.raises(TooFewRows):
        fit_dtr(np.ones((9, 2)), np.ones(9), min_leaf=5)


def train_sse(model, X, y):
    return sse_residual(model.predict(X), y)


def sse_residual(pred, y):
    return float(((pred - y) ** 2).sum())


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dtr_matches_exhaustive_search(seed):
    """Tree SSE equals exhaustive split search on small instances."""
    rng = np.random.default_rng(seed)
    n = rng.integers(6, 13)
    X = np.round(rng.normal(size=(n, 3)), 2)
    y = np.round(rng.normal(size=n), 2)
    for max_depth, min_leaf in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        model = fit_dtr(X, y, max_depth=max_depth, min_leaf=min_leaf)
        expected = exhaustive_tree_sse(X, y, np.arange(n), 0, max_depth, min_leaf)
        got = train_sse(model, X, y)
        assert got == pytest.approx(expected, abs=1e-9), (max_depth, min_leaf)


def test_dtr_split_tie_breaks_lowest_feature():
    # identical split quality on both columns; column 0 must win
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 0.0, 4.0, 4.0])
    model = fit_dtr(X, y, max_depth=1, min_leaf=1)
    assert model.trees[0].feature[0] == 0


def test_dtr_sse_non_increasing_in_depth():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    previous = np.inf
    for depth in range(1, 7):
        model = fit_dtr(X, y, max_depth=depth, min_leaf=2)
        current = train_sse(model, X, y)
        assert current <= previous + 1e-12
        previous = current


def test_dtr_min_leaf_respected():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    tree, = fit_dtr(X, y, max_depth=8, min_leaf=5).trees
    leaves = tree.feature < 0
    assert leaves.sum() > 1 and (tree.n[leaves] >= 5).all()


# ----------------------------------------------------------------------- RFR


def test_rfr_ensemble_mean_golden():
    """Five stub trees predicting 0.8/1.2/1.5/0.9/1.1 average to 1.1."""
    trees = [leaf_tree(v) for v in (0.8, 1.2, 1.5, 0.9, 1.1)]
    forest = ForestModel(1, trees=trees, params={})
    out = forest.predict(np.array([[0.0]]))
    assert out[0] == pytest.approx(1.1)

    from scoreline.predict import round_goals
    assert round_goals(out[0]) == 1


def test_rfr_degenerates_to_dtr():
    """One tree on every row, scanning every column, draws nothing: its
    node arrays are the decision tree's whatever the seed."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    tree = fit_dtr(X, y, max_depth=4, min_leaf=2)
    queries = rng.normal(size=(25, 5))
    for seed in (0, 1, 123):
        forest = fit_rfr(X, y, n_trees=1, max_depth=4, min_leaf=2,
                         max_features="all", bootstrap=False, seed=seed)
        (grown,), (single,) = forest.trees, tree.trees
        for name, got, want in zip(Tree._fields, grown, single):
            assert got.dtype == want.dtype, (seed, name)
            np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}, {name}")
        np.testing.assert_array_equal(forest.predict(queries), tree.predict(queries))


def test_rfr_deterministic_given_seed():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(50, 6))
    y = rng.normal(size=50)
    queries = rng.normal(size=(20, 6))
    a = fit_rfr(X, y, n_trees=12, seed=7, min_leaf=2)
    b = fit_rfr(X, y, n_trees=12, seed=7, min_leaf=2)
    np.testing.assert_array_equal(a.predict(queries), b.predict(queries))


def test_rfr_bootstrap_and_subsets_change_trees():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(50, 6))
    y = rng.normal(size=50)
    forest = fit_rfr(X, y, n_trees=8, seed=7, min_leaf=2)
    single = [predict_trees([tree], X) for tree in forest.trees]
    assert any(not np.array_equal(single[0], other) for other in single[1:])


def test_rfr_takes_numpy_integer_max_features():
    rng = np.random.default_rng(9)
    X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
    forest = fit_rfr(X, y, n_trees=3, max_features=np.int64(2), seed=2)
    same = fit_rfr(X, y, n_trees=3, max_features=2, seed=2)
    assert type(forest.params["max_features"]) is int and forest.params == same.params
    assert np.array_equal(forest.predict(X), same.predict(X))


def test_rfr_param_validation():
    X, y = np.ones((12, 2)), np.ones(12)
    with pytest.raises(ValueError):
        fit_rfr(X, y, n_trees=0)
    with pytest.raises(ValueError):
        fit_rfr(X, y, bootstrap_fraction=0.0)
    with pytest.raises(ValueError):
        fit_rfr(X, y, max_features=9)


ENGINE = {"knn": fit_knn, "dtr": fit_dtr, "rfr": fit_rfr, "svr": fit_svr,
          "unknown": lambda X, y, **kwargs: fit_model("gbm", X, y, kwargs)}
ENGINE_ARGUMENT_ERRORS = [
    ("knn", {"k": 0}, "k must be at least 1, got 0"),
    ("knn", {"k": -1}, "k must be at least 1, got -1"),
    ("dtr", {"max_depth": 0}, "max_depth must be at least 1, got 0"),
    ("rfr", {"max_depth": 0}, "max_depth must be at least 1, got 0"),
    ("dtr", {"min_leaf": 0}, "min_leaf must be at least 1, got 0"),
    ("rfr", {"min_leaf": 0}, "min_leaf must be at least 1, got 0"),
    ("rfr", {"n_trees": 0}, "n_trees must be at least 1, got 0"),
    ("rfr", {"bootstrap_fraction": 1.5}, "bootstrap_fraction must be in (0, 1], got 1.5"),
    ("rfr", {"max_features": 3}, "feature subset size 3 outside 1..2"),
    ("rfr", {"max_features": 1.5}, 'max_features must be "sqrt", "all" or an integer, got 1.5'),
    ("rfr", {"max_features": "foo"},
     'max_features must be "sqrt", "all" or an integer, got \'foo\''),
    ("rfr", {"max_features": True}, 'max_features must be "sqrt", "all" or an integer, got True'),
    ("svr", {"C": 0.0}, "C must be a finite positive number, got 0.0"),
    ("svr", {"epsilon": -0.1}, "epsilon must be a finite non-negative number, got -0.1"),
    ("svr", {"tol": -1e-6}, "tol must be a finite non-negative number, got -1e-06"),
    ("svr", {"kernel": "poly"}, "kernel must be one of ('linear', 'rbf'), got 'poly'"),
    ("svr", {"max_iter": 0}, "max_iter must be at least 1, got 0"),
    ("svr", {"kernel": "rbf", "gamma": 0.0}, "gamma must be a finite positive number, got 0.0"),
    # a value of the wrong type, NumPy numbers aside
    ("knn", {"k": 2.5}, "k must be an integer, got 2.5"),
    ("knn", {"k": True}, "k must be an integer, got True"),
    ("rfr", {"n_trees": 2.5}, "n_trees must be an integer, got 2.5"),
    ("rfr", {"max_depth": 2.5}, "max_depth must be an integer, got 2.5"),
    ("rfr", {"min_leaf": 1.5}, "min_leaf must be an integer, got 1.5"),
    ("rfr", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("rfr", {"seed": -1}, "seed must be a finite non-negative number, got -1"),
    ("rfr", {"bootstrap": "no"}, "bootstrap must be a boolean, got 'no'"),
    ("svr", {"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ("svr", {"C": "1"}, "C must be a number, got '1'"),
    ("svr", {"kernel": "rbf", "gamma": "wide"}, 'gamma must be "scale" or a number, got \'wide\''),
    ("svr", {"kernel": "rbf", "gamma": True}, 'gamma must be "scale" or a number, got True'),
    # an integer past the float range, which float() overflows on
    ("svr", {"C": 10**400}, "C must be a finite number, got an integer too large for a float"),
    ("svr", {"epsilon": 10**400},
     "epsilon must be a finite number, got an integer too large for a float"),
    ("unknown", {}, "unknown technique 'gbm'; expected one of ('lr', 'knn', 'dtr', 'rfr', 'svr')"),
]


def argument_ids(rows):
    """Each row's engine and argument names; a later row with the same
    names adds its argument values."""
    ids = []
    for engine, kwargs, _ in rows:
        name = f"{engine}-{'-'.join(kwargs) or 'technique'}"
        values = [str(v) if len(str(v)) <= 20 else f"{str(v)[:3]}..{len(str(v))}chars"
                  for v in kwargs.values()]
        ids.append(f"{name}={'-'.join(values)}" if name in ids else name)
    return ids


@pytest.mark.parametrize("engine, kwargs, message", ENGINE_ARGUMENT_ERRORS,
                         ids=argument_ids(ENGINE_ARGUMENT_ERRORS))
def test_engine_argument_errors_are_typed(engine, kwargs, message):
    """Every engine argument check raises BadParameter, a RegressError the
    command line reports as a data error and a ValueError as before."""
    X, y = np.arange(24.0).reshape(12, 2), np.arange(12.0)
    with pytest.raises(BadParameter) as caught:
        ENGINE[engine](X, y, **kwargs)
    assert str(caught.value) == message
    assert isinstance(caught.value, RegressError) and isinstance(caught.value, ValueError)


def tied_goal_data():
    """Integer goal targets over integer and rounded columns with ties,
    one column a duplicate of another."""
    rng = np.random.default_rng(404)
    X = rng.integers(0, 5, size=(90, 7)).astype(np.float64)
    X[:, 4] = X[:, 2]
    X[:, 6] = np.round(rng.normal(size=90), 1)
    return X, rng.poisson(1.4, size=90).astype(np.float64)


TREE_FITS = {
    **{f"rfr_seed_{seed}": (fit_rfr, dict(n_trees=15, max_depth=5, min_leaf=2, seed=seed))
       for seed in (0, 1, 23)},
    "rfr_subset_3_fraction": (fit_rfr, dict(n_trees=10, max_features=3, bootstrap_fraction=0.6,
                                            min_leaf=1, seed=9)),
    "rfr_all_features_no_bootstrap": (fit_rfr, dict(n_trees=3, max_features="all",
                                                    bootstrap=False, min_leaf=3, seed=5)),
    "dtr": (fit_dtr, dict(max_depth=6, min_leaf=2)),
    "dtr_min_leaf_1": (fit_dtr, dict(max_depth=9, min_leaf=1)),
}

# sha256 of the payload JSON in its nested format-1 form. The forests that
# draw were taken from the level-by-level grower; the others date from the
# per-node recursive grower, and level growth left them as they were
TREE_GOLDENS = {
    "rfr_seed_0": "776a056de863f3251c15ca575f72e13cdd44910e324e61577d3c54b7505f229b",
    "rfr_seed_1": "624f3bc2d9f1b841b9f1a306c99bfbe8e718133ea5ec7cb416ef3caa6db69fd3",
    "rfr_seed_23": "da7ca6fdcbee4a6fc3842afbb9432139eeea7b7e303bd86cc0a3aba71158be3e",
    "rfr_subset_3_fraction": "f7771c09ba5ac5a2338dd65c0d5dc657cebb696339c833c1c8dd5cab16b8e499",
    "rfr_all_features_no_bootstrap":
        "be6704fd24e6cfbc69c4920a1a5594a1ed3fc4c68a50fd102b24f61dc00d49ad",
    "dtr": "9cdfcb36707866e58127e654dacd3c3391c3324e70e348e8fafa0477a1362e1a",
    "dtr_min_leaf_1": "9b0358b0295a8d215a3b84fb0576b5b75ec6aed0557010fbe11b49031a95ea0a",
}


def payload_digest(model):
    return hashlib.sha256(json.dumps(nested_payload(model), sort_keys=True).encode()).hexdigest()


# a fit run spreads its fits over one group per usable CPU; each test that
# takes `cpus` forces that count (the forest's tree count for "n_trees"),
# and its one-CPU case keeps the test's plain id
CPU_COUNTS = (1, 2, 3, "n_trees")


def with_cpus(name, counts=CPU_COUNTS):
    return [pytest.param(name, cpus, id=name if cpus == 1 else f"{name}-cpus_{cpus}")
            for cpus in counts]


def force_cpus(monkeypatch, cpus, n_trees):
    monkeypatch.setattr(workers, "usable_cpus", lambda: n_trees if cpus == "n_trees" else cpus)


@pytest.mark.parametrize("name", sorted(TREE_FITS))
def test_tree_and_forest_goldens(name):
    fit, params = TREE_FITS[name]
    assert payload_digest(fit(*tied_goal_data(), **params)) == TREE_GOLDENS[name]


def reference_tree(X, y, rows, *, max_depth, min_leaf, max_features, rng):
    """One tree grown alone, level by level and one node at a time, each
    node scored by a batch-of-one best_split; nested node dicts as
    nested_tree gives. A level's split nodes draw their subsets in one
    call, in level order: each scans the columns of its row's smallest
    draws. The next level takes the splits in reverse, left child first."""
    p = X.shape[1]
    ranks = dense_ranks(X)
    root = {}
    level = [(root, rows)]
    for depth in range(max_depth + 1):
        splitting = []
        for node, node_rows in level:
            node_y = y[node_rows]
            node.update(value=float(node_y.mean()), n=int(node_rows.shape[0]))
            if depth < max_depth and node["n"] >= 2 * min_leaf and not np.all(node_y == node_y[0]):
                splitting.append((node, node_rows))
        subsets = [np.arange(p)] * len(splitting)
        if splitting and max_features < p:
            draws = rng.random((len(splitting), p))
            subsets = [np.sort(np.argsort(row)[:max_features]) for row in draws]
        children = []
        for (node, node_rows), feat_idx in zip(splitting, subsets):
            feats, thrs, _ = best_split(X, y, feat_idx[None, :], min_leaf, node_rows,
                                        np.zeros(1, dtype=np.int64),
                                        np.array([node_rows.shape[0]]), ranks)
            if feats[0] < 0:
                continue
            go_left = X[node_rows, feats[0]] <= thrs[0]
            node.update(feature=int(feats[0]), threshold=float(thrs[0]), left={}, right={})
            children.append([(node["left"], node_rows[go_left]),
                             (node["right"], node_rows[~go_left])])
        level = [child for pair in reversed(children) for child in pair]
    return root


def reference_forest_trees(X, y, *, n_trees, max_depth, min_leaf, max_features,
                           bootstrap, bootstrap_fraction, seed):
    n = X.shape[0]
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        rows = (rng.integers(0, n, size=max(1, int(round(n * bootstrap_fraction))))
                if bootstrap else np.arange(n))
        trees.append(reference_tree(
            X, y, rows, max_depth=max_depth, min_leaf=min_leaf,
            max_features=max_features, rng=rng))
    return trees


@pytest.mark.parametrize("targets, cpus", with_cpus("float") + with_cpus("goals"))
def test_lockstep_growth_equals_growing_each_tree_alone(targets, cpus, monkeypatch):
    rng = np.random.default_rng(61)
    X = np.round(rng.normal(size=(70, 9)), 1)
    y = rng.normal(size=70) if targets == "float" else rng.poisson(1.3, size=70) * 1.0
    for params in (dict(n_trees=12, max_depth=6, min_leaf=2, max_features=3, bootstrap=True,
                        bootstrap_fraction=1.0, seed=3),
                   dict(n_trees=4, max_depth=4, min_leaf=1, max_features=9, bootstrap=True,
                        bootstrap_fraction=0.5, seed=8),
                   dict(n_trees=2, max_depth=5, min_leaf=3, max_features=5, bootstrap=False,
                        bootstrap_fraction=1.0, seed=2)):
        # every group of a run grows the forest, the first in this process
        # and each other in a forked child
        force_cpus(monkeypatch, cpus, params["n_trees"])
        expected = json.dumps(reference_forest_trees(X, y, **params), sort_keys=True)
        models = workers.run_groups(lambda group: fit_rfr(X, y, **params),
                                    workers.split(params["n_trees"]))
        for model in models:
            assert json.dumps(nested_payload(model)["trees"], sort_keys=True) == expected, params
    tree = fit_dtr(X, y, max_depth=7, min_leaf=2)
    alone = reference_tree(X, y, np.arange(70), max_depth=7, min_leaf=2, max_features=9, rng=None)
    assert json.dumps(nested_payload(tree)["root"], sort_keys=True) == json.dumps(alone, sort_keys=True)


@pytest.mark.parametrize("name, cpus", [case for name in sorted(TREE_FITS)
                                         for case in with_cpus(name, (1, 2, 3))])
def test_tree_fits_equal_the_level_order_oracle(name, cpus, monkeypatch):
    X, y = tied_goal_data()
    fit, params = TREE_FITS[name]
    force_cpus(monkeypatch, cpus, None)
    models = workers.run_groups(lambda group: fit(X, y, **params), workers.split(3))
    grown = models[0].params
    if fit is fit_dtr:
        key, expected = "root", reference_tree(X, y, np.arange(X.shape[0]), **grown,
                                               max_features=X.shape[1], rng=None)
    else:
        key, expected = "trees", reference_forest_trees(X, y, **{
            **grown, "max_features": resolve_max_features(grown["max_features"], X.shape[1])})
    for model in models:
        assert json.dumps(nested_payload(model)[key], sort_keys=True) == json.dumps(
            expected, sort_keys=True)


@pytest.mark.parametrize("targets, cpus", with_cpus("float", (1, 2, 3))
                         + with_cpus("goals", (1, 2, 3)))
def test_a_tree_does_not_depend_on_the_rest_of_its_forest(targets, cpus, monkeypatch):
    """The first 7 trees of a 20-tree forest are the 7-tree forest of the
    same seed, node array for node array, in every group of a run."""
    rng = np.random.default_rng(62)
    X = np.round(rng.normal(size=(80, 10)), 1)
    y = rng.normal(size=80) if targets == "float" else rng.poisson(1.3, size=80) * 1.0
    force_cpus(monkeypatch, cpus, None)
    runs = workers.run_groups(lambda group: [fit_rfr(X, y, n_trees=n, min_leaf=2, seed=3)
                                             for n in (7, 20)], workers.split(3))
    for few, many in runs:
        assert len(few.trees) == 7 and len(many.trees) == 20
        for t, (alone, within) in enumerate(zip(few.trees, many.trees)):
            for field, got, want in zip(Tree._fields, within, alone):
                assert got.dtype == want.dtype, (t, field)
                np.testing.assert_array_equal(got, want, err_msg=f"tree {t}, {field}")


def tied_fit_run(techniques, approaches=("first", "second"), argv=()):
    """``cli.run_fits`` of ``techniques`` with the train config of ``argv``
    over stand-in matrices of tied_goal_data, one per (approach, side);
    each side's feature names start with the side."""
    X, y = tied_goal_data()
    cfg = cli.resolve_config(cli.build_parser().parse_args(["train", *map(str, argv)]))
    train = {approach: {side: SimpleNamespace(
        X=lambda: X, y=lambda: y, feature_names=[f"{side} {j}" for j in range(X.shape[1])])
        for side in SIDES} for approach in approaches}
    return cli.run_fits(cfg, train, approaches, techniques)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open files in /proc")
@pytest.mark.parametrize("how, error, message", [
    ("raises", ValueError, "^split search failed in a child$"),
    ("exits", WorkerDied, "exited with status 3 before sending its result"),
    ("killed", WorkerDied, "was killed by signal SIGKILL before sending its result"),
    ("interrupted", KeyboardInterrupt, None),
], ids=["raises", "exits", "killed", "interrupted"])
def test_failed_forest_worker_raises_and_leaves_nothing(monkeypatch, how, error, message):
    """Four forest fits in three groups: this process grows the first and
    each of two forked children the others, and the children fail."""
    open_fds = open_fd_count()
    forest_children_fail(monkeypatch, how)
    start = time.monotonic()
    with pytest.raises(error, match=message) as caught:
        tied_fit_run(["rfr"], argv=["--forest-trees", 6, "--seed", 1])
    assert type(caught.value) is error
    assert time.monotonic() - start < 30  # a hung child is killed, not waited for
    assert_no_child_left(open_fds)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_failed_fits_raise_the_sequential_runs_error(monkeypatch, cpus):
    """A home dtr fit and an away knn fit fail. A run in one group meets
    first ``first+knn`` away, which comes before ``first+dtr`` home in
    (approach, technique, side) order; on two CPUs the home fits run here
    and the away fits in a child, so the failures fall in different
    groups, and the same error must be raised."""
    fit = cli.fit_model

    def failing(engine, X, y, params, feature_names=None):
        side = feature_names[0].split()[0]
        if (engine, side) in (("dtr", "home"), ("knn", "away")):
            raise RegressError(f"{engine} {side} fit failed")
        return fit(engine, X, y, params, feature_names=feature_names)

    monkeypatch.setattr(cli, "fit_model", failing)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    with pytest.raises(RegressError, match="^knn away fit failed$"):
        tied_fit_run(["lr", "knn", "dtr"], argv=["--forest-trees", 4])


def test_worker_warnings_reach_the_parent_in_order():
    def work(group):
        warnings.warn(f"group {group} starts", UserWarning)
        warnings.warn(f"group {group} ends", NotConvergedWarning)
        return group * 10

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert workers.run_groups(work, [0, 1, 2]) == [0, 10, 20]
    assert [(w.category, str(w.message)) for w in caught] == [
        (category, f"group {g} {when}") for g in range(3)
        for category, when in ((UserWarning, "starts"), (NotConvergedWarning, "ends"))]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_no_items_make_one_empty_group(monkeypatch, cpus):
    """Work of no items (a stats file with a header alone) is one empty
    group, run in this process."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert workers.split(0) == [slice(0, 0)]
    assert workers.run_groups(lambda group: [os.getpid(), *range(5)[group]],
                              workers.split(0)) == [[os.getpid()]]


def test_no_fork_while_another_thread_runs(monkeypatch):
    def forbidden():
        raise AssertionError("os.fork called while another thread runs")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", forbidden)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        # the forest of TREE_FITS["rfr_seed_0"], four times in one group
        models = tied_fit_run(["rfr"], argv=["--forest-trees", 15, "--tree-depth", 5,
                                             "--tree-min-leaf", 2, "--seed", 0])
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(models) == 4
    for model in models.values():
        assert payload_digest(model) == TREE_GOLDENS["rfr_seed_0"]


def test_fits_reject_non_finite_cells():
    X, y = np.ones((12, 3)), np.ones(12)
    bad_x = X.copy()
    bad_x[7, 2] = np.nan
    bad_y = y.copy()
    bad_y[4] = np.inf
    for fit in (fit_lr, fit_knn, fit_dtr, fit_rfr, fit_svr):
        with pytest.raises(NonFiniteInput, match="^X holds nan at row 7, column 2$"):
            fit(bad_x, y)
        with pytest.raises(NonFiniteInput, match="^y holds inf at row 4$"):
            fit(X, bad_y)


# ----------------------------------------------------------------------- SVR


def test_svr_flat_tube():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(25, 3))
    y = np.full(25, 2.0)
    model = fit_svr(X, y, C=1.0, epsilon=0.1)
    assert np.abs(model.w).max() < 1e-9
    assert model.b == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-9)
    assert model.status["converged"]


def test_svr_slope_recovery():
    """y = 3x noiseless with a tight tube: slope within 0.05 of 3."""
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=40)
    y = 3.0 * x
    model = fit_svr(x.reshape(-1, 1), y, C=10.0, epsilon=0.01)
    slope = (model.predict(np.array([[1.0]]))
             - model.predict(np.array([[0.0]])))[0]
    assert abs(slope - 3.0) < 0.05


def test_svr_reference_objective_oracle():
    """Final objective within 1% of a slow reference at 10x iterations."""
    rng = np.random.default_rng(42)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 1.5 + rng.normal(scale=0.3, size=30)
    C, eps, iters = 1.0, 0.1, 2000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        model = fit_svr(X, y, C=C, epsilon=eps, max_iter=iters, tol=0.0)

    # independent subgradient reference on the same standardized features
    mean, std = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mean) / np.where(std == 0.0, 1.0, std)

    def objective(w, b):
        r = y - (Xs @ w + b)
        return 0.5 * float(w @ w) + C * float(np.maximum(0.0, np.abs(r) - eps).sum())

    w = np.zeros(4)
    b = float(y.mean())
    best = objective(w, b)
    for it in range(1, 10 * iters + 1):
        r = y - (Xs @ w + b)
        s = np.sign(r) * (np.abs(r) > eps)
        w = w - (0.5 / np.sqrt(it)) * (w - C * (Xs.T @ s)) / 30
        b = b - (0.5 / np.sqrt(it)) * (-C * s.sum()) / 30
        best = min(best, objective(w, b))
    engine = objective(model.w, model.b)
    assert abs(engine - best) <= 0.01 * best


def test_svr_affine_rescaling_invariance():
    """Standardization first makes raw-feature scale and shift irrelevant."""
    rng = np.random.default_rng(43)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, 0.5, -1.0]) + rng.normal(scale=0.2, size=30)
    scale = np.array([3.7, 0.02, 11.0])
    shift = np.array([-2.0, 5.0, 0.3])
    a = fit_svr(X, y, C=2.0, epsilon=0.05)
    b = fit_svr(X * scale + shift, y, C=2.0, epsilon=0.05)
    queries = rng.normal(size=(10, 3))
    np.testing.assert_allclose(a.predict(queries),
                               b.predict(queries * scale + shift), atol=1e-9)


def test_svr_not_converged_is_warning():
    rng = np.random.default_rng(44)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    with pytest.warns(NotConvergedWarning):
        model = fit_svr(X, y, max_iter=5)
    assert not model.status["converged"]
    assert np.isfinite(model.predict(X)).all()  # still usable


def test_svr_linear_cap_warns_with_duality_gap():
    rng = np.random.default_rng(44)
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    with pytest.warns(NotConvergedWarning, match="duality gap .* above tol"):
        model = fit_svr(X, y, max_iter=2)
    assert not model.status["converged"] and model.status["iterations"] == 2
    assert model.status["gap"] > model.params["tol"]
    assert set(model.params) == {"C", "epsilon", "kernel", "tol", "max_iterations"}
    converged = fit_svr(X, y)
    status = converged.status
    assert status["converged"] and status["gap"] <= 1e-6 * max(1.0, status["objective"])
    assert status["objective"] <= model.status["objective"]


def test_svr_rbf_fits_nonlinear_shape():
    rng = np.random.default_rng(45)
    x = np.linspace(-2, 2, 40)
    y = x ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        linear = fit_svr(x.reshape(-1, 1), y, C=10.0, epsilon=0.01)
        rbf = fit_svr(x.reshape(-1, 1), y, C=10.0, epsilon=0.01, kernel="rbf")
    lin_mae = np.abs(linear.predict(x.reshape(-1, 1)) - y).mean()
    rbf_mae = np.abs(rbf.predict(x.reshape(-1, 1)) - y).mean()
    assert rbf_mae < lin_mae / 2


def test_svr_rbf_reaches_kkt_optimum():
    rng = np.random.default_rng(46)
    X = rng.normal(size=(60, 3))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + rng.normal(scale=0.1, size=60)
    model = fit_svr(X, y, C=2.0, epsilon=0.1, kernel="rbf", tol=1e-8)
    assert model.status["converged"] and model.status["gap"] <= 1e-8
    assert set(model.params) == {"C", "epsilon", "kernel", "tol", "max_iterations", "gamma"}
    assert abs(model.beta.sum()) < 1e-12 and np.abs(model.beta).max() <= 2.0


def test_svr_rbf_constant_target_inside_tube():
    rng = np.random.default_rng(47)
    X = rng.normal(size=(25, 3))
    model = fit_svr(X, np.full(25, 1.5), epsilon=2.0, kernel="rbf")
    assert np.all(model.beta == 0.0) and model.b == 1.5
    assert np.all(model.predict(X) == 1.5)
    assert model.status["converged"]
    assert model.status["objective"] == 0.0


def test_svr_rbf_cap_warns_with_kkt_gap():
    rng = np.random.default_rng(48)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    with pytest.warns(NotConvergedWarning, match="duality gap .* above tol"):
        model = fit_svr(X, y, kernel="rbf", max_iter=3)
    assert not model.status["converged"] and model.status["iterations"] == 3
    assert model.status["gap"] > model.params["tol"]


def test_svr_rbf_at_a_huge_width_warns_nothing():
    """At gamma 1e308 every distinct pair's -gamma * d2 overflows to -inf,
    whose kernel value exp(-inf) = 0 is meant: the fit and its predictions
    raise no NumPy RuntimeWarning, and a new row is predicted as the bias."""
    rng = np.random.default_rng(51)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_svr(X, y, kernel="rbf", gamma=1e308)
        new = model.predict(rng.normal(size=(4, 3)))
    assert caught == []
    assert model.params["gamma"] == 1e308 and np.all(new == model.b)


def test_svr_validation():
    X, y = np.ones((5, 2)), np.ones(5)
    with pytest.raises(TooFewRows):
        fit_svr(np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        fit_svr(X, y, C=0.0)
    with pytest.raises(ValueError):
        fit_svr(X, y, epsilon=-0.1)
    with pytest.raises(ValueError):
        fit_svr(X, y, kernel="poly")


@pytest.mark.parametrize("kwargs", [
    {"C": float("nan")}, {"C": float("inf")}, {"epsilon": float("nan")},
    {"epsilon": float("inf")}, {"tol": float("nan")}, {"tol": float("inf")},
    {"tol": -1e-6}, {"kernel": "rbf", "tol": float("nan")},
    {"kernel": "rbf", "gamma": float("nan")}, {"kernel": "rbf", "gamma": float("inf")},
], ids=repr)
def test_svr_rejects_non_finite_hyperparameters(kwargs):
    """fit_svr is public through fit_model: a NaN or infinite C, epsilon,
    tol or gamma, or a negative tol, is refused before any solve."""
    rng = np.random.default_rng(49)
    X = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    with pytest.raises(ValueError, match="finite"):
        fit_svr(X, y, **kwargs)


# seven rows in three columns, the third and last equal, so their RBF
# kernel is singular (the first six alone are not); the four rows of
# UNSOLVABLE_WIDE make the linear solve run on their 4 x 4 Gram matrix
UNSOLVABLE = (np.array([[0, -2, -1], [-3, -3, -3], [-2, 2, 1], [3, 0, 1], [3, 2, 1],
                        [0, 0, 3], [-2, 2, 1]], dtype=float),
              np.array([0, 1, 4, 2, 0, 3, 3], dtype=float))
UNSOLVABLE_WIDE = (np.array([[-1, 2, -1, -2], [2, 3, -3, -3], [1, -1, 1, -2], [3, 0, 3, 2]],
                            dtype=float),
                   np.array([3, 1, 3, 0], dtype=float))


@pytest.mark.parametrize("rows, kernel, C, reason", [
    (7, "linear", 1e250, "objective 8.4e+250, duality gap inf"),
    (7, "linear", 1e308, "objective inf, duality gap inf"),
    (7, "rbf", 1e30, "Singular matrix"),
    (6, "rbf", 1e308, "objective inf, duality gap inf"),
    (4, "linear", 1e15, "Singular matrix"),
], ids=["linear-gap", "linear-objective", "rbf-singular", "rbf-objective", "gram-singular"])
def test_svr_penalty_too_large_to_solve_is_an_error(rows, kernel, C, reason):
    """A penalty so large that a Newton system is singular, or that the
    best objective or the duality gap overflows, fails the fit with a
    RegressError naming the kernel and C; it is never a converged model
    holding an infinite number."""
    X, y = UNSOLVABLE_WIDE if rows == 4 else (UNSOLVABLE[0][:rows], UNSOLVABLE[1][:rows])
    with np.errstate(all="ignore"), pytest.raises(RegressError) as caught:
        fit_svr(X, y, C=C, kernel=kernel)
    assert str(caught.value) == f"the {kernel} SVR at C={C:g} cannot be solved: {reason}"


@pytest.mark.parametrize("kernel, C, warned", [
    ("rbf", 1e308, []),  # and a RegressError
    ("linear", 1e200, [NotConvergedWarning]),
], ids=["rbf", "linear"])
def test_svr_penalty_at_the_solvers_limit_warns_no_overflow(kernel, C, warned):
    """The solver's overflows and 0/0s at a penalty near its limit show in
    the objective and gap that the fit checks, so the fit ends in its one
    RegressError or NotConvergedWarning, with no NumPy RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fit_svr(*UNSOLVABLE, C=C, kernel=kernel)
        except RegressError:
            assert kernel == "rbf"
    assert [w.category for w in caught] == warned


# ---------------------------------------------------------------- contract


def fitted_models():
    rng = np.random.default_rng(50)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    names = tuple(f"f{i}" for i in range(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        models = [
            fit_lr(X, y, feature_names=names),
            fit_knn(X, y, k=3, feature_names=names),
            fit_dtr(X, y, max_depth=3, min_leaf=2, feature_names=names),
            fit_rfr(X, y, n_trees=5, min_leaf=2, seed=1, feature_names=names),
            fit_svr(X, y, max_iter=500, feature_names=names),
            fit_svr(X, y, max_iter=500, kernel="rbf", feature_names=names),
        ]
    return models, X, y


def test_predict_finite_and_shaped():
    models, X, _y = fitted_models()
    for model in models:
        out = model.predict(X)
        assert out.shape == (30,)
        assert np.isfinite(out).all()


def test_predict_rejects_wrong_width():
    models, _X, _y = fitted_models()
    for model in models:
        with pytest.raises(SchemaMismatch):
            model.predict(np.ones((3, 9)))


def test_engines_deterministic():
    """Same data, hyperparameters and seed give bitwise-equal predictions."""
    first, X, _ = fitted_models()
    second, _, _ = fitted_models()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.predict(X), b.predict(X))


def test_fit_model_dispatcher():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    model = fit_model("knn", X, y, {"k": 2})
    assert model.technique == "knn"
    with pytest.raises(ValueError):
        fit_model("mlp", X, y)


# -------------------------------------------------------------- store


def test_store_roundtrip_all_engines(tmp_path):
    models, X, _y = fitted_models()
    for i, model in enumerate(models):
        path = tmp_path / f"m{i}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.technique == model.technique
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))
        # every stored field comes back as the attribute that saving reads
        save_model(loaded, tmp_path / f"again{i}.json")
        assert (tmp_path / f"again{i}.json").read_bytes() == path.read_bytes(), i


def plain_json(value):
    """A payload value with each NumPy array replaced by its tolist() and
    each Tree by the dict of its node arrays."""
    if isinstance(value, Tree):
        return plain_json(value._asdict())
    if isinstance(value, dict):
        return {key: plain_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain_json(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("index", range(6), ids=["lr", "knn", "dtr", "rfr", "svr", "svr-rbf"])
def test_store_writes_one_json_dumps(tmp_path, index):
    """A model file holds exactly json.dumps of its envelope, keys sorted,
    and a newline, although the store writes it a tree or a row at a time."""
    from scoreline.regress.store import FORMAT_VERSION, PAYLOADS, fields_of

    model = fitted_models()[0][index]
    path = tmp_path / "m.json"
    save_model(model, path)
    envelope = {"format_version": FORMAT_VERSION, "technique": model.technique,
                "n_features": model.n_features, "feature_names": list(model.feature_names),
                "fingerprint": model.fingerprint,
                "payload": plain_json(fields_of(model, PAYLOADS[model.technique]))}
    assert path.read_bytes() == (json.dumps(envelope, sort_keys=True) + "\n").encode()


def test_store_save_peak_memory_below_file_size(tmp_path):
    """Saving a 100-tree forest traces a peak below the file's size: the
    store encodes one tree at a time and writes each piece as it goes,
    where one json.dumps of the whole forest peaked at over 12 times it."""
    rng = np.random.default_rng(53)
    model = fit_rfr(rng.normal(size=(400, 20)), rng.poisson(1.4, size=400) * 1.0,
                    n_trees=100, seed=2)
    path = tmp_path / "forest.json"
    tracemalloc.start()
    try:
        save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_store_rejects_unknown_version(tmp_path):
    import json

    from scoreline.regress import UnsupportedVersion

    models, _X, _y = fitted_models()
    path = tmp_path / "m.json"
    save_model(models[0], path)
    blob = json.loads(path.read_text())
    blob["format_version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_store_roundtrips_lr_rank(tmp_path):
    path = tmp_path / "lr.json"
    save_model(fit_lr(*duplicated_column_data()), path)
    assert json.loads(path.read_text())["payload"]["rank"] == 4
    assert load_model(path).rank == 4


@pytest.mark.parametrize("rank", ["missing", 6, -1, 2.0, True, "4"])
def test_store_rejects_lr_without_valid_rank(tmp_path, rank):
    """An lr payload without an integer rank in 0..n_features+1, as one
    saved before the rank was recorded, is refused."""
    from scoreline.regress import BadArtifact

    path = tmp_path / "lr.json"
    save_model(fit_lr(*duplicated_column_data()), path)
    blob = json.loads(path.read_text())
    if rank == "missing":
        del blob["payload"]["rank"]
    else:
        blob["payload"]["rank"] = rank
    path.write_text(json.dumps(blob))
    with pytest.raises(BadArtifact) as exc:
        load_model(path)
    assert str(path) in str(exc.value)


# fitted_models() in order, then a one-tree forest, where params.n_trees
# true equals its tree count
ENGINES = ["lr", "knn", "dtr", "rfr", "svr", "svr-rbf", "rfr-one-tree"]
DELETE = object()


@pytest.fixture(scope="module")
def saved_engines(tmp_path_factory):
    """Each engine's model file, as text, fitted and saved once."""
    out = tmp_path_factory.mktemp("engines")
    models, X, y = fitted_models()
    models.append(fit_rfr(X, y, n_trees=1, min_leaf=2, seed=1,
                          feature_names=models[0].feature_names))
    for engine, model in zip(ENGINES, models):
        save_model(model, out / engine)
    return {engine: (out / engine).read_text() for engine in ENGINES}


def artifact_leaves(blob):
    """The path of each field the loader reads: the envelope's fields, each
    payload key, the first cell (and row) of each array, the first tree
    and its node arrays, and a forest's ``params.n_trees``."""
    paths = [("technique",), ("n_features",), ("feature_names",), ("feature_names", 0),
             ("fingerprint",), ("payload",)]
    for key, value in blob["payload"].items():
        paths.append(("payload", key))
        if key == "trees":
            paths.append(("payload", key, 0))
            for name in value[0]:
                paths += [("payload", key, 0, name), ("payload", key, 0, name, 0)]
        elif isinstance(value, list):
            paths += [("payload", key, 0)] + [("payload", key, 0, 0)] * isinstance(value[0], list)
    if "n_trees" in blob["payload"].get("params", {}):
        paths.append(("payload", "params", "n_trees"))
    return paths


def mutants(blob, path):
    """The values to put at ``path``: JSON values that are never a number
    (and deletion), 2.5 where an integer belongs and -1 where a std or k
    does. An empty object is left out where a carried object is one."""
    key = next(part for part in reversed(path) if isinstance(part, str))
    values = [None, True, "x", float("nan"), [], {}, DELETE]
    integers = ("n_features", "rank", "k", "n_trees", "feature", "left", "right", "n")
    values += [2.5] * (key in integers)
    values += [-1] * (key in ("scaler_std", "k"))
    if key == "status" or key == "params" and "n_trees" not in blob["payload"]["params"]:
        values.remove({})
    return values


@pytest.mark.parametrize("engine", ENGINES)
def test_store_refuses_every_mutated_field(tmp_path, saved_engines, engine):
    """Each field the loader reads, set to a value that does not fit it or
    deleted, is refused by a named check: never loaded, never left to the
    catch-all for missing or malformed fields."""
    from scoreline.regress import BadArtifact

    text, path = saved_engines[engine], tmp_path / "model.json"
    escaped = []
    for leaf in artifact_leaves(json.loads(text)):
        for value in mutants(json.loads(text), leaf):
            blob = json.loads(text)
            *outer, last = leaf
            target = blob
            for part in outer:
                target = target[part]
            if value is DELETE:
                del target[last]
            else:
                target[last] = value
            path.write_text(json.dumps(blob))
            try:
                load_model(path)
                escaped.append((leaf, value, "loaded"))
            except BadArtifact as exc:
                if "missing or malformed fields" in str(exc):
                    escaped.append((leaf, value, str(exc)))
    assert not escaped, escaped


# each engine form as a technique and its hyperparameters, NumPy integers too
ENGINE_FORMS = {"lr": ("lr", {}), "knn": ("knn", {"k": 3}),
                "dtr": ("dtr", {"max_depth": 3, "min_leaf": 2}),
                "rfr": ("rfr", {"n_trees": 5, "min_leaf": 2, "seed": 1}),
                "rfr-numpy": ("rfr", {key: np.int64(value) for key, value in
                                      {"n_trees": 5, "max_depth": 4, "min_leaf": 2,
                                       "max_features": 3, "seed": 1}.items()}),
                "svr": ("svr", {"max_iter": 500}),
                "svr-rbf": ("svr", {"max_iter": 500, "kernel": "rbf"})}


def assert_same_field(key, loaded, fitted):
    """Equal type, and equal value: an array in dtype, shape and bytes, a
    list of Trees array by array."""
    assert type(loaded) is type(fitted), (key, type(loaded), type(fitted))
    if isinstance(fitted, np.ndarray):
        assert (loaded.dtype, loaded.shape) == (fitted.dtype, fitted.shape), key
        assert loaded.tobytes() == fitted.tobytes(), key
    elif isinstance(fitted, list):
        assert len(loaded) == len(fitted), key
        for i, (ours, theirs) in enumerate(zip(loaded, fitted)):
            assert type(ours) is type(theirs) is Tree, (key, i)
            for name in Tree._fields:
                assert_same_field(f"{key}[{i}].{name}", getattr(ours, name), getattr(theirs, name))
    else:
        assert loaded == fitted, key


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e200])
@pytest.mark.parametrize("engine", list(ENGINE_FORMS))
def test_every_fit_loads_back(tmp_path, engine, scale):
    """A fit on a column of any finite scale raises a RegressError, or its
    model file loads back holding the fitted model's fields, field for
    field, and predicts bit for bit as the fitted model. The standardizing
    engines refuse a column of scale 1e200, whose spread overflows."""
    rng = np.random.default_rng(55)
    X, y = rng.normal(size=(30, 4)), rng.normal(size=30)
    X[:, 1] *= scale
    technique, params = ENGINE_FORMS[engine]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            model = fit_model(technique, X, y, params)
    except RegressError:
        assert engine in ("knn", "svr", "svr-rbf") and scale == 1e200
        return
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert vars(loaded).keys() == vars(model).keys()
    for key, fitted in vars(model).items():
        assert_same_field(key, vars(loaded)[key], fitted)
    assert np.array_equal(loaded.predict(X), model.predict(X))


def test_store_rejects_garbage(tmp_path):
    from scoreline.regress import BadArtifact

    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(BadArtifact):
        load_model(path)
    path.write_text("[1, 2]")
    with pytest.raises(BadArtifact, match=f"^{re.escape(str(path))} is not a model artifact$"):
        load_model(path)


def forest_artifact(tmp_path):
    rng = np.random.default_rng(52)
    path = tmp_path / "forest.json"
    save_model(fit_rfr(rng.normal(size=(30, 3)), rng.poisson(1.5, size=30) * 1.0,
                       n_trees=3, min_leaf=2, seed=4), path)
    return path


def _set_node(tree, node, **fields):
    for name, value in fields.items():
        tree[name][node] = value


def _set_first_leaf(tree, **fields):
    _set_node(tree, tree["feature"].index(-1), **fields)


def _set_first_split(tree, **fields):
    assert tree["feature"][0] >= 0, "the tree is a single leaf"
    _set_node(tree, 0, **fields)


def _set_last_split(tree, **fields):
    last = max(i for i, feature in enumerate(tree["feature"]) if feature >= 0)
    assert last > 1, "the tree has one split"
    _set_node(tree, last, **fields)


MALFORMED_FORESTS = {
    "no trees": (lambda p: p.update(trees=[]), "the forest holds 0 trees, params.n_trees is 3"),
    "fewer trees than n_trees": (lambda p: p["trees"].pop(),
                                 "the forest holds 2 trees, params.n_trees is 3"),
    "more trees than n_trees": (lambda p: p["params"].update(n_trees=2),
                                "the forest holds 3 trees, params.n_trees is 2"),
    "nan leaf value": (lambda p: _set_first_leaf(p["trees"][1], value=float("nan")),
                       "a tree node has value nan"),
    "inf threshold": (lambda p: _set_first_split(p["trees"][0], threshold=float("inf")),
                      "a tree node has threshold inf"),
    "-inf split value": (lambda p: _set_first_split(p["trees"][2], value=float("-inf")),
                         "a tree node has value -inf"),
    "child index out of range": (lambda p: _set_first_split(p["trees"][0], right=10**6),
                                 "does not lie after it within the tree: feature 2, children 1 and 1000000"),
    "backward child": (lambda p: _set_last_split(p["trees"][1], right=1),
                       "has a child that does not lie after it within the tree"),
    "self child": (lambda p: _set_first_split(p["trees"][2], left=0),
                   "tree node 0 has a child that does not lie after it within the tree"),
    "lengths differ": (lambda p: p["trees"][0]["n"].pop(),
                       "a tree's node arrays differ in shape"),
    # an earlier tree's error comes first, whichever check finds it
    "nan in tree 0, lengths differ in tree 2": (
        lambda p: (_set_first_leaf(p["trees"][0], value=float("nan")), p["trees"][2]["n"].pop()),
        "a tree node has value nan"),
    "lengths differ in tree 0, nan in tree 2": (
        lambda p: (p["trees"][0]["n"].pop(), _set_first_leaf(p["trees"][2], value=float("nan"))),
        "a tree's node arrays differ in shape"),
    "child out of range in tree 1, lengths differ in tree 2": (
        lambda p: (_set_first_split(p["trees"][1], right=10**6), p["trees"][2]["n"].pop()),
        "does not lie after it within the tree"),
    "lengths differ in tree 1, child out of range in tree 2": (
        lambda p: (p["trees"][1]["n"].pop(), _set_first_split(p["trees"][2], right=10**6)),
        "a tree's node arrays differ in shape"),
    "leaf with a child": (lambda p: _set_first_leaf(p["trees"][0], left=0),
                          "is a leaf with a child: feature -1, children 0 and -1"),
    "feature out of range": (lambda p: _set_first_split(p["trees"][1], feature=3),
                             "tree node 0 splits on a feature outside 0..2: feature 3, children 1 and 2"),
    "negative feature": (lambda p: _set_first_split(p["trees"][1], feature=-2),
                         "tree node 0 splits on a feature outside 0..2: feature -2"),
    "fractional feature": (lambda p: _set_first_split(p["trees"][1], feature=0.5),
                           "a tree's feature holds float64 values"),
    "empty tree": (lambda p: p["trees"][2].update(dict.fromkeys(p["trees"][2], [])),
                   "a tree has no nodes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FORESTS))
def test_store_rejects_malformed_forest(tmp_path, case):
    """A forest that would fail only at predict time is refused on load,
    naming the file."""
    from scoreline.regress import BadArtifact

    path = forest_artifact(tmp_path)
    breaks, message = MALFORMED_FORESTS[case]
    blob = json.loads(path.read_text())
    breaks(blob["payload"])
    path.write_text(json.dumps(blob))
    with pytest.raises(BadArtifact) as exc:
        load_model(path)
    assert str(path) in str(exc.value) and message in str(exc.value)


def test_store_rejects_non_finite_tree_value(tmp_path):
    from scoreline.regress import BadArtifact

    rng = np.random.default_rng(53)
    path = tmp_path / "tree.json"
    save_model(fit_dtr(rng.normal(size=(30, 3)), rng.normal(size=30), min_leaf=2), path)
    blob = json.loads(path.read_text())
    _set_first_leaf(blob["payload"]["trees"][0], value=float("nan"))
    path.write_text(json.dumps(blob))
    with pytest.raises(BadArtifact, match="a tree node has value nan") as exc:
        load_model(path)
    assert str(path) in str(exc.value)


def test_store_rejects_tree_model_without_one_tree(tmp_path):
    from scoreline.regress import BadArtifact

    path = tmp_path / "tree.json"
    save_model(fit_dtr(*tied_goal_data(), max_depth=2, min_leaf=2), path)
    blob = json.loads(path.read_text())
    blob["payload"]["trees"] *= 2
    path.write_text(json.dumps(blob))
    with pytest.raises(BadArtifact, match="the tree model holds 2 trees, not 1"):
        load_model(path)


def test_store_refuses_format_1_with_retrain(tmp_path):
    """A nested-node artifact of format version 1 is refused, not converted."""
    from scoreline.regress import UnsupportedVersion

    model = fit_dtr(*tied_goal_data(), max_depth=3, min_leaf=2)
    path = tmp_path / "v1.json"
    save_model(model, path)
    blob = json.loads(path.read_text())
    blob.update(format_version=1, payload=nested_payload(model))
    path.write_text(json.dumps(blob, sort_keys=True, indent=1))
    with pytest.raises(UnsupportedVersion, match="format_version=1, .* reads 2; retrain"):
        load_model(path)


def test_store_rejects_deeply_nested_json(tmp_path):
    from scoreline.regress import BadArtifact

    path = tmp_path / "model_home.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(BadArtifact, match="cannot read model artifact .*recursion") as exc:
        load_model(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("name", ["dtr", "rfr_seed_0"])
def test_store_tree_roundtrip_byte_identical(tmp_path, name):
    """Saved arrays load to the same predictions, bit for bit, and save
    back to the same bytes."""
    fit, params = TREE_FITS[name]
    X, y = tied_goal_data()
    model = fit(X, y, **params)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, first)
    loaded = load_model(first)
    assert loaded.predict(X).tobytes() == model.predict(X).tobytes()
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def walk(tree, x):
    """Reference predict: follow one row down one tree, node by node."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.value[node]


@pytest.mark.parametrize("name", sorted(TREE_FITS))
def test_tree_predict_equals_walking_each_row(name):
    fit, params = TREE_FITS[name]
    X, y = tied_goal_data()
    model = fit(X, y, **params)
    queries = np.vstack([X, np.round(np.random.default_rng(5).normal(2.0, 2.0, size=(40, 7)), 1)])
    walked = np.stack([[walk(tree, x) for x in queries] for tree in model.trees])
    np.testing.assert_array_equal(model.predict(queries), walked.mean(axis=0))


def test_tree_size_counts_nodes_and_deepest_leaf():
    # 0 -> (1, 2), 2 -> (3, 4): five nodes, deepest leaves at depth 2
    split = Tree(feature=np.array([0, -1, 0, -1, -1]), threshold=np.zeros(5), value=np.zeros(5),
                 n=np.ones(5, dtype=np.int64), left=np.array([1, -1, 3, -1, -1]),
                 right=np.array([2, -1, 4, -1, -1]))
    assert tree_size([split, leaf_tree(1.0)]) == {"nodes": 6, "depth": 2}
    assert tree_size([leaf_tree(1.0)]) == {"nodes": 1, "depth": 0}
