"""Engine oracles: LR, KNN, DTR, RFR and SVR against independent references."""

import hashlib
import json
import os
import threading
import time
import warnings
from pathlib import Path

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

from scoreline.regress import (
    DimensionMismatch,
    ForestModel,
    KTooLarge,
    NonFiniteInput,
    NotConvergedWarning,
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
from scoreline.regress.tree import Tree, predict_trees, tree_size

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


# ------------------------------------------------------------------------ LR


def test_lr_recovers_line():
    x = np.linspace(-3, 3, 25)
    model = fit_lr(x.reshape(-1, 1), 2.0 * x + 1.0)
    assert abs(model.coef[0] - 2.0) < 1e-6
    assert abs(model.intercept - 1.0) < 1e-6
    assert not model.ridged
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


def test_lr_wide_matrix_ridge_fallback():
    """Players-style matrix, more columns than rows: ridged but finite."""
    rng = np.random.default_rng(13)
    X = rng.choice([-1.0, 0.0, 1.0], size=(8, 30))
    y = rng.normal(size=8)
    model = fit_lr(X, y)
    assert model.ridged
    assert np.isfinite(model.coef).all() and np.isfinite(model.intercept)
    assert np.isfinite(model.predict(X)).all()


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
    forest = ForestModel(trees, n_features=1, params={})
    out = forest.predict(np.array([[0.0]]))
    assert out[0] == pytest.approx(1.1)

    from scoreline.predict import round_goals
    assert round_goals(out[0]) == 1


def test_rfr_degenerates_to_dtr():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 5))
    y = rng.normal(size=40)
    tree = fit_dtr(X, y, max_depth=4, min_leaf=2)
    forest = fit_rfr(X, y, n_trees=1, max_depth=4, min_leaf=2,
                     max_features="all", bootstrap=False, seed=123)
    queries = rng.normal(size=(25, 5))
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


def test_rfr_param_validation():
    X, y = np.ones((12, 2)), np.ones(12)
    with pytest.raises(ValueError):
        fit_rfr(X, y, n_trees=0)
    with pytest.raises(ValueError):
        fit_rfr(X, y, bootstrap_fraction=0.0)
    with pytest.raises(ValueError):
        fit_rfr(X, y, max_features=9)


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

# sha256 of the payload JSON in its nested format-1 form, taken from the
# per-node recursive grower that the lockstep one replaced
TREE_GOLDENS = {
    "rfr_seed_0": "af5030c3c160f6b245ddeea530863ab5572b3f60e83874fcfacbfc3454d9cf71",
    "rfr_seed_1": "dbc5800d44b2c6d5c59ab67fb66a1987d22c17c8f5f517a9d28ba15fe3ac76bf",
    "rfr_seed_23": "fb5915616bbdaba56d45c6fca16608d046eb976e0bf460dd3ea2e4c5f2432f94",
    "rfr_subset_3_fraction": "17a0fad28f217b0ff0b0f2cd628f4cc745ff01a053ae9bfbbd71ed961a61c841",
    "rfr_all_features_no_bootstrap":
        "be6704fd24e6cfbc69c4920a1a5594a1ed3fc4c68a50fd102b24f61dc00d49ad",
    "dtr": "9cdfcb36707866e58127e654dacd3c3391c3324e70e348e8fafa0477a1362e1a",
    "dtr_min_leaf_1": "9b0358b0295a8d215a3b84fb0576b5b75ec6aed0557010fbe11b49031a95ea0a",
}


def payload_digest(model):
    return hashlib.sha256(json.dumps(nested_payload(model), sort_keys=True).encode()).hexdigest()


# a forest grows one group of trees per usable CPU; each test that takes
# `cpus` forces that count (the forest's tree count for "n_trees"), and its
# one-CPU case keeps the test's plain id
CPU_COUNTS = (1, 2, 3, "n_trees")


def with_cpus(name, counts=CPU_COUNTS):
    return [pytest.param(name, cpus, id=name if cpus == 1 else f"{name}-cpus_{cpus}")
            for cpus in counts]


def force_cpus(monkeypatch, cpus, n_trees):
    monkeypatch.setattr(workers, "usable_cpus", lambda: n_trees if cpus == "n_trees" else cpus)


@pytest.mark.parametrize("name, cpus", [
    param for name in sorted(TREE_FITS)
    for param in with_cpus(name, CPU_COUNTS if name.startswith("rfr") else (1,))])
def test_tree_and_forest_goldens(name, cpus, monkeypatch):
    fit, params = TREE_FITS[name]
    force_cpus(monkeypatch, cpus, params.get("n_trees"))
    assert payload_digest(fit(*tied_goal_data(), **params)) == TREE_GOLDENS[name]


def reference_tree(X, y, rows, *, max_depth, min_leaf, max_features, rng):
    """One tree grown alone, node by node in preorder, each node scored by
    a batch-of-one best_split; nested node dicts as nested_tree gives."""
    p = X.shape[1]
    ranks = dense_ranks(X)

    def grow(node_rows, depth):
        node_y = y[node_rows]
        node = {"value": float(node_y.mean()), "n": int(node_rows.shape[0])}
        if depth >= max_depth or node["n"] < 2 * min_leaf or np.all(node_y == node_y[0]):
            return node
        feat_idx = np.arange(p)
        if rng is not None and max_features < p:
            feat_idx = np.sort(rng.choice(p, size=max_features, replace=False))
        feats, thrs, _ = best_split(X, y, feat_idx[None, :], min_leaf, [node_rows], ranks)
        if feats[0] < 0:
            return node
        go_left = X[node_rows, feats[0]] <= thrs[0]
        node.update(feature=int(feats[0]), threshold=float(thrs[0]),
                    left=grow(node_rows[go_left], depth + 1),
                    right=grow(node_rows[~go_left], depth + 1))
        return node

    return grow(rows, 0)


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
        force_cpus(monkeypatch, cpus, params["n_trees"])
        model = fit_rfr(X, y, **params)
        expected = reference_forest_trees(X, y, **params)
        got = nested_payload(model)["trees"]
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True), params
    tree = fit_dtr(X, y, max_depth=7, min_leaf=2)
    alone = reference_tree(X, y, np.arange(70), max_depth=7, min_leaf=2, max_features=9, rng=None)
    assert json.dumps(nested_payload(tree)["root"], sort_keys=True) == json.dumps(alone, sort_keys=True)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open files in /proc")
@pytest.mark.parametrize("how, error, message", [
    ("raises", ValueError, "^split search failed in a child$"),
    ("exits", WorkerDied, "exited with status 3 before sending its result"),
    ("killed", WorkerDied, "was killed by signal SIGKILL before sending its result"),
    ("interrupted", KeyboardInterrupt, None),
], ids=["raises", "exits", "killed", "interrupted"])
def test_failed_forest_worker_raises_and_leaves_nothing(monkeypatch, how, error, message):
    X, y = tied_goal_data()
    open_fds = open_fd_count()
    forest_children_fail(monkeypatch, how)
    start = time.monotonic()
    with pytest.raises(error, match=message) as caught:
        fit_rfr(X, y, n_trees=6, seed=1)
    assert type(caught.value) is error
    assert time.monotonic() - start < 30  # a hung child is killed, not waited for
    assert_no_child_left(open_fds)


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


def test_no_fork_while_another_thread_runs(monkeypatch):
    def forbidden():
        raise AssertionError("os.fork called while another thread runs")

    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", forbidden)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        fit, params = TREE_FITS["rfr_seed_0"]
        model = fit(*tied_goal_data(), **params)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
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
    assert model.status["iterations"] == 0 and model.status["converged"]
    assert model.status["objective"] == 0.0


def test_svr_rbf_cap_warns_with_kkt_gap():
    rng = np.random.default_rng(48)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    with pytest.warns(NotConvergedWarning, match="KKT gap .* above tol"):
        model = fit_svr(X, y, kernel="rbf", max_iter=3)
    assert not model.status["converged"] and model.status["iterations"] == 3
    assert model.status["gap"] > model.params["tol"]


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


def test_store_rejects_garbage(tmp_path):
    from scoreline.regress import BadArtifact

    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(BadArtifact):
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
                                 "does not lie after it within the tree: feature 0, children 1 and 1000000"),
    "backward child": (lambda p: _set_last_split(p["trees"][1], right=1),
                       "has a child that does not lie after it within the tree"),
    "self child": (lambda p: _set_first_split(p["trees"][2], left=0),
                   "tree node 0 has a child that does not lie after it within the tree"),
    "lengths differ": (lambda p: p["trees"][0]["n"].pop(),
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
