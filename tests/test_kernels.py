"""The numeric kernels return pinned results, bit for bit.

Each golden of the split and neighbour kernels was taken from the
scalar-loop implementation the vectorised kernels replaced. The SVR goldens
pin the interior-point dual solver in both of its spaces: p x p on the
design X and n x n on a Gram matrix K. An independent SLSQP solve of the
same dual checks each. Floats travel as
``float.hex()`` strings, so every comparison is exact, not approximate.
The inputs lean on the cases where a reordered sum or a different tie rule
would show: tied and integer-valued columns, constant targets, equal
distances and nodes at the edge of ``min_leaf``. The scalar loops
themselves stay below as references for a randomized bit-for-bit
comparison, next to the SVR's primal objectives, which the solver's
reported objective equals bit for bit.
"""

import numpy as np
from scipy.optimize import minimize

from scoreline.regress import kernels
from scoreline.regress.kernels import (
    best_split,
    dense_ranks,
    knn_neighbor_means,
    rbf_kernel,
    svr_train,
    tube_loss,
)


def hexify(value):
    return [v.hex() for v in np.asarray(value, dtype=np.float64).ravel().tolist()]


# ------------------------------------------------------------------ inputs

def split_cases():
    """name -> (X, y, feat_idx, min_leaf) for best_split."""
    rng = np.random.default_rng(7)
    cases = {}
    X = rng.integers(0, 4, size=(40, 5)).astype(np.float64)
    X[:, 3] = X[:, 1]  # an exact duplicate column: ties across features
    cases["tied_integer_columns"] = (X, X[:, 1] + rng.normal(size=40), np.arange(5), 3)
    cases["constant_targets"] = (rng.integers(0, 3, size=(24, 4)).astype(np.float64),
                                 np.full(24, 2.0), np.arange(4), 2)
    cases["exactly_two_min_leaf"] = (rng.normal(size=(10, 3)), rng.normal(size=10),
                                     np.arange(3), 5)
    cases["too_few_rows"] = (rng.normal(size=(9, 3)), rng.normal(size=9),
                             np.arange(3), 5)
    feat_idx = np.sort(rng.choice(12, size=4, replace=False))
    cases["random_feature_subset"] = (rng.normal(size=(60, 12)), rng.normal(size=60),
                                      feat_idx, 4)
    # the midpoint of 1.0 and the float just below it rounds up to 1.0
    col = np.array([np.nextafter(1.0, 0.0)] * 5 + [1.0] * 5)
    cases["adjacent_float_midpoint"] = (col[:, None], np.arange(10.0), np.arange(1), 2)
    return {name: (X, y, np.asarray(f, dtype=np.int64), m)
            for name, (X, y, f, m) in cases.items()}


def knn_cases():
    """name -> (train_X, train_y, query_X, k) for knn_neighbor_means."""
    rng = np.random.default_rng(11)
    grid = rng.integers(-1, 2, size=(30, 3)).astype(np.float64)
    equal = (grid, rng.normal(size=30), np.vstack([grid[:6], np.zeros((2, 3))]), 4)
    train_X = rng.normal(size=(12, 4))
    k_is_n = (train_X, rng.normal(size=12), rng.normal(size=(5, 4)), 12)
    return {"equal_distances": equal, "k_equals_n": k_is_n}


def svr_data():
    rng = np.random.default_rng(2024)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([1.0, -0.5, 2.0, 0.0]) + rng.normal(scale=0.2, size=30)
    return X, y


# Arguments after (X, y) or (K, y): C, epsilon, max_iter, tol.
LINEAR_RUNS = {"converges": (1.0, 0.1, 50_000, 1e-6),
               "hits_cap": (1.0, 0.1, 5, 1e-6)}
KERNEL_RUNS = {"converges": (1.0, 0.1, 50_000, 1e-6),
               "hits_cap": (1.0, 0.1, 3, 1e-6)}
GAMMA = 0.3
# the subgradient solver's objective after 400 iterations on svr_data()
SUBGRADIENT_OBJECTIVE = "0x1.d6880f51f8e6ep+4"
# the linear subgradient solver the interior-point method replaced, on
# svr_data() with C=1, eps=0.1: stopped by its 100-iteration window at
# 500 iterations, and capped at 250
SUBGRADIENT_LINEAR_OBJECTIVES = ("0x1.321871239ee54p+2", "0x1.321d096761264p+2")


# ----------------------------------------------------------------- goldens

GOLDEN_SPLIT = {
    "tied_integer_columns": [1, "0x1.8000000000000p+0", "0x1.8b5cbe1e0f8aep+5"],
    "constant_targets": [0, "0x1.0000000000000p-1", "0x0.0p+0"],
    "exactly_two_min_leaf": [2, "0x1.7f559bcdb6f58p-1", "0x1.7d007ebd51549p+1"],
    "too_few_rows": [-1, "0x0.0p+0", "inf"],
    "random_feature_subset": [8, "0x1.7dafc2fd02290p-1", "0x1.947490446634cp+5"],
    "adjacent_float_midpoint": [0, "0x1.fffffffffffffp-1", "0x1.4000000000000p+4"],
}

GOLDEN_KNN = {
    "equal_distances": [
        "0x1.2f80e37e14cc0p-7", "-0x1.7197b837f59f0p-2", "0x1.3d8dddd720702p-3",
        "0x1.14ab91a83fcf6p-1", "-0x1.b80ffb049d42cp-2", "0x1.051a72bda1574p-5",
        "-0x1.7197b837f59f0p-2", "-0x1.7197b837f59f0p-2",
    ],
    "k_equals_n": [
        "-0x1.5b05c8dfab465p-4", "-0x1.5b05c8dfab467p-4", "-0x1.5b05c8dfab468p-4",
        "-0x1.5b05c8dfab468p-4", "-0x1.5b05c8dfab465p-4",
    ],
}

GOLDEN_LINEAR = {
    "converges": {
        "coef": [
            "0x1.06c9efe52fcd7p+0", "-0x1.1217eda6e249ap-1", "0x1.fa63038a1c87fp+0",
            "-0x1.970a57b79c708p-5",
        ],
        "b": "-0x1.77751429da740p-7",
        "obj": "0x1.32134c86be598p+2",
        "it": 10,
        "conv": True,
        "gap": "0x1.c95ac0e800000p-20",
    },
    "hits_cap": {
        "coef": [
            "0x1.03958e8ae4239p+0", "-0x1.0fddaa2b957dap-1", "0x1.f62bb5e3bd2a2p+0",
            "-0x1.685bcb8719710p-5",
        ],
        "b": "-0x1.24fb2f165b484p-6",
        "obj": "0x1.32ade9ce22c7ep+2",
        "it": 5,
        "conv": False,
        "gap": "0x1.24fc6c36bcb40p-3",
    },
}

GOLDEN_RBF_ROWS = [
    "0x1.0000000000000p+0", "0x1.52532c351ff69p-5", "0x1.3199c419ddf67p-1",
    "0x1.14ec383cad0fep-4", "0x1.06c1cdfdfc519p-7", "0x1.fcd3b5e35d3f0p-7",
    "0x1.77402a9c2a47fp-5", "0x1.df9603a7c733fp-4", "0x1.325ee5adebf1ap-4",
    "0x1.0b5b6e087f4f6p-4", "0x1.65415b0a1bd85p-11", "0x1.0b2fa925cbfa4p-3",
    "0x1.05c572d676144p-3", "0x1.37c407c78b167p-2", "0x1.c49f20dcb3d18p-4",
    "0x1.e496aa1170c94p-6", "0x1.bfc8671d9bd1cp-5", "0x1.0ac5a34110893p-3",
    "0x1.3383bcdc3aa19p-3", "0x1.b5aac9d39021fp-4", "0x1.e908179255ca0p-3",
    "0x1.2fbe7c1ee6b4ep-2", "0x1.4bff18596339bp-2", "0x1.2f88489dcbb08p-4",
    "0x1.15abe34dab5b1p-1", "0x1.986c835777c3ep-9", "0x1.864a66582d7b4p-5",
    "0x1.0ea35deb67e45p-2", "0x1.646d0f894bf66p-7", "0x1.2e1ec4e4e60eap-3",
    "0x1.52532c351ff69p-5", "0x1.0000000000000p+0", "0x1.974ada4176cc8p-6",
    "0x1.b4a39b373e99bp-2", "0x1.2018e5807d287p-3", "0x1.b9d8cbd93b816p-5",
    "0x1.299e8f8b5f67ep-1", "0x1.3ad28c2b31820p-1", "0x1.795c390c05a86p-4",
    "0x1.99aac91216259p-2", "0x1.ccae40eb6ba05p-6", "0x1.1fc4a4fea7fdap-1",
    "0x1.94eb8f69e6ae7p-1", "0x1.4772b977c54b7p-2", "0x1.8963d29c27648p-1",
    "0x1.d29f017a79e9dp-3", "0x1.cf3602bea1971p-3", "0x1.eb8437d690234p-4",
    "0x1.0715bfb380fecp-5", "0x1.388c00afd0ac3p-4", "0x1.fd2e5499f0b17p-2",
    "0x1.15c1d5610b0dbp-3", "0x1.f52e7b4554f8dp-4", "0x1.4ba304fca410dp-4",
    "0x1.3c1f70c7a0db4p-4", "0x1.bc45a8c4ba60dp-6", "0x1.817779408df9fp-6",
    "0x1.244d3ddea867cp-3", "0x1.1388e2078d755p-2", "0x1.98af375e3ea43p-2",
    "0x1.3199c419ddf67p-1", "0x1.974ada4176cc8p-6", "0x1.0000000000000p+0",
    "0x1.dde202754a461p-6", "0x1.4d36cd84fa5d9p-7", "0x1.75a726f50157cp-4",
    "0x1.0224ede332ee6p-4", "0x1.0027c8d6c3b1cp-3", "0x1.27b1663120ebep-4",
    "0x1.5af630c85898ap-4", "0x1.d5eca4f3e390dp-9", "0x1.4b18a6f5779f4p-5",
    "0x1.1445fc55f66abp-4", "0x1.500af4eaabc7bp-3", "0x1.6a6eb2e5e2076p-4",
    "0x1.b3f8a42ecc6d4p-5", "0x1.9c6195e949c72p-5", "0x1.0636cfcf1fcc2p-2",
    "0x1.f189886546b64p-2", "0x1.5ff39644c28efp-2", "0x1.90f9281028e56p-3",
    "0x1.0c689b16cc11bp-2", "0x1.365dad52d68d6p-1", "0x1.dd311f694bad1p-4",
    "0x1.fb45868b9c7c0p-3", "0x1.569e0ea255588p-8", "0x1.b8628479d83d4p-6",
    "0x1.00ce42222175dp-2", "0x1.ecf55f7f4695ep-6", "0x1.fcfd970535a9dp-3",
]

GOLDEN_KERNEL = {
    "converges": {
        "coef": [
            "0x1.fffffdad9ce55p-1", "0x1.84e13228c57e5p-8", "0x1.7201eecb71ecdp-1",
            "-0x1.fffffb9584f9fp-1", "-0x1.fffffed76cf78p-1", "0x1.acdbcee7e9fc2p-4",
            "-0x1.12790319b7a7ep-1", "0x1.fffff428eb923p-1", "-0x1.fbd03e7ecbba1p-1",
            "0x1.fffffed543c2cp-1", "-0x1.ffffff48ef825p-1", "0x1.fffffe347929bp-1",
            "-0x1.08ec349c571b7p-3", "0x1.b570deaa570afp-1", "-0x1.fffff7fa3eee4p-1",
            "-0x1.05ec34bf225a9p-4", "-0x1.fffffbe340633p-1", "-0x1.436c5b7e978a0p-1",
            "0x1.fffffed730d14p-1", "-0x1.505b68e7a88c0p-23", "0x1.38dac4a04021ap-1",
            "0x1.4e5be91021420p-23", "0x1.ffff1714f6d2cp-1", "-0x1.fffffd9cf0b2bp-1",
            "-0x1.9211636aa4c0fp-2", "-0x1.ffffff8c3f460p-1", "0x1.ffffff9bc2122p-1",
            "-0x1.b0c4c960785aep-4", "0x1.1add9028f233ap-1", "0x1.c9c5fad410080p-24",
        ],
        "b": "-0x1.58c9c76f77640p-7",
        "obj": "0x1.c56b5e876b080p+4",
        "it": 7,
        "conv": True,
        "gap": "0x1.a3fff9d000000p-17",
    },
    "hits_cap": {
        "coef": [
            "0x1.ed223a5011416p-1", "0x1.135a39ebab0d9p-3", "0x1.867e3d04f1f20p-1",
            "-0x1.e96574ab029a8p-1", "-0x1.f6775bd0ec55fp-1", "0x1.54e7edc6cb1dep-3",
            "-0x1.3b1fd7899bb4fp-1", "0x1.bfc9b279d065cp-1", "-0x1.bbafda14c87dcp-1",
            "0x1.f70192567fd1cp-1", "-0x1.fa6002a2829bap-1", "0x1.f1a1af8fafc3cp-1",
            "-0x1.f6a091f9ae350p-3", "0x1.8e01b8f1a9c1ep-1", "-0x1.c306a557fbfc1p-1",
            "-0x1.ae39ddf6bc45cp-4", "-0x1.ea676368a6dafp-1", "-0x1.3260d68ed657cp-1",
            "0x1.f5d0ac6e746b6p-1", "-0x1.d358d27aea07ap-5", "0x1.1a414df7df6b9p-1",
            "0x1.e6ba4c186d620p-6", "0x1.addd4c10905b7p-1", "-0x1.ed8e47be0b33cp-1",
            "-0x1.984e2ead5e4acp-2", "-0x1.fc35eb082e8abp-1", "0x1.fcea3327ddcdbp-1",
            "-0x1.d73cdd67debbfp-4", "0x1.01fa46977b712p-1", "0x1.88a7d8436820fp-3",
        ],
        "b": "0x1.b37874b8a14c0p-7",
        "obj": "0x1.c6848dc565001p+4",
        "it": 3,
        "conv": False,
        "gap": "0x1.f77c04c555440p-2",
    },
}

GOLDEN_OBJECTIVE = {
    "linear": "0x1.31c2719498d0dp+4",
    "kernel": "0x1.9c1a1849ae892p+5",
}


# ------------------------------------------------------------------- tests

def run_split(X, y, feat_idx, min_leaf):
    """best_split on one node holding every row of X: a batch of one."""
    feats, thrs, sses = best_split(X, y, feat_idx[None, :], min_leaf, np.arange(X.shape[0]),
                                   np.zeros(1, dtype=np.int64), np.array([X.shape[0]]),
                                   dense_ranks(X))
    return [int(feats[0]), float(thrs[0]).hex(), float(sses[0]).hex()]


def run_svr(result):
    coef, b, obj, it, conv, gap = result
    return {"coef": hexify(coef), "b": float(b).hex(), "obj": float(obj).hex(),
            "it": int(it), "conv": bool(conv), "gap": float(gap).hex()}


def test_best_split_identical():
    cases = split_cases()
    assert set(cases) == set(GOLDEN_SPLIT)
    for name, args in cases.items():
        assert run_split(*args) == GOLDEN_SPLIT[name], name


def test_best_split_edge_cases_keep_their_meaning():
    cases = split_cases()
    assert GOLDEN_SPLIT["too_few_rows"] == [-1, (0.0).hex(), float("inf").hex()]
    # constant targets: every split has zero SSE, so the first one wins
    assert GOLDEN_SPLIT["constant_targets"][0] == 0
    # the clamped threshold still sends the lower value left
    X, *_ = cases["adjacent_float_midpoint"]
    thr = float.fromhex(GOLDEN_SPLIT["adjacent_float_midpoint"][1])
    assert thr == X[0, 0] and thr < X[-1, 0]


def test_integer_targets_split_alike_under_any_row_order():
    """Integer targets sum exactly, so the order of tied rows cannot show."""
    rng = np.random.default_rng(5)
    for case in range(40):
        n, p = int(rng.integers(4, 40)), int(rng.integers(1, 6))
        X = rng.integers(0, 4, size=(n, p)).astype(np.float64)
        y = rng.integers(0, 5, size=n).astype(np.float64)
        feat_idx, min_leaf = np.arange(p), int(rng.integers(1, 4))
        expected = run_split(X, y, feat_idx, min_leaf)
        for _ in range(4):
            perm = rng.permutation(n)
            assert run_split(X[perm], y[perm], feat_idx, min_leaf) == expected, case


def test_a_batch_scores_each_node_as_alone(monkeypatch):
    """Nodes of several widths, some split over several blocks and some
    too small to split (sizes 1 and 3), on float targets: each gets the
    split it gets in a batch of one, bit for bit. The nodes are segments
    of one row array, as a level's are, scored out of array order with
    unscored rows between them; the last segment ends the array, so its
    padded lanes must read the sentinel row."""
    monkeypatch.setattr(kernels, "SPLIT_CELLS", 64)
    rng = np.random.default_rng(17)
    X = np.round(rng.normal(size=(70, 6)), 1)
    y = rng.normal(size=70)
    ranks = dense_ranks(X)
    sizes = np.array([1, 3, *rng.integers(4, 70, size=27), 45])  # the last pads to 64
    starts = np.cumsum(rng.integers(1, 6, size=sizes.shape[0]) + sizes) - sizes
    rows = rng.integers(0, 70, size=int(starts[-1] + sizes[-1]))
    order = rng.permutation(sizes.shape[0])
    starts, sizes = starts[order], sizes[order]
    feat_idx = np.sort(np.array([rng.choice(6, size=3, replace=False) for _ in sizes]), axis=1)
    got = np.column_stack(best_split(X, y, feat_idx, 2, rows, starts, sizes, ranks))
    alone = np.vstack([np.column_stack(best_split(
        X, y, f[None, :], 2, rows[a:a + n].copy(), np.zeros(1, dtype=np.int64), np.array([n]),
        ranks)) for f, a, n in zip(feat_idx, starts, sizes)])
    assert got.tobytes() == alone.tobytes()
    assert (got[:, 0] >= 0).sum() > 20 and (got[:, 0] < 0).any()


def test_a_node_too_wide_for_int32_keys_splits_as_the_loop_does():
    """40 000 rows pad to width 65 536: 16 position bits, and the top rank
    40 000 shifted above them overflows int32, so the sort keys are int64."""
    n = 40_000
    assert (n + 1) << (n - 1).bit_length() > np.iinfo(np.int32).max
    rng = np.random.default_rng(23)
    X = np.round(rng.normal(size=(n, 2)), 2)
    y = rng.integers(0, 5, size=n).astype(np.float64)
    feat, thr, sse = loop_best_split(X, y, np.arange(2), 5)
    assert run_split(X, y, np.arange(2), 5) == [int(feat), float(thr).hex(), float(sse).hex()]


def test_knn_identical():
    for name, args in knn_cases().items():
        assert hexify(knn_neighbor_means(*args)) == GOLDEN_KNN[name], name


def test_svr_linear_identical():
    X, y = svr_data()
    for name, run in LINEAR_RUNS.items():
        assert run_svr(svr_train(X, y, *run)) == GOLDEN_LINEAR[name], name
    *_, tol = LINEAR_RUNS["converges"]
    obj = float.fromhex(GOLDEN_LINEAR["converges"]["obj"])
    assert GOLDEN_LINEAR["converges"]["conv"] is True
    assert float.fromhex(GOLDEN_LINEAR["converges"]["gap"]) <= tol * max(1.0, obj)
    assert GOLDEN_LINEAR["hits_cap"]["it"] == LINEAR_RUNS["hits_cap"][2]
    assert float.fromhex(GOLDEN_LINEAR["hits_cap"]["gap"]) > LINEAR_RUNS["hits_cap"][3]


def test_ipm_objective_not_above_subgradient():
    X, y = svr_data()
    _w, _b, obj, _it, conv, _gap = svr_train(X, y, *LINEAR_RUNS["converges"])
    assert conv
    assert all(obj <= float.fromhex(old) for old in SUBGRADIENT_LINEAR_OBJECTIVES)


def slsqp_dual(K, y, c_reg, eps):
    """(beta, minimum) of the epsilon-SVR dual over (alpha, alpha*),
    0.5 beta'K beta + eps * sum(a) - y'beta with beta = alpha - alpha*,
    subject to sum(beta) = 0 and 0 <= a <= C, solved by scipy's SLSQP."""
    n = y.shape[0]
    signs = np.concatenate((np.ones(n), -np.ones(n)))

    def dual(a):
        beta = a[:n] - a[n:]
        return 0.5 * beta @ K @ beta + eps * a.sum() - y @ beta

    def dual_grad(a):
        k_beta = K @ (a[:n] - a[n:])
        return np.concatenate((k_beta + eps - y, -k_beta + eps + y))

    ref = minimize(dual, np.zeros(2 * n), jac=dual_grad, method="SLSQP",
                   bounds=[(0.0, c_reg)] * (2 * n),
                   constraints=[{"type": "eq", "fun": lambda a: signs @ a,
                                 "jac": lambda a: signs}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    assert abs(signs @ ref.x) < 1e-9 and ref.x.min() > -1e-9 and ref.x.max() < c_reg + 1e-9
    return ref.x[:n] - ref.x[n:], ref.fun


def linear_gram_cases():
    """name -> (Xs, y, C, epsilon) for the interior-point/SLSQP comparison."""
    rng = np.random.default_rng(5)
    X, y = svr_data()
    wide = rng.normal(size=(12, 20))  # p > n, with one all-zero column
    wide[:, 7] = 0.0
    return {
        "svr_data": (X, y, 1.0, 0.1),
        "p_above_n_zero_column": (wide, wide[:, 0] - wide[:, 3] + rng.normal(size=12), 1.0, 0.1),
        "saturated_c": (X[:15], rng.normal(scale=3.0, size=15), 0.01, 0.1),
        "large_c": (X[:20], y[:20], 10.0, 0.05),
        "wide_tube": (X[:10], rng.uniform(-0.5, 0.5, size=10), 1.0, 5.0),
    }


def test_ipm_matches_slsqp_on_linear_gram():
    """The same dual on K = XX', solved by SLSQP: by strong duality the
    primal optimum is minus the dual minimum."""
    for name, (X, y, c_reg, eps) in linear_gram_cases().items():
        w, b, obj, _it, conv, gap = svr_train(X, y, c_reg, eps, 100, 1e-8)
        beta, ref = slsqp_dual(X @ X.T, y, c_reg, eps)
        assert conv, name
        assert abs(obj + ref) <= 1e-6 * max(1.0, abs(ref)), (name, obj, -ref)
        assert obj == svr_objective(X, y, w, b, c_reg, eps), name
        assert gap >= 0.0, name
        if name == "wide_tube":  # a = 0 is optimal: a flat fit through the middle
            assert np.abs(beta).max() < 1e-9 and np.abs(w).max() < 1e-9
        if name == "saturated_c":  # all but the rows nearest the bias sit at C
            assert np.mean(np.abs(beta) > c_reg - 1e-9) > 0.9


def test_svr_train_never_converges_on_an_infinite_gap():
    """At C = 1e308 the first objective overflows while the dual stays
    finite: an infinite gap is never within tol of an infinite objective."""
    y = np.array([0.0, 1.0, 2.0])
    with np.errstate(all="ignore"):
        _beta, _b, obj, _it, conv, gap = svr_train(None, y, 1e308, 0.1, 50, 1e-6, K=np.eye(3))
    assert obj == np.inf and gap == np.inf
    assert not conv


def test_design_and_gram_spaces_agree():
    """A p < n problem solved once on X (p x p systems) and once on only
    K = XX' (n x n systems) reaches the same optimum. The objective is
    1-strongly convex in w = X'beta, so each w lies within sqrt(2 gap) of
    the optimal one."""
    X, y = svr_data()
    c_reg, eps, _cap, tol = LINEAR_RUNS["converges"]
    w, _b, obj, _it, conv, gap = svr_train(X, y, *LINEAR_RUNS["converges"])
    beta, b_k, obj_k, _it, conv_k, gap_k = svr_train(None, y, *LINEAR_RUNS["converges"],
                                                     K=X @ X.T)
    assert conv and conv_k
    assert abs(obj - obj_k) <= tol * max(1.0, obj, obj_k)
    assert obj_k == svr_kernel_objective(X @ X.T, y, beta, b_k, c_reg, eps)
    assert np.linalg.norm(X.T @ beta - w) <= np.sqrt(2.0 * gap) + np.sqrt(2.0 * gap_k)


def test_rbf_and_kernel_svr_identical():
    X, y = svr_data()
    K = rbf_kernel(X, X, GAMMA)
    assert hexify(K[:3]) == GOLDEN_RBF_ROWS
    for name, run in KERNEL_RUNS.items():
        assert run_svr(svr_train(None, y, *run, K=K)) == GOLDEN_KERNEL[name], name
    *_, tol = KERNEL_RUNS["converges"]
    obj = float.fromhex(GOLDEN_KERNEL["converges"]["obj"])
    assert GOLDEN_KERNEL["converges"]["conv"] is True
    assert float.fromhex(GOLDEN_KERNEL["converges"]["gap"]) <= tol * max(1.0, obj)
    assert GOLDEN_KERNEL["hits_cap"]["it"] == KERNEL_RUNS["hits_cap"][2]
    assert float.fromhex(GOLDEN_KERNEL["hits_cap"]["gap"]) > KERNEL_RUNS["hits_cap"][3]


def test_rbf_ipm_objective_not_above_subgradient():
    X, y = svr_data()
    _beta, _b, obj, *_ = svr_train(None, y, *KERNEL_RUNS["converges"],
                                   K=rbf_kernel(X, X, GAMMA))
    assert obj <= float.fromhex(SUBGRADIENT_OBJECTIVE)


def dual_objective(K, y, beta, epsilon):
    """0.5 beta'K beta + eps * sum|beta| - y'beta: the dual at alpha =
    max(beta, 0), alpha* = max(-beta, 0)."""
    return 0.5 * beta @ K @ beta + epsilon * np.abs(beta).sum() - y @ beta


def test_rbf_ipm_matches_slsqp_dual():
    """The same dual over (alpha, alpha*) on an RBF kernel, solved by SLSQP."""
    X, y = svr_data()
    X, y = X[:25], y[:25]
    c_reg, eps = 1.0, 0.1
    K = rbf_kernel(X, X, GAMMA)
    _ref_beta, ref = slsqp_dual(K, y, c_reg, eps)
    beta, _b, obj, _it, conv, _gap = svr_train(None, y, c_reg, eps, 50_000, 1e-6, K=K)
    assert conv
    assert abs(dual_objective(K, y, beta, eps) - ref) <= 1e-6 * abs(ref)
    # strong duality: the primal objective is minus the dual optimum
    assert abs(obj + ref) <= 1e-6 * abs(ref)


def test_rbf_ipm_solution_satisfies_kkt():
    """At the interior-point solution the complementarity products of the
    KKT conditions, each non-negative on a feasible beta, sum to at most
    the duality gap; at a tight tolerance each row sits where its
    coefficient says: inside the tube at 0, on its edge when free, on or
    outside it at C."""
    X, y = svr_data()
    K = rbf_kernel(X, X, GAMMA)
    c_reg, eps, cap, tol = KERNEL_RUNS["converges"]
    for run_tol, slack in ((tol, None), (1e-10, 1e-6)):
        beta, b, obj, _it, conv, gap = svr_train(None, y, c_reg, eps, cap, run_tol, K=K)
        assert conv and gap <= run_tol * max(1.0, obj)
        assert abs(beta.sum()) < 1e-12
        assert np.all(np.abs(beta) <= c_reg)
        r = y - (K @ beta + b)
        alpha, alpha_star = np.fmax(beta, 0.0), np.fmax(-beta, 0.0)
        products = (alpha * np.fmax(eps - r, 0.0) + (c_reg - alpha) * np.fmax(r - eps, 0.0)
                    + alpha_star * np.fmax(eps + r, 0.0)
                    + (c_reg - alpha_star) * np.fmax(-r - eps, 0.0))
        assert products.sum() <= gap * (1.0 + 1e-6)
        if slack is None:
            continue
        zero, at_c = np.abs(beta) <= slack, np.abs(beta) >= c_reg - slack
        free = ~(zero | at_c)
        assert free.any() and at_c.any() and zero.any()
        assert np.all(np.abs(r[zero]) <= eps + slack)
        assert np.all(np.abs(r[free] - eps * np.sign(beta[free])) <= slack)
        assert np.all(np.sign(beta[at_c]) * r[at_c] >= eps - slack)


def test_svr_objectives_identical():
    X, y = svr_data()
    w = np.array([0.5, -0.25, 1.5, 0.125])
    K = rbf_kernel(X, X, GAMMA)
    beta = np.linspace(-0.3, 0.3, X.shape[0])
    got = {"linear": float(svr_objective(X, y, w, 0.2, 1.0, 0.1)).hex(),
           "kernel": float(svr_kernel_objective(K, y, beta, 0.2, 1.0, 0.1)).hex()}
    assert got == GOLDEN_OBJECTIVE


# ------------------------------------------------------- scalar references

def svr_objective(X, y, w, b, c_reg, epsilon):
    """Primal objective 0.5*||w||^2 + C * sum(max(0, |y - Xw - b| - eps))."""
    return 0.5 * (w @ w) + c_reg * tube_loss(y - (X @ w + b), epsilon)


def svr_kernel_objective(K, y, beta, b, c_reg, epsilon):
    """Kernelized objective 0.5*beta'Kbeta + C * sum(max(0, |y - Kbeta - b| - eps))."""
    k_beta = K @ beta
    return 0.5 * (beta @ k_beta) + c_reg * tube_loss(y - (k_beta + b), epsilon)


def loop_best_split(X, y, feat_idx, min_leaf):
    """One feature and one threshold at a time, strict improvement; tied
    values keep their row order (a stable sort)."""
    n = X.shape[0]
    best = (-1, 0.0, np.inf)
    for j in feat_idx:
        order = np.argsort(X[:, j], kind="stable")
        vs, ys = X[order, j], y[order]
        cs, cs2 = np.cumsum(ys), np.cumsum(ys * ys)
        for i in range(min_leaf, n - min_leaf + 1):
            if vs[i] <= vs[i - 1]:
                continue
            sl, sr = cs[i - 1], cs[n - 1] - cs[i - 1]
            sse = ((cs2[i - 1] - sl * sl / i)
                   + ((cs2[n - 1] - cs2[i - 1]) - sr * sr / (n - i)))
            if sse < best[2]:
                thr = 0.5 * (vs[i - 1] + vs[i])
                best = (j, vs[i - 1] if thr >= vs[i] else thr, sse)
    return best


def loop_knn(train_X, train_y, query_X, k):
    """Repeated nearest pick among the rows not yet taken."""
    out = []
    for q in query_X:
        d2 = []
        for row in train_X:
            acc = 0.0
            for a, b in zip(row, q):
                acc += (a - b) * (a - b)
            d2.append(acc)
        taken, total = set(), 0.0
        for _ in range(k):
            pick = min((i for i in range(len(d2)) if i not in taken), key=d2.__getitem__)
            taken.add(pick)
            total += train_y[pick]
        out.append(total / k)
    return out


def test_kernels_match_scalar_loops():
    rng = np.random.default_rng(99)
    for case in range(150):
        n, p = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        if case % 3 == 0:
            X = rng.integers(0, 3, size=(n, p)).astype(np.float64)
        elif case % 3 == 1:
            X = rng.choice([-0.0, 0.0, np.nextafter(1.0, 0.0), 1.0], size=(n, p))
        else:
            X = rng.normal(size=(n, p))
        y = rng.integers(0, 4, size=n).astype(np.float64) if case % 2 else rng.normal(size=n)
        feat_idx = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        min_leaf = int(rng.integers(1, 5))
        feat, thr, sse = loop_best_split(X, y, feat_idx, min_leaf)
        assert run_split(X, y, feat_idx, min_leaf) == [
            int(feat), float(thr).hex(), float(sse).hex()], case
        queries = np.vstack([X[: n // 2], rng.integers(0, 3, size=(3, p))])
        k = int(rng.integers(1, n + 1))
        assert hexify(knn_neighbor_means(X, y, queries, k)) == \
            hexify(loop_knn(X, y, queries, k)), case
