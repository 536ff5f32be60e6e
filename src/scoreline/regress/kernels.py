"""Hot numeric kernels behind the regression engines.

Every kernel is whole-array NumPy. Where a result depends on the order of
a floating-point sum, the kernels add left to right (``np.cumsum``), never
pairwise (``np.sum``), so each result equals that of a plain scalar loop
bit for bit. The tests pin the outputs as hex goldens and compare them
with scalar-loop references.
"""

from __future__ import annotations

import math

import numpy as np


def left_sum(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis, left to right, starting from 0.0.

    Bit-identical to ``acc = 0.0; for v in a: acc += v``; the trailing
    ``+ 0.0`` turns an all-negative-zero sum into 0.0, as the loop does.
    """
    return np.cumsum(a, axis=-1)[..., -1] + 0.0


def tube_loss(r: np.ndarray, epsilon: float) -> float:
    """Epsilon-insensitive loss sum(max(0, |r| - eps)), summed left to right.

    ``np.fmax`` maps a NaN excess to 0.0, so NaN residuals drop out of the
    sum as they do from a loop that adds only positive excesses.
    """
    return left_sum(np.fmax(np.abs(r) - epsilon, 0.0))


def best_split(X, y, feat_idx, min_leaf):
    """Exhaustive CART split search for one node.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature in ``feat_idx``. Returns
    ``(feature, threshold, children_sse)`` minimizing the summed child SSE,
    or feature ``-1`` when no split keeps both children at ``min_leaf``
    (at least 1) rows. Ties resolve to the earliest feature in ``feat_idx``
    and then the lowest threshold: the first minimum of the feature-major
    SSE matrix.
    """
    n = X.shape[0]
    lo, hi = min_leaf, n - min_leaf + 1  # split before sorted row i, lo <= i < hi
    if hi <= lo:
        return -1, 0.0, np.inf
    cols = X[:, feat_idx]
    order = np.argsort(cols, axis=0)
    vs = np.take_along_axis(cols, order, axis=0)
    ys = y[order]
    cs = np.cumsum(ys, axis=0)
    cs2 = np.cumsum(ys * ys, axis=0)
    i = np.arange(lo, hi, dtype=np.float64)[:, None]
    sl = cs[lo - 1:hi - 1]
    sq = cs2[lo - 1:hi - 1]
    sr = cs[n - 1] - sl
    sse = (sq - sl * sl / i) + ((cs2[n - 1] - sq) - sr * sr / (n - i))
    below, above = vs[lo - 1:hi - 1], vs[lo:hi]
    sse[above <= below] = np.inf
    flat = int(np.argmin(sse.T))
    fi, row = divmod(flat, hi - lo)
    best_sse = sse[row, fi]
    if not best_sse < np.inf:
        return -1, 0.0, np.inf
    left, right = below[row, fi], above[row, fi]
    thr = 0.5 * (left + right)
    # adjacent floats can round the midpoint up to the right value; keep
    # "value <= threshold goes left" consistent with the split scored here
    if thr >= right:
        thr = left
    return feat_idx[fi], thr, best_sse


def knn_neighbor_means(train_X, train_y, query_X, k):
    """Mean target of the k nearest training rows per query row.

    Euclidean distance on the given (already standardized) features,
    accumulated one column at a time. Distance ties prefer the lower
    training-row index (a stable sort), and the k targets are summed in
    pick order.
    """
    d2 = np.zeros((query_X.shape[0], train_X.shape[0]), dtype=np.float64)
    for j in range(train_X.shape[1]):
        diff = train_X[:, j][None, :] - query_X[:, j][:, None]
        d2 += diff * diff
    picks = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return left_sum(train_y[picks]) / k


def svr_objective(X, y, w, b, c_reg, epsilon):
    """Primal objective 0.5*||w||^2 + C * sum(max(0, |y - Xw - b| - eps))."""
    return 0.5 * (w @ w) + c_reg * tube_loss(y - (X @ w + b), epsilon)


def svr_kernel_objective(K, y, beta, b, c_reg, epsilon):
    """Kernelized objective 0.5*beta'Kbeta + C * sum(max(0, |y - Kbeta - b| - eps))."""
    k_beta = K @ beta
    return 0.5 * (beta @ k_beta) + c_reg * tube_loss(y - (k_beta + b), epsilon)


def _subgradient_descent(y, coef, b, c_reg, epsilon, lr, max_iter, tol,
                         check_every, predict, gradient, penalty):
    """The loop shared by both SVR trainers.

    ``predict(coef)`` returns the model part of the fit without the bias
    (``X @ w`` or ``K @ beta``); it is evaluated once per iterate and serves
    that iterate's objective and the next step's residual.
    ``gradient(coef, s)`` is the n-scaled subgradient of the coefficients
    for residual signs ``s``, and ``penalty(coef, fit)`` the regularizer.
    """
    n = y.shape[0]
    fit = predict(coef)
    r = y - (fit + b)
    best_coef = coef.copy()
    best_b = b
    best_obj = 0.5 * penalty(coef, fit) + c_reg * tube_loss(r, epsilon)
    window_best = best_obj
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        s = np.subtract(r > epsilon, r < -epsilon, dtype=np.float64)
        gcoef = gradient(coef, s) / n
        gb = -c_reg * np.sum(s) / n
        step = lr / math.sqrt(it)
        coef = coef - step * gcoef
        b = b - step * gb
        fit = predict(coef)
        r = y - (fit + b)
        obj = 0.5 * penalty(coef, fit) + c_reg * tube_loss(r, epsilon)
        if obj < best_obj:
            best_obj = obj
            best_coef = coef.copy()
            best_b = b
        if it % check_every == 0:
            if window_best - best_obj < tol:
                converged = True
                break
            window_best = best_obj
    return best_coef, best_b, best_obj, it, converged


def svr_linear_train(X, y, c_reg, epsilon, lr, max_iter, tol, check_every):
    """Full-batch subgradient descent on the linear epsilon-tube objective.

    Steps follow lr/sqrt(t) on the 1/n-scaled objective (same minimizer,
    row-count-independent step scale) and the best iterate seen is kept.
    Stops early once the best objective improves by less than ``tol``
    across a ``check_every``-iteration window. Returns
    ``(w, b, best_objective, iterations, converged)``.
    """
    return _subgradient_descent(
        y, np.zeros(X.shape[1], dtype=np.float64), left_sum(y) / y.shape[0],
        c_reg, epsilon, lr, max_iter, tol, check_every,
        predict=lambda w: X @ w,
        gradient=lambda w, s: w - c_reg * (X.T @ s),
        penalty=lambda w, _fit: w @ w)


def svr_kernel_train(K, y, c_reg, epsilon, lr, max_iter, tol, check_every):
    """Subgradient descent on the kernel-expansion coefficients.

    Same schedule and stopping rule as :func:`svr_linear_train`; ``K`` is
    the precomputed train-by-train kernel matrix, so each iteration does
    two n-by-n mat-vecs. Returns ``(beta, b, best_objective, iterations,
    converged)``.
    """
    return _subgradient_descent(
        y, np.zeros(K.shape[0], dtype=np.float64), left_sum(y) / y.shape[0],
        c_reg, epsilon, lr, max_iter, tol, check_every,
        predict=lambda beta: K @ beta,
        gradient=lambda beta, s: K @ (beta - c_reg * s),
        penalty=lambda beta, k_beta: beta @ k_beta)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared euclidean distance), computed row-vs-row."""
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)
