"""Hot numeric kernels behind the regression engines.

Every kernel is whole-array NumPy. Where a result depends on the order of
a floating-point sum, the kernels add left to right (``np.cumsum``), never
pairwise (``np.sum``), so each result equals that of a plain scalar loop
bit for bit. The tests pin the outputs as hex goldens and compare them
with scalar-loop references; the kernel SVR's SMO solver, a loop of
whole-array steps, is checked against scipy's SLSQP on the same dual.
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


def svr_linear_train(X, y, c_reg, epsilon, lr, max_iter, tol, check_every):
    """Full-batch subgradient descent on the linear epsilon-tube objective.

    Steps follow lr/sqrt(t) on the 1/n-scaled objective (same minimizer,
    row-count-independent step scale) and the best iterate seen is kept.
    ``X @ w`` is evaluated once per iterate and serves that iterate's
    objective and the next step's residual. Stops early once the best
    objective improves by less than ``tol`` across a
    ``check_every``-iteration window. Returns
    ``(w, b, best_objective, iterations, converged)``.
    """
    n = y.shape[0]
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = left_sum(y) / n
    fit = X @ w
    r = y - (fit + b)
    best_w = w.copy()
    best_b = b
    best_obj = 0.5 * (w @ w) + c_reg * tube_loss(r, epsilon)
    window_best = best_obj
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        s = np.subtract(r > epsilon, r < -epsilon, dtype=np.float64)
        gw = (w - c_reg * (X.T @ s)) / n
        gb = -c_reg * np.sum(s) / n
        step = lr / math.sqrt(it)
        w = w - step * gw
        b = b - step * gb
        fit = X @ w
        r = y - (fit + b)
        obj = 0.5 * (w @ w) + c_reg * tube_loss(r, epsilon)
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
            best_b = b
        if it % check_every == 0:
            if window_best - best_obj < tol:
                converged = True
                break
            window_best = best_obj
    return best_w, best_b, best_obj, it, converged


TAU = 1e-12  # libsvm's floor for a non-positive pair curvature


def svr_kernel_train(K, y, c_reg, epsilon, max_iter, tol):
    """SMO on the epsilon-SVR dual, with libsvm's pair selection and bias.

    The dual has 2n variables ``a = (alpha, alpha*)`` with signs
    ``s = (+1, ..., -1, ...)``: minimize ``0.5 a'Qa + p'a`` subject to
    ``s'a = 0`` and ``0 <= a <= C``, where ``p = (eps - y, eps + y)`` and
    ``Q[t, u] = s_t s_u K[t mod n, u mod n]``. The equality constraint
    keeps the bias unregularised. Each step picks the pair (i, j) by the
    second-order working-set selection of Fan, Chen and Lin (JMLR 2005),
    ties going to the lowest index, and solves the pair exactly. Rows of
    ``Q`` are rows of ``K`` with signs applied, so nothing larger than
    ``K`` is stored.

    Stops when the KKT gap ``m(a) - M(a)`` is at most ``tol``, or after
    ``max_iter`` steps. The bias is libsvm's: minus the mean of
    ``s_t G_t`` over the free variables, or minus the midpoint of the
    feasible interval when none is free. Returns ``(beta, b, objective,
    iterations, converged, gap)`` with ``beta = alpha - alpha*`` and the
    primal objective of :func:`svr_kernel_objective`.
    """
    n = y.shape[0]
    s = np.concatenate((np.ones(n), -np.ones(n)))
    alpha = np.zeros(2 * n)
    grad = np.concatenate((epsilon - y, epsilon + y))  # G = Qa + p
    diag = np.tile(np.diag(K), 2)
    it = 0
    while True:
        at_upper, at_lower = alpha >= c_reg, alpha <= 0.0
        up = np.where(s > 0, ~at_upper, ~at_lower)
        low = np.where(s > 0, ~at_lower, ~at_upper)
        v = -s * grad
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        gap = v_up[i] - np.min(np.where(low, v, np.inf))
        if gap <= tol or it == max_iter:
            break
        k_i = np.tile(K[i % n], 2)
        descent = v_up[i] - v
        curvature = diag[i] + diag - 2.0 * k_i
        curvature[curvature <= 0.0] = TAU
        score = np.where(low & (descent > 0.0), -(descent * descent) / curvature, np.inf)
        j = int(np.argmin(score))

        quad = curvature[j]
        a_i, a_j = alpha[i], alpha[j]
        if s[i] != s[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = a_i - a_j
            a_i += delta
            a_j += delta
            if diff > 0.0:
                if a_j < 0.0:
                    a_j, a_i = 0.0, diff
                if a_i > c_reg:
                    a_i, a_j = c_reg, c_reg - diff
            else:
                if a_i < 0.0:
                    a_i, a_j = 0.0, -diff
                if a_j > c_reg:
                    a_j, a_i = c_reg, c_reg + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            total = a_i + a_j
            a_i -= delta
            a_j += delta
            if total > c_reg:
                if a_i > c_reg:
                    a_i, a_j = c_reg, total - c_reg
                if a_j > c_reg:
                    a_j, a_i = c_reg, total - c_reg
            else:
                if a_j < 0.0:
                    a_j, a_i = 0.0, total
                if a_i < 0.0:
                    a_i, a_j = 0.0, total
        # G_u += Q[u, i] da_i + Q[u, j] da_j, with Q's signs factored out
        change = (s[i] * (a_i - alpha[i])) * K[i % n] + (s[j] * (a_j - alpha[j])) * K[j % n]
        grad[:n] += change
        grad[n:] -= change
        alpha[i], alpha[j] = a_i, a_j
        it += 1

    sg = s * grad
    free = ~(at_upper | at_lower)
    if free.any():
        rho = left_sum(sg[free]) / np.count_nonzero(free)
    else:
        upper = (at_upper & (s < 0)) | (at_lower & (s > 0))
        rho = 0.5 * (np.min(sg[upper]) + np.max(sg[~upper]))
    beta = alpha[:n] - alpha[n:]
    b = -float(rho)
    obj = svr_kernel_objective(K, y, beta, b, c_reg, epsilon)
    return beta, b, obj, it, bool(gap <= tol), float(gap)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared euclidean distance), computed row-vs-row."""
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)
