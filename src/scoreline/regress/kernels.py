"""Hot numeric kernels behind the regression engines.

Every kernel is whole-array NumPy. Where a result depends on the order of
a floating-point sum, the kernels add left to right (``np.cumsum``), never
pairwise (``np.sum``), so each result equals that of a plain scalar loop
bit for bit. The tests pin the outputs as hex goldens and compare them
with scalar-loop references. The two SVR solvers, loops of whole-array
steps, are checked against independent solves: SMO (kernel SVR) against
scipy's SLSQP on the dual, and the interior-point method (linear SVR)
against SMO on the linear Gram matrix.
"""

from __future__ import annotations

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


COMPLEMENTARITY_FLOOR = 1e-13  # below it the duality gap is rounding noise
FEASIBILITY_TOL = 1e-9  # |s'a| at most this for a dual value to bound the optimum
STEP_FRACTION = 0.99  # of the longest step that keeps every variable positive


def tube_bias(r: np.ndarray, epsilon: float) -> float:
    """The b minimizing sum(max(0, |r - b| - eps)): the midpoint of the two
    middle values of the sorted ``r - eps`` and ``r + eps``."""
    n = r.shape[0]
    points = np.sort(np.concatenate((r - epsilon, r + epsilon)))
    return 0.5 * (points[n - 1] + points[n])


def _longest_step(v, dv) -> float:
    """The largest step in (0, 1] that keeps ``v + step * dv`` non-negative."""
    shrink = dv < 0.0
    return min(1.0, float(np.min(-v[shrink] / dv[shrink]))) if shrink.any() else 1.0


def svr_linear_train(X, y, c_reg, epsilon, max_iter, tol):
    """Mehrotra's predictor-corrector interior-point method on the epsilon-SVR dual.

    The dual is the one :func:`svr_kernel_train` solves, with ``Q = ZZ'``
    for ``Z = [X; -X]``: minimize ``0.5 a'Qa + q'a`` subject to ``s'a = 0``
    and ``0 <= a <= C``. The upper slacks ``t = C - a`` are variables of
    their own, so they keep their precision near C. Each Newton system
    ``(Q + D) da = g`` is solved by Sherman-Morrison-Woodbury through one
    p x p system ``I + X' diag(1/D_alpha + 1/D_alpha*) X``, at O(n p^2) a
    step, and the equality is eliminated by a scalar Schur complement. The
    start, ``a = t = C/2`` with multipliers ``z - u = q``, is feasible
    (Ferris & Munson, SIAM J. Optim. 13(3), 2002; Mehrotra, SIAM J. Optim.
    2(4), 1992).

    Each iterate gives ``w = Z'a`` and the bias that minimizes the tube
    loss for that w (:func:`tube_bias`). The best primal objective P and
    the best dual value ``-(0.5 a'Qa + q'a)`` seen bound the optimum from
    both sides. Stops when the gap between them is at most
    ``tol * max(1, P)``, when the mean complementarity falls below
    ``COMPLEMENTARITY_FLOOR``, or after ``max_iter`` Newton steps. Returns
    ``(w, b, objective, iterations, converged, gap)`` of the best primal
    iterate, with the objective of :func:`svr_objective`; converged means
    the gap test held.
    """
    n, p = X.shape
    s = np.concatenate((np.ones(n), -np.ones(n)))
    q = np.concatenate((epsilon - y, epsilon + y))
    a = np.full(2 * n, 0.5 * c_reg)
    t = a.copy()
    # multipliers of a >= 0 and t >= 0: a = C/2 gives w = Z'a = 0, so Qa = 0
    # and z - u = q zeroes the dual residual Qa + q + rho s - z + u
    z = 1.0 + np.fmax(q, 0.0)
    u = 1.0 + np.fmax(-q, 0.0)
    rho = 0.0  # multiplier of s'a = 0
    best_obj, best_w, best_b = np.inf, None, 0.0
    dual = -np.inf
    it = 0
    while True:
        w = X.T @ (a[:n] - a[n:])
        xw = X @ w
        b = tube_bias(y - xw, epsilon)
        obj = svr_objective(X, y, w, b, c_reg, epsilon)
        if best_w is None or obj < best_obj:
            best_obj, best_w, best_b = obj, w, b
        if abs(s @ a) < FEASIBILITY_TOL:
            dual = max(dual, -(0.5 * (w @ w) + q @ a))
        gap = best_obj - dual
        converged = gap <= tol * max(1.0, best_obj)
        mu = (a @ z + t @ u) / (4 * n)
        if converged or not mu >= COMPLEMENTARITY_FLOOR or it == max_iter:  # NaN stops
            break

        r_dual = np.concatenate((xw, -xw)) + q + rho * s - z + u
        r_eq = s @ a
        r_box = a + t - c_reg
        D = z / a + u / t
        S = np.eye(p) + X.T @ ((1.0 / D[:n] + 1.0 / D[n:])[:, None] * X)

        def solve(V):
            """(Q + D)^-1 V, column by column, by Woodbury. S grows
            ill-conditioned near the optimum; an explicit inverse of it
            loses the digits the gap test needs, a solve keeps them."""
            E = V / D[:, None]
            k = X @ np.linalg.solve(S, X.T @ (E[:n] - E[n:]))
            return E - np.concatenate((k, -k)) / D[:, None]

        def newton(h, h_s, r_az, r_tu):
            """(da, dt, dz, du, drho) from h = (Q + D)^-1 g and h_s = (Q + D)^-1 s."""
            drho = (s @ h + r_eq) / (s @ h_s)
            da = h - drho * h_s
            dt = -r_box - da
            return da, dt, (r_az - z * da) / a, (r_tu - u * dt) / t, drho

        def rhs(r_az, r_tu):
            """The reduced right-hand side g when a*z is to change by r_az
            and t*u by r_tu, to first order."""
            return -r_dual + r_az / a - (r_tu + u * r_box) / t

        r_az, r_tu = -a * z, -t * u  # predictor: the affine-scaling step
        h_s, h = solve(np.column_stack((s, rhs(r_az, r_tu)))).T
        da, dt, dz, du, _ = newton(h, h_s, r_az, r_tu)
        step = min(map(_longest_step, (a, t, z, u), (da, dt, dz, du)))
        mu_aff = ((a + step * da) @ (z + step * dz) + (t + step * dt) @ (u + step * du)) / (4 * n)
        centre = (mu_aff / mu) ** 3 * mu
        r_az = centre - a * z - da * dz  # corrector: centring plus second order
        r_tu = centre - t * u - dt * du
        h = solve(rhs(r_az, r_tu)[:, None])[:, 0]
        da, dt, dz, du, drho = newton(h, h_s, r_az, r_tu)
        step = min(1.0, STEP_FRACTION * min(map(_longest_step, (a, t, z, u), (da, dt, dz, du))))
        a = a + step * da
        t = t + step * dt
        z = z + step * dz
        u = u + step * du
        rho += step * drho
        it += 1
    return best_w, best_b, best_obj, it, bool(converged), float(gap)


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
