"""Hot numeric kernels behind the regression engines.

Every kernel is whole-array NumPy. Where a result depends on the order of
a floating-point sum, the kernels add left to right (``np.cumsum``), never
pairwise (``np.sum``), so each result equals that of a plain scalar loop
bit for bit. Where the order of equal values matters, it is the input
order: ``best_split`` keeps tied values in the node's row order, as a
stable sort does, and ``knn_neighbor_means`` prefers the lower training
row at equal distance. The tests pin the outputs as hex goldens and
compare them with scalar-loop references. The SVR solver, a loop of
whole-array Newton steps, is checked against an independent solve of the
same dual by scipy's SLSQP, on the linear Gram matrix and on an RBF
kernel, and its two spaces (design and Gram matrix) against each other.
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


SPLIT_CELLS = 1 << 13  # padded node rows x features scored per block


def dense_ranks(X):
    """Each column's dense rank over the rows of X (at least one), as a
    ``(p, n + 1)`` int32 array.

    Equal values (``-0.0`` and ``0.0`` too) share a rank, and a larger value
    has a larger rank, so sorting a node's rows by rank orders them as their
    values do. Column ``n`` is a sentinel row ranked above every value:
    :func:`best_split` pads nodes with it.
    """
    n, p = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    vs = np.take_along_axis(X, order, axis=0)
    ranks = np.empty((p, n + 1), dtype=np.int32 if n < np.iinfo(np.int32).max else np.int64)
    ranks[:, n] = n
    ranks[np.arange(p)[:, None], order.T] = np.cumsum(
        np.vstack((np.zeros((1, p), bool), vs[1:] != vs[:-1])), axis=0).T
    return ranks


def best_split(X, y, feat_idx, min_leaf, rows, starts, sizes, ranks):
    """Exhaustive CART split search for a batch of nodes.

    Node k holds the rows ``rows[starts[k]:starts[k] + sizes[k]]`` of X and
    y (repeats allowed): segments of one row array, in any order, with any
    rows between them. It scans the features ``feat_idx[k]``, a row of the
    ``(nodes, m)`` array ``feat_idx``; ``ranks`` is :func:`dense_ranks` of
    X. A single node is a batch of one.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each scanned feature. For each node, the result holds the
    feature, threshold and summed child SSE of the split minimizing that
    SSE, or feature ``-1`` (threshold 0, SSE inf) when no split keeps both
    children at ``min_leaf`` (at least 1) rows. Ties resolve to the
    earliest feature in ``feat_idx[k]`` and then the lowest threshold: the
    first minimum of the feature-major SSE matrix. Returns three arrays,
    one entry per node.

    Equal values keep the node's row order (a stable sort by rank), and
    the cumulative sums add each node's targets in that order. Nodes are
    scored in blocks of one power-of-two width, each gathered from its
    segments at once and padded at the tail with the sentinel row (top
    rank, target 0): a padded node sorts as it would alone, so every sum it
    gets is the one it would get alone. A block holds at most
    ``SPLIT_CELLS`` cells, or one node.
    """
    n_nodes, m = feat_idx.shape
    sses = np.full(n_nodes, np.inf)
    feats = np.full(n_nodes, -1, dtype=np.int64)
    pair = np.zeros((n_nodes, 2), dtype=np.intp)  # the rows either side of the split
    scored = np.flatnonzero(sizes >= 2 * min_leaf)  # else no split keeps min_leaf rows a side
    widths = 2 ** np.frexp(sizes[scored] - 1)[1].astype(np.int64)  # least power of 2 >= size
    rows = np.append(rows, ranks.shape[1] - 1)  # the sentinel row, at index -1
    y_pad = np.append(y, 0.0)
    for width in np.unique(widths).tolist():
        ks = scored[widths == width]
        per = max(1, SPLIT_CELLS // (width * m))
        lane = np.arange(width)
        for start in range(0, ks.shape[0], per):
            block = ks[start:start + per]
            at = np.where(lane < sizes[block, None], starts[block, None] + lane, -1)
            sses[block], feats[block], pair[block] = _score_block(
                y_pad, ranks, rows[at], sizes[block], feat_idx[block], min_leaf)
    found = sses < np.inf
    feats[~found] = -1
    thrs = np.zeros(n_nodes)
    below, above = X[pair[found], feats[found, None]].T
    mid = 0.5 * (below + above)
    # adjacent floats can round the midpoint up to the value above; keep
    # "value <= threshold goes left" consistent with the split scored here
    thrs[found] = np.where(mid >= above, below, mid)
    return feats, thrs, sses


def _score_block(y_pad, ranks, idx, sizes, feat_idx, lo):
    """The least SSE of each node padded to one width, with its feature
    and the rows either side of it: ``idx`` holds each node's rows, then
    the sentinel row.

    A cell's sort key is its rank shifted above its position in ``idx``
    (node-major), so the keys are distinct, any sort puts a lane in the
    order a stable sort by rank gives, and the low bits address the row.
    """
    n_nodes, width = idx.shape
    hi = int(sizes.max()) - lo + 1  # split before sorted row i, lo <= i < hi
    bits = (idx.size - 1).bit_length()
    low = (1 << bits) - 1
    key_type = np.int32 if ranks.shape[1] << bits <= np.iinfo(np.int32).max else np.int64
    keys = ranks.take(feat_idx[:, :, None] * ranks.shape[1] + idx[:, None, :]).astype(
        key_type, copy=False)
    keys <<= bits
    keys |= np.arange(idx.size, dtype=key_type).reshape(n_nodes, 1, width)
    keys.sort(axis=-1)
    ys = y_pad[idx].take(keys & low)
    cs = ys.cumsum(axis=-1)
    ys *= ys
    cs2 = ys.cumsum(axis=-1, out=ys)
    i = np.arange(lo, hi, dtype=np.float64)
    nodes, last = np.arange(n_nodes), sizes - 1
    sl, sq = cs[..., lo - 1:hi - 1], cs2[..., lo - 1:hi - 1]
    # sse = (sq - sl * sl / i) + ((total2 - sq) - sr * sr / (n - i))
    sse = sl * sl
    sse /= i
    np.subtract(sq, sse, out=sse)
    sr = cs[nodes, :, last][:, :, None] - sl
    sr *= sr
    # past a node's own hi the right side is empty or padding: those cells
    # are masked below, and the floor keeps their division finite
    sr /= np.maximum(sizes[:, None, None] - i, 1.0)
    right = cs2[nodes, :, last][:, :, None] - sq
    right -= sr
    sse += right
    invalid = (keys[..., lo:hi] ^ keys[..., lo - 1:hi - 1]) <= low  # equal ranks
    invalid |= i >= (sizes - lo + 1)[:, None, None]
    np.putmask(sse, invalid, np.inf)
    flat = sse.reshape(n_nodes, -1).argmin(axis=1)
    fi, at = np.divmod(flat, hi - lo)
    at += lo
    lanes = keys[nodes, fi]
    pair = idx.reshape(-1)[np.stack((lanes[nodes, at - 1], lanes[nodes, at]), axis=1) & low]
    return sse.reshape(n_nodes, -1)[nodes, flat], feat_idx[nodes, fi], pair


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


def svr_train(X, y, c_reg, epsilon, max_iter, tol, K=None):
    """Mehrotra's predictor-corrector interior-point method on the epsilon-SVR dual.

    The dual has 2n variables ``a = (alpha, alpha*)`` with signs
    ``s = (+1, ..., -1, ...)``: minimize ``0.5 a'Qa + q'a`` subject to
    ``s'a = 0`` and ``0 <= a <= C``, where ``q = (eps - y, eps + y)`` and
    ``Q = [K, -K; -K, K]`` for the Gram matrix ``K`` of the rows. The
    equality keeps the bias unregularised. The upper slacks ``t = C - a``
    are variables of their own, so they keep their precision near C. The
    start, ``a = t = C/2`` with multipliers ``z - u = q``, is feasible
    (Ferris & Munson, SIAM J. Optim. 13(3), 2002; Mehrotra, SIAM J. Optim.
    2(4), 1992).

    Each Newton system ``(Q + D) da = g`` is solved by Sherman-Morrison-
    Woodbury in the coefficients ``beta = alpha - alpha*``, with
    ``m = 1/D_alpha + 1/D_alpha*``, and the equality is eliminated by a
    scalar Schur complement. Without ``K`` the rows are the design X
    (``K = XX'``) and each system is the p x p ``I + X' diag(m) X``, at
    O(n p^2) a step: the smaller space when p < n. With ``K`` (any n x n
    positive semi-definite Gram matrix; X is then unused) each system is
    the n x n ``I + diag(m) K``, at O(n^3) a step. The two are the same by
    the push-through identity ``X (I + X'MX)^-1 X' = K (I + MK)^-1``.

    Each iterate is scored once from its fit (``Xw`` with ``w = X'beta``
    without ``K``, ``K beta`` with it): the bias that minimizes the tube
    loss for it (:func:`tube_bias`) and its primal objective P, bit for bit
    the reference objectives ``svr_objective`` and ``svr_kernel_objective``
    in ``tests/test_kernels.py``. The best P and the best dual value ``-(0.5 a'Qa + q'a)``
    seen bound the optimum from both sides. Stops when the gap between
    them is finite and at most ``tol * max(1, P)``, when the mean
    complementarity falls below ``COMPLEMENTARITY_FLOOR``, or after
    ``max_iter`` Newton steps. Returns ``(coef, b, objective, iterations,
    converged, gap)`` of the best primal iterate, where coef is w without
    ``K`` and beta with it; converged means the gap test held.
    """
    n = y.shape[0]
    s = np.concatenate((np.ones(n), -np.ones(n)))
    q = np.concatenate((epsilon - y, epsilon + y))
    a = np.full(2 * n, 0.5 * c_reg)
    t = a.copy()
    # multipliers of a >= 0 and t >= 0: a = C/2 gives beta = 0, so Qa = 0
    # and z - u = q zeroes the dual residual Qa + q + rho s - z + u
    z = 1.0 + np.fmax(q, 0.0)
    u = 1.0 + np.fmax(-q, 0.0)
    rho = 0.0  # multiplier of s'a = 0
    best_obj, best_coef, best_b = np.inf, None, 0.0
    dual = -np.inf
    it = 0
    while True:
        beta = a[:n] - a[n:]
        if K is None:
            coef = X.T @ beta  # w
            fit = X @ coef
            norm2 = coef @ coef
        else:
            coef, fit = beta, K @ beta
            norm2 = beta @ fit
        b = tube_bias(y - fit, epsilon)
        obj = 0.5 * norm2 + c_reg * tube_loss(y - (fit + b), epsilon)
        if best_coef is None or obj < best_obj:
            best_obj, best_coef, best_b = obj, coef, b
        if abs(s @ a) < FEASIBILITY_TOL:
            dual = max(dual, -(0.5 * norm2 + q @ a))  # 0.5 a'Qa = 0.5 beta'K beta
        gap = best_obj - dual
        converged = np.isfinite(gap) and gap <= tol * max(1.0, best_obj)
        mu = (a @ z + t @ u) / (4 * n)
        if converged or not mu >= COMPLEMENTARITY_FLOOR or it == max_iter:  # NaN stops
            break

        r_dual = np.concatenate((fit, -fit)) + q + rho * s - z + u
        r_eq = s @ a
        r_box = a + t - c_reg
        D = z / a + u / t
        m = 1.0 / D[:n] + 1.0 / D[n:]
        if K is None:
            S = np.eye(X.shape[1]) + X.T @ (m[:, None] * X)
        else:
            S = np.eye(n) + m[:, None] * K

        def solve(V):
            """(Q + D)^-1 V, column by column, by Woodbury. S grows
            ill-conditioned near the optimum; an explicit inverse of it
            loses the digits the gap test needs, a solve keeps them."""
            E = V / D[:, None]
            r = E[:n] - E[n:]
            k = X @ np.linalg.solve(S, X.T @ r) if K is None else K @ np.linalg.solve(S, r)
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
    return best_coef, best_b, best_obj, it, bool(converged), float(gap)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared euclidean distance), computed row-vs-row."""
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    with np.errstate(over="ignore"):  # a huge gamma overflows to -inf, and exp(-inf) = 0
        return np.exp(-gamma * d2)
