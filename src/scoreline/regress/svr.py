"""Epsilon-insensitive support vector regression.

Both kernels minimize 0.5*||w||^2 + C * sum(max(0, |y - f(x)| - epsilon))
on standardized features, with an unregularised bias, by one primal-dual
interior-point method on the dual (:func:`kernels.svr_train`). It stops
once the duality gap is at most ``tol * max(1, objective)``, or otherwise
after ``max_iter`` Newton steps or once rounding noise stalls it, with a
NotConvergedWarning.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import (ModelBase, RegressError, TooFewRows, as_xy, checked, standardize_apply,
                   standardize_fit)
from .kernels import rbf_kernel, svr_train


class NotConvergedWarning(RuntimeWarning):
    """Solver stopped before its duality gap test held: at max_iterations,
    or once rounding noise stalled it."""


class SvrModel(ModelBase):
    technique = "svr"

    def _predict(self, X: np.ndarray) -> np.ndarray:
        Xs = standardize_apply((self.scaler_mean, self.scaler_std), X)
        if self.kernel == "linear":
            return Xs @ self.w + self.b
        K = rbf_kernel(Xs, self.train_X, self.gamma)
        return K @ self.beta + self.b


def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1, kernel: str = "linear",
            tol: float = 1e-6, max_iter: int = 50_000, gamma="scale",
            feature_names=None) -> SvrModel:
    """Fit SVR on standardized features.

    Minimizes 0.5*||w||^2 + C * sum of epsilon-insensitive residual losses
    by the interior-point method, until the duality gap is at most
    `tol` * max(1, objective). Its Newton systems are p x p in the features
    for a linear design with fewer columns than rows, and n x n in the Gram
    matrix (XX' or the RBF kernel) otherwise. A fit that stops at
    `max_iter` Newton steps first is recorded as a non-converged status
    and warned about, never raised. A singular Newton system, or a best
    objective or gap that is not finite (a C too large for the solver),
    raises RegressError.
    """
    X, y = as_xy(X, y)
    if X.shape[0] < 2:
        raise TooFewRows(f"SVR needs at least 2 rows, got {X.shape[0]}")
    C, epsilon, kernel, tol, max_iter, gamma = checked(
        C=C, epsilon=epsilon, kernel=kernel, tol=tol, max_iter=max_iter, gamma=gamma).values()

    mean, std = standardize_fit(X, feature_names)
    Xs = np.ascontiguousarray(standardize_apply((mean, std), X))
    yc = np.ascontiguousarray(y)

    params = {"C": C, "epsilon": epsilon, "kernel": kernel, "tol": tol,
              "max_iterations": max_iter}
    K = None  # a linear design with p < n: the Newton systems stay p x p
    if kernel == "rbf":
        params["gamma"] = (gamma if gamma != "scale"  # the common 1 / (p * var) heuristic
                           else 1.0 / (Xs.shape[1] * (float(Xs.var()) or 1.0)))
        K = rbf_kernel(Xs, Xs, params["gamma"])
    elif Xs.shape[1] >= Xs.shape[0]:
        K = Xs @ Xs.T
    try:  # an overflow or a 0/0 shows in the objective and gap checked below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coef, b, obj, iters, converged, gap = svr_train(Xs, yc, C, epsilon, max_iter, tol, K=K)
    except np.linalg.LinAlgError as exc:
        raise RegressError(f"the {kernel} SVR at C={C:g} cannot be solved: {exc}") from exc
    if not (np.isfinite(obj) and np.isfinite(gap)):
        raise RegressError(f"the {kernel} SVR at C={C:g} cannot be solved: "
                           f"objective {obj:g}, duality gap {gap:g}")
    if kernel == "rbf":
        solved = dict(beta=coef, train_X=Xs, gamma=params["gamma"])
    else:
        solved = dict(w=coef if K is None else Xs.T @ coef)
    status = {"converged": converged, "iterations": int(iters),
              "objective": float(obj), "gap": gap}
    if not converged:
        warnings.warn(f"SVR stopped after {iters} of max_iterations={max_iter} steps "
                      f"with duality gap {gap:.6g} above tol={tol:g}",
                      NotConvergedWarning, stacklevel=2)
    return SvrModel(X.shape[1], feature_names, kernel=kernel, params=params, status=status,
                    b=float(b), scaler_mean=mean, scaler_std=std, **solved)
