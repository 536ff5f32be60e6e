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

from .base import (BadParameter, ModelBase, RegressError, TooFewRows, as_xy,
                   standardize_apply, standardize_fit)
from .kernels import rbf_kernel, svr_train


class NotConvergedWarning(RuntimeWarning):
    """Solver stopped before its duality gap test held: at max_iterations,
    or once rounding noise stalled it."""


class SvrModel(ModelBase):
    technique = "svr"

    def __init__(self, kernel: str, scaler: tuple, params: dict, status: dict,
                 n_features: int, feature_names=None, *,
                 w=None, b=0.0, beta=None, train_X=None, gamma=None):
        super().__init__(n_features, feature_names)
        self.kernel = kernel
        self.scaler_mean, self.scaler_std = scaler
        self.params = dict(params)
        self.status = dict(status)
        self.w, self.b, self.beta, self.train_X, self.gamma = w, float(b), beta, train_X, gamma

    def _predict(self, X: np.ndarray) -> np.ndarray:
        Xs = standardize_apply((self.scaler_mean, self.scaler_std), X)
        if self.kernel == "linear":
            return Xs @ self.w + self.b
        K = rbf_kernel(Xs, self.train_X, self.gamma)
        return K @ self.beta + self.b


def resolve_gamma(gamma, Xs: np.ndarray) -> float:
    """RBF width; "scale" mirrors the common 1 / (p * var) heuristic."""
    if gamma == "scale":
        var = float(Xs.var())
        if var <= 0.0:
            var = 1.0
        return 1.0 / (Xs.shape[1] * var)
    g = float(gamma)
    if not (np.isfinite(g) and g > 0.0):
        raise BadParameter(f"gamma must be a finite positive number, got {g}")
    return g


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
    if not (np.isfinite(C) and C > 0.0):
        raise BadParameter(f"C must be a finite positive number, got {C}")
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise BadParameter(f"epsilon must be a finite non-negative number, got {epsilon}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise BadParameter(f"tol must be a finite non-negative number, got {tol}")
    if kernel not in ("linear", "rbf"):
        raise BadParameter(f"unknown kernel {kernel!r}")
    if max_iter < 1:
        raise BadParameter(f"max_iterations must be at least 1, got {max_iter}")

    scaler = standardize_fit(X, feature_names)
    Xs = np.ascontiguousarray(standardize_apply(scaler, X))
    yc = np.ascontiguousarray(y)

    params = {
        "C": float(C), "epsilon": float(epsilon), "kernel": kernel,
        "tol": float(tol), "max_iterations": int(max_iter),
    }
    K = None  # a linear design with p < n: the Newton systems stay p x p
    if kernel == "rbf":
        params["gamma"] = resolve_gamma(gamma, Xs)
        K = rbf_kernel(Xs, Xs, params["gamma"])
    elif Xs.shape[1] >= Xs.shape[0]:
        K = Xs @ Xs.T
    try:  # an overflow or a 0/0 shows in the objective and gap checked below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coef, b, obj, iters, converged, gap = svr_train(
                Xs, yc, float(C), float(epsilon), int(max_iter), float(tol), K=K)
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
                      f"with duality gap {gap:.6g} above tol={float(tol):g}",
                      NotConvergedWarning, stacklevel=2)
    return SvrModel(kernel, scaler, params, status, X.shape[1],
                    feature_names=feature_names, b=b, **solved)
