"""Epsilon-insensitive support vector regression.

Both kernels minimize 0.5*||w||^2 + C * sum(max(0, |y - f(x)| - epsilon))
on standardized features, with an unregularised bias, by solving the same
dual. The RBF kernel is trained by SMO (libsvm's solver), which stops once
the KKT gap is at most ``tol``. The linear kernel is trained by a
primal-dual interior-point method, which stops once the duality gap is at
most ``tol`` relative to the objective. Either solver stops at
``max_iter`` otherwise (SMO pair steps or Newton steps), and the
interior-point method also once rounding noise stalls it; either way
with a NotConvergedWarning.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import ModelBase, Scaler, TooFewRows, as_xy, standardize_apply, standardize_fit
from .kernels import rbf_kernel, svr_kernel_train, svr_linear_train


class NotConvergedWarning(RuntimeWarning):
    """Solver stopped before its stopping rule held: at max_iterations, or
    (linear kernel) once rounding noise stalled it."""


class SvrModel(ModelBase):
    technique = "svr"

    def __init__(self, kernel: str, scaler: Scaler, params: dict, status: dict,
                 n_features: int, feature_names=None, *,
                 w=None, b=0.0, beta=None, train_X=None, gamma=None):
        super().__init__(n_features, feature_names)
        self.kernel = kernel
        self.scaler = scaler
        self.params = dict(params)
        self.status = dict(status)
        self.w = None if w is None else np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.beta = None if beta is None else np.asarray(beta, dtype=np.float64)
        self.train_X = None if train_X is None else np.asarray(train_X, dtype=np.float64)
        self.gamma = None if gamma is None else float(gamma)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        Xs = standardize_apply(self.scaler, X)
        if self.kernel == "linear":
            return Xs @ self.w + self.b
        K = rbf_kernel(Xs, self.train_X, self.gamma)
        return K @ self.beta + self.b

    def payload(self) -> dict:
        out = {
            "kernel": self.kernel,
            "params": self.params,
            "status": self.status,
            "b": self.b,
            "scaler_mean": self.scaler.mean.tolist(),
            "scaler_std": self.scaler.std.tolist(),
        }
        if self.kernel == "linear":
            out["w"] = self.w.tolist()
        else:
            out["beta"] = self.beta.tolist()
            out["gamma"] = self.gamma
            out["train_X"] = self.train_X.tolist()
        return out


def resolve_gamma(gamma, Xs: np.ndarray) -> float:
    """RBF width; "scale" mirrors the common 1 / (p * var) heuristic."""
    if gamma == "scale":
        var = float(Xs.var())
        if var <= 0.0:
            var = 1.0
        return 1.0 / (Xs.shape[1] * var)
    g = float(gamma)
    if g <= 0.0:
        raise ValueError(f"gamma must be positive, got {g}")
    return g


def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1, kernel: str = "linear",
            tol: float = 1e-6, max_iter: int = 50_000, gamma="scale",
            feature_names=None) -> SvrModel:
    """Fit SVR on standardized features.

    Minimizes 0.5*||w||^2 + C * sum of epsilon-insensitive residual losses.
    The RBF kernel runs SMO on the dual until the KKT gap is at most `tol`;
    the linear kernel runs an interior-point method until the duality gap
    is at most `tol` * max(1, objective). Either stops at `max_iter` SMO or
    Newton steps otherwise, recorded as a non-converged status and warned
    about, never raised.
    """
    X, y = as_xy(X, y)
    if X.shape[0] < 2:
        raise TooFewRows(f"SVR needs at least 2 rows, got {X.shape[0]}")
    if C <= 0.0:
        raise ValueError(f"C must be positive, got {C}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if kernel not in ("linear", "rbf"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if max_iter < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iter}")

    scaler = standardize_fit(X)
    Xs = np.ascontiguousarray(standardize_apply(scaler, X))
    yc = np.ascontiguousarray(y)

    params = {
        "C": float(C), "epsilon": float(epsilon), "kernel": kernel,
        "tol": float(tol), "max_iterations": int(max_iter),
    }
    if kernel == "linear":
        w, b, obj, iters, converged, gap = svr_linear_train(
            Xs, yc, float(C), float(epsilon), int(max_iter), float(tol))
        solved = {"w": w, "b": b}
        unmet = "duality gap"
    else:
        g = resolve_gamma(gamma, Xs)
        params["gamma"] = g
        K = np.ascontiguousarray(rbf_kernel(Xs, Xs, g))
        beta, b, obj, iters, converged, gap = svr_kernel_train(
            K, yc, float(C), float(epsilon), int(max_iter), float(tol))
        solved = {"beta": beta, "b": b, "train_X": Xs, "gamma": g}
        unmet = "KKT gap"
    status = {"converged": converged, "iterations": int(iters),
              "objective": float(obj), "gap": gap}
    if not converged:
        warnings.warn(f"SVR stopped after {iters} of max_iterations={max_iter} steps "
                      f"with {unmet} {gap:.6g} above tol={float(tol):g}",
                      NotConvergedWarning, stacklevel=2)
    return SvrModel(kernel, scaler, params, status, X.shape[1],
                    feature_names=feature_names, **solved)
