"""Epsilon-insensitive support vector regression.

Both kernels minimize 0.5*||w||^2 + C * sum(max(0, |y - f(x)| - epsilon))
on standardized features, with an unregularised bias. The RBF kernel is
trained by SMO on the dual (libsvm's solver), which stops once the KKT gap
is at most ``tol``. The linear kernel is trained by primal subgradient
descent with steps lr/sqrt(t), which stops once the best objective
improves by less than ``tol`` over a ``check_every``-iteration window.
Either solver stops at ``max_iter`` otherwise, with a NotConvergedWarning.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import ModelBase, Scaler, TooFewRows, as_xy, standardize_apply, standardize_fit
from .kernels import rbf_kernel, svr_kernel_train, svr_linear_train


class NotConvergedWarning(RuntimeWarning):
    """Solver hit max_iterations before its stopping rule held."""


DEFAULT_LR = 0.5
DEFAULT_CHECK_EVERY = 100


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
            tol: float = 1e-6, max_iter: int = 50_000, lr: float = DEFAULT_LR,
            check_every: int = DEFAULT_CHECK_EVERY, gamma="scale",
            feature_names=None) -> SvrModel:
    """Fit SVR on standardized features.

    Minimizes 0.5*||w||^2 + C * sum of epsilon-insensitive residual losses.
    The RBF kernel runs SMO on the dual until the KKT gap is at most `tol`;
    the linear kernel runs subgradient descent, keeping the best iterate,
    until the best objective improves by less than `tol` over a
    `check_every`-iteration window (`lr` and `check_every` apply to it
    alone). Either stops at `max_iter` otherwise, recorded as a
    non-converged status and warned about, never raised.
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
        check = max(1, min(int(check_every), max_iter))
        params.update(lr=float(lr), check_every=check)
        w, b, obj, iters, converged = svr_linear_train(
            Xs, yc, float(C), float(epsilon), float(lr), int(max_iter),
            float(tol), check)
        status = {"converged": bool(converged), "iterations": int(iters),
                  "objective": float(obj)}
        model = SvrModel("linear", scaler, params, status, X.shape[1],
                         feature_names=feature_names, w=w, b=b)
        unmet = f"objective {obj:.6g} still improving"
    else:
        g = resolve_gamma(gamma, Xs)
        params["gamma"] = g
        K = np.ascontiguousarray(rbf_kernel(Xs, Xs, g))
        beta, b, obj, iters, converged, gap = svr_kernel_train(
            K, yc, float(C), float(epsilon), int(max_iter), float(tol))
        status = {"converged": converged, "iterations": int(iters),
                  "objective": float(obj), "gap": gap}
        model = SvrModel("rbf", scaler, params, status, X.shape[1],
                         feature_names=feature_names, beta=beta, b=b,
                         train_X=Xs, gamma=g)
        unmet = f"KKT gap {gap:.6g} above tol={float(tol):g}"
    if not status["converged"]:
        warnings.warn(f"SVR stopped at max_iterations={max_iter} with {unmet}",
                      NotConvergedWarning, stacklevel=2)
    return model
