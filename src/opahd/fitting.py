"""Damped Gauss-Newton (Levenberg-Marquardt schedule) least squares in two
parameters.

Small, deterministic, and bound-aware; sized for the two-parameter pump
curve fit rather than general use.

The model callback takes the two parameters as a list of Python floats and
returns (r, jac): the (n,) residual vector and a no-argument callable that
gives the (n, 2) Jacobian at the same point. jac is called only at accepted
iterates, so a rejected trial step costs one residual evaluation. The
parameters, the gradient test, the damping and the clip into the box are
Python float arithmetic; JᵀJ, Jᵀr and ||r||² stay numpy reductions, and each
damped system is solved, and the covariance inverted, by the public
np.linalg. Every operation is the IEEE operation the array form performs,
so the results are the same bits as stepping in numpy arrays.
"""
from __future__ import annotations

import numpy as np


class FitConvergenceError(ArithmeticError):
    """Non-convergence diagnostic carrying the last iterate."""

    def __init__(self, message: str, last_params: np.ndarray, last_cost: float):
        super().__init__(message)
        self.last_params = last_params
        self.last_cost = last_cost


def _clip(x: float, lo: float, hi: float) -> float:
    """np.minimum(np.maximum(x, lo), hi) for floats: NaN in x propagates, and
    a tie such as x = -0.0, lo = 0.0 gives the bound, as numpy's does."""
    x = lo if lo >= x else x
    return hi if hi <= x else x


def levenberg_marquardt(model_fn, p0, bounds, max_iter: int = 200, tol: float = 1e-12):
    """Minimize ||r(p)||² over two parameters starting from p0.

    model_fn(p) -> (r, jac): p is a list of 2 floats, r the (n,) residual
    vector and jac() the (n, 2) Jacobian at p.
    bounds is a (lower, upper) pair of length-2 sequences, not NaN; steps are
    clipped into the box. A p0 or bound of another length raises ValueError.

    Returns (params, cost, covariance, n_iter). Raises FitConvergenceError
    if the damping schedule stalls before meeting tol.
    """
    p = np.asarray(p0, dtype=float).tolist()
    lo = np.asarray(bounds[0], dtype=float).tolist()
    hi = np.asarray(bounds[1], dtype=float).tolist()
    if len(p) != 2 or len(lo) != 2 or len(hi) != 2:
        raise ValueError("p0 must hold 2 values, and bounds 2 lower and 2 upper values")
    (x, y), (x_lo, y_lo), (x_hi, y_hi) = p, lo, hi
    x, y = _clip(x, x_lo, x_hi), _clip(y, y_lo, y_hi)
    r, jac_at = model_fn([x, y])
    cost = float(r.dot(r))
    lam = 1e-3
    converged = False
    jtj = None
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        # ndarray.dot makes the BLAS calls @ makes (syrk for JᵀJ, gemv, dot),
        # with less dispatch.
        jac_t = jac_at().T
        jtj = jac_t.dot(jac_t.T)
        jtr = jac_t.dot(r)
        threshold = tol * (1.0 + cost)
        g_x, g_y = jtr.tolist()
        if abs(g_x) < threshold and abs(g_y) < threshold:
            converged = True
            break
        (a_xx, a_xy), (a_yx, a_yy) = jtj.tolist()
        d_x, d_y = a_xx + 1e-30, a_yy + 1e-30
        neg_jtr = -jtr
        stepped = False
        for _ in range(60):
            # lam · 0.0 is added off the diagonal as the array form adds it.
            off = lam * 0.0
            a = np.array([[a_xx + lam * d_x, a_xy + off], [a_yx + off, a_yy + lam * d_y]])
            try:
                s_x, s_y = np.linalg.solve(a, neg_jtr).tolist()
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new, y_new = _clip(x + s_x, x_lo, x_hi), _clip(y + s_y, y_lo, y_hi)
            r_new, jac_new = model_fn([x_new, y_new])
            cost_new = float(r_new.dot(r_new))
            if cost_new <= cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                x, y, r, jac_at, cost = x_new, y_new, r_new, jac_new, cost_new
                jtj = None
                lam = max(lam / 10.0, 1e-14)
                stepped = True
                if rel_drop < tol:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            # Damping exhausted with no downhill step: local minimum.
            converged = True
        if converged:
            break
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {max_iter} iterations (cost={cost:.3e})", np.array([x, y]), cost)

    if jtj is None:
        jac_t = jac_at().T
        jtj = jac_t.dot(jac_t.T)
    dof = max(len(r) - 2, 1)
    try:
        cov = np.linalg.inv(jtj) * (cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((2, 2), np.nan)
    return np.array([x, y]), cost, cov, min(n_iter, max_iter)
