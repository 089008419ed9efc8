"""Damped Gauss-Newton (Levenberg-Marquardt schedule) least squares.

Small, deterministic, and bound-aware; sized for the two-parameter pump
curve fit rather than general use.
"""
from __future__ import annotations

import numpy as np


class FitConvergenceError(RuntimeError):
    """Non-convergence diagnostic carrying the last iterate."""

    def __init__(self, message: str, last_params: np.ndarray, last_cost: float):
        super().__init__(message)
        self.last_params = last_params
        self.last_cost = last_cost


def levenberg_marquardt(model_fn, p0, bounds, max_iter: int = 200, tol: float = 1e-12):
    """Minimize ||r(p)||² starting from p0.

    model_fn(p) -> (r, J): the (n,) residual vector and its (n, m) Jacobian.
    bounds is a (lower, upper) pair of arrays; steps are clipped into the box.

    Returns (params, cost, covariance, n_iter). Raises FitConvergenceError
    if the damping schedule stalls before meeting tol.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    # np.minimum(np.maximum(.)) is np.clip without its per-call overhead; the
    # two differ only at a -0.0 on a zero bound, which no iterate reaches from
    # a p0 without -0.0.
    p = np.minimum(np.maximum(np.asarray(p0, dtype=float), lo), hi)
    r, jac = model_fn(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        if np.abs(jtr).max() < tol * (1.0 + cost):
            converged = True
            break
        damping = np.diag(jtj.diagonal() + 1e-30)
        neg_jtr = -jtr
        stepped = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * damping, neg_jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.minimum(np.maximum(p + step, lo), hi)
            r_new, jac_new = model_fn(p_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                p, r, jac, cost = p_new, r_new, jac_new, cost_new
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
            f"no convergence after {max_iter} iterations (cost={cost:.3e})", p, cost)

    jtj = jac.T @ jac
    dof = max(len(r) - len(p), 1)
    try:
        cov = np.linalg.inv(jtj) * (cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    return p, cost, cov, min(n_iter, max_iter)
