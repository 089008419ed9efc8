"""Damped Gauss-Newton (Levenberg-Marquardt schedule) least squares.

Small, deterministic, and bound-aware; sized for the two-parameter pump
curve fit rather than general use.

The model callback takes the parameters as a list of Python floats and
returns (r, jac): the (n,) residual vector and a no-argument callable that
gives the (n, m) Jacobian at the same point. jac is called only at accepted
iterates, so a rejected trial step costs one residual evaluation. The
parameters, the gradient test, the damping and the clip into the box are
Python float arithmetic; JᵀJ, Jᵀr and ||r||² stay numpy reductions, and each
damped system goes straight to the LAPACK gufunc behind np.linalg.solve.
Every operation is the IEEE operation the array form performs, so the
results are the same bits as stepping in numpy arrays.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


class FitConvergenceError(RuntimeError):
    """Non-convergence diagnostic carrying the last iterate."""

    def __init__(self, message: str, last_params: np.ndarray, last_cost: float):
        super().__init__(message)
        self.last_params = last_params
        self.last_cost = last_cost


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# np.linalg.solve and np.linalg.inv without their argument handling: the same
# gufuncs under the same error state, in which LAPACK's singular flag raises.
_lapack_errors = np.errstate(call=_raise_singular, invalid="call", over="ignore",
                             divide="ignore", under="ignore")


@_lapack_errors
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _umath_linalg.solve1(a, b, signature="dd->d")


@_lapack_errors
def _inv(a: np.ndarray) -> np.ndarray:
    return _umath_linalg.inv(a, signature="d->d")


def _clip(x: float, lo: float, hi: float) -> float:
    """np.minimum(np.maximum(x, lo), hi) for floats: NaN in x propagates, and
    a tie such as x = -0.0, lo = 0.0 gives the bound, as numpy's does."""
    x = lo if lo >= x else x
    return hi if hi <= x else x


def levenberg_marquardt(model_fn, p0, bounds, max_iter: int = 200, tol: float = 1e-12):
    """Minimize ||r(p)||² starting from p0.

    model_fn(p) -> (r, jac): p is a list of m floats, r the (n,) residual
    vector and jac() the (n, m) Jacobian at p.
    bounds is a (lower, upper) pair of length-m sequences, not NaN; steps are
    clipped into the box.

    Returns (params, cost, covariance, n_iter). Raises FitConvergenceError
    if the damping schedule stalls before meeting tol.
    """
    lo = np.asarray(bounds[0], dtype=float).tolist()
    hi = np.asarray(bounds[1], dtype=float).tolist()
    p = np.asarray(p0, dtype=float).tolist()
    m = len(p)
    if len(lo) != m or len(hi) != m:
        raise ValueError(f"bounds must hold {m} lower and {m} upper values")
    p = [_clip(x, l, h) for x, l, h in zip(p, lo, hi)]
    r, jac_at = model_fn(p)
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
        if all(abs(g) < threshold for g in jtr.tolist()):
            converged = True
            break
        flat = jtj.ravel().tolist()
        # diag(JᵀJ) + 1e-30 on the diagonal, 0.0 elsewhere: lam · 0.0 is
        # added off the diagonal as the array form adds it.
        damping = [0.0] * (m * m)
        damping[::m + 1] = [x + 1e-30 for x in flat[::m + 1]]
        neg_jtr = -jtr
        stepped = False
        for _ in range(60):
            a = np.array([x + lam * d for x, d in zip(flat, damping)]).reshape(m, m)
            try:
                step = _solve(a, neg_jtr).tolist()
            except LinAlgError:
                lam *= 10.0
                continue
            p_new = [_clip(x + s, l, h) for x, s, l, h in zip(p, step, lo, hi)]
            r_new, jac_new = model_fn(p_new)
            cost_new = float(r_new.dot(r_new))
            if cost_new <= cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                p, r, jac_at, cost = p_new, r_new, jac_new, cost_new
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
            f"no convergence after {max_iter} iterations (cost={cost:.3e})", np.array(p), cost)

    if jtj is None:
        jac_t = jac_at().T
        jtj = jac_t.dot(jac_t.T)
    dof = max(len(r) - m, 1)
    try:
        cov = _inv(jtj) * (cost / dof)
    except LinAlgError:
        cov = np.full((m, m), np.nan)
    return np.array(p), cost, cov, min(n_iter, max_iter)
