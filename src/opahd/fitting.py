"""Damped Gauss-Newton (Levenberg-Marquardt schedule) least squares in two
parameters.

Small, deterministic, and bound-aware; sized for the two-parameter pump
curve fit rather than general use.

The model callback takes the two parameters as a list of Python floats and
returns (r, jac): the (n,) residual vector and a no-argument callable that
gives the (n, 2) Jacobian at the same point. jac is called only at accepted
iterates, so a rejected trial step costs one residual evaluation. The
parameters, the gradient test, the damping and the clip into the box are
Python float arithmetic; JᵀJ, Jᵀr and ||r||² stay numpy reductions. Every
operation is the IEEE operation the array form performs, so the results are
the same bits as stepping in numpy arrays.

Each damped 2 × 2 system is solved, and JᵀJ inverted for the covariance, in
Python floats (_lu2, _solve2, _inv2), by the operation sequence of LAPACK
dgesv as OpenBLAS runs it on its AVX-512 kernels. So the fit makes no LAPACK
call, and on every CPU it keeps the bits that numpy's solve and inv gave
there:

- factor, as dgetf2: swap the rows only if |m10| > |m00|; l = m10 · (1/m00),
  or m10 / m00 if |m00| is below the smallest normal float, whose reciprocal
  would overflow; u11 = m11 − l·m01, rounded twice, as gemv forms it;
- solve one right-hand side, as trsv: y1 = fma(−b0, l, b1), x1 = y1 / u11,
  y0 = fma(−x1, m01, b0), x0 = y0 / m00; the fma is axpy's, whose kernels
  update y += αx in one rounding;
- invert, two right-hand sides, as trsm: the same fma updates on the columns
  of the row-swapped identity, but times 1/u11 and 1/m00, since trsm packs
  the reciprocals of the diagonal and multiplies by them.

A zero pivot, m00 or u11, raises ZeroDivisionError where dgesv reports a
singular matrix. For a subnormal pivot OpenBLAS leaves l unscaled, which is
wrong; _lu2 divides there, as reference LAPACK does.
"""
from __future__ import annotations

import math
import sys

import numpy as np

_SMALLEST_NORMAL = sys.float_info.min
# Veltkamp's splitter for doubles, 2^27 + 1.
_SPLIT = 134217729.0


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


def _fma(a: float, b: float, c: float) -> float:
    """a·b + c rounded once, as the FMA instruction rounds it.

    Where no split or product can overflow or underflow, Dekker's product
    gives a·b as p + e exactly, and fsum rounds p + e + c once. Elsewhere,
    each finite float is an integer over a power of two, so the exact value
    is one integer fraction, and int true division rounds it correctly,
    subnormal results included. An exact zero is a·b + c, which gives it
    IEEE's sign; so is an inf or NaN factor, whose product is exact. A
    finite product plus an inf or NaN is that addend.
    """
    if 1e-120 < abs(a) < 1e120 and 1e-120 < abs(b) < 1e120 and abs(c) < 1e300:
        p = a * b
        t = _SPLIT * a
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = _SPLIT * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        s = math.fsum((p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo, c))
        return s if s else p + c
    try:
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
    except (OverflowError, ValueError):
        return a * b + c
    try:
        cn, cd = c.as_integer_ratio()
    except (OverflowError, ValueError):
        return c
    num = an * bn * cd + cn * ad * bd
    if not num:
        return a * b + c
    try:
        return num / (ad * bd * cd)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _lu2(m00: float, m01: float, m10: float, m11: float):
    """dgetf2 on [[m00, m01], [m10, m11]]: (swapped, m00, m01, l, u11) of
    the row-swapped matrix, the pivots m00 and u11 not zero."""
    swapped = abs(m10) > abs(m00)
    if swapped:
        m00, m01, m10, m11 = m10, m11, m00, m01
    # A zero m00 raises in m10 / m00.
    l = m10 * (1.0 / m00) if abs(m00) >= _SMALLEST_NORMAL else m10 / m00
    u11 = m11 - l * m01
    if u11 == 0.0:
        raise ZeroDivisionError("singular matrix")
    return swapped, m00, m01, l, u11


def _solve2(m00: float, m01: float, m10: float, m11: float, b0: float, b1: float):
    """The solution (x0, x1) of [[m00, m01], [m10, m11]] x = [b0, b1]."""
    swapped, m00, m01, l, u11 = _lu2(m00, m01, m10, m11)
    if swapped:
        b0, b1 = b1, b0
    x1 = _fma(-b0, l, b1) / u11
    return _fma(-x1, m01, b0) / m00, x1


def _inv2(m00: float, m01: float, m10: float, m11: float) -> list:
    """The inverse of [[m00, m01], [m10, m11]] as nested lists."""
    swapped, m00, m01, l, u11 = _lu2(m00, m01, m10, m11)
    r00, r11 = 1.0 / m00, 1.0 / u11
    cols = []
    for e0, e1 in ((0.0, 1.0), (1.0, 0.0)) if swapped else ((1.0, 0.0), (0.0, 1.0)):
        x1 = _fma(-e0, l, e1) * r11
        cols.append((_fma(-x1, m01, e0) * r00, x1))
    (i00, i10), (i01, i11) = cols
    return [[i00, i01], [i10, i11]]


def levenberg_marquardt(model_fn, p0, bounds, max_iter: int = 200, tol: float = 1e-12):
    """Minimize ||r(p)||² over two parameters starting from p0.

    model_fn(p) -> (r, jac): p is a list of 2 floats, r the (n,) residual
    vector and jac() the (n, 2) Jacobian at p.
    bounds is a (lower, upper) pair of length-2 sequences, not NaN; steps are
    clipped into the box. A p0 or bound of another length raises ValueError.

    Each damped system JᵀJ + λ·diag(JᵀJ + 1e-30) s = −Jᵀr goes through
    _solve2, and the covariance is _inv2(JᵀJ) · cost / (n − 2), in the
    sequence above. A singular system multiplies λ by 10 and tries again; a
    singular JᵀJ gives a NaN covariance.

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
        jtj = jac_t.dot(jac_t.T).tolist()
        g_x, g_y = jac_t.dot(r).tolist()
        threshold = tol * (1.0 + cost)
        if abs(g_x) < threshold and abs(g_y) < threshold:
            converged = True
            break
        (a_xx, a_xy), (a_yx, a_yy) = jtj
        d_x, d_y = a_xx + 1e-30, a_yy + 1e-30
        stepped = False
        for _ in range(60):
            # lam · 0.0 is added off the diagonal as the array form adds it.
            off = lam * 0.0
            try:
                s_x, s_y = _solve2(a_xx + lam * d_x, a_xy + off, a_yx + off, a_yy + lam * d_y,
                                   -g_x, -g_y)
            except ZeroDivisionError:
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
        jtj = jac_t.dot(jac_t.T).tolist()
    dof = max(len(r) - 2, 1)
    try:
        cov = np.array(_inv2(*jtj[0], *jtj[1])) * (cost / dof)
    except ZeroDivisionError:
        cov = np.full((2, 2), np.nan)
    return np.array([x, y]), cost, cov, min(n_iter, max_iter)
