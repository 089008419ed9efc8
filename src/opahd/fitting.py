"""Weighted least squares of the pump curve R±(P) = L + (1 − L)·exp(±2√(aP))
by variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).

With e = exp(±2√(aP)), weights w, u = w(1 − e) and v = w(e − level), the
residual r = v + L·u is linear in L: each a has the best L = −u·v / u·u,
clipped into [0, L_MAX]. The fit searches x = ln(a / A_MIN) ≥ 0: GRID_POINTS
with a·P_max in GRID_SPAN (2√(aP_max) from 1e-3 to 20), outward steps while
an end is best, then a secant on d cost/dx = 2 r·(1 − L)·w·e·(±√(aP)) (the
envelope theorem) to a 2·X_TOL bracket. Sums: np.add.reduce, no BLAS/LAPACK.
"""
import math

import numpy as np

GRID_POINTS = 16
GRID_SPAN = (2.5e-7, 100.0)
L_MAX = 1.0 - 1e-9
A_MIN = 1e-12
X_TOL = 1e-10
SECANT_STEPS = 100


class FitConvergenceError(ArithmeticError):
    """Non-convergence diagnostic carrying the last iterate."""

    def __init__(self, message: str, last_params: np.ndarray, last_cost: float):
        super().__init__(message)
        self.last_params = last_params
        self.last_cost = last_cost


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.add.reduce(x * y))


def fit_profile(pump: np.ndarray, level: np.ndarray, sign: np.ndarray):
    """(L, a, covariance, residuals, cost, profile evaluations) of the fit to
    levels at pumps ≥ +0.0 W on branches sign = ±1, weighted by 1/level. The
    covariance is inv(JᵀJ)·cost/(n − 2), NaN where det(JᵀJ) ≤ 0. Raises
    FitConvergenceError if no grid cost is finite, or after SECANT_STEPS."""
    w = 1.0 / level
    costs, evaluated = {}, {}

    def profile(x: float) -> float:
        root = sign * np.sqrt(A_MIN * np.exp(x) * pump)
        e = np.exp(2.0 * root)
        u = w * (1.0 - e)
        uu = _dot(u, u)
        big_l = min(L_MAX, max(0.0, -_dot(u, w * (e - level)) / uu)) if uu else 0.0
        resid = big_l + (1.0 - big_l) * e - level
        r = resid * w
        costs[x] = min(math.inf, _dot(r, r))  # NaN as inf
        evaluated[x] = (2.0 * (1.0 - big_l) * _dot(r, w * e * root), big_l, resid, e, root)
        return evaluated[x][0]

    step = math.log(GRID_SPAN[1] / GRID_SPAN[0]) / (GRID_POINTS - 1)
    for k in range(GRID_POINTS):
        profile(max(math.log(GRID_SPAN[0] / A_MIN) - math.log(pump.max()) + k * step, 0.0))
    # Of equal costs the first evaluated is best, so a flat tail ends the steps.
    best = min(costs, key=costs.get)
    if costs[best] == math.inf:
        raise FitConvergenceError("no finite cost on the grid", np.full(2, math.nan), math.nan)
    while best == max(costs) or 0.0 < best == min(costs):
        profile(best + step if best == max(costs) else max(best - step, 0.0))
        best = min(costs, key=costs.get)
    xs, g = sorted(costs), evaluated[best][0]
    i = xs.index(best)
    lo, hi = (xs[i - 1], best) if g > 0 and i else (best, xs[i + 1]) if g < 0 else (best, best)
    x0, x1 = (hi if best == lo else lo), best
    for _ in range(SECANT_STEPS):
        if hi - lo <= 2.0 * X_TOL:
            break
        g0, g1 = evaluated[x0][0], evaluated[x1][0]
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else lo
        x = x1 + math.copysign(max(abs(x - x1), X_TOL), x - x1)
        x = x if lo < x < hi else 0.5 * (lo + hi)
        lo, hi = (x, hi) if profile(x) < 0 else (lo, x)
        x0, x1 = x1, x
    else:
        raise FitConvergenceError(f"no convergence in {SECANT_STEPS} secant steps",
                                  np.array([evaluated[x1][1], A_MIN * np.exp(x1)]), costs[x1])
    best = min(costs, key=costs.get)
    _, big_l, resid, e, root = evaluated[best]
    a_coeff = A_MIN * float(np.exp(best))
    j_l, j_a = w * (1.0 - e), (1.0 - big_l) * w * e * root / a_coeff
    m00, m01, m11 = _dot(j_l, j_l), _dot(j_l, j_a), _dot(j_a, j_a)
    det = m00 * m11 - m01 * m01
    scale = costs[best] / max(len(resid) - 2, 1) / det if det > 0 else math.nan
    cov = np.array([[m11, -m01], [-m01, m00]]) * scale
    return big_l, a_coeff, cov, resid, costs[best], len(costs)
