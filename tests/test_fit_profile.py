"""The profile fit of fitting.py, through fit_pump_curve: the result is the
profiled least-squares fit at its own a, no a beside it costs less, the
covariance is the scaled inverse of JᵀJ, the order of the points does not
matter, and the two FitConvergenceError exits carry what they report."""
import math

import numpy as np
import pytest

from opahd import fitting
from opahd.analysis import fit_pump_curve
from opahd.fitting import A_MIN, L_MAX, FitConvergenceError
from opahd.gaussian import pump_curve


def curve(big_l, a, pumps, branches=(-1, 1), noise_db=0.0, seed=0):
    """(pump_w, level, branch) points on R±(P), with Gaussian noise in dB."""
    rng = np.random.default_rng(seed)
    return [(p, pump_curve(p, big_l, a, b) * 10 ** (rng.normal(0.0, noise_db) / 10.0), b)
            for b in branches for p in pumps]


# Curves whose optimum a lies inside the search range.
INTERIOR = {
    "exact_two_branch": curve(0.29, 6.0, np.linspace(0.0, 0.438, 8)),
    "noisy_two_branch": curve(0.29, 6.0, np.linspace(0.05, 0.438, 8), noise_db=0.1, seed=1),
    "squeeze_only": curve(0.29, 6.0, np.linspace(0.05, 0.438, 12), (-1,), 0.1, 2),
    "anti_squeeze_only": curve(0.29, 6.0, np.linspace(0.05, 0.438, 8), (1,), 0.1, 3),
    "noisy_squeeze_only": curve(0.2, 15.0, np.linspace(0.01, 0.9, 40), (-1,), 1.0, 4),
    # Squeezing saturates at 3 dB: the optimum lies past the grid's last point.
    "past_the_grid_edge": curve(0.5, 1000.0, np.linspace(0.01, 0.438, 32), (-1,), 0.01, 5),
    # Anti-squeezing to 180 dB.
    "steep_anti_squeeze": curve(0.1, 1000.0, np.linspace(0.01, 0.438, 8), (1,), 0.1, 6),
}
# Curves whose fit ends on a bound: flat 0 dB levels at L = 1 − 1e-9 and
# a = 1e-12, and anti-squeezing of the curve with L = −0.2 at L = 0
# (test_analysis.py::TestFitPumpCurve::test_bounds_reached).
BOUNDED = {
    "flat": [(p, 1.0, b) for b in (-1, 1) for p in np.linspace(0.05, 0.438, 8)],
    "below_lossless": [(p, -0.2 + 1.2 * math.exp(2.0 * math.sqrt(6.0 * p)), 1)
                       for p in np.linspace(0.05, 0.438, 8)],
}
CURVES = {**INTERIOR, **BOUNDED}
# The search stops within X_TOL = 1e-10 of the optimum in ln a, which leaves
# residuals near 1e-11 on an exact curve: costs closer than this are equal.
COST_ATOL = 1e-20


def profile(pts, a):
    """(L, weighted residuals) at a, with L the weighted least-squares value
    clipped into [0, L_MAX]."""
    pump, level, sign = np.array(pts, dtype=float).T
    e = np.exp(2.0 * sign * np.sqrt(a * pump))
    u, v = (1.0 - e) / level, (e - level) / level
    big_l = min(L_MAX, max(0.0, -np.sum(u * v) / np.sum(u * u)))
    return big_l, v + big_l * u


def profile_cost(pts, a):
    return float(np.sum(profile(pts, a)[1] ** 2))


@pytest.mark.parametrize("name", sorted(CURVES))
def test_result_is_the_profiled_fit_at_its_own_a(name):
    pts = CURVES[name]
    res = fit_pump_curve(pts)
    big_l, r = profile(pts, res.a_coeff)
    assert res.big_l == pytest.approx(big_l, rel=1e-12, abs=1e-15)
    pump, level, sign = np.array(pts, dtype=float).T
    resid = res.big_l + (1.0 - res.big_l) * np.exp(2.0 * sign * np.sqrt(res.a_coeff * pump)) - level
    np.testing.assert_allclose(res.residuals_squeeze, resid[sign < 0], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(res.residuals_antisqueeze, resid[sign > 0], rtol=1e-12, atol=1e-15)
    assert res.cost == pytest.approx(np.sum((resid / level) ** 2), rel=1e-12, abs=COST_ATOL)
    assert res.cost == pytest.approx(np.sum(r ** 2), rel=1e-9, abs=COST_ATOL)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_no_a_beside_the_result_costs_less(name):
    pts = CURVES[name]
    res = fit_pump_curve(pts)
    for h in (1e-4, 1e-2, 0.3):
        for a in (res.a_coeff * math.exp(h), res.a_coeff * math.exp(-h)):
            if a >= A_MIN:
                assert profile_cost(pts, a) >= res.cost * (1.0 - 1e-12) - COST_ATOL, (h, a)


@pytest.mark.parametrize("name", sorted(INTERIOR))
def test_covariance_is_the_scaled_inverse_of_jtj(name):
    pts = INTERIOR[name]
    res = fit_pump_curve(pts)
    pump, level, sign = np.array(pts, dtype=float).T
    root = sign * np.sqrt(res.a_coeff * pump)
    e = np.exp(2.0 * root)
    jac = np.column_stack([1.0 - e, (1.0 - res.big_l) * e * root / res.a_coeff]) / level[:, None]
    expected = np.linalg.inv(jac.T @ jac) * res.cost / (len(pts) - 2)
    assert res.covariance[0, 1] == res.covariance[1, 0]
    assert (np.diag(res.covariance) > 0).all()
    np.testing.assert_allclose(res.covariance, expected, rtol=1e-8)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_order_of_the_points_does_not_matter(name):
    pts = CURVES[name]
    res = fit_pump_curve(pts)
    shuffled = [pts[i] for i in np.random.default_rng(7).permutation(len(pts))]
    again = fit_pump_curve(shuffled)
    assert again.big_l == pytest.approx(res.big_l, rel=1e-8, abs=1e-12)
    assert again.a_coeff == pytest.approx(res.a_coeff, rel=1e-8)
    assert again.cost == pytest.approx(res.cost, rel=1e-9, abs=COST_ATOL)


@pytest.mark.parametrize("big_l", [0.01, 0.29, 0.9])
@pytest.mark.parametrize("a", [0.5, 6.0, 200.0])
def test_exact_curves_recovered(big_l, a):
    # exp(2√(aP)) at the highest pump runs from 4 dB to 81 dB.
    res = fit_pump_curve(curve(big_l, a, np.linspace(0.0, 0.438, 8)))
    assert res.big_l == pytest.approx(big_l, abs=1e-7)
    assert res.a_coeff == pytest.approx(a, rel=1e-6)


def test_singular_jtj_gives_a_nan_covariance():
    # Two points at zero pump and one at 1e-300 W: only the last point has a
    # row of J that is not zero, so JᵀJ has rank one.
    res = fit_pump_curve([(0.0, 1.0, -1), (0.0, 1.0, 1), (1e-300, 1.0, -1)])
    assert math.isfinite(res.big_l) and math.isfinite(res.a_coeff)
    assert np.isnan(res.covariance).all()


def test_no_finite_grid_cost_raises():
    # Levels of 1e-300 weigh each residual by 1e300: every cost overflows.
    with pytest.raises(FitConvergenceError, match="no finite cost") as err:
        fit_pump_curve([(p, 1e-300, -1) for p in (0.0, 0.1, 0.2)])
    assert np.isnan(err.value.last_params).all() and math.isnan(err.value.last_cost)


def test_secant_cap_raises_with_the_last_iterate(monkeypatch):
    pts = INTERIOR["noisy_two_branch"]
    res = fit_pump_curve(pts)
    monkeypatch.setattr(fitting, "SECANT_STEPS", 2)
    with pytest.raises(FitConvergenceError, match="no convergence in 2 secant steps") as err:
        fit_pump_curve(pts)
    big_l, a = err.value.last_params
    assert big_l == pytest.approx(profile(pts, a)[0], rel=1e-12)
    assert err.value.last_cost == pytest.approx(profile_cost(pts, a), rel=1e-9)
    assert err.value.last_cost >= res.cost
