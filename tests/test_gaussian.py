"""Gaussian-core channel maps, efficiency formulas, and pump curve."""
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opahd.gaussian import (MAX_GAIN_DB, MAX_SQUEEZE_R, ChainModel, ChannelSpec,
                            GaussianState, effective_efficiency, homodyne_variance,
                            loss, paper_default_chain, phase, post_amplifier_loss,
                            psa, pump_curve, relative_quadrature_power, squeeze)


def _state(*stages) -> GaussianState:
    """The state a chain of these stages makes of vacuum."""
    return ChainModel(stages=stages).propagate()


def _det(state: GaussianState) -> float:
    """det of the covariance matrix; ≥ 1/4 for physical states."""
    return state.var_x * state.var_p - state.cov_xp ** 2


# A prefix chain that leaves a state with unequal variances and a correlation.
SKEWED = (squeeze(0.4), phase(0.3), loss(0.8))


class TestVacuum:
    def test_convention(self):
        v = GaussianState()
        assert (v.var_x, v.var_p, v.cov_xp) == (0.5, 0.5, 0)

    def test_loss_fixed_point(self):
        assert _state(loss(0.5)) == GaussianState()

    def test_rotation_invariance(self):
        out = _state(phase(1.23))
        assert out.var_x == pytest.approx(0.5)
        assert out.var_p == pytest.approx(0.5)
        assert out.cov_xp == pytest.approx(0.0, abs=1e-15)


class TestSqueeze:
    def test_identity(self):
        assert _state(*SKEWED, squeeze(0.0)) == _state(*SKEWED)

    def test_six_db(self):
        r = 0.3 * math.log(10.0)  # e^{-2r} = 10^{-0.6}
        out = _state(squeeze(r))
        assert out.var_x == pytest.approx(10 ** -0.6 / 2, rel=1e-12)
        assert out.var_p == pytest.approx(10 ** 0.6 / 2, rel=1e-12)

    def test_inverse_composition(self):
        out = _state(squeeze(0.5), squeeze(-0.5))
        assert out.var_x == pytest.approx(0.5, rel=1e-12)
        assert out.var_p == pytest.approx(0.5, rel=1e-12)


class TestLoss:
    def test_identity(self):
        assert _state(*SKEWED, loss(1.0)) == _state(*SKEWED)

    def test_full_loss_gives_vacuum(self):
        assert _state(squeeze(1.0), loss(0.0)) == GaussianState()

    def test_squeezed_mixing(self):
        # direct evaluation of V -> eta V + (1-eta) V_vac
        r = 0.5 * math.log(10.0)  # var_x = 0.05
        out = _state(squeeze(r), loss(0.71))
        assert out.var_x == pytest.approx(0.1805, rel=1e-12)

    @pytest.mark.parametrize("eta", [-0.1, 1.1])
    def test_domain(self, eta):
        with pytest.raises(ValueError):
            loss(eta)


class TestPsa:
    def test_identity(self):
        s = _state(*SKEWED)
        out = _state(*SKEWED, psa(0.0, 1.0))
        assert out.var_x == pytest.approx(s.var_x, rel=1e-12)
        assert out.var_p == pytest.approx(s.var_p, rel=1e-12)

    def test_pure_gain_on_vacuum(self):
        out = _state(psa(35.0, 1.0))
        assert out.var_x == pytest.approx(10 ** 3.5 / 2, rel=1e-12)
        assert out.var_p == pytest.approx(1 / (2 * 10 ** 3.5), rel=1e-12)

    def test_internal_loss_before_gain(self):
        # vacuum is loss-invariant, then amplified
        out = _state(psa(35.0, 0.79))
        assert out.var_x == pytest.approx(10 ** 3.5 * 0.5, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            psa(-1.0, 1.0)
        with pytest.raises(ValueError):
            psa(10.0, 1.5)


class TestEffectiveEfficiency:
    def test_post_amplifier_loss_90_percent_case(self):
        # 90% downstream loss suppressed to ~0.3%
        assert post_amplifier_loss(0.10, 35.0) == pytest.approx(0.003, abs=5e-4)

    def test_system_case(self):
        assert post_amplifier_loss(0.076, 35.0) == pytest.approx(0.004, abs=5e-4)
        assert effective_efficiency(0.79, 0.076, 35.0) == pytest.approx(0.79, abs=0.01)

    def test_high_gain_limit(self):
        assert effective_efficiency(0.79, 0.076, 200.0) == pytest.approx(0.79, rel=1e-6)

    def test_zero_gain(self):
        assert effective_efficiency(0.8, 0.3, 0.0) == pytest.approx(0.8 * 0.3, rel=1e-12)

    def test_zero_detector_efficiency_graceful(self):
        assert effective_efficiency(0.8, 0.0, 30.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_efficiency(-0.1, 0.5, 10.0)
        with pytest.raises(ValueError):
            effective_efficiency(0.5, 0.5, -1.0)

    def test_monotone_in_gain(self):
        vals = [effective_efficiency(0.79, 0.076, g) for g in range(0, 60, 5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestPumpCurve:
    def test_zero_pump(self):
        assert pump_curve(0.0, 0.29, 0.01, +1) == pytest.approx(1.0)
        assert pump_curve(0.0, 0.29, 0.01, -1) == pytest.approx(1.0)

    def test_asymptotic_floor(self):
        assert pump_curve(1e9, 0.29, 1.0, -1) == pytest.approx(0.29, rel=1e-9)
        floor_db = -10 * math.log10(0.29)
        assert floor_db == pytest.approx(5.376, abs=1e-3)
        # consistent with the measured 5.2 +/- 0.5 dB limit
        assert abs(floor_db - 5.2) <= 0.5

    @given(st.floats(min_value=0.0, max_value=5.0))
    def test_lossless_branch_product_is_unity(self, pump_w):
        up = pump_curve(pump_w, 0.0, 0.8, +1)
        down = pump_curve(pump_w, 0.0, 0.8, -1)
        assert up * down == pytest.approx(1.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            pump_curve(-1.0, 0.29, 1.0, 1)
        with pytest.raises(ValueError):
            pump_curve(1.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            pump_curve(1.0, 0.29, 0.0, 1)
        with pytest.raises(ValueError):
            pump_curve(1.0, 0.29, 1.0, 2)


class TestHomodyneVariance:
    def test_empty_chain(self):
        assert homodyne_variance(ChainModel(), 0.7) == pytest.approx(0.5)

    def test_shot_self_normalization(self):
        chain = ChainModel(stages=(psa(35.0, 0.79), loss(0.076)))
        assert relative_quadrature_power(chain, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_closed_form_identity(self):
        # chain [squeeze, psa, loss] against the explicit efficiency expansion
        r, gain_db, eta_opa, eta_hd = 0.9, 22.0, 0.83, 0.12
        g = 10 ** (gain_db / 10)
        chain = ChainModel(stages=(squeeze(r), psa(gain_db, eta_opa), loss(eta_hd)))
        expected = (eta_hd * g * (eta_opa * math.exp(-2 * r) / 2 + (1 - eta_opa) / 2)
                    + (1 - eta_hd) / 2)
        assert homodyne_variance(chain, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_paper_default_levels(self):
        chain = paper_default_chain()
        sq = 10 * math.log10(relative_quadrature_power(chain, 0.0))
        anti = 10 * math.log10(relative_quadrature_power(chain, math.pi / 2))
        assert sq == pytest.approx(-5.2, abs=1e-9)
        assert anti == pytest.approx(13.9, abs=1e-9)

    def test_lo_phase_default(self):
        chain = ChainModel(stages=(squeeze(0.5),), lo_phase=math.pi / 2)
        assert homodyne_variance(chain) == pytest.approx(0.5 * math.exp(1.0), rel=1e-12)


class TestChannelSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ChannelSpec("gain", {"g": 2.0})

    def test_missing_param(self):
        with pytest.raises(ValueError):
            ChannelSpec("psa", {"gain_db": 10.0})

    @pytest.mark.parametrize("value", ["abc", None, [1.0], "nan", math.inf])
    def test_non_numeric_param_names_stage(self, value):
        with pytest.raises(ValueError, match="squeeze channel parameter r"):
            ChannelSpec("squeeze", {"r": value})

    @pytest.mark.parametrize("r", [MAX_SQUEEZE_R, -MAX_SQUEEZE_R])
    def test_squeeze_r_bound_keeps_chain_finite(self, r):
        chain = ChainModel(stages=(squeeze(r), phase(0.3), psa(35.0, 0.79), loss(0.076)))
        state = chain.propagate()
        assert all(math.isfinite(v) and v > 0 for v in (
            state.var_x, state.var_p, _det(state),
            relative_quadrature_power(chain, 0.0)))

    @pytest.mark.parametrize("r", [math.nextafter(MAX_SQUEEZE_R, math.inf), -400.0, 1e6])
    def test_squeeze_r_beyond_bound_names_stage(self, r):
        with pytest.raises(ValueError, match="squeeze r must be within"):
            ChannelSpec("squeeze", {"r": r})

    def test_only_real_numbers_become_floats(self):
        spec = ChannelSpec("psa", {"gain_db": 35, "eta_opa": 0.79})
        assert spec.params == {"gain_db": 35.0, "eta_opa": 0.79}
        assert all(type(v) is float for v in spec.params.values())
        for value in ("0.79", True):
            with pytest.raises(ValueError, match=re.escape(
                    f"psa channel parameter eta_opa must be a finite number, got {value!r}")):
                ChannelSpec("psa", {"gain_db": 35.0, "eta_opa": value})

    def test_psa_gain_bound_keeps_chain_finite(self):
        chain = ChainModel(stages=(psa(MAX_GAIN_DB, 0.79), phase(0.3), loss(0.076)))
        state = chain.propagate()
        assert all(math.isfinite(v) and v > 0 for v in (
            state.var_x, state.var_p, _det(state),
            relative_quadrature_power(chain, 0.0)))

    @pytest.mark.parametrize("gain_db", [math.nextafter(MAX_GAIN_DB, math.inf), 7000.0])
    def test_psa_gain_beyond_bound_names_stage(self, gain_db):
        with pytest.raises(ValueError, match="psa gain_db must be within"):
            psa(gain_db, 0.79)


# Stages each within range whose product overflows float64.
OVERFLOWING_STAGES = (squeeze(177), phase(0.3), squeeze(-177), phase(0.3), squeeze(177))
# Squeezes that cancel the gains: finite, but its shot reference overflows.
OVERFLOWING_SHOT_STAGES = (psa(MAX_GAIN_DB, 1.0), squeeze(MAX_SQUEEZE_R)) * 3


class TestChainValidation:
    def test_overflowing_chain_rejected(self):
        with pytest.raises(ValueError, match="^chain propagates vacuum"):
            ChainModel(stages=OVERFLOWING_STAGES)

    def test_overflowing_shot_reference_rejected(self):
        with pytest.raises(ValueError, match="^shot reference chain propagates vacuum"):
            ChainModel(stages=OVERFLOWING_SHOT_STAGES)


# relative_quadrature_power of rotated chains, as float.hex, recorded before
# the stages were compiled to covariance maps. The golden CLI outputs cover
# only diagonal chains.
ROTATED_CHAIN_POWERS = [
    ((squeeze(1.0), phase(0.3), psa(35.0, 0.79), loss(0.076)), 0.0, 0.0,
     "0x1.a2d9924fc1c97p-1"),
    ((squeeze(0.8), phase(-1.1), loss(0.5), phase(0.7)), 0.4, None,
     "0x1.d2cb52a59300cp+0"),
    ((squeeze(0.6), psa(9.0, 1.0), psa(30.0, 1.0), phase(1.0)), 0.0, 0.2,
     "0x1.346c44cf13d86p-2"),
    ((squeeze(1.2), loss(0.9), phase(0.05), psa(20.0, 0.79), phase(-0.02), loss(0.076)),
     0.0, math.pi / 2, "0x1.014a08fcd2535p+0"),
]


@pytest.mark.parametrize("stages, lo_phase, theta, expected", ROTATED_CHAIN_POWERS)
def test_rotated_chain_power_bits(stages, lo_phase, theta, expected):
    chain = ChainModel(stages=stages, lo_phase=lo_phase)
    assert relative_quadrature_power(chain, theta).hex() == expected


# -- randomized channel properties --

_channels = st.one_of(
    st.builds(squeeze, st.floats(-1.5, 1.5)),
    st.builds(loss, st.floats(0.0, 1.0)),
    st.builds(phase, st.floats(-math.pi, math.pi)),
    st.builds(psa, st.floats(0.0, 30.0), st.floats(0.1, 1.0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_channels, min_size=1, max_size=6))
@example([psa(9.0, 1.0), psa(30.0, 1.0), phase(1.0)])  # rotated 39 dB ellipse
def test_uncertainty_preserved_along_chain(stages):
    for k in range(1, len(stages) + 1):
        assert _det(_state(*stages[:k])) >= 0.25 * (1 - 1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.2, 1.2), st.floats(0.0, 30.0))
def test_psa_symplectic_when_lossless(r, gain_db):
    state = _state(squeeze(r))
    out = _state(squeeze(r), psa(gain_db, 1.0))
    assert out.var_x * out.var_p == pytest.approx(state.var_x * state.var_p, rel=1e-9)
