"""Single-mode Gaussian states and the channels of an OPA-assisted homodyne chain.

Conventions: vacuum quadrature variance is 1/2 (X = (A + A†)/√2), all noise
levels in dB are relative to shot noise, and parametric gain is a linear
power gain on the X quadrature (gain_db = 10 log10 G).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

VACUUM_VARIANCE = 0.5
# Relative size of the isotropic noise _congruence adds to cover its rounding.
_ROUNDING_NOISE = 16 * sys.float_info.epsilon
# Largest squeeze |r|: e^{2|r|} stays within √(float max) and e^{-2|r|} above
# its reciprocal, which leaves the other half of the exponent range to the
# rest of the chain (gain, rotations, the products in det V).
MAX_SQUEEZE_R = math.log(sys.float_info.max) / 4


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of one bosonic mode's quadratures."""

    mean_x: float = 0.0
    mean_p: float = 0.0
    var_x: float = VACUUM_VARIANCE
    var_p: float = VACUUM_VARIANCE
    cov_xp: float = 0.0

    def __post_init__(self):
        if self.var_x <= 0 or self.var_p <= 0:
            raise ValueError("quadrature variances must be positive")

    def uncertainty_product(self) -> float:
        """det of the covariance matrix; ≥ 1/4 for physical states."""
        return self.var_x * self.var_p - self.cov_xp ** 2

    def quadrature_variance(self, theta: float) -> float:
        """Variance of X cosθ + P sinθ."""
        c, s = math.cos(theta), math.sin(theta)
        return c * c * self.var_x + s * s * self.var_p + 2 * c * s * self.cov_xp


def vacuum() -> GaussianState:
    return GaussianState()


def _congruence(state: GaussianState, m00: float, m01: float,
                m10: float, m11: float) -> GaussianState:
    """Apply the linear map M to means and M V Mᵀ to the covariance.

    Once V has an off-diagonal part, det V = vx·vp − c² is a difference of
    terms up to tr(V)², so rounding in M V Mᵀ can leave the stored state a few
    ulps of tr(V)² below the uncertainty bound. Adding isotropic noise of
    _ROUNDING_NOISE·tr(V) to both variances, a valid classical-noise channel,
    outweighs that error and keeps the rounded state physical. A covariance
    that stays diagonal is rounded only relatively, and the identity map not
    at all; neither gets noise.
    """
    vx, vp, c = state.var_x, state.var_p, state.cov_xp
    var_x = m00 * m00 * vx + 2 * m00 * m01 * c + m01 * m01 * vp
    var_p = m10 * m10 * vx + 2 * m10 * m11 * c + m11 * m11 * vp
    cov_xp = m00 * m10 * vx + (m00 * m11 + m01 * m10) * c + m01 * m11 * vp
    if cov_xp != 0.0 and (m00, m01, m10, m11) != (1.0, 0.0, 0.0, 1.0):
        noise = _ROUNDING_NOISE * (var_x + var_p)
        var_x += noise
        var_p += noise
    return GaussianState(
        mean_x=m00 * state.mean_x + m01 * state.mean_p,
        mean_p=m10 * state.mean_x + m11 * state.mean_p,
        var_x=var_x,
        var_p=var_p,
        cov_xp=cov_xp,
    )


def apply_squeeze(state: GaussianState, r: float) -> GaussianState:
    """Squeeze X for r > 0: var_x scales by e^{-2r}, var_p by e^{+2r}."""
    e = math.exp(-r)
    return _congruence(state, e, 0.0, 0.0, 1.0 / e)


def apply_phase(state: GaussianState, theta: float) -> GaussianState:
    """Rotate the quadrature frame by theta radians."""
    c, s = math.cos(theta), math.sin(theta)
    return _congruence(state, c, -s, s, c)


def apply_loss(state: GaussianState, eta: float) -> GaussianState:
    """Beamsplitter loss of transmissivity eta mixing in vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")
    rt = math.sqrt(eta)
    v = (1.0 - eta) * VACUUM_VARIANCE
    return GaussianState(
        mean_x=rt * state.mean_x,
        mean_p=rt * state.mean_p,
        var_x=eta * state.var_x + v,
        var_p=eta * state.var_p + v,
        cov_xp=eta * state.cov_xp,
    )


def apply_psa(state: GaussianState, gain_db: float, eta_opa: float) -> GaussianState:
    """Phase-sensitive amplifier: internal loss eta_opa, then noiseless
    X → √G·X, P → P/√G with G = 10^(gain_db/10).

    The internal loss precedes the gain, so the amplifier's own vacuum
    contribution is amplified along with the signal.
    """
    if gain_db < 0:
        raise ValueError(f"gain_db must be >= 0, got {gain_db}")
    g_amp = 10.0 ** (gain_db / 20.0)  # amplitude gain √G
    lossy = apply_loss(state, eta_opa)
    return _congruence(lossy, g_amp, 0.0, 0.0, 1.0 / g_amp)


@dataclass(frozen=True)
class ChannelSpec:
    """One stage of the measurement chain.

    kind is one of "squeeze", "loss", "phase", "psa"; params holds the
    stage parameters keyed by name (r, eta, theta, gain_db/eta_opa).
    """

    kind: str
    params: dict = field(default_factory=dict)

    _REQUIRED = {
        "squeeze": ("r",),
        "loss": ("eta",),
        "phase": ("theta",),
        "psa": ("gain_db", "eta_opa"),
    }

    def __post_init__(self):
        if self.kind not in self._REQUIRED:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        missing = [k for k in self._REQUIRED[self.kind] if k not in self.params]
        if missing:
            raise ValueError(f"{self.kind} channel missing parameters {missing}")
        p = dict(self.params)
        for k in self._REQUIRED[self.kind]:
            try:
                value = float(p[k])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} channel parameter {k} must be a finite "
                                 f"number, got {p[k]!r}")
            p[k] = value
        object.__setattr__(self, "params", p)
        if self.kind == "squeeze" and abs(p["r"]) > MAX_SQUEEZE_R:
            raise ValueError(f"squeeze r must be within ±{MAX_SQUEEZE_R:.1f}, got {p['r']}")
        if self.kind == "loss" and not 0.0 <= p["eta"] <= 1.0:
            raise ValueError(f"loss eta must be in [0, 1], got {p['eta']}")
        if self.kind == "psa":
            if p["gain_db"] < 0:
                raise ValueError(f"psa gain_db must be >= 0, got {p['gain_db']}")
            if not 0.0 <= p["eta_opa"] <= 1.0:
                raise ValueError(f"psa eta_opa must be in [0, 1], got {p['eta_opa']}")

    def apply(self, state: GaussianState) -> GaussianState:
        p = self.params
        if self.kind == "squeeze":
            return apply_squeeze(state, p["r"])
        if self.kind == "loss":
            return apply_loss(state, p["eta"])
        if self.kind == "phase":
            return apply_phase(state, p["theta"])
        return apply_psa(state, p["gain_db"], p["eta_opa"])


def squeeze(r: float) -> ChannelSpec:
    return ChannelSpec("squeeze", {"r": float(r)})


def loss(eta: float) -> ChannelSpec:
    return ChannelSpec("loss", {"eta": float(eta)})


def phase(theta: float) -> ChannelSpec:
    return ChannelSpec("phase", {"theta": float(theta)})


def psa(gain_db: float, eta_opa: float) -> ChannelSpec:
    return ChannelSpec("psa", {"gain_db": float(gain_db), "eta_opa": float(eta_opa)})


@dataclass(frozen=True)
class ChainModel:
    """Ordered measurement chain (source → detector) plus the LO phase."""

    stages: tuple = ()
    lo_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        for st in self.stages:
            if not isinstance(st, ChannelSpec):
                raise TypeError("chain stages must be ChannelSpec instances")

    def propagate(self, state: GaussianState | None = None) -> GaussianState:
        out = vacuum() if state is None else state
        for st in self.stages:
            out = st.apply(out)
        return out

    def without_squeezing(self) -> "ChainModel":
        """The shot-noise reference chain: same stages, squeezer pump off."""
        return replace(self, stages=tuple(s for s in self.stages if s.kind != "squeeze"))


def homodyne_variance(chain: ChainModel, theta: float | None = None) -> float:
    """Variance of the measured quadrature X cosθ + P sinθ after the chain."""
    th = chain.lo_phase if theta is None else theta
    return chain.propagate().quadrature_variance(th)


def relative_quadrature_power(chain: ChainModel, theta: float | None = None) -> float:
    """Chain quadrature variance normalized to the pump-off shot reference."""
    return homodyne_variance(chain, theta) / homodyne_variance(chain.without_squeezing(), theta)


def effective_efficiency(eta_opa: float, eta_hd: float, gain_db: float) -> float:
    """Overall transmissivity of amplifier + detector,
    η_eff = η_OPA·η_HD / (η_HD + (1 − η_HD)/G).
    """
    if eta_opa < 0 or eta_opa > 1 or eta_hd < 0 or eta_hd > 1:
        raise ValueError("efficiencies must be in [0, 1]")
    if gain_db < 0:
        raise ValueError(f"gain_db must be >= 0, got {gain_db}")
    if eta_hd == 0.0:
        return 0.0
    g = 10.0 ** (gain_db / 10.0)
    return eta_opa * eta_hd / (eta_hd + (1.0 - eta_hd) / g)


def post_amplifier_loss(eta_hd: float, gain_db: float) -> float:
    """Residual downstream loss once the amplifier pre-gain is accounted for:
    1 − η_HD / (η_HD + (1 − η_HD)/G).
    """
    if eta_hd == 0.0:
        return 1.0
    return 1.0 - effective_efficiency(1.0, eta_hd, gain_db)


def pump_curve(pump_w: float, big_l: float, a_coeff: float, sign: int) -> float:
    """Relative noise power vs pump power:
    R±(P) = L + (1 − L)·exp(±2√(aP)), sign +1 for anti-squeezing, −1 for squeezing.
    """
    if pump_w < 0:
        raise ValueError(f"pump power must be >= 0, got {pump_w}")
    if not 0.0 <= big_l < 1.0:
        raise ValueError(f"loss fraction must be in [0, 1), got {big_l}")
    if a_coeff <= 0:
        raise ValueError(f"gain coefficient must be > 0, got {a_coeff}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return big_l + (1.0 - big_l) * math.exp(sign * 2.0 * math.sqrt(a_coeff * pump_w))


def source_chain_for_levels(squeezing_db: float, antisqueezing_db: float) -> ChainModel:
    """Build a squeeze+loss chain that reproduces a measured squeezing /
    anti-squeezing pair at the detector.

    A single (r, η) pair is solved from the two target levels; this absorbs
    any excess noise on the anti-squeezed quadrature into an effective loss.
    """
    if squeezing_db <= 0 or antisqueezing_db <= 0:
        raise ValueError("levels must be positive dB magnitudes")
    r_lo = 10.0 ** (-squeezing_db / 10.0)   # below shot
    r_hi = 10.0 ** (antisqueezing_db / 10.0)  # above shot
    if r_lo * r_hi < 1.0:
        raise ValueError("levels violate the minimum-uncertainty bound")
    # Solve eta·s + (1-eta) = r_lo and eta/s + (1-eta) = r_hi for s = e^{-2r}.
    #   eta(1-s) = 1 - r_lo;  eta(1/s - 1) = r_hi - 1  =>  s = (1-r_lo)/(r_hi-1)
    s = (1.0 - r_lo) / (r_hi - 1.0)
    eta = (1.0 - r_lo) / (1.0 - s)
    if not 0.0 < eta <= 1.0 or s <= 0:
        raise ValueError("levels are not reachable by a squeeze+loss chain")
    r = -0.5 * math.log(s)
    return ChainModel(stages=(squeeze(r), loss(eta)))


# Levels measured at 438 mW pump in the reference experiment.
PAPER_SQUEEZING_DB = 5.2
PAPER_ANTISQUEEZING_DB = 13.9
PAPER_GAIN_DB = 35.0
PAPER_ETA_OPA = 0.79
PAPER_ETA_HD = 0.076


def paper_default_chain() -> ChainModel:
    """Squeezed source reproducing the −5.2 dB / +13.9 dB reference levels."""
    return source_chain_for_levels(PAPER_SQUEEZING_DB, PAPER_ANTISQUEEZING_DB)
