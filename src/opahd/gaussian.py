"""Single-mode Gaussian states and the channels of an OPA-assisted homodyne chain.

Conventions: vacuum quadrature variance is 1/2 (X = (A + A†)/√2), all noise
levels in dB are relative to shot noise, and parametric gain is a linear
power gain on the X quadrature (gain_db = 10 log10 G).
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace

VACUUM_VARIANCE = 0.5
# Relative size of the isotropic noise a linear map adds to cover its rounding.
_ROUNDING_NOISE = 16 * sys.float_info.epsilon
# Largest squeeze |r|: e^{2|r|} stays within √(float max) and e^{-2|r|} above
# its reciprocal, which leaves the other half of the exponent range to the
# rest of the chain (gain, rotations, the products in det V).
MAX_SQUEEZE_R = math.log(sys.float_info.max) / 4
# Largest psa gain: the same exponent budget, G = 10^(gain_db/10) ≤ e^{2·MAX_SQUEEZE_R}.
MAX_GAIN_DB = 20 * MAX_SQUEEZE_R / math.log(10)
# Trace headers store the LO phase as an int64 count of µrad, so |θ|·1e6 must
# stay below 2**63.
MAX_LO_PHASE_URAD = 2.0 ** 63


@dataclass(frozen=True)
class GaussianState:
    """Covariance of one mode's quadratures; a homodyne noise level needs no means."""

    var_x: float = VACUUM_VARIANCE
    var_p: float = VACUUM_VARIANCE
    cov_xp: float = 0.0

    def __post_init__(self):
        if self.var_x <= 0 or self.var_p <= 0:
            raise ValueError("quadrature variances must be positive")

    def quadrature_variance(self, theta: float) -> float:
        """Variance of X cosθ + P sinθ."""
        c, s = math.cos(theta), math.sin(theta)
        return c * c * self.var_x + s * s * self.var_p + 2 * c * s * self.cov_xp


# A channel V → X V Xᵀ + Y (Weedbrook et al., RMP 84, 621 (2012), §II) is an
# affine map on the covariance entries (var_x, cov_xp, var_p): a 3×3
# coefficient table, then an offset y on both variances, or None when Y = 0.
# The coefficients are formed as below so that each stage rounds as it always
# has: a loss scales V by η itself, never by √η·√η.

def _linear(m00: float, m01: float, m10: float, m11: float) -> tuple:
    """The map V → M V Mᵀ."""
    return ((m00 * m00, 2 * m00 * m01, m01 * m01),
            (m00 * m10, m00 * m11 + m01 * m10, m01 * m11),
            (m10 * m10, 2 * m10 * m11, m11 * m11)), None


def _scale(g: float) -> tuple:
    """X → g·X, P → P/g: a squeeze for g < 1, a noiseless gain for g > 1."""
    return _linear(g, 0.0, 0.0, 1.0 / g)


def _rotation(theta: float) -> tuple:
    c, s = math.cos(theta), math.sin(theta)
    return _linear(c, -s, s, c)


def _loss(eta: float) -> tuple:
    """Beamsplitter loss of transmissivity eta mixing in vacuum:
    V → η·V + (1 − η)/2·I."""
    return ((eta, 0.0, 0.0), (0.0, eta, 0.0), (0.0, 0.0, eta)), (1.0 - eta) * VACUUM_VARIANCE


_IDENTITY = _linear(1.0, 0.0, 0.0, 1.0)


def _fold(maps, vx: float, c: float, vp: float) -> tuple:
    """Apply maps in order to the entries (var_x, cov_xp, var_p).

    Once V has an off-diagonal part, det V = vx·vp − c² is a difference of
    terms up to tr(V)², so rounding in a linear map can leave the stored
    state a few ulps of tr(V)² below the uncertainty bound. Adding isotropic
    noise of _ROUNDING_NOISE·tr(V) to both variances, a valid classical-noise
    channel, outweighs that error and keeps the rounded state physical. A
    covariance that stays diagonal is rounded only relatively and gets no
    noise, nor does a loss, which scales every entry alike by η.
    """
    for (rx, rc, rp), y in maps:
        vx, c, vp = (rx[0] * vx + rx[1] * c + rx[2] * vp,
                     rc[0] * vx + rc[1] * c + rc[2] * vp,
                     rp[0] * vx + rp[1] * c + rp[2] * vp)
        if y is None:
            y = _ROUNDING_NOISE * (vx + vp) if c != 0.0 else 0.0
        vx += y
        vp += y
    return vx, c, vp


@dataclass(frozen=True)
class ChannelSpec:
    """One stage of the measurement chain.

    kind is one of "squeeze", "loss", "phase", "psa"; params holds exactly
    the kind's parameters keyed by name (r, eta, theta, gain_db/eta_opa), each
    a real number that is not a bool, and keeps them as floats. A psa is
    an internal loss eta_opa followed by noiseless X → √G·X, P → P/√G with
    G = 10^(gain_db/10), so its own vacuum contribution is amplified along
    with the signal. maps is the stage compiled to covariance maps.
    """

    kind: str
    params: dict = field(default_factory=dict)
    maps: tuple = field(init=False, repr=False, compare=False)

    # Per kind: each parameter with its closed range, then the stage's maps
    # built from the parameters in that order.
    _KINDS = {
        "squeeze": ((("r", -MAX_SQUEEZE_R, MAX_SQUEEZE_R),),
                    lambda r: (_scale(math.exp(-r)),)),
        "loss": ((("eta", 0.0, 1.0),), lambda eta: (_loss(eta),)),
        "phase": ((("theta", -math.inf, math.inf),), lambda theta: (_rotation(theta),)),
        "psa": ((("gain_db", 0.0, MAX_GAIN_DB), ("eta_opa", 0.0, 1.0)),
                lambda gain_db, eta_opa: (_loss(eta_opa), _scale(10.0 ** (gain_db / 20.0)))),
    }

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        ranges, build = self._KINDS[self.kind]
        names = [k for k, _, _ in ranges]
        if set(self.params) != set(names):
            raise ValueError(f"{self.kind} channel takes exactly the parameters {names}, "
                             f"got {list(self.params)}")
        p = dict(self.params)
        for k, lo, hi in ranges:
            value = p[k]
            if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                               and math.isfinite(value)):
                raise ValueError(f"{self.kind} channel parameter {k} must be a finite "
                                 f"number, got {value!r}")
            p[k] = value = float(value)
            if not lo <= value <= hi:
                raise ValueError(f"{self.kind} {k} must be within [{lo:.6g}, {hi:.6g}], "
                                 f"got {value}")
        object.__setattr__(self, "params", p)
        # An identity map changes nothing and must not add rounding noise.
        maps = build(*(p[k] for k in names))
        object.__setattr__(self, "maps", tuple(m for m in maps if m != _IDENTITY))


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
        if not (math.isfinite(self.lo_phase) and abs(self.lo_phase * 1e6) < MAX_LO_PHASE_URAD):
            raise ValueError(f"lo_phase_rad must be finite and within "
                             f"±{MAX_LO_PHASE_URAD / 1e6:.4g} rad (an int64 count of µrad), "
                             f"got {self.lo_phase!r}")
        object.__setattr__(self, "stages", tuple(self.stages))
        for st in self.stages:
            if not isinstance(st, ChannelSpec):
                raise TypeError("chain stages must be ChannelSpec instances")
        # Stages each within range can still overflow together. The shot
        # reference's maps are folded here: building it as a ChainModel would
        # run this check again without end.
        for name, shot in (("chain", False), ("shot reference chain", True)):
            maps = [m for s in self.stages if not (shot and s.kind == "squeeze") for m in s.maps]
            vx, c, vp = _fold(maps, VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE)
            det = vx * vp - c * c
            if not (vx > 0 and det > 0 and math.isfinite(vx + vp) and math.isfinite(det)):
                raise ValueError(f"{name} propagates vacuum to a covariance that is not "
                                 f"finite and positive definite")

    def propagate(self) -> GaussianState:
        """The state the chain makes of vacuum."""
        vx, c, vp = _fold([m for s in self.stages for m in s.maps],
                          VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE)
        return GaussianState(var_x=vx, var_p=vp, cov_xp=c)

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


# Levels measured at 438 mW pump in the reference experiment.
PAPER_SQUEEZING_DB = 5.2
PAPER_ANTISQUEEZING_DB = 13.9


def paper_default_chain() -> ChainModel:
    """Squeeze + loss chain reproducing the −5.2 dB / +13.9 dB reference levels.

    One (r, η) pair is solved from the two levels R₋ and R₊, which absorbs
    any excess noise on the anti-squeezed quadrature into an effective loss:
    η·s + (1 − η) = R₋ and η/s + (1 − η) = R₊ give s = (1 − R₋)/(R₊ − 1),
    with s = e^{−2r}.
    """
    r_lo = 10.0 ** (-PAPER_SQUEEZING_DB / 10.0)     # below shot
    r_hi = 10.0 ** (PAPER_ANTISQUEEZING_DB / 10.0)  # above shot
    s = (1.0 - r_lo) / (r_hi - 1.0)
    eta = (1.0 - r_lo) / (1.0 - s)
    return ChainModel(stages=(squeeze(-0.5 * math.log(s)), loss(eta)))
