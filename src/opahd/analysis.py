"""Measurement-side pipeline: averaged spectra, squeezing levels, histograms,
pump-power curve fitting, and the post-amplifier loss sweep."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import signal_chain
from .fitting import FitConvergenceError, levenberg_marquardt
from .gaussian import ChainModel, ChannelSpec, relative_quadrature_power
# synthesize_frames stays importable from here beside the whole-ensemble API.
from .signal_chain import (AcquisitionConfig, Ensemble, FrequencyResponse,  # noqa: F401
                           frame_rows, shared_frame_chunks, synthesize_frames)

# Frames per group of the Welch power sum. Rows are added one by one into a
# group's partial sum and each full group into the total; this order fixes
# spectrum.csv's bytes.
FFT_CHUNK_FRAMES = 256
# The window each analysis.window name gives, as a function of the frame length.
WINDOWS = {"rectangular": np.ones, "hann": np.hanning}


@dataclass(frozen=True)
class AnalysisOptions:
    """analyze's settings: the scope artifact's mask, histogram bins, FFT window."""

    mask_center_ghz: float = 34.0
    mask_width_ghz: float = 1.0
    histogram_bins: int = 200
    window: str = "rectangular"

    def __post_init__(self):
        if not (isinstance(self.histogram_bins, numbers.Integral)
                and self.histogram_bins >= 2):
            raise ValueError(f"histogram_bins must be an integer >= 2, "
                             f"got {self.histogram_bins!r}")
        mask = (self.mask_center_ghz, self.mask_width_ghz)
        if not (all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) for v in mask)
                and self.mask_width_ghz >= 0):
            raise ValueError(f"mask_center_ghz and mask_width_ghz must be finite and "
                             f"mask_width_ghz >= 0, got {mask!r}")
        if self.window not in WINDOWS:
            raise ValueError(f"analysis window must be {' or '.join(map(repr, WINDOWS))}, "
                             f"got {self.window!r}")


@dataclass(frozen=True)
class SpectrumEstimate:
    """Frame-averaged one-sided PSD on a strictly increasing frequency grid."""

    freqs: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        if self.freqs.shape != self.power.shape:
            raise ValueError("freqs and power must have the same shape")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must be strictly increasing")

    def power_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.power)


class FrameStats:
    """Reductions of one ensemble of `frames` frames, fed chunk by chunk: the
    power sum of averaged_fft, the per-frame variances (`variances`, filled
    up to `count`) and the sample range [`lo`, `hi`], NaN if any sample is.

    Any chunking, over one add or several, gives the same bytes as one pass
    over the whole block. Each row's |X|² is added in turn to the partial sum
    of its FFT_CHUNK_FRAMES-row group, which is the order in which numpy's
    sum(axis=0) adds the rows of a C-contiguous group, and each full group's
    partial goes into the total. add reduces its chunks in sub-chunks of at
    most frame_rows(samples_per_frame, FFT_CHUNK_FRAMES) rows, through a
    workspace it allocates once per call and drops on return.
    """

    def __init__(self, config: AcquisitionConfig, frames: int,
                 window: str = AnalysisOptions.window):
        n = config.samples_per_frame
        self.config = config
        self.window = window
        self._scale = 1.0 / (config.sample_rate * np.sum(WINDOWS[window](n) ** 2))
        self.count = 0
        self.variances = np.empty(frames)
        self.lo = np.float64(np.inf)
        self.hi = np.float64(-np.inf)
        self._power_sum = np.zeros(n // 2 + 1)
        self._partial = np.zeros(n // 2 + 1)     # the current group's partial sum
        self._in_group = 0

    def add(self, chunks) -> None:
        """Add each rows × samples_per_frame chunk of chunks, the next frames."""
        n = self.config.samples_per_frame
        rows = frame_rows(n, FFT_CHUNK_FRAMES)
        win = None if self.window == "rectangular" else WINDOWS[self.window](n)  # x * 1.0 is x
        windowed = None if win is None else np.empty((rows, n))
        spec = np.empty((rows, n // 2 + 1), dtype=np.complex128)
        spent = spec.reshape(-1).view(np.float64)   # holds m × n once |X|² is taken
        # Row 0 takes the group's partial sum, rows 1.. the |X|² added to it.
        power = np.empty((rows + 1, n // 2 + 1))
        for chunk in chunks:
            k = len(chunk)
            if chunk.ndim != 2 or chunk.shape[1] != n:
                raise ValueError("chunk must be a rows × samples_per_frame block")
            if self.count + k > len(self.variances):
                raise ValueError(f"more than the {len(self.variances)} frames announced")
            i = 0
            while i < k:
                m = min(k - i, rows, FFT_CHUNK_FRAMES - self._in_group)
                data = chunk[i:i + m]
                if windowed is not None:
                    np.multiply(data, win, out=windowed[:m])
                np.abs(np.fft.rfft(data if windowed is None else windowed[:m], axis=1,
                                   out=spec[:m]), out=power[1:m + 1])
                np.square(power[1:m + 1], out=power[1:m + 1])
                power[0] = self._partial
                np.add.reduce(power[:m + 1], axis=0, out=self._partial)
                _variances_into(data, self.variances[self.count:self.count + m],
                                spent[:m * n].reshape(m, n))
                self.lo = np.minimum(self.lo, data.min())     # NaN propagates
                self.hi = np.maximum(self.hi, data.max())
                self.count += m
                self._in_group += m
                if self._in_group == FFT_CHUNK_FRAMES:
                    self._power_sum += self._partial
                    self._partial[:] = 0.0
                    self._in_group = 0
                i += m

    def spectrum(self) -> SpectrumEstimate:
        """Power-averaged periodogram of the frames added so far, one-sided.

        Each bin with a negative-frequency mirror is doubled. DC, and for even
        samples_per_frame the Nyquist bin, have none and keep single weight:
        they read half of psd_model's S(f), and with the rectangular window
        Σ power·Δf is the mean square sample (Heinzel, Rüdiger & Schilling,
        "Spectrum and spectral density estimation by the DFT", MPI für
        Gravitationsphysik, Hannover (2002)).
        """
        if self.count == 0:
            raise ValueError("need at least one frame")
        power = (self._power_sum + self._partial) * (self._scale / self.count)
        n = self.config.samples_per_frame
        power[1:(n + 1) // 2] *= 2.0  # fold negative frequencies
        freqs = np.fft.rfftfreq(n, 1.0 / self.config.sample_rate)
        return SpectrumEstimate(freqs=freqs, power=power)


def averaged_fft(frames: Ensemble, window: str = AnalysisOptions.window) -> SpectrumEstimate:
    """Power-averaged per-frame periodogram (one-sided, PSD units), with DC
    (and Nyquist, for even frame lengths) at half weight: see FrameStats.spectrum."""
    if len(frames) == 0:
        raise ValueError("need at least one frame")
    stats = FrameStats(frames.config, len(frames), window)
    stats.add([frames.samples])
    return stats.spectrum()


def relative_level(signal: SpectrumEstimate, shot: SpectrumEstimate) -> SpectrumEstimate:
    """Bin-wise signal/shot ratio."""
    if signal.freqs.shape != shot.freqs.shape or not np.allclose(signal.freqs, shot.freqs):
        raise ValueError("signal and shot spectra must share one frequency grid")
    return SpectrumEstimate(freqs=signal.freqs, power=signal.power / shot.power)


def artifact_mask(freqs: np.ndarray, center_hz: float = AnalysisOptions.mask_center_ghz * 1e9,
                  width_hz: float = AnalysisOptions.mask_width_ghz * 1e9) -> np.ndarray:
    """Boolean mask, False inside the excluded artifact window."""
    f = np.asarray(freqs)
    return np.abs(f - center_hz) > width_hz / 2.0


def frame_variances(block: np.ndarray) -> np.ndarray:
    """Per-frame sample variance of a frames × samples block, block.var(axis=1)
    bit for bit, taken a chunk of rows at a time through one buffer."""
    n = block.shape[1]
    rows = frame_rows(n, len(block))
    out = np.empty(len(block))
    scratch = np.empty((rows, n))
    for i in range(0, len(block), rows):
        part = block[i:i + rows]
        _variances_into(part, out[i:i + rows], scratch[:len(part)])
    return out


def _variances_into(rows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """rows.var(axis=1) into out, with scratch (rows' shape) for the deviations:
    np.var's own sequence of ufuncs (numpy/_core/_methods.py), so the same bits."""
    n = rows.shape[1]
    np.add.reduce(rows, axis=1, out=out)
    np.divide(out, n, out=out)
    np.subtract(rows, out[:, None], out=scratch)
    np.square(scratch, out=scratch)
    np.add.reduce(scratch, axis=1, out=out)
    np.divide(out, n, out=out)


def variance_level(frames: Ensemble, shot_frames: Ensemble) -> tuple[float, float]:
    """Time-domain noise level of signal vs shot ensembles.

    Returns (level_db, err_db); the error is the standard error across
    frames propagated through the log ratio.
    """
    return level_from_variances(frame_variances(frames.samples),
                                frame_variances(shot_frames.samples))


def level_from_variances(v_sig: np.ndarray, v_shot: np.ndarray) -> tuple[float, float]:
    """variance_level from the per-frame variances of the two ensembles."""
    if len(v_sig) < 2 or len(v_shot) < 2:
        raise ValueError("need at least two frames per ensemble")
    m_sig, m_shot = v_sig.mean(), v_shot.mean()
    if not (math.isfinite(m_sig) and math.isfinite(m_shot)):
        raise ValueError("the level or the plateau statistics are not finite: "
                         "a sample power overflows")
    if m_sig <= 0 or m_shot <= 0:
        raise FloatingPointError("degenerate (zero-variance) ensemble")
    # A deviation whose square overflows makes an infinite error; analyze
    # rejects it, and the sweep uses only the level.
    with np.errstate(over="ignore"):
        se_sig = v_sig.std(ddof=1) / math.sqrt(len(v_sig))
        se_shot = v_shot.std(ddof=1) / math.sqrt(len(v_shot))
    level_db = 10.0 * math.log10(m_sig / m_shot)
    err_db = (10.0 / math.log(10.0)) * math.hypot(se_sig / m_sig, se_shot / m_shot)
    return level_db, err_db


def histogram(frames: Ensemble, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled sample histogram across an ensemble of frames."""
    data = frames.samples
    return pooled_histogram([data], bins, data.min(), data.max())


def pooled_histogram(chunks, bins: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all samples of the chunks, whose range is [lo, hi]: the
    same edges and counts as one np.histogram call on all of them.

    np.histogram puts sample x in bin trunc(f), f = (x - first) / (last -
    first) · bins, moved by one where x lies on the wrong side of the linspace
    edges around it. Here f is computed for every sample, in blocks of
    CHUNK_BYTES // 16 samples through buffers allocated once. The samples
    whose f lies within _screen_margin of an integer, at or past either end of
    the range, or NaN are counted by numpy's own np.histogram call with the
    same bins and range; these sit in the few blocks that hold the extremes.
    """
    if bins < 2:
        raise ValueError("need at least two bins")
    edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
    first, last = float(lo), float(hi)
    if first == last:                   # np.histogram widens an empty range
        first, last = first - 0.5, last + 0.5
    width = last - first
    margin = _screen_margin(first, last, width, bins)
    block = signal_chain.CHUNK_BYTES // 16
    f_buf, trunc_buf = np.empty(block), np.empty(block)
    ok_buf, cmp_buf = np.empty(block, dtype=bool), np.empty(block, dtype=bool)
    counts = np.zeros(bins, dtype=np.intp)
    # NaN, infinities and overflows are screened out; no warning is due.
    with np.errstate(invalid="ignore", over="ignore"):
        for chunk in chunks:
            flat = np.ravel(chunk)
            for start in range(0, len(flat), block):
                x = flat[start:start + block]
                n = len(x)
                f, t, ok, cmp = f_buf[:n], trunc_buf[:n], ok_buf[:n], cmp_buf[:n]
                np.subtract(x, first, out=f)
                np.divide(f, width, out=f)
                np.multiply(f, bins, out=f)
                np.trunc(f, out=t)
                np.less(f, bins, out=ok)
                np.subtract(f, t, out=f)            # the fraction of f, exactly
                ok &= np.greater(f, margin, out=cmp)
                ok &= np.less(f, 1.0 - margin, out=cmp)
                rest = np.flatnonzero(np.logical_not(ok, out=ok))
                t[rest] = bins                      # a bin past the last, cut off below
                bin_of = f.view(np.intp)
                np.copyto(bin_of, t, casting="unsafe")
                counts += np.bincount(bin_of, minlength=bins + 1)[:bins]
                if len(rest):
                    counts += np.histogram(x[rest], bins, range=(lo, hi))[0]
    return edges, counts


def _screen_margin(first: float, last: float, width: float, bins: int) -> float:
    """A distance in bins such that a sample whose f (see pooled_histogram)
    lies farther than it from every integer, with 0 < f < bins, has bin
    trunc(f) in np.histogram: inside the range, and strictly between the
    linspace edges around that bin, so that neither correction fires.

    Let u = 2**-53 and M = max(|first|, |last|). While nothing underflows, the
    four roundings in width = fl(last - first) and f = fl(fl(fl(x - first) /
    width) · bins) each have relative error at most u, so f lies within 4.01u
    · bins of the sample's exact position in bins. linspace makes edges[k] =
    fl(fl(k · fl(width / bins)) + first): width's rounding and the next two
    move it by under 3.01u · bins bins, and the last by under u · M, which is
    u · bins · M / width bins. Together f and the edges can be off by under
    u · bins · (7.04 + M / width) bins; 4u · bins · (5 + M / width) leaves
    room for the rounding of the margin and of 1 - margin as well.

    x - first is exact when it is subnormal, and a quotient under the normal
    range gives f < margin, so only a subnormal linspace step width / bins
    breaks the bound (numpy rejects a width that overflows). Then no sample
    is settled by f, as none is whenever the margin reaches half a bin.
    """
    if width / bins < np.finfo(np.float64).tiny:
        return math.inf
    return 4.0 * 2.0 ** -53 * bins * (5.0 + max(abs(first), abs(last)) / width)


@dataclass(frozen=True)
class SqueezeFitResult:
    """Pump-curve fit output: loss fraction, gain coefficient, diagnostics."""

    big_l: float
    a_coeff: float
    covariance: np.ndarray
    residuals_squeeze: np.ndarray
    residuals_antisqueeze: np.ndarray
    cost: float
    n_iter: int


def _pump_model(pump_w: np.ndarray, two_sign: np.ndarray, weights: np.ndarray,
                signed_weights: np.ndarray, big_l: float, a_coeff: float):
    """R±(P) at each point, and a callable giving the C-contiguous (n, 2)
    Jacobian in (L, a) with row i scaled by weights[i]. For pump_w ≥ 0 and
    a_coeff > 0; two_sign is 2 · sign and signed_weights is sign · weights,
    with sign ±1 per point."""
    e = np.exp(two_sign * np.sqrt(a_coeff * pump_w))
    gain = (1.0 - big_l) * e

    def jacobian() -> np.ndarray:
        # gain · sqrt(P/a) · (sign · w) is (gain · sign) · sqrt(P/a) · w
        # exactly, since a factor of ±1 only sets the sign.
        jac = np.empty((len(e), 2))
        np.multiply(1.0 - e, weights, out=jac[:, 0])
        np.multiply(gain * np.sqrt(pump_w / a_coeff), signed_weights, out=jac[:, 1])
        return jac

    return big_l + gain, jacobian


def fit_pump_curve(points: list[tuple[float, float, int]]) -> SqueezeFitResult:
    """Weighted nonlinear least squares of R±(P) = L + (1−L)exp(±2√(aP)).

    points are (pump_w, level_rel, branch) with pump_w ≥ 0 and branch +1 for
    anti-squeezing and −1 for squeezing. Residuals are weighted by 1/level,
    i.e. constant variance on the dB scale. Deterministic multi-start
    initialization.
    """
    if len(points) < 3:
        raise ValueError("need at least three points")
    table = np.array(points, dtype=float)
    if table.ndim != 2 or table.shape[1] != 3:
        raise ValueError("points must be (pump_w, level_rel, branch) triples")
    pump, level, sign = table.T.copy()
    if not (np.isfinite(pump).all() and np.isfinite(level).all()):
        raise ValueError("pump powers and levels must be finite")
    lowest = pump.min()
    if lowest < 0:
        i = int(pump.argmin())
        raise ValueError(f"pump powers must be non-negative; point {i} has {float(lowest)!r} W")
    if (level <= 0).any():
        raise ValueError("levels must be positive (linear relative power)")
    if not (np.abs(sign) == 1.0).all():
        raise ValueError("branch must be +1 or -1")
    if lowest == pump.max():
        raise ValueError("points must span at least two pump powers")
    # -0.0 becomes 0.0, so that √(P/a) is +0.0 at zero pump.
    pump = np.where(pump > 0, pump, 0.0)
    two_sign = sign * 2.0
    weights = 1.0 / level
    signed_weights = sign * weights

    def weighted_model(p):
        model, jac = _pump_model(pump, two_sign, weights, signed_weights, *p)
        return (model - level) * weights, jac

    bounds = ([0.0, 1e-12], [1.0 - 1e-9, math.inf])
    refs = _highest_pump_points(pump, level, sign)
    best = None
    last_error: FitConvergenceError | None = None
    # A trial step that sends a far out overflows exp and ||r||²; its cost is
    # inf and the step is rejected, so the warning would report nothing. At
    # an absurd pump (kilowatts) the result itself overflows, or its Jacobian
    # holds 0 · inf; the caller reports a result that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for l0 in (0.05, 0.3, 0.6):
            for a0 in _initial_gain_coefficients(refs, l0):
                try:
                    p, cost, cov, n_iter = levenberg_marquardt(weighted_model, [l0, a0], bounds)
                except FitConvergenceError as err:
                    last_error = err
                    continue
                if best is None or cost < best[1]:
                    best = (p, cost, cov, n_iter)
        if best is None:
            assert last_error is not None
            raise last_error
        p, cost, cov, n_iter = best
        model, _ = _pump_model(pump, two_sign, weights, signed_weights, *p.tolist())
    resid = model - level
    return SqueezeFitResult(
        big_l=float(p[0]),
        a_coeff=float(p[1]),
        covariance=cov,
        residuals_squeeze=resid[sign < 0],
        residuals_antisqueeze=resid[sign > 0],
        cost=cost,
        n_iter=n_iter,
    )


def _highest_pump_points(pump, level, sign) -> list[tuple[float, float]]:
    """(pump, level) at each branch's highest nonzero pump power, anti-squeezing
    first; the first such point where the highest power repeats."""
    refs = []
    for branch in (1.0, -1.0):
        branch_pump = np.where(sign == branch, pump, 0.0)
        i = int(branch_pump.argmax())
        if branch_pump[i] > 0:
            refs.append((float(pump[i]), float(level[i])))
    return refs


def _initial_gain_coefficients(refs, l0) -> list[float]:
    """Gain-coefficient starting values from a log-linearization of each
    branch's highest-pump point (see _highest_pump_points)."""
    guesses = []
    for p_ref, y_ref in refs:
        inner = (y_ref - l0) / (1.0 - l0)
        if inner <= 0:
            continue
        root = abs(math.log(inner)) / 2.0
        if root > 0:
            guesses.append(root ** 2 / p_ref)
    if not guesses:
        guesses = [1.0]
    return guesses


@dataclass(frozen=True)
class LossSweepRow:
    gain_db: float
    added_loss: float
    squeezing_db_oracle: float
    squeezing_db_mc: float | None = None


def _modified_chain(chain: ChainModel, gain_db: float, added_loss: float) -> ChainModel:
    """Override the amplifier gain and fold added loss into the final loss stage."""
    stages = list(chain.stages)
    psa_idx = [i for i, s in enumerate(stages) if s.kind == "psa"]
    if len(psa_idx) != 1:
        raise ValueError("sweep chain must contain exactly one psa stage")
    loss_after = [i for i in range(psa_idx[0] + 1, len(stages)) if stages[i].kind == "loss"]
    if not loss_after:
        raise ValueError("sweep chain must contain a loss stage after the psa")
    i_psa, i_det = psa_idx[0], loss_after[-1]
    stages[i_psa] = ChannelSpec("psa", {**stages[i_psa].params, "gain_db": float(gain_db)})
    eta = stages[i_det].params["eta"] * (1.0 - added_loss)
    stages[i_det] = ChannelSpec("loss", {"eta": eta})
    return replace(chain, stages=tuple(stages))


def loss_sweep(chain_base: ChainModel,
               added_loss_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                                      0.7, 0.8, 0.9),
               gains_db: tuple[float, ...] = (0.0, 35.0),
               monte_carlo: bool = False,
               resp: FrequencyResponse | None = None,
               acq: AcquisitionConfig | None = None,
               mc_frames: int = 256, master_seed: int = 0) -> list[LossSweepRow]:
    """Measured squeezing level vs loss added after the amplifier.

    The oracle route propagates the chain in closed form; the optional Monte
    Carlo route synthesizes traces and measures the level from frame variances.
    Every point's signal ensemble is drawn from master_seed and its shot
    ensemble from master_seed + 1, so all points share those two seeds' streams
    (common random numbers): each frame's noise is drawn once and shaped for
    every point in turn. Only the points × mc_frames per-frame variances are
    kept, so memory is O(chunk) + 16 · points · mc_frames bytes.
    """
    if any(not 0.0 <= x < 1.0 for x in added_loss_grid):
        raise ValueError("added loss values must be in [0, 1)")
    if monte_carlo and (not isinstance(mc_frames, numbers.Integral) or mc_frames < 2):
        raise ValueError(f"mc_frames must be an integer >= 2, got {mc_frames!r}")
    points = [(gain_db, added) for gain_db in gains_db for added in added_loss_grid]
    chains = [_modified_chain(chain_base, gain_db, added) for gain_db, added in points]
    oracle_db = [10.0 * math.log10(relative_quadrature_power(c, 0.0)) for c in chains]
    mc_db = [None] * len(chains)
    if monte_carlo and chains:
        resp_ = resp or FrequencyResponse()
        acq_ = acq or AcquisitionConfig(frames=mc_frames)
        v_sig = _sweep_variances(chains, resp_, acq_, master_seed, mc_frames)
        v_shot = _sweep_variances([c.without_squeezing() for c in chains], resp_, acq_,
                                  master_seed + 1, mc_frames)
        mc_db = [level_from_variances(s, t)[0] for s, t in zip(v_sig, v_shot)]
    return [LossSweepRow(gain_db, added, o, m)
            for (gain_db, added), o, m in zip(points, oracle_db, mc_db)]


def _sweep_variances(chains: list[ChainModel], resp: FrequencyResponse,
                     acq: AcquisitionConfig, master_seed: int, frames: int) -> np.ndarray:
    """Per-frame variances, chains × frames, of each chain's ensemble at θ = 0,
    all drawn from the streams of one master seed."""
    out = np.empty((len(chains), frames))
    for start, j, chunk in shared_frame_chunks(chains, resp, acq, 0.0, master_seed, frames):
        out[j, start:start + len(chunk)] = frame_variances(chunk)
    return out
