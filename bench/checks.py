"""Correctness checks on the program's outputs, against a model computed here.

Nothing in this file imports opahd: the chain is propagated with its own 2x2
covariance matrices, the detector response is its own order-4 Butterworth
|H|^2 with the scope's hard cutoff, and the electrical floor is integrated
over the band. Each check returns a list of failure messages.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import (DETECTOR_F3DB_HZ, ETA_HD, ETA_OPA, FILTER_ORDER,
                       PSA_GAIN_DB, SCOPE_CUTOFF_HZ, Frames, Workload)

TRACE_HEADER_BYTES = 64
LEVEL_SIGMAS = 5.0          # allowed |measured - model| in units of the stated error
SPECTRUM_SIGMAS = 5.0
SPECTRUM_SUBBANDS = 8
MC_SIGMAS = 5.0
ORACLE_TOL_DB = 1e-6
FIT_L_TOL, FIT_A_REL_TOL, FIT_MIN_SHARE = 0.02, 0.05, 0.95
_DB = 10.0 / math.log(10.0)


def quadrature_variances(r: float, gain_db: float, eta: float) -> tuple[float, float]:
    """X-quadrature variances (squeezer on, squeezer off) after
    squeeze(r) -> loss(eta_OPA) -> gain G -> loss(eta), vacuum variance 1/2."""
    def lossy(v, t):
        return t * v + (1.0 - t) * 0.5 * np.eye(2)

    g = 10.0 ** (gain_db / 10.0)
    amp = np.diag([math.sqrt(g), 1.0 / math.sqrt(g)])
    sq = np.diag([math.exp(-r), math.exp(r)])
    out = []
    for v in (sq @ (0.5 * np.eye(2)) @ sq.T, 0.5 * np.eye(2)):
        v = amp @ lossy(v, ETA_OPA) @ amp.T
        out.append(float(lossy(v, eta)[0, 0]))
    return out[0], out[1]


def closed_form_level_db(r: float, gain_db: float, eta_hd: float) -> float:
    """The paper's eta_eff = eta_OPA*eta_HD / (eta_HD + (1 - eta_HD)/G) applied
    to a source squeezed by e^{-2r}."""
    g = 10.0 ** (gain_db / 10.0)
    eta_eff = ETA_OPA * eta_hd / (eta_hd + (1.0 - eta_hd) / g)
    return 10.0 * math.log10(1.0 - eta_eff * (1.0 - math.exp(-2.0 * r)))


def h2(f: np.ndarray) -> np.ndarray:
    h = 1.0 / (1.0 + (np.abs(f) / DETECTOR_F3DB_HZ) ** (2 * FILTER_ORDER))
    return np.where(np.abs(f) > SCOPE_CUTOFF_HZ, 0.0, h)


class Spectrum:
    """One-sided PSD S(f) = |H|^2 (2/fs) v + S_el of a frame, with v the
    quadrature variance relative to the squeezer-off reference."""

    def __init__(self, frames: Frames, v_rel: float):
        self.n = frames.samples_per_frame
        self.fs = frames.sample_rate
        self.v_rel = v_rel
        self.shot = 2.0 / self.fs       # unit-variance white noise, one-sided
        # The floor sits clearance_db below the shot noise at 43 GHz.
        self.floor = (0.0 if frames.clearance_db is None else float(h2(np.array([43e9]))[0])
                      * self.shot * 10.0 ** (-frames.clearance_db / 10.0))

    def __call__(self, f):
        return h2(f) * self.shot * self.v_rel + self.floor

    def _integral(self, power: int) -> float:
        top = min(SCOPE_CUTOFF_HZ, self.fs / 2.0)
        f = np.linspace(0.0, top, 200_001)
        inside = np.trapezoid(self(f) ** power, f)
        return float(inside + self.floor ** power * (self.fs / 2.0 - top))

    def variance(self) -> float:
        return self._integral(1)

    def effective_samples(self) -> float:
        """Independent samples per frame for the variance of a sample variance:
        Var(s^2)/s^4 = 2/n_eff, n_eff = n (int S)^2 / ((fs/2) int S^2)."""
        return self.n * self._integral(1) ** 2 / ((self.fs / 2.0) * self._integral(2))


def model_pair(frames: Frames, r: float, gain_db: float, eta: float) -> tuple[Spectrum, Spectrum]:
    v_sig, v_shot = quadrature_variances(r, gain_db, eta)
    return Spectrum(frames, v_sig / v_shot), Spectrum(frames, 1.0)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_pipeline(w: Workload, r: float, out: Path) -> list[str]:
    """simulate + analyze outputs: trace sizes, level, spectrum shape, histogram."""
    errors = []
    frames = w.pipeline
    n, m = frames.samples_per_frame, frames.frames
    expected = TRACE_HEADER_BYTES + m * n * 8
    for name in ("signal.trace", "shot.trace"):
        size = (out / name).stat().st_size
        if size != expected:
            errors.append(f"{name}: {size} bytes, expected {expected}")

    sig, shot = model_pair(frames, r, PSA_GAIN_DB, ETA_HD)
    levels = json.loads((out / "levels.json").read_text())
    model_db = 10.0 * math.log10(sig.variance() / shot.variance())
    dev = levels["level_db"] - model_db
    if not abs(dev) <= LEVEL_SIGMAS * levels["level_err_db"]:
        errors.append(f"level {levels['level_db']:+.5f} dB vs model {model_db:+.5f} dB: "
                      f"off by {dev:+.5f} dB > {LEVEL_SIGMAS} x {levels['level_err_db']:.5f} dB")

    spec = _rows(out / "spectrum.csv")[1:-1]          # drop DC and Nyquist
    f = np.array([float(row["freq_hz"]) for row in spec])
    measured = np.array([float(row["power_rel"]) for row in spec])
    band = f <= DETECTOR_F3DB_HZ
    # A bin of an m-frame average is S * chi2(2m) / 2m, so the ratio of two
    # independent ones has mean (S_sig / S_shot) * m / (m - 1).
    q = measured[band] / (sig(f[band]) / shot(f[band]) * m / (m - 1))
    for i, part in enumerate(np.array_split(q, SPECTRUM_SUBBANDS)):
        se = part.std(ddof=1) / math.sqrt(len(part))
        if not abs(part.mean() - 1.0) <= SPECTRUM_SIGMAS * se:
            errors.append(f"spectrum sub-band {i}: measured/model {part.mean():.5f} "
                          f"> {SPECTRUM_SIGMAS} x {se:.5f} from 1")

    counts = sum(int(row["count"]) for row in _rows(out / "histogram.csv"))
    if counts != m * n:
        errors.append(f"histogram counts sum to {counts}, expected {m * n}")
    return errors


def check_sweep(w: Workload, r: float, out: Path) -> list[str]:
    """sweep.csv: oracle column against the closed form, MC column against the
    model within a bound set by the frame and sample counts."""
    errors = []
    rows = _rows(out / "sweep.csv")
    want = [(g, a) for g in w.gains_db for a in w.added_loss]
    got = [(float(row["gain_db"]), float(row["added_loss"])) for row in rows]
    if got != want:
        return [f"sweep rows {got} != {want}"]
    for row, (gain_db, added) in zip(rows, want):
        eta = ETA_HD * (1.0 - added)
        oracle = float(row["squeezing_db_oracle"])
        closed = closed_form_level_db(r, gain_db, eta)
        if not abs(oracle - closed) <= ORACLE_TOL_DB:
            errors.append(f"oracle at G={gain_db} dB, loss {added}: {oracle} "
                          f"vs closed form {closed:.9f}")
        sig, shot = model_pair(w.sweep, r, gain_db, eta)
        model_db = 10.0 * math.log10(sig.variance() / shot.variance())
        sigma_db = _DB * math.sqrt(2.0 / (w.mc_frames * sig.effective_samples())
                                   + 2.0 / (w.mc_frames * shot.effective_samples()))
        mc = float(row["squeezing_db_mc"])
        if not abs(mc - model_db) <= MC_SIGMAS * sigma_db:
            errors.append(f"MC at G={gain_db} dB, loss {added}: {mc:+.5f} vs model "
                          f"{model_db:+.5f} dB, bound {MC_SIGMAS} x {sigma_db:.5f} dB")
    return errors


def check_fits(curves, results) -> list[str]:
    """results[i] is the fit of curves[i], or the exception it raised."""
    finite = [(c, res) for c, res in zip(curves, results) if c.finite]
    hits = sum(1 for c, res in finite
               if not isinstance(res, Exception)
               and abs(res.big_l - c.big_l) <= FIT_L_TOL
               and abs(res.a_coeff - c.a_coeff) <= FIT_A_REL_TOL * c.a_coeff)
    if finite and hits < FIT_MIN_SHARE * len(finite):
        return [f"pump fits: {hits}/{len(finite)} recover (L, a), need {FIT_MIN_SHARE:.0%}"]
    return []
