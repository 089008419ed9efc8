"""Spectrum averaging, level estimation, pump-curve fit, loss sweep."""
import ast
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahd import signal_chain
from opahd.analysis import (LossSweepRow, SpectrumEstimate, artifact_mask,
                            averaged_fft, fit_pump_curve, histogram,
                            loss_sweep, pooled_histogram, relative_level, variance_level)
from opahd.gaussian import (ChainModel, effective_efficiency, loss,
                            paper_default_chain, psa, pump_curve,
                            relative_quadrature_power, squeeze)
from opahd.signal_chain import (AcquisitionConfig, Ensemble,
                                FrequencyResponse, synthesize_frames)


def small_acq(frames=64, n=1024, clearance=None):
    return AcquisitionConfig(record_duration=n * 6.25e-12, samples_per_frame=n,
                             frames=frames, clearance_at_43ghz_db=clearance)


def make_frames(values_2d, acq):
    return Ensemble(values_2d, acq, 0.0)


class TestAveragedFft:
    def test_zero_frame(self):
        acq = small_acq(frames=1)
        spec = averaged_fft(make_frames(np.zeros((1, 1024)), acq))
        assert np.all(spec.power == 0.0)

    def test_vacuum_flat_with_expected_scatter(self):
        acq = small_acq(frames=2048)
        resp = FrequencyResponse(detector_f3db=1e15, scope_cutoff=1e15)
        frames = synthesize_frames(ChainModel(), resp, acq, 0.0, master_seed=4)
        spec = averaged_fft(frames)
        interior = spec.power[1:-1]
        assert interior.std() / interior.mean() == pytest.approx(
            1 / math.sqrt(len(frames)), rel=0.15)

    def test_power_linearity(self):
        acq = small_acq(frames=4)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 1024))
        s1 = averaged_fft(make_frames(data, acq))
        s2 = averaged_fft(make_frames(3.0 * data, acq))
        assert np.allclose(s2.power, 9.0 * s1.power, rtol=1e-10)

    def test_parseval_scaling(self):
        # integral of the periodogram equals the mean squared sample value
        acq = small_acq(frames=8)
        rng = np.random.default_rng(1)
        data = rng.standard_normal((8, 1024))
        spec = averaged_fft(make_frames(data, acq))
        # discrete Parseval: full weight on the DC and Nyquist bins
        w = np.full(len(spec.power), acq.sample_rate / 1024)
        assert float(np.sum(spec.power * w)) == pytest.approx(
            float(np.mean(data ** 2)), rel=1e-10)

    def test_parseval_scaling_odd_length(self):
        # For odd n the last bin is not Nyquist: it has a negative-frequency
        # mirror and is folded like the rest, so only DC keeps single weight.
        acq = small_acq(frames=8, n=1001)
        data = np.random.default_rng(1).standard_normal((8, 1001))
        spec = averaged_fft(make_frames(data, acq))
        assert float(np.sum(spec.power)) * acq.sample_rate / 1001 == pytest.approx(
            float(np.mean(data ** 2)), rel=1e-10)

    def test_mismatched_lengths(self):
        # an ensemble whose width is not samples_per_frame cannot be built
        with pytest.raises(ValueError):
            averaged_fft(make_frames(np.zeros((2, 512)), small_acq(n=1024)))

    def test_empty(self):
        with pytest.raises(ValueError):
            averaged_fft([])


class TestRelativeLevel:
    def test_self_ratio_is_exactly_unity(self):
        acq = small_acq(frames=2)
        rng = np.random.default_rng(2)
        spec = averaged_fft(make_frames(rng.standard_normal((2, 1024)), acq))
        rel = relative_level(spec, spec)
        assert np.all(rel.power == 1.0)

    def test_doubled_power(self):
        acq = small_acq(frames=2)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((2, 1024))
        s1 = averaged_fft(make_frames(data, acq))
        s2 = averaged_fft(make_frames(math.sqrt(2.0) * data, acq))
        rel = relative_level(s2, s1)
        assert np.allclose(10 * np.log10(rel.power), 3.0103, atol=1e-6)

    def test_grid_mismatch(self):
        a = SpectrumEstimate(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        b = SpectrumEstimate(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            relative_level(a, b)


class TestVarianceLevel:
    def test_identical_ensembles(self):
        acq = small_acq(frames=32)
        resp = FrequencyResponse()
        frames = synthesize_frames(ChainModel(), resp, acq, 0.0, master_seed=5)
        level, err = variance_level(frames, frames)
        assert level == 0.0
        assert err >= 0.0

    def test_degenerate_input(self):
        acq = small_acq(frames=2)
        zeros = make_frames(np.zeros((2, 1024)), acq)
        with pytest.raises(FloatingPointError):
            variance_level(zeros, zeros)

    def test_needs_two_frames(self):
        acq = small_acq(frames=1)
        one = make_frames(np.random.default_rng(0).standard_normal((1, 1024)), acq)
        with pytest.raises(ValueError):
            variance_level(one, one)

    def test_paper_reference_levels(self):
        resp = FrequencyResponse()
        acq = small_acq(frames=1024, clearance=20.0)
        chain = paper_default_chain()
        shot = synthesize_frames(chain.without_squeezing(), resp, acq, 0.0, master_seed=7)
        sq = synthesize_frames(chain, resp, acq, 0.0, master_seed=8)
        anti = synthesize_frames(chain, resp, acq, math.pi / 2, master_seed=9)
        level_sq, err_sq = variance_level(sq, shot)
        level_anti, err_anti = variance_level(anti, shot)
        assert level_sq == pytest.approx(-5.2, abs=0.5)
        assert err_sq <= 0.5
        assert level_anti == pytest.approx(13.9, abs=0.3)
        assert err_anti <= 0.3


class TestHistogram:
    def test_all_zero_single_bin(self):
        acq = small_acq(frames=1)
        edges, counts = histogram(make_frames(np.zeros((1, 1024)), acq), bins=10)
        assert counts.sum() == 1024
        assert np.count_nonzero(counts) == 1

    def test_counts_sum(self):
        acq = small_acq(frames=4)
        rng = np.random.default_rng(6)
        frames = make_frames(rng.standard_normal((4, 1024)), acq)
        _, counts = histogram(frames, bins=50)
        assert counts.sum() == 4 * 1024

    def test_vacuum_gaussianity(self):
        resp = FrequencyResponse(detector_f3db=1e15, scope_cutoff=1e15)
        acq = small_acq(frames=256)
        frames = synthesize_frames(ChainModel(), resp, acq, 0.0, master_seed=10)
        data = frames.samples.ravel()
        n = len(data)
        kurt = float(np.mean(data ** 4) / np.mean(data ** 2) ** 2 - 3.0)
        assert abs(kurt) < 5 * math.sqrt(24.0 / n)

    def test_width_ratio_tracks_variance_level(self):
        resp = FrequencyResponse()
        acq = small_acq(frames=256, clearance=20.0)
        chain = paper_default_chain()
        sq = synthesize_frames(chain, resp, acq, 0.0, master_seed=11)
        shot = synthesize_frames(chain.without_squeezing(), resp, acq, 0.0, master_seed=12)
        level_db, _ = variance_level(sq, shot)
        std_sq = sq.samples.std()
        std_shot = shot.samples.std()
        assert std_sq / std_shot == pytest.approx(10 ** (level_db / 20), rel=1e-3)

    def test_bins_validation(self):
        acq = small_acq(frames=1)
        with pytest.raises(ValueError):
            histogram(make_frames(np.zeros((1, 1024)), acq), bins=1)


def ulp_neighbours(values, steps=4):
    """values and each one's 1 .. steps ulp neighbours on both sides."""
    out = [values]
    for direction in (-np.inf, np.inf):
        x = values
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def assert_matches_numpy(chunks, bins, lo, hi):
    edges, counts = pooled_histogram(chunks, bins, lo, hi)
    ref_counts, ref_edges = np.histogram(np.concatenate([np.ravel(c) for c in chunks]),
                                         bins=bins, range=(lo, hi))
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(counts, ref_counts)
    assert counts.dtype == ref_counts.dtype


def ragged_chunks(data, width=11):
    """data, padded with copies of its last value, as 2-D chunks of 1, 2,
    3, ... rows of `width` samples."""
    pad = -len(data) % width
    block = np.concatenate([data, np.full(pad, data[-1])]).reshape(-1, width)
    chunks, start, rows = [], 0, 1
    while start < len(block):
        chunks.append(block[start:start + rows])
        start, rows = start + rows, rows + 1
    return chunks


# (lo, hi) pairs: an ordinary range, a range offset far from zero, an empty
# range (numpy widens it by ±0.5), one whose bins are subnormal, and one whose
# edges lie near the largest float.
RANGES = [(-3.7, 5.1), (1e6 - 1e-3, 1e6 + 1e-3), (-2.5, -2.5), (0.0, 1e-310),
          (-8e307, 8e307)]


class TestPooledHistogram:
    """pooled_histogram's screened count equals np.histogram's counts exactly."""

    @pytest.mark.parametrize("lo, hi", RANGES)
    @pytest.mark.parametrize("bins", [2, 200, 1000])
    def test_edges_and_their_ulp_neighbours(self, monkeypatch, lo, hi, bins):
        # Blocks of 37 samples, so that the chunks straddle block boundaries.
        monkeypatch.setattr(signal_chain, "CHUNK_BYTES", 16 * 37)
        first, last = (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
        data = ulp_neighbours(np.concatenate([edges, [first, last, hi, hi]]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_numpy(ragged_chunks(data), bins, lo, hi)

    @pytest.mark.parametrize("lo, hi", RANGES[:3])
    def test_out_of_range_nan_and_infinite_samples(self, monkeypatch, lo, hi):
        monkeypatch.setattr(signal_chain, "CHUNK_BYTES", 16 * 37)
        specials = np.array([np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, lo - 1.0, hi + 1.0,
                             np.nextafter(lo - 0.5, -np.inf), np.nextafter(hi + 0.5, np.inf)])
        rng = np.random.default_rng(5)
        inside = lo + (hi - lo) * rng.random(200)
        data = rng.permutation(np.concatenate([specials, inside, specials]))
        assert_matches_numpy(ragged_chunks(data, width=7), 200, lo, hi)

    def test_chunks_straddling_blocks_at_the_default_budget(self):
        rng = np.random.default_rng(9)
        block = signal_chain.CHUNK_BYTES // 16
        data = rng.standard_normal(3 * block + 5) * 40.0
        chunks = [data[:block - 3].reshape(1, -1), data[block - 3:2 * block + 1].reshape(2, -1),
                  data[2 * block + 1:].reshape(-1, 2)]
        lo, hi = data.min(), data.max()
        assert_matches_numpy(chunks, 200, lo, hi)
        edges, _ = pooled_histogram([], 200, lo, hi)
        assert_matches_numpy(chunks + [ulp_neighbours(edges)], 1000, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e12, 1e12), span=st.floats(0.0, 1e6), bins=st.integers(2, 1000),
           seed=st.integers(0, 2 ** 32 - 1), budget=st.integers(1, 400))
    def test_random_ranges_and_data(self, lo, span, bins, seed, budget):
        hi = lo + span
        rng = np.random.default_rng(seed)
        try:
            edges = np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
        except ValueError:      # numpy's bins would not be distinct
            with pytest.raises(ValueError):
                pooled_histogram([np.array([lo, hi])], bins, lo, hi)
            return
        data = np.concatenate([lo + (hi - lo) * rng.random(300),
                               ulp_neighbours(rng.choice(edges, 20), steps=2),
                               [lo, hi, np.nan, lo - span - 1.0, hi + span + 1.0]])
        rng.shuffle(data)
        with mock.patch.object(signal_chain, "CHUNK_BYTES", 16 * budget):
            assert_matches_numpy(ragged_chunks(data, width=rng.integers(1, 30)), bins, lo, hi)


def synth_points(big_l, a, pumps_w, branches=(-1, 1), noise_db=0.0, rng=None):
    pts = []
    for b in branches:
        for p in pumps_w:
            level = pump_curve(p, big_l, a, b)
            if noise_db and rng is not None:
                level *= 10 ** (rng.normal(0.0, noise_db) / 10.0)
            pts.append((p, level, b))
    return pts


class TestFitPumpCurve:
    def test_exact_round_trip(self):
        pts = synth_points(0.29, 6.0, np.linspace(0.0, 0.438, 8))
        res = fit_pump_curve(pts)
        assert res.big_l == pytest.approx(0.29, rel=1e-6, abs=1e-6)
        assert res.a_coeff == pytest.approx(6.0, rel=1e-6)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            pts = synth_points(0.29, 6.0, np.linspace(0.05, 0.438, 8),
                               noise_db=0.1, rng=rng)
            res = fit_pump_curve(pts)
            assert abs(res.big_l - 0.29) <= 0.02
            assert abs(res.a_coeff - 6.0) / 6.0 <= 0.05

    def test_squeezing_branch_only(self):
        pts = synth_points(0.29, 6.0, np.linspace(0.05, 0.438, 10), branches=(-1,))
        res = fit_pump_curve(pts)
        assert res.big_l == pytest.approx(0.29, abs=1e-4)

    def test_jacobian_identifiable_at_optimum(self):
        pts = synth_points(0.29, 6.0, np.linspace(0.05, 0.438, 8))
        res = fit_pump_curve(pts)
        pump, _, sign = np.array(pts).T
        e = np.exp(2.0 * sign * np.sqrt(res.a_coeff * pump))
        jac = np.column_stack([1.0 - e, (1.0 - res.big_l) * e * sign * np.sqrt(pump / res.a_coeff)])
        cond = np.linalg.cond(jac)
        assert np.isfinite(cond) and cond < 1e8

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_pump_curve([(0.1, 1.0, 1), (0.2, 1.1, 1)])
        with pytest.raises(ValueError):
            fit_pump_curve([(0.1, 1.0, 1)] * 5)  # one distinct pump power
        with pytest.raises(ValueError):
            fit_pump_curve([(0.1, 1.0, 2), (0.2, 1.1, 1), (0.3, 1.2, 1)])
        with pytest.raises(ValueError):
            fit_pump_curve([(0.1, -1.0, 1), (0.2, 1.1, 1), (0.3, 1.2, 1)])
        with pytest.raises(ValueError, match="point 1 has -0.2 W"):
            fit_pump_curve([(0.1, 1.0, 1), (-0.2, 1.1, 1), (0.3, 1.2, 1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", [0, 1])
    def test_non_finite_input_rejected(self, bad, field):
        pts = synth_points(0.29, 6.0, np.linspace(0.05, 0.438, 8))
        p = list(pts[3])
        p[field] = bad
        pts[3] = tuple(p)
        with pytest.raises(ValueError):
            fit_pump_curve(pts)

    # (L, a, pumps, branches, noise in dB, seed) of the curves checked
    # against a scan of the profile.
    SCANNED = {
        "two_branch": (0.29, 6.0, np.linspace(0.0, 0.438, 8), (-1, 1), 0.1, 11),
        "anti_squeeze_only": (0.29, 6.0, np.linspace(0.05, 0.438, 8), (1,), 0.1, 12),
        "noisy_squeeze_only": (0.2, 15.0, np.linspace(0.01, 0.9, 40), (-1,), 1.0, 13),
        # Anti-squeezing to 180 dB: the far end of the first bracket is so
        # steep that the first secant step lands within X_TOL of the near end.
        "steep_anti_squeeze": (0.1, 1000.0, np.linspace(0.01, 0.438, 8), (1,), 0.1, 14),
    }

    @pytest.mark.parametrize("name", sorted(SCANNED))
    def test_cost_at_most_the_profile_scan_minimum(self, name):
        big_l, a, pumps, branches, noise_db, seed = self.SCANNED[name]
        pts = synth_points(big_l, a, pumps, branches, noise_db, np.random.default_rng(seed))
        res = fit_pump_curve(pts)
        assert res.cost <= (1 + 1e-12) * profile_scan_minimum(pts)

    def test_optimum_past_the_grid_edge(self):
        # Squeezing saturates at 3 dB within the first pump steps, so the
        # optimum a lies past the grid's last point, 100 / P_max.
        pumps = np.linspace(0.01, 0.438, 32)
        pts = synth_points(0.5, 1000.0, pumps, (-1,), 0.01, np.random.default_rng(1))
        res = fit_pump_curve(pts)
        assert res.a_coeff > 100.0 / pumps[-1]
        assert res.cost <= (1 + 1e-12) * profile_scan_minimum(pts)

    def test_bounds_reached(self):
        # Flat 0 dB levels: the best curve has no loss visible through it,
        # so L ends at 1 − 1e-9 and a at its lower bound.
        flat = [(p, 1.0, b) for b in (-1, 1) for p in np.linspace(0.05, 0.438, 8)]
        res = fit_pump_curve(flat)
        assert (res.big_l, res.a_coeff) == (1.0 - 1e-9, 1e-12)
        # Anti-squeezing of the curve with L = −0.2, below any lossy curve:
        # L ends at 0.
        low = [(p, -0.2 + 1.2 * math.exp(2.0 * math.sqrt(6.0 * p)), 1)
               for p in np.linspace(0.05, 0.438, 8)]
        assert fit_pump_curve(low).big_l == 0.0

    def test_covariance_coverage(self):
        # With σ² estimated from n − 2 = 14 degrees of freedom, |x − x_true|
        # ≤ 2σ holds with the probability of |T| ≤ 2 for Student's t with 14
        # degrees of freedom, 0.935. The count of hits in 400 fits then lies
        # in the binomial bounds below except with probability under 1e-4,
        # for L and for a alike.
        rng = np.random.default_rng(2025)
        n_fits, hits = 400, np.zeros(2)
        for _ in range(n_fits):
            res = fit_pump_curve(synth_points(0.29, 6.0, np.linspace(0.05, 0.438, 8),
                                              noise_db=0.1, rng=rng))
            err = np.abs([res.big_l - 0.29, res.a_coeff - 6.0])
            hits += err <= 2.0 * np.sqrt(np.diag(res.covariance))
        lo, hi = binomial_bounds(n_fits, student_t_within(2.0, 14), 1e-4)
        assert (lo <= hits).all() and (hits <= hi).all(), (lo, hits, hi)

    # (big_l, a_coeff, covariance row by row, cost) as float.hex, and n_iter
    PINNED = {
        "two_branch": ("0x1.22709db003a7bp-2", "0x1.81b14f826a526p+2",
                       ("0x1.066712a809abfp-16", "0x1.0011999739cd4p-13",
                        "0x1.0011999739cd4p-13", "0x1.8bf739e19bc26p-9"),
                       "0x1.0dbaac7d4b3d2p-7", 26),
        "squeeze_only": ("0x1.28911cf296bfcp-2", "0x1.8680aba10339ep+2",
                         ("0x1.dce830273013bp-15", "0x1.e695121ff52b6p-9",
                          "0x1.e695121ff52b6p-9", "0x1.25e83bb22476dp-2"),
                         "0x1.afdd6fd0904a4p-8", 22),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_results_pinned_bit_for_bit(self, name):
        assert pinned_fit(name) == self.PINNED[name]

    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
    def test_pins_hold_under_other_openblas_cores(self, core):
        # The fit makes no BLAS call, so the OpenBLAS core cannot move a bit.
        tests = Path(__file__).parent
        code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_analysis as t; "
                "print(repr({n: t.pinned_fit(n) for n in t.TestFitPumpCurve.PINNED}))")
        child = subprocess.run([sys.executable, "-c", code, str(tests.parent / "src"), str(tests)],
                               env={**os.environ, "OPENBLAS_CORETYPE": core},
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert ast.literal_eval(child.stdout) == self.PINNED


def pinned_fit(name):
    """The fit of one PINNED curve: (big_l, a_coeff, covariance, cost) as
    float.hex, and n_iter."""
    pumps, branches, seed = {"two_branch": (np.linspace(0.0, 0.438, 8), (-1, 1), 8),
                             "squeeze_only": (np.linspace(0.05, 0.438, 12), (-1,), 9)}[name]
    rng = np.random.default_rng(seed)
    pts = [(p, pump_curve(p, 0.29, 6.0, b) * 10 ** (rng.normal(0.0, 0.1) / 10.0), b)
           for b in branches for p in pumps]
    res = fit_pump_curve(pts)
    return (res.big_l.hex(), res.a_coeff.hex(),
            tuple(float(x).hex() for x in res.covariance.ravel()),
            float(res.cost).hex(), res.n_iter)


def profile_scan_minimum(pts, n=4001):
    """The least profile cost on n values of a, equally spaced in ln a over
    2√(a·P_max) ∈ [1e-4, 200], then on n more between the neighbours of the
    best of them; each at its weighted least-squares L clipped into
    [0, 1 − 1e-9]. Where exp overflows, the cost is NaN or inf."""
    pump, level, sign = np.array(pts).T
    a = np.geomspace(1e-8, 4e4, n) / pump.max()
    least = math.inf
    for _ in range(2):
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(2.0 * sign * np.sqrt(a[:, None] * pump))
            u, v = (1.0 - e) / level, (e - level) / level
            big_l = np.clip(-(u * v).sum(axis=1) / (u * u).sum(axis=1), 0.0, 1.0 - 1e-9)
            costs = ((v + big_l[:, None] * u) ** 2).sum(axis=1)
        k = int(np.nanargmin(costs))
        least = min(least, costs[k])
        a = np.geomspace(a[max(k - 1, 0)], a[min(k + 1, n - 1)], n)
    return least


def student_t_within(t, dof):
    """P(|T| ≤ t) for Student's t with an even number of degrees of freedom
    (Abramowitz & Stegun 26.7.3)."""
    theta = math.atan(t / math.sqrt(dof))
    term = total = 1.0
    for k in range(1, dof // 2):
        term *= (2 * k - 1) / (2 * k) * math.cos(theta) ** 2
        total += term
    return math.sin(theta) * total


def binomial_bounds(n, p, alpha):
    """(lo, hi) such that a Binomial(n, p) count falls below lo, and above
    hi, each with probability at most alpha / 2."""
    pmf = [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo = next(k for k in range(n + 1) if sum(pmf[:k + 1]) > alpha / 2)
    hi = next(k for k in range(n, -1, -1) if sum(pmf[k:]) > alpha / 2)
    return lo, hi


def test_fit_makes_no_blas_call():
    """fitting.py and fit_pump_curve reach no np.linalg, .dot or @: every
    sum is np.add.reduce, whose bits do not depend on the BLAS core."""
    src = Path(__file__).parents[1] / "src" / "opahd"
    nodes = [ast.parse((src / "fitting.py").read_text(encoding="utf-8"))]
    nodes += [node for node in ast.parse((src / "analysis.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and node.name == "fit_pump_curve"]
    assert len(nodes) == 2
    found = [f"line {node.lineno}: {ast.unparse(node)}" for tree in nodes for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("linalg", "dot")
             or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node)]
    assert found == []


def test_package_uses_no_private_numpy_name():
    """No module of opahd imports a numpy module or name whose path has a
    part starting with "_", or reads such an attribute through np or numpy:
    numpy may change or drop its private names in any release."""
    found = []
    for path in sorted((Path(__file__).parents[1] / "src" / "opahd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                named = isinstance(base, ast.Name) and base.id in ("np", "numpy")
                names = [f"numpy.{node.attr}"] if named else []
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "numpy"
                      and any(part.startswith("_") for part in name.split(".")[1:])]
    assert found == []


def sweep_chain(target_sq_db=5.2, gain_db=35.0, eta_opa=0.79, eta_hd=0.10):
    """Source squeezing solved so the full chain measures target_sq_db."""
    eta_eff = effective_efficiency(eta_opa, eta_hd, gain_db)
    v0 = 1.0 - (1.0 - 10 ** (-target_sq_db / 10.0)) / eta_eff
    r = -0.5 * math.log(v0)
    return ChainModel(stages=(squeeze(r), psa(gain_db, eta_opa), loss(eta_hd)))


class TestLossSweep:
    def test_baseline_levels(self):
        chain = sweep_chain()
        rows = loss_sweep(chain, [0.0], gains_db=(35.0,))
        assert rows[0].squeezing_db_oracle == pytest.approx(-5.2, abs=1e-9)

    def test_oracle_matches_closed_form(self):
        # independent route: level = 1 - eta_eff(gain, degraded eta_hd)(1 - v0)
        chain = sweep_chain()
        v0 = math.exp(-2 * chain.stages[0].params["r"])
        grid = [0.0, 0.3, 0.6, 0.9]
        for gain in (0.0, 35.0):
            rows = loss_sweep(chain, grid, gains_db=(gain,))
            for row in rows:
                eta_eff = effective_efficiency(0.79, 0.10 * (1 - row.added_loss), gain)
                expected = 10 * math.log10(1.0 - eta_eff * (1.0 - v0))
                assert row.squeezing_db_oracle == pytest.approx(expected, rel=1e-9)

    def test_high_gain_suppresses_added_loss(self):
        rows = loss_sweep(sweep_chain(), [0.0, 0.9], gains_db=(35.0,))
        degradation = rows[1].squeezing_db_oracle - rows[0].squeezing_db_oracle
        assert 0.0 < degradation <= 0.3

    def test_no_gain_collapses(self):
        rows = loss_sweep(sweep_chain(), [0.9], gains_db=(0.0,))
        assert rows[0].squeezing_db_oracle >= -0.5

    def test_monte_carlo_route(self):
        chain = sweep_chain()
        resp = FrequencyResponse()
        acq = small_acq(frames=256)
        rows = loss_sweep(chain, [0.0], gains_db=(35.0,), monte_carlo=True,
                          resp=resp, acq=acq, mc_frames=256, master_seed=13)
        assert rows[0].squeezing_db_mc == pytest.approx(
            rows[0].squeezing_db_oracle, abs=0.3)

    def test_non_integer_master_seed_rejected(self):
        with pytest.raises(TypeError):
            loss_sweep(sweep_chain(), [0.0], gains_db=(35.0,), monte_carlo=True,
                       acq=small_acq(frames=2, n=16), mc_frames=2, master_seed=1.5)

    def test_requires_psa_stage(self):
        with pytest.raises(ValueError):
            loss_sweep(ChainModel(stages=(squeeze(1.0), loss(0.5))), [0.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            loss_sweep(sweep_chain(), [1.0])

    @pytest.mark.parametrize("frames", [0, 1, -3, 2.5, True, "16"])
    def test_mc_frames_validation(self, frames):
        with pytest.raises(ValueError, match="mc_frames"):
            loss_sweep(sweep_chain(), [0.0], gains_db=(35.0,), monte_carlo=True,
                       acq=small_acq(), mc_frames=frames)


class TestArtifactMask:
    def test_defaults_are_the_analysis_options(self):
        from opahd import config
        from opahd.analysis import AnalysisOptions
        assert config.AnalysisOptions is AnalysisOptions
        opts = AnalysisOptions()
        freqs = np.linspace(30e9, 38e9, 801)
        assert np.array_equal(artifact_mask(freqs), artifact_mask(
            freqs, opts.mask_center_ghz * 1e9, opts.mask_width_ghz * 1e9))

    def test_excludes_window(self):
        freqs = np.array([33.0e9, 33.6e9, 34.0e9, 34.4e9, 35.0e9])
        mask = artifact_mask(freqs)
        assert list(mask) == [True, False, False, False, True]
