"""Spectrum averaging, level estimation, pump-curve fit, loss sweep."""
import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahd import fitting, signal_chain
from opahd.analysis import (LossSweepRow, SpectrumEstimate, artifact_mask,
                            averaged_fft, fit_pump_curve, histogram,
                            loss_sweep, pooled_histogram, relative_level, variance_level)
from opahd.fitting import FitConvergenceError, levenberg_marquardt
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
        from opahd.analysis import _pump_model

        pts = synth_points(0.29, 6.0, np.linspace(0.05, 0.438, 8))
        res = fit_pump_curve(pts)
        pump = np.array([p[0] for p in pts])
        sign = np.array([p[2] for p in pts], dtype=float)
        _, jac = _pump_model(pump, 2.0 * sign, np.ones(len(pts)), sign, res.big_l, res.a_coeff)
        cond = np.linalg.cond(jac())
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

    # (big_l, a_coeff, covariance row by row, cost, n_iter) as float.hex
    PINNED = {
        "two_branch": ("0x1.22709daf71d96p-2", "0x1.81b14f8188db2p+2",
                       ("0x1.066712a863b85p-16", "0x1.0011999791b5bp-13",
                        "0x1.0011999791b5bp-13", "0x1.8bf739e252707p-9"),
                       "0x1.0dbaac7d4b3d2p-7", 5),
        "squeeze_only": ("0x1.28911cf217003p-2", "0x1.8680ab9e99ebep+2",
                         ("0x1.dce8302b67876p-15", "0x1.e695121f41845p-9",
                          "0x1.e695121f41845p-9", "0x1.25e83bae4ac4cp-2"),
                         "0x1.afdd6fd0904a9p-8", 6),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_results_pinned_bit_for_bit(self, name):
        pumps, branches, seed = {"two_branch": (np.linspace(0.0, 0.438, 8), (-1, 1), 8),
                                 "squeeze_only": (np.linspace(0.05, 0.438, 12), (-1,), 9)}[name]
        rng = np.random.default_rng(seed)
        pts = [(p, pump_curve(p, 0.29, 6.0, b) * 10 ** (rng.normal(0.0, 0.1) / 10.0), b)
               for b in branches for p in pumps]
        res = fit_pump_curve(pts)
        big_l, a_coeff, cov, cost, n_iter = self.PINNED[name]
        assert (res.big_l.hex(), res.a_coeff.hex()) == (big_l, a_coeff)
        assert tuple(float(x).hex() for x in res.covariance.ravel()) == cov
        assert (float(res.cost).hex(), res.n_iter) == (cost, n_iter)

    def test_pinned_without_numpy_linalg(self, monkeypatch):
        # The fit solves and inverts its 2 × 2 systems itself.
        def refuse(*args, **kwargs):
            raise AssertionError("the fit called numpy.linalg")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for name in sorted(self.PINNED):
            self.test_results_pinned_bit_for_bit(name)


def _eager(model_fn):
    """model_fn with its Jacobian built at every point, as _reference_lm takes it."""
    def model(p):
        r, jac = model_fn(p)
        return r, jac()
    return model


DECAY_T = np.linspace(0.0, 2.0, 9)
DECAY_Y = 2.0 * np.exp(-0.7 * DECAY_T) + 0.01 * np.sin(7.0 * DECAY_T)


def decay_rate_model(p):
    """exp(−k t) against data from 2 exp(−0.7 t): one parameter, k."""
    e = np.exp(-p[0] * DECAY_T)
    return e - DECAY_Y / 2.0, lambda: (-DECAY_T * e)[:, None]


def decay_model(p):
    """A exp(−k t) against data from 2 exp(−0.7 t): parameters (A, k)."""
    e = np.exp(-p[1] * DECAY_T)

    def jac():
        return np.column_stack([e, -p[0] * DECAY_T * e])
    return p[0] * e - DECAY_Y, jac


class TestLevenbergMarquardt:
    def test_linear_problem_one_step(self):
        jac = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        target = np.array([1.0, 2.0, 3.0])
        unbounded = (np.full(2, -np.inf), np.full(2, np.inf))
        params, cost, cov, _ = levenberg_marquardt(
            lambda p: (jac @ p - target, lambda: jac), np.zeros(2), unbounded)
        assert params == pytest.approx([1.0, 2.0], abs=1e-8)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_nonconvergence_reports_last_iterate(self):
        # one iteration cannot reach the optimum from far away
        def model(p):
            e = math.exp(p[0])
            return (np.array([e - 2.0, p[0] ** 3 - 8.0, p[0] - 2.0, p[1] - 1.0]),
                    lambda: np.array([[e, 0.0], [3 * p[0] ** 2, 0.0], [1.0, 0.0], [0.0, 1.0]]))

        unbounded = ([-np.inf, -np.inf], [np.inf, np.inf])
        with pytest.raises(FitConvergenceError) as info:
            levenberg_marquardt(model, np.array([50.0, 5.0]), unbounded, max_iter=1)
        assert info.value.last_params.shape == (2,)
        assert isinstance(info.value, ArithmeticError)

    def test_bounds_of_another_length_rejected(self):
        for p0, bounds in [([1.0, 0.2], ([0.0], [5.0])),
                           ([1.0, 0.2], ([0.0, 0.0], [5.0, 5.0, 5.0])),
                           ([1.0], ([0.0, 0.0], [5.0, 5.0])),
                           ([1.0, 0.2, 0.0], ([0.0, 0.0], [5.0, 5.0]))]:
            with pytest.raises(ValueError, match="p0 must hold 2 values, and bounds 2 lower"):
                levenberg_marquardt(decay_model, p0, bounds)

    # (model, p0, bounds, the bound each parameter ends on: "lo", "hi" or None).
    # In the 1p_* cases a zero-width box pins the amplitude at 2, so the rate
    # is the one free parameter, against the data decay_rate_model fits.
    BOXED = {
        "1p_lower_active": (decay_model, [2.0, 2.0], ([2.0, 1.0], [2.0, 5.0]), ["lo", "lo"]),
        "1p_upper_active": (decay_model, [2.0, 0.2], ([2.0, 0.0], [2.0, 0.5]), ["lo", "hi"]),
        "1p_p0_outside": (decay_model, [2.0, 10.0], ([2.0, 0.0], [2.0, 3.0]), ["lo", None]),
        "2p_lower_active": (decay_model, [3.0, 1.0], ([2.5, 0.0], [10.0, 5.0]), ["lo", None]),
        "2p_upper_active": (decay_model, [1.0, 0.2], ([0.0, 0.0], [10.0, 0.5]), [None, "hi"]),
        "2p_p0_outside": (decay_model, [-1.0, 9.0], ([0.0, 0.0], [5.0, 3.0]), [None, None]),
    }

    @pytest.mark.parametrize("case", sorted(BOXED))
    def test_bounded_fit_matches_reference_bit_for_bit(self, case):
        model, p0, bounds, active = self.BOXED[case]
        got = levenberg_marquardt(model, p0, bounds)
        expected = _reference_lm(_eager(model), np.array(p0), bounds)
        assert _lm_hex(got) == _lm_hex(expected)
        assert got[3] > 1
        for x, lo, hi, side in zip(got[0], *bounds, active):
            assert x == {"lo": lo, "hi": hi}.get(side, x)
            assert (lo < x < hi) == (side is None)

    def test_overflowing_jacobian_exhausts_damping_like_reference(self):
        # JᵀJ overflows to inf: every damped solve gives a NaN step, each one
        # is rejected, and the covariance is NaN.
        def model(p):
            return DECAY_T * (p[0] + p[1]), lambda: np.full((len(DECAY_T), 2), 1e200)

        bounds = ([-np.inf, -np.inf], [np.inf, np.inf])
        with np.errstate(over="ignore"):
            got = levenberg_marquardt(model, [1.0, 2.0], bounds)
            expected = _reference_lm(_eager(model), np.array([1.0, 2.0]), bounds)
        assert _lm_hex(got) == _lm_hex(expected)
        assert got[0].tolist() == [1.0, 2.0] and got[3] == 1
        assert np.isnan(got[2]).all()

    def test_singular_covariance_like_reference(self):
        # The residual ignores p[1]: JᵀJ is singular, so inv raises and the
        # covariance is NaN.
        def model(p):
            r, jac = decay_rate_model(p)
            return r, lambda: np.column_stack([jac()[:, 0], np.zeros(len(DECAY_T))])

        bounds = ([0.0, 0.0], [5.0, 5.0])
        got = levenberg_marquardt(model, [2.0, 1.0], bounds)
        assert _lm_hex(got) == _lm_hex(_reference_lm(_eager(model), np.array([2.0, 1.0]),
                                                     bounds))
        assert got[0][1] == 1.0 and np.isnan(got[2]).all()

    @pytest.mark.parametrize("failures", [1, 3, 60])
    def test_singular_damped_solves_like_reference(self, monkeypatch, failures):
        # Each singular solve multiplies the damping by 10 and tries again; 60
        # in a row end the fit at p0. The singular branch reaches the fit
        # through _solve2 and the reference through np.linalg.solve.
        def failing_first(solve, singular):
            calls = [0]

            def patched(*args):
                calls[0] += 1
                if calls[0] <= failures:
                    raise singular("Singular matrix")
                return solve(*args)
            return patched

        bounds = ([0.0, 0.0], [10.0, 5.0])
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", failing_first(np.linalg.solve, np.linalg.LinAlgError))
            expected = _reference_lm(_eager(decay_model), np.array([1.0, 0.2]), bounds)
        with monkeypatch.context() as patch:
            patch.setattr(fitting, "_solve2", failing_first(fitting._solve2, ZeroDivisionError))
            got = levenberg_marquardt(decay_model, [1.0, 0.2], bounds)
        assert _lm_hex(got) == _lm_hex(expected)
        assert (got[0].tolist() == [1.0, 0.2] and got[3] == 1) == (failures == 60)

    def test_clip_is_numpy_minimum_of_maximum(self):
        values = [-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan]
        for x in values:
            for lo in values[:-1]:
                for hi in values[:-1]:
                    if lo <= hi:
                        expected = np.minimum(np.maximum(np.full(2, x), lo), hi)[0]
                        assert float(fitting._clip(x, lo, hi)).hex() == float(expected).hex()


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


def _lm_hex(result):
    p, cost, cov, n_iter = result
    return _hex(p), float(cost).hex(), _hex(cov), n_iter


# The pump-curve fit as first written: one np.clip, np.diag and norm per damping
# try, a column_stack Jacobian, and the start-point masks redone per L start.
# fit_pump_curve must give the same bits on every curve.
def _reference_model(pump_w, sign, big_l, a_coeff):
    root = np.sqrt(np.maximum(a_coeff * pump_w, 0.0))
    e = np.exp(sign * 2.0 * root)
    model = big_l + (1.0 - big_l) * e
    d_l = 1.0 - e
    with np.errstate(divide="ignore", invalid="ignore"):
        d_a = (1.0 - big_l) * e * sign * np.where(pump_w > 0, np.sqrt(pump_w / a_coeff), 0.0)
    return model, np.column_stack([d_l, d_a])


def _reference_lm(model_fn, p0, bounds, max_iter=200, tol=1e-12):
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    p = np.clip(np.asarray(p0, dtype=float), lo, hi)
    r, jac = model_fn(p)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        if np.linalg.norm(jtr, np.inf) < tol * (1.0 + cost):
            converged = True
            break
        stepped = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj) + 1e-30), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.clip(p + step, lo, hi)
            r_new, jac_new = model_fn(p_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                p, r, jac, cost = p_new, r_new, jac_new, cost_new
                lam = max(lam / 10.0, 1e-14)
                stepped = True
                if rel_drop < tol:
                    converged = True
                break
            lam *= 10.0
        if not stepped:
            converged = True
        if converged:
            break
    if not converged:
        raise FitConvergenceError("no convergence", p, cost)
    jtj = jac.T @ jac
    dof = max(len(r) - len(p), 1)
    try:
        cov = np.linalg.inv(jtj) * (cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    return p, cost, cov, min(n_iter, max_iter)


def _reference_gains(pump, level, sign, l0):
    guesses = []
    for branch in (1.0, -1.0):
        mask = (sign == branch) & (pump > 0)
        if not np.any(mask):
            continue
        i = np.argmax(pump[mask])
        inner = (level[mask][i] - l0) / (1.0 - l0)
        if inner <= 0:
            continue
        root = abs(math.log(inner)) / 2.0
        if root > 0:
            guesses.append(root ** 2 / pump[mask][i])
    return guesses or [1.0]


def _reference_fit(points):
    """(big_l, a_coeff, covariance, both residual arrays, cost, n_iter) as
    float.hex, and the number of starts that raised FitConvergenceError."""
    pump = np.array([p[0] for p in points], dtype=float)
    level = np.array([p[1] for p in points], dtype=float)
    sign = np.array([p[2] for p in points], dtype=float)
    weights = 1.0 / level

    def weighted_model(p):
        model, jac = _reference_model(pump, sign, p[0], p[1])
        return (model - level) * weights, jac * weights[:, None]

    bounds = (np.array([0.0, 1e-12]), np.array([1.0 - 1e-9, np.inf]))
    best, last_error, failed = None, None, 0
    for l0 in (0.05, 0.3, 0.6):
        for a0 in _reference_gains(pump, level, sign, l0):
            try:
                p, cost, cov, n_iter = _reference_lm(weighted_model, np.array([l0, a0]), bounds)
            except FitConvergenceError as err:
                last_error, failed = err, failed + 1
                continue
            if best is None or cost < best[1]:
                best = (p, cost, cov, n_iter)
    if best is None:
        return ("raises", _hex(last_error.last_params), float(last_error.last_cost).hex()), failed
    p, cost, cov, n_iter = best
    resid = _reference_model(pump, sign, p[0], p[1])[0] - level
    return (_hex(p), _hex(cov), _hex(resid[sign < 0]), _hex(resid[sign > 0]),
            float(cost).hex(), n_iter), failed


def _hex(values):
    return tuple(float(x).hex() for x in np.ravel(values))


def _fit_hex(points):
    try:
        res = fit_pump_curve(points)
    except FitConvergenceError as err:
        return ("raises", _hex(err.last_params), float(err.last_cost).hex())
    return (_hex([res.big_l, res.a_coeff]), _hex(res.covariance),
            _hex(res.residuals_squeeze), _hex(res.residuals_antisqueeze),
            float(res.cost).hex(), res.n_iter)


def test_fit_matches_reference_bit_for_bit():
    """200 noisy curves: 8-256 points, one or two branches, with and without a
    zero pump, at 0.01-3 dB noise, where some multi-starts do not converge."""
    rng = np.random.default_rng(20240611)
    sizes, branch_sets, zero_pump, failed_starts = set(), set(), 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            branches = ((-1,), (1,), (-1, 1))[rng.integers(3)]
            per_branch = int(rng.integers(8, 257)) // len(branches)
            first = 0.0 if rng.random() < 0.5 else rng.uniform(0.001, 0.05)
            pumps = np.linspace(first, rng.uniform(0.1, 1.0), max(per_branch, 4))
            pts = synth_points(rng.uniform(0.02, 0.8), rng.uniform(0.5, 30.0), pumps,
                               branches, noise_db=rng.choice([0.01, 0.1, 1.0, 3.0]), rng=rng)
            expected, failed = _reference_fit(pts)
            assert _fit_hex(pts) == expected
            sizes.add(len(pts))
            branch_sets.add(branches)
            zero_pump += first == 0.0
            failed_starts += failed
    assert min(sizes) <= 12 and max(sizes) >= 240
    assert len(branch_sets) == 3 and zero_pump > 0 and failed_starts > 0

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
