"""Frequency response, trace synthesis statistics, wavepacket extraction."""
import math

import numpy as np
import pytest

from opahd import signal_chain
from opahd.gaussian import ChainModel, loss, paper_default_chain, squeeze
from opahd.signal_chain import (AcquisitionConfig, Ensemble, FrequencyResponse, chunk_rows,
                                extract_wavepacket,
                                _pcg64_states, frame_seed, model_variance, psd_model,
                                synthesize_frame, synthesize_frames)

VACUUM = ChainModel()


def small_acq(frames=64, n=1024, clearance=None):
    # same 160 GS/s grid, shorter records for fast statistics
    return AcquisitionConfig(record_duration=n * 6.25e-12, samples_per_frame=n,
                             frames=frames, clearance_at_43ghz_db=clearance)


class TestFrequencyResponse:
    def test_dc_normalized(self):
        resp = FrequencyResponse()
        assert resp.magnitude_squared(np.array([0.0]))[0] == 1.0

    def test_half_power_at_f3db(self):
        resp = FrequencyResponse()
        h2 = resp.magnitude_squared(np.array([43e9]))[0]
        assert h2 == pytest.approx(0.5, rel=0.01)

    def test_nonincreasing(self):
        resp = FrequencyResponse()
        h2 = resp.magnitude_squared(np.linspace(0, 80e9, 500))
        assert np.all(np.diff(h2) <= 1e-15)

    def test_scope_brick_wall(self):
        resp = FrequencyResponse()
        assert resp.magnitude_squared(np.array([64e9]))[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyResponse(detector_f3db=-1.0)
        with pytest.raises(ValueError):
            FrequencyResponse(filter_order=0)


class TestAcquisitionConfig:
    def test_default_sample_interval(self):
        acq = AcquisitionConfig()
        assert acq.sample_interval == pytest.approx(6.25e-12, rel=1e-9)
        assert acq.sample_rate == pytest.approx(160e9, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(samples_per_frame=1)
        with pytest.raises(ValueError):
            AcquisitionConfig(photocurrent=0.0)


class TestPsdModel:
    def test_vacuum_ratio_to_shot_is_unity(self):
        resp, acq = FrequencyResponse(), AcquisitionConfig()
        _, s_vac = psd_model(VACUUM, resp, acq, 0.3)
        _, s_shot = psd_model(VACUUM.without_squeezing(), resp, acq, 0.3)
        assert np.allclose(s_vac, s_shot)

    def test_photocurrent_scaling(self):
        resp = FrequencyResponse()
        acq_hi = AcquisitionConfig(photocurrent=3.0e-3, clearance_at_43ghz_db=None)
        acq_lo = AcquisitionConfig(photocurrent=1.5e-3, clearance_at_43ghz_db=None)
        freqs, s_hi = psd_model(VACUUM, resp, acq_hi, 0.0)
        _, s_lo = psd_model(VACUUM, resp, acq_lo, 0.0)
        band = (freqs > 0) & (freqs < 60e9)
        ratio_db = 10 * np.log10(s_hi[band] / s_lo[band])
        assert np.allclose(ratio_db, 3.01, atol=0.01)

    def test_clearance_at_43ghz(self):
        resp, acq = FrequencyResponse(), AcquisitionConfig()
        freqs, s = psd_model(VACUUM, resp, acq, 0.0)
        # Past the scope's cutoff |H|² is 0, so the model is the floor alone.
        beyond = s[freqs > resp.scope_cutoff]
        assert len(beyond) and np.all(beyond == beyond[0]) and beyond[0] > 0
        floor = beyond[0]
        i = np.argmin(np.abs(freqs - 43e9))
        shot_part = s[i] - floor
        assert 10 * np.log10(shot_part / floor) == pytest.approx(20.0, abs=0.05)


class TestSynthesis:
    def test_determinism(self):
        resp, acq = FrequencyResponse(), small_acq()
        a = synthesize_frame(paper_default_chain(), resp, acq, 0.0, seed=7)
        b = synthesize_frame(paper_default_chain(), resp, acq, 0.0, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_chunked_streams_match(self):
        resp, acq = FrequencyResponse(), small_acq(frames=8)
        whole = synthesize_frames(VACUUM, resp, acq, 0.0, master_seed=5)
        parts = np.concatenate([
            synthesize_frames(VACUUM, resp, acq, 0.0, 5, n_frames=3).samples,
            synthesize_frames(VACUUM, resp, acq, 0.0, 5, n_frames=5, first_frame=3).samples])
        assert np.array_equal(whole.samples, parts)

    @pytest.mark.parametrize("n", [512, 12512])
    def test_rows_match_per_frame_reference(self, n):
        # three chunks of batched synthesis, the last one ragged
        rows = chunk_rows(8 * n, 2 ** 32)
        count = 2 * rows + (rows + 1) // 2
        assert count % rows != 0
        resp, acq = FrequencyResponse(), small_acq(frames=count, n=n, clearance=20.0)
        chain = paper_default_chain()
        ens = synthesize_frames(chain, resp, acq, 0.4, master_seed=17, first_frame=9)
        assert len(ens) == count
        for i in range(count):
            ref = synthesize_frame(chain, resp, acq, 0.4, seed=frame_seed(17, 9 + i))
            assert len(ref) == 1
            assert ens.samples[i].tobytes() == ref.samples[0].tobytes()

    def test_parseval(self):
        # mean squared sample value equals the integral of the target PSD
        resp, acq = FrequencyResponse(), small_acq(frames=1024, clearance=20.0)
        chain = paper_default_chain()
        frames = synthesize_frames(chain, resp, acq, 0.0, master_seed=11)
        per_frame = np.mean(frames.samples ** 2, axis=1)
        target = model_variance(chain, resp, acq, 0.0)
        se = per_frame.std(ddof=1) / math.sqrt(len(per_frame))
        assert abs(per_frame.mean() - target) < 5 * se + 1e-3 * target

    def test_vacuum_normalized_variance(self):
        resp, acq = FrequencyResponse(), small_acq(frames=512)
        frames = synthesize_frames(VACUUM, resp, acq, 0.0, master_seed=2)
        var = np.mean(frames.samples.var(axis=1))
        assert var / model_variance(VACUUM, resp, acq, 0.0) == pytest.approx(1.0, abs=0.02)

    def test_quadrature_variance_ratio(self):
        # theta = 0 vs pi/2 at the reference chain: 13.9 + 5.2 dB apart
        resp, acq = FrequencyResponse(), small_acq(frames=512, clearance=20.0)
        chain = paper_default_chain()
        sq = synthesize_frames(chain, resp, acq, 0.0, master_seed=21)
        anti = synthesize_frames(chain, resp, acq, math.pi / 2, master_seed=22)
        ratio = np.mean(anti.samples.var(axis=1)) / np.mean(sq.samples.var(axis=1))
        assert 10 * math.log10(ratio) == pytest.approx(13.9 + 5.2, abs=0.5)

    def test_frame_seed_unique(self):
        seeds = {frame_seed(9, i) for i in range(1000)}
        assert len(seeds) == 1000


# Master seeds of one to five 32-bit words, and frame indices whose spawn key
# is one word or two.
MASTER_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 128 + 1]
FRAME_INDICES = [0, 1, 2, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 7,
                 2 ** 64 - 1]


class TestVectorizedSeeding:
    @pytest.mark.parametrize("master", MASTER_SEEDS)
    def test_frame_seed_matches_seed_sequence(self, master):
        seeds = frame_seed(master, np.array(FRAME_INDICES, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        expected = [int(np.random.SeedSequence(master, spawn_key=(i,))
                        .generate_state(2, np.uint64)[0]) for i in FRAME_INDICES]
        assert seeds.tolist() == expected
        assert [frame_seed(master, i) for i in FRAME_INDICES] == expected
        assert all(type(frame_seed(master, i)) is int for i in FRAME_INDICES)

    @pytest.mark.parametrize("master", MASTER_SEEDS)
    def test_states_match_pcg64(self, master):
        seeds = frame_seed(master, np.array(FRAME_INDICES, dtype=np.uint64))
        states = list(_pcg64_states(seeds))
        assert len(states) == len(FRAME_INDICES)
        for seed, (state, inc) in zip(seeds.tolist(), states):
            assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}

    def test_negative_seed_or_index_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            frame_seed(-1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            frame_seed(1, np.array([3, -1]))

    def test_frames_past_two_to_the_32_match_per_frame_reference(self):
        resp, acq = FrequencyResponse(), small_acq(frames=4, n=16, clearance=20.0)
        chain = paper_default_chain()
        first = 2 ** 32 - 2
        ens = synthesize_frames(chain, resp, acq, 0.3, master_seed=5, n_frames=4,
                                first_frame=first)
        for i, row in enumerate(ens.samples):
            ref = synthesize_frame(chain, resp, acq, 0.3, seed=frame_seed(5, first + i))
            assert row.tobytes() == ref.samples[0].tobytes()

    def test_seed_blocks_across_synthesis_chunks(self, monkeypatch):
        # 32-sample frames in 3-row synthesis chunks, with 10-frame seed blocks
        # that end inside a chunk; 61 frames leave a ragged last block and chunk.
        resp, acq = FrequencyResponse(), small_acq(frames=61, n=32, clearance=20.0)
        chain = paper_default_chain()
        whole = synthesize_frames(chain, resp, acq, 0.0, master_seed=8, first_frame=11)
        blocks = []
        real_frame_seed = signal_chain.frame_seed

        def recording(master_seed, frame_index):
            blocks.append(len(frame_index))
            return real_frame_seed(master_seed, frame_index)

        monkeypatch.setattr(signal_chain, "frame_seed", recording)
        monkeypatch.setattr(signal_chain, "CHUNK_BYTES", 1700)
        assert signal_chain.chunk_rows(16 * 32, 61) == 3
        parts = synthesize_frames(chain, resp, acq, 0.0, master_seed=8, first_frame=11)
        assert sum(blocks) == 61 and len(blocks) > 2
        assert blocks[0] % 3 != 0 and blocks[-1] != blocks[0]
        assert parts.samples.tobytes() == whole.samples.tobytes()
        for i, row in enumerate(parts.samples):
            ref = synthesize_frame(chain, resp, acq, 0.0, seed=frame_seed(8, 11 + i))
            assert row.tobytes() == ref.samples[0].tobytes()


class TestEnsemble:
    def test_block_shape(self):
        acq = small_acq(frames=4)
        ens = synthesize_frames(VACUUM, FrequencyResponse(), acq, 0.2, master_seed=1)
        assert len(ens) == 4
        assert ens.samples.shape == (4, acq.samples_per_frame)
        assert ens.samples.dtype == np.float64 and ens.samples.flags.c_contiguous
        assert ens.theta == 0.2

    def test_width_must_match_config(self):
        with pytest.raises(ValueError):
            Ensemble(np.zeros((3, 512)), small_acq(n=1024), 0.0)
        with pytest.raises(ValueError):
            Ensemble(np.zeros(1024), small_acq(n=1024), 0.0)

    def test_row_is_one_frame_view(self):
        acq = small_acq(frames=3)
        ens = synthesize_frames(VACUUM, FrequencyResponse(), acq, 0.0, master_seed=2)
        rec = ens[1]
        assert isinstance(rec, Ensemble) and len(rec) == 1
        assert rec.config == acq and rec.theta == ens.theta
        assert np.shares_memory(rec.samples, ens.samples)
        assert np.array_equal(rec.samples[0], ens.samples[1])
        assert rec.samples.nbytes == 8 * acq.samples_per_frame
        assert [r.samples.tobytes() for r in ens] == [row.tobytes() for row in ens.samples]
        with pytest.raises(IndexError):
            ens[3]
        mode = np.ones(64) / math.sqrt(64 * acq.sample_interval)
        copy = Ensemble(ens.samples[1:2].copy(), acq, 0.0)
        t = 10 * acq.sample_interval
        assert extract_wavepacket(rec, mode, t) == extract_wavepacket(copy, mode, t)


class TestWavepacket:
    @staticmethod
    def flat_mode(n_mode, dt):
        mode = np.ones(n_mode)
        return mode / math.sqrt(np.sum(mode ** 2) * dt)

    @staticmethod
    def zero_frames(acq, frames=1):
        return Ensemble(np.zeros((frames, acq.samples_per_frame)), acq, 0.0)

    def test_zero_trace(self):
        acq = small_acq()
        mode = self.flat_mode(64, acq.sample_interval)
        vals = extract_wavepacket(self.zero_frames(acq, 3), mode, 0.0)
        assert vals.shape == (3,) and np.all(vals == 0.0)

    def test_unnormalized_mode_rejected(self):
        acq = small_acq()
        with pytest.raises(ValueError):
            extract_wavepacket(self.zero_frames(acq), np.ones(64), 0.0)

    def test_window_overrun(self):
        acq = small_acq()
        mode = self.flat_mode(64, acq.sample_interval)
        with pytest.raises(IndexError):
            extract_wavepacket(self.zero_frames(acq), mode, acq.record_duration)

    def _mode_variance_oracle(self, chain, resp, acq, theta, mode, dt):
        # numeric band integral of |mode FT|^2 times the target PSD
        n = acq.samples_per_frame
        freqs = np.fft.rfftfreq(n, dt)
        mode_padded = np.zeros(n)
        mode_padded[:len(mode)] = mode
        ft2 = np.abs(np.fft.rfft(mode_padded) * dt) ** 2
        _, s = psd_model(chain, resp, acq, theta)
        # one-sided integral; DC/Nyquist bins carry half weight
        w = np.full(n // 2 + 1, freqs[1] - freqs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return (acq.sample_rate / 2.0) * float(np.sum(ft2 * s * w))

    def test_vacuum_mode_variance(self):
        resp = FrequencyResponse()
        acq = small_acq(frames=2048)
        mode = self.flat_mode(256, acq.sample_interval)
        frames = synthesize_frames(VACUUM, resp, acq, 0.0, master_seed=31)
        vals = extract_wavepacket(frames, mode, 200 * acq.sample_interval)
        oracle = self._mode_variance_oracle(VACUUM, resp, acq, 0.0, mode,
                                            acq.sample_interval)
        se = np.std(vals) ** 2 * math.sqrt(2.0 / len(vals))
        assert np.var(vals) == pytest.approx(oracle, abs=4 * se)
        # mode much wider than the inverse detector bandwidth: close to 1/2
        assert np.var(vals) == pytest.approx(0.5, rel=0.1)

    def test_squeezed_mode_variance_matches_band_average(self):
        resp = FrequencyResponse()
        acq = small_acq(frames=2048)
        chain = ChainModel(stages=(squeeze(0.8), loss(0.8)))
        mode = self.flat_mode(256, acq.sample_interval)
        frames = synthesize_frames(chain, resp, acq, 0.0, master_seed=32)
        vals = extract_wavepacket(frames, mode, 100 * acq.sample_interval)
        oracle = self._mode_variance_oracle(chain, resp, acq, 0.0, mode,
                                            acq.sample_interval)
        se = np.var(vals) * math.sqrt(2.0 / len(vals))
        assert np.var(vals) == pytest.approx(oracle, abs=3 * se)
