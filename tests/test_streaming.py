"""Streamed simulate, analyze and Monte-Carlo loss sweep: bounded memory, and
the same results as the whole-ensemble route and the plain per-group reference."""
import contextlib
import io
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahd import analysis, signal_chain, traceio
from opahd.analysis import (FFT_CHUNK_FRAMES, WINDOWS, FrameStats, _modified_chain,
                            averaged_fft, histogram, level_from_variances, loss_sweep,
                            pooled_histogram, variance_level)
from opahd.cli import main
from opahd.gaussian import ChainModel, loss, paper_default_chain, psa, squeeze
from opahd.signal_chain import AcquisitionConfig, Ensemble, FrequencyResponse, synthesize_frames

# A bound on each command's peak traced allocation that does not grow with the
# frame count: half of one 512-frame ensemble (16 MiB at 4096 samples).
PEAK_BOUND_BYTES = 8 << 20


@pytest.mark.parametrize("frames", [64, 512])
def test_peak_memory_independent_of_frames(tmp_path, frames):
    config = {
        "seed": 3,
        "chain": {"stages": [{"kind": "squeeze", "r": 1.0},
                             {"kind": "psa", "gain_db": 35.0, "eta_opa": 0.79},
                             {"kind": "loss", "eta": 0.076}]},
        "acquisition": {"record_duration_ns": 25.6, "samples_per_frame": 4096,
                        "frames": frames, "clearance_at_43ghz_db": 20.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for command in (["simulate"],
                    ["analyze", tmp_path / "signal.trace", tmp_path / "shot.trace"]):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in ("--config", path, "--out", tmp_path, *command)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < PEAK_BOUND_BYTES, f"{command[0]} peaked at {peak} bytes"


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's malloc")
def test_page_faults_independent_of_frames(tmp_path):
    """A fresh simulate or analyze at the paper's frame shape takes its minor
    page faults at start-up, not per chunk: its per-chunk temporaries are
    reused from the heap once main has raised glibc's mmap threshold. Without
    that, each added frame costs simulate about 40 faults here."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    faults = {}
    for frames in (40, 200):
        config = {"chain": {"stages": [{"kind": "squeeze", "r": 1.0},
                                       {"kind": "psa", "gain_db": 35.0, "eta_opa": 0.79},
                                       {"kind": "loss", "eta": 0.076}]},
                  "acquisition": {"frames": frames}}    # 12512 samples in 78.2 ns
        path = tmp_path / f"{frames}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / str(frames)
        for command in (["simulate"], ["analyze", out / "signal.trace", out / "shot.trace"]):
            child = subprocess.Popen([sys.executable, "-m", "opahd.cli", "--config", path,
                                      "--out", out, *command],
                                     env=env, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)     # reaped here
            assert child.returncode == 0
            faults[command[0], frames] = usage.ru_minflt
    for command in ("simulate", "analyze"):
        assert faults[command, 200] - faults[command, 40] < 5 * 160, faults


def reference_power_sum(block, win):
    """averaged_fft's power sum as one sum(axis=0) per FFT_CHUNK_FRAMES-row group."""
    total = np.zeros(block.shape[1] // 2 + 1)
    for i in range(0, len(block), FFT_CHUNK_FRAMES):
        total += (np.abs(np.fft.rfft(block[i:i + FFT_CHUNK_FRAMES] * win, axis=1)) ** 2
                  ).sum(axis=0)
    return total


def streamed(path, window):
    with traceio.TraceReader(path) as reader:
        stats = FrameStats(reader.acquisition, reader.acquisition.frames, window)
        stats.add(reader.chunks())
        edges, counts = pooled_histogram(reader.chunks(), 200, stats.lo, stats.hi)
    return stats, edges, counts


# 300 frames are a multiple neither of the read and FFT chunk (16 rows of 1000
# samples by default, 7 with the small budget) nor of FFT_CHUNK_FRAMES.
@pytest.mark.parametrize("chunk_bytes", [signal_chain.CHUNK_BYTES, 7 * 16000])
@pytest.mark.parametrize("window", ["rectangular", "hann"])
def test_streamed_route_matches_whole_ensemble_bit_for_bit(tmp_path, monkeypatch,
                                                          chunk_bytes, window):
    monkeypatch.setattr(signal_chain, "CHUNK_BYTES", chunk_bytes)
    acq = AcquisitionConfig(record_duration=6.25e-9, samples_per_frame=1000, frames=300,
                            clearance_at_43ghz_db=20.0)
    chain = ChainModel(stages=(squeeze(1.0), psa(35.0, 0.79), loss(0.076)))
    resp = FrequencyResponse()
    sig = synthesize_frames(chain, resp, acq, master_seed=5)
    shot = synthesize_frames(chain.without_squeezing(), resp, acq, master_seed=6)
    traceio.write_traces(tmp_path / "signal.trace", sig)
    traceio.write_traces(tmp_path / "shot.trace", shot)
    data, read_acq, theta = traceio.read_traces(tmp_path / "signal.trace")
    assert np.array_equal(data, sig.samples)
    assert (read_acq.frames, theta) == (300, chain.lo_phase)

    stats_sig, edges, counts = streamed(tmp_path / "signal.trace", window)
    stats_shot, _, _ = streamed(tmp_path / "shot.trace", window)

    whole = averaged_fft(sig, window=window)
    spec = stats_sig.spectrum()
    assert np.array_equal(spec.power, whole.power)
    assert np.array_equal(spec.freqs, whole.freqs)
    win = np.ones(1000) if window == "rectangular" else np.hanning(1000)
    expected = reference_power_sum(sig.samples, win) * (
        1.0 / (acq.sample_rate * np.sum(win ** 2)) / len(sig))
    expected[1:-1] *= 2.0
    assert np.array_equal(whole.power, expected)

    assert np.array_equal(stats_sig.variances, sig.samples.var(axis=1))
    assert (level_from_variances(stats_sig.variances, stats_shot.variances)
            == variance_level(sig, shot))

    ref_counts, ref_edges = np.histogram(sig.samples.ravel(), bins=200)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(edges, ref_edges)
    whole_edges, whole_counts = histogram(sig, bins=200)
    assert np.array_equal(whole_counts, ref_counts)
    assert np.array_equal(whole_edges, ref_edges)


def test_one_chunk_budget_sets_every_chunk(tmp_path, monkeypatch):
    """signal_chain.CHUNK_BYTES, read at call time, sizes the synthesis, the
    trace read, the FFT and the variance chunks by one rule, frame_rows: as
    many frames as synthesis's irfft output, 2 × samples_per_frame samples a
    row, fits in the budget."""
    acq = AcquisitionConfig(record_duration=6.25e-9, samples_per_frame=1000, frames=20)
    monkeypatch.setattr(signal_chain, "CHUNK_BYTES", 2 * 16 * 1000 + 15999)
    ens = synthesize_frames(ChainModel(), FrequencyResponse(), acq)
    assert [len(c) for _, _, c in signal_chain.shared_frame_chunks(
        (ChainModel(),), FrequencyResponse(), acq)] == [2] * 10
    with traceio.trace_writer(tmp_path / "t.trace", acq, 0.0, 20) as write:
        write(ens.samples)
    with traceio.TraceReader(tmp_path / "t.trace") as reader:
        assert [len(c) for c in reader.chunks()] == [2] * 10
        # A second pass, such as analyze's histogram, reads into the same buffer.
        assert np.shares_memory(next(reader.chunks()), next(reader.chunks()))
    rows = {"rfft": [], "variances": []}
    rfft, variances_into = np.fft.rfft, analysis._variances_into

    def recorded(name, fn):
        def call(block, *args, **kwargs):
            rows[name].append(len(block))
            return fn(block, *args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "rfft", recorded("rfft", rfft))
    monkeypatch.setattr(analysis, "_variances_into", recorded("variances", variances_into))
    FrameStats(acq, 20).add([ens.samples])
    assert rows == {"rfft": [2] * 10, "variances": [2] * 10}
    rows["variances"].clear()
    analysis.frame_variances(ens.samples)
    assert rows["variances"] == [2] * 10


def test_paper_frames_are_synthesized_one_per_chunk():
    """At the paper's 12512 samples a synthesis chunk is one frame, so that
    each of its buffers fits CHUNK_BYTES: the draws, the spectrum and the
    25024-sample irfft output take 0.2 MB each. Two-frame chunks, which the
    8-bytes-per-sample rule gave, peak above this bound at 1.44 MiB."""
    acq = AcquisitionConfig(frames=8)
    chain = paper_default_chain()
    for _ in signal_chain.shared_frame_chunks((chain,), FrequencyResponse(), acq, n_frames=1):
        pass                    # numpy.random's one-time set-up allocates ~1 MB
    tracemalloc.start()
    try:
        rows = [len(c) for _, _, c in signal_chain.shared_frame_chunks(
            (chain,), FrequencyResponse(), acq)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [1] * 8
    assert peak < 4 * signal_chain.CHUNK_BYTES, f"peaked at {peak} bytes"


# 300 frames: one full FFT_CHUNK_FRAMES group and a partial one.
CHUNKINGS = {"one row": [1] * 300, "ragged": [1, 7, 33, 64, 100, 95], "whole block": [300]}


@pytest.mark.parametrize("calls", ["one add", "an add per chunk"])
@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("n", [1000, 1001])
@pytest.mark.parametrize("window", ["rectangular", "hann"])
def test_frame_stats_matches_the_per_group_reference_for_any_chunking(calls, chunking, n,
                                                                       window):
    """The group partial carries over from one add to the next, so several
    calls give the same bytes as one."""
    block = np.random.default_rng(n).standard_normal((300, n)) * 2.0 + 0.3
    acq = AcquisitionConfig(record_duration=n * 6.25e-12, samples_per_frame=n, frames=300)
    stats = FrameStats(acq, 300, window)
    cuts = np.cumsum([0, *CHUNKINGS[chunking]])
    chunks = [block[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    if calls == "one add":
        stats.add(iter(chunks))
    else:
        for chunk in chunks:
            stats.add([chunk])
    win = WINDOWS[window](n)
    expected = reference_power_sum(block, win) * (
        1.0 / (acq.sample_rate * np.sum(win ** 2)) / 300)
    expected[1:(n + 1) // 2] *= 2.0
    assert stats.spectrum().power.tobytes() == expected.tobytes()
    assert stats.variances.tobytes() == block.var(axis=1).tobytes()
    assert (stats.lo, stats.hi) == (block.min(), block.max())


@pytest.mark.parametrize("window", ["rectangular", "hann"])
def test_averaged_fft_of_a_whole_block_allocates_a_few_chunks(window):
    """FrameStats.add reduces any block through buffers of a few CHUNK_BYTES
    (3.1 at 12512 samples); one temporary the size of this 51 MB block would
    be 196 of them."""
    acq = AcquisitionConfig(frames=512)
    ens = Ensemble(np.random.default_rng(2).standard_normal((512, 12512)), acq, 0.0)
    tracemalloc.start()
    try:
        averaged_fft(ens, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * signal_chain.CHUNK_BYTES, f"peaked at {peak} bytes"


def test_frame_stats_keeps_only_its_results_between_adds():
    """Once add returns, a FrameStats holds its variances and two rows of
    n // 2 + 1 bins, the power sum and the current group's partial: add's
    workspace, about 0.2 MB at 12512 samples, is dropped."""
    acq = AcquisitionConfig(frames=40)
    block = np.random.default_rng(3).standard_normal((40, 12512))
    nbins = 12512 // 2 + 1
    tracemalloc.start()
    try:
        stats = FrameStats(acq, 40)
        stats.add([block[:30]])
        stats.add([block[30:]])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stats.count == 40
    assert held < stats.variances.nbytes + 2 * 8 * nbins + 4096, f"{held} bytes held"


def test_frame_stats_rejects_more_frames_than_announced():
    acq = AcquisitionConfig(record_duration=6.25e-9, samples_per_frame=1000, frames=2)
    stats = FrameStats(acq, 2)
    stats.add([np.zeros((2, 1000))])
    with pytest.raises(ValueError):
        stats.add([np.zeros((1, 1000))])


def test_trace_writer_rejects_a_short_file(tmp_path):
    acq = AcquisitionConfig(record_duration=6.25e-9, samples_per_frame=1000, frames=3)
    path = tmp_path / "short.trace"
    with pytest.raises(ValueError):
        with traceio.trace_writer(path, acq, 0.0, 3) as write:
            write(np.zeros((2, 1000)))
    assert list(tmp_path.iterdir()) == []


def test_trace_writer_rejects_frame_counts_the_header_cannot_hold(tmp_path):
    acq = AcquisitionConfig(record_duration=6.25e-9, samples_per_frame=1000, frames=1)
    for frames in (0, 2 ** 32):
        with pytest.raises(ValueError):
            with traceio.trace_writer(tmp_path / "big.trace", acq, 0.0, frames):
                pass
    assert list(tmp_path.iterdir()) == []


def test_trace_writer_writes_strided_chunks_as_their_contiguous_copies(tmp_path):
    # Synthesis yields the second half of each 2n-sample row; a column-major
    # block has no contiguous row at all.
    acq = AcquisitionConfig(record_duration=6.25e-9, samples_per_frame=1000, frames=6)
    full = np.random.default_rng(4).standard_normal((3, 2000))
    chunks = {"strided": [full[:, 1000:], np.asfortranarray(full[:, :1000])]}
    chunks["contiguous"] = [np.ascontiguousarray(c) for c in chunks["strided"]]
    assert not any(c.flags.c_contiguous for c in chunks["strided"])
    for name, parts in chunks.items():
        with traceio.trace_writer(tmp_path / f"{name}.trace", acq, 0.0, 6) as write:
            for part in parts:
                write(part)
    assert ((tmp_path / "strided.trace").read_bytes()
            == (tmp_path / "contiguous.trace").read_bytes())


@pytest.mark.parametrize("duration", [1e-18, 1e10, float("inf"), float("nan")])
def test_trace_writer_rejects_sample_intervals_the_header_cannot_hold(tmp_path, duration):
    # 4 samples in 1e-18 s are 0.25 fs apart, which rounds to 0; in 1e10 s,
    # 2.5e24 fs, past the uint64 field. inf and NaN never reach the writer:
    # AcquisitionConfig refuses them.
    message = ("record_duration gives a sample interval" if math.isfinite(duration)
               else "record_duration must be finite and positive")
    with pytest.raises(ValueError, match=message):
        acq = AcquisitionConfig(record_duration=duration, samples_per_frame=4, frames=1)
        with traceio.trace_writer(tmp_path / "t.trace", acq, 0.0, 1):
            pass
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 600), frames=st.integers(1, 40),
       theta_urad=st.integers(-2 ** 40, 2 ** 40), interval_fs=st.integers(1, 10 ** 12),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_trace_file_round_trip(tmp_path_factory, n, frames, theta_urad, interval_fs, seed,
                               data):
    """Any shape, LO phase and sample interval the header holds, written in any
    split of rows, reads back with the same samples and header, whole and in
    chunks of any budget."""
    samples = np.random.default_rng(seed).standard_normal((frames, n))
    cuts = sorted(data.draw(st.lists(st.integers(0, frames), max_size=4)))
    theta = theta_urad * 1e-6
    acq = AcquisitionConfig(record_duration=n * interval_fs * 1e-15, samples_per_frame=n,
                            frames=frames)
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    with traceio.trace_writer(path, acq, theta, frames) as write:
        for lo, hi in zip([0, *cuts], [*cuts, frames]):
            write(samples[lo:hi])

    whole, read_acq, read_theta = traceio.read_traces(path)
    assert whole.tobytes() == samples.tobytes()
    # The record duration is n × (interval × 1e-15) in that order, the value
    # whose sample rate spectrum.csv's frequencies are printed from.
    assert (read_acq, read_theta) == (
        AcquisitionConfig(record_duration=n * (interval_fs * 1e-15), samples_per_frame=n,
                          frames=frames), theta)
    chunk_bytes = data.draw(st.integers(1, 3 * 16 * n))
    with mock.patch.object(signal_chain, "CHUNK_BYTES", chunk_bytes), \
            traceio.TraceReader(path) as reader:
        rows = signal_chain.frame_rows(n, frames)
        chunks = [chunk.copy() for chunk in reader.chunks()]
    assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
    assert np.concatenate(chunks).tobytes() == samples.tobytes()


@pytest.mark.parametrize("n, frames, interval_fs, message", [
    (1, 4, 1, "samples_per_frame must be >= 2"), (4, 0, 1, "frames must be >= 1"),
    (4, 1, 0, "record_duration must be finite and positive")])
def test_header_that_gives_no_acquisition_names_the_file(tmp_path, n, frames, interval_fs,
                                                         message):
    path = tmp_path / "t.trace"
    path.write_bytes(struct.pack(traceio._HEADER_FMT, traceio.MAGIC, traceio.VERSION, n,
                                 frames, interval_fs, 0) + bytes(8 * n * frames))
    with pytest.raises(traceio.TraceFormatError, match=f"^{re.escape(str(path))}: {message}"):
        traceio.TraceReader(path)


def test_file_truncated_after_its_header_was_checked(tmp_path):
    # 1 MiB of samples, cut within the fourth chunk: past what the file
    # object buffered when the header was read.
    path = tmp_path / "t.trace"
    acq = AcquisitionConfig(record_duration=3.2e-9, samples_per_frame=512, frames=256)
    with traceio.trace_writer(path, acq, 0.0, 256) as write:
        write(np.zeros((256, 512)))
    with traceio.TraceReader(path) as reader:
        os.truncate(path, traceio.HEADER_SIZE + 8 * 512 * 100)
        with pytest.raises(traceio.TraceFormatError,
                           match=f"^{re.escape(str(path))}: truncated while reading$"):
            list(reader.chunks())


SWEEP_CHAIN = ChainModel(stages=(squeeze(1.0), psa(35.0, 0.79), loss(0.076)))
# 512-sample frames with the electrical floor on: 32 rows per synthesis chunk
# by default, 7 with the small budget; 300 frames is a multiple of neither.
SWEEP_ACQ = AcquisitionConfig(record_duration=3.2e-9, samples_per_frame=512, frames=300,
                              clearance_at_43ghz_db=20.0)


@pytest.mark.parametrize("chunk_bytes", [signal_chain.CHUNK_BYTES, 7 * 16 * 512])
def test_monte_carlo_sweep_matches_per_point_ensembles_bit_for_bit(monkeypatch, chunk_bytes):
    monkeypatch.setattr(signal_chain, "CHUNK_BYTES", chunk_bytes)
    resp = FrequencyResponse()
    rows = loss_sweep(SWEEP_CHAIN, [0.0, 0.3, 0.9], (0.0, 35.0), monte_carlo=True,
                      resp=resp, acq=SWEEP_ACQ, mc_frames=300, master_seed=11)
    assert len(rows) == 6
    for row in rows:
        chain = _modified_chain(SWEEP_CHAIN, row.gain_db, row.added_loss)
        sig = synthesize_frames(chain, resp, SWEEP_ACQ, 0.0, 11, 300)
        shot = synthesize_frames(chain.without_squeezing(), resp, SWEEP_ACQ, 0.0, 12, 300)
        assert row.squeezing_db_mc == variance_level(sig, shot)[0]


def test_monte_carlo_sweep_draws_each_frame_once_per_seed(monkeypatch):
    calls = []
    frame_seed = signal_chain.frame_seed

    def counting(master_seed, frame_index):
        calls.extend((master_seed, int(i)) for i in np.ravel(frame_index))
        return frame_seed(master_seed, frame_index)

    monkeypatch.setattr(signal_chain, "frame_seed", counting)
    loss_sweep(SWEEP_CHAIN, [0.0, 0.3, 0.9], (0.0, 35.0), monte_carlo=True,
               acq=SWEEP_ACQ, mc_frames=37, master_seed=4)
    assert sorted(calls) == [(seed, i) for seed in (4, 5) for i in range(37)]


# A bound on the sweep's peak traced allocation that does not grow with
# mc_frames: under one 128-frame ensemble (12.8 MB at 12512 samples).
SWEEP_PEAK_BOUND_BYTES = 8 << 20


@pytest.mark.parametrize("mc_frames", [16, 128])
def test_monte_carlo_sweep_memory_independent_of_frames(mc_frames):
    acq = AcquisitionConfig(frames=mc_frames, clearance_at_43ghz_db=20.0)
    tracemalloc.start()
    try:
        loss_sweep(SWEEP_CHAIN, [0.0, 0.5], (0.0, 35.0), monte_carlo=True,
                   resp=FrequencyResponse(), acq=acq, mc_frames=mc_frames, master_seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SWEEP_PEAK_BOUND_BYTES, f"peaked at {peak} bytes"
