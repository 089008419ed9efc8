"""Detection-electronics frequency response and Monte Carlo trace synthesis.

Traces are emitted in shot-noise-normalized units: a hypothetical all-pass
vacuum chain at the reference photocurrent has unit per-sample variance.
Absolute volts are never calibrated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import ChainModel, relative_quadrature_power

REFERENCE_PHOTOCURRENT_A = 3.0e-3
# Bytes per chunk. Every chunked loop takes chunk_rows(row_bytes, limit) rows
# at a time, with row_bytes its largest buffer's bytes per frame, so that each
# buffer it holds fits CHUNK_BYTES: 8 * samples_per_frame for trace reads,
# FrameStats and frame_variances, and 16 * samples_per_frame for synthesis,
# whose irfft output holds 2 * samples_per_frame samples. The histogram counts
# CHUNK_BYTES // 16 samples at a time.
# analyze of 2 × 512 frames of 12512 samples, as a fresh process on 2 CPUs,
# medians of 10 runs: 512 KiB 37.1 MB peak RSS in 0.45 s, 256 KiB 34.7 MB in
# 0.47 s, 128 KiB 33.1 MB in 0.52 s. The interpreter and numpy take ~30 MB.
CHUNK_BYTES = 1 << 18


def chunk_rows(row_bytes: int, limit: int) -> int:
    """Rows of row_bytes each per CHUNK_BYTES, read at call time, in [1, limit]."""
    return max(1, min(limit, CHUNK_BYTES // max(row_bytes, 1)))


def _check_positive(obj, *names: str) -> None:
    """Raise ValueError naming the first of obj's fields that is not finite and > 0."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class FrequencyResponse:
    """Magnitude response of detector + amplifier + oscilloscope.

    A Butterworth-style low-pass magnitude of the given order models the
    detector (|H(f3db)|² = 1/2 exactly); the oscilloscope contributes a
    hard cutoff. Only 3-dB points are specified by hardware datasheets,
    so the shape is a modeling choice and stays configurable.
    """

    detector_f3db: float = 43e9
    scope_cutoff: float = 63e9
    filter_order: int = 4

    def __post_init__(self):
        _check_positive(self, "detector_f3db", "scope_cutoff")
        if self.filter_order < 1:
            raise ValueError("filter order must be >= 1")

    def magnitude_squared(self, freqs: np.ndarray) -> np.ndarray:
        """|H(f)|² on the given frequency grid (Hz)."""
        f = np.asarray(freqs, dtype=float)
        h2 = 1.0 / (1.0 + (np.abs(f) / self.detector_f3db) ** (2 * self.filter_order))
        return np.where(np.abs(f) > self.scope_cutoff, 0.0, h2)


@dataclass(frozen=True)
class AcquisitionConfig:
    """Oscilloscope acquisition settings (defaults: 78.2 ns at 160 GS/s)."""

    record_duration: float = 78.2e-9
    samples_per_frame: int = 12512
    frames: int = 8192
    photocurrent: float = 3.0e-3
    clearance_at_43ghz_db: float | None = 20.0

    def __post_init__(self):
        _check_positive(self, "record_duration", "photocurrent")
        if not 2 <= self.samples_per_frame < 2 ** 32:     # the trace header's uint32
            raise ValueError("samples_per_frame must be >= 2 and < 2**32")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        clearance = self.clearance_at_43ghz_db
        if clearance is not None and not math.isfinite(clearance):
            raise ValueError(f"clearance_at_43ghz_db must be finite or None, got {clearance!r}")

    @property
    def sample_interval(self) -> float:
        return self.record_duration / self.samples_per_frame

    @property
    def sample_rate(self) -> float:
        return self.samples_per_frame / self.record_duration


@dataclass(frozen=True)
class Ensemble:
    """An ensemble of frames as one C-contiguous frames × samples_per_frame
    float64 block plus acquisition metadata. ens[i] is the one-frame Ensemble
    that views row i."""

    samples: np.ndarray
    config: AcquisitionConfig
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.ascontiguousarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2 or self.samples.shape[1] != self.config.samples_per_frame:
            raise ValueError("ensemble must be a frames × samples_per_frame block")

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __getitem__(self, i: int) -> "Ensemble":
        return Ensemble(samples=self.samples[i][None], config=self.config, theta=self.theta)


def _electrical_floor(resp: FrequencyResponse, acq: AcquisitionConfig) -> float:
    """Flat one-sided electrical noise floor, set so the shot noise at the
    reference photocurrent clears it by clearance_at_43ghz_db at 43 GHz."""
    if acq.clearance_at_43ghz_db is None:
        return 0.0
    h2_43 = float(resp.magnitude_squared(np.array([43e9]))[0])
    shot_scale = 2.0 / acq.sample_rate  # unit-variance white spectrum
    return h2_43 * shot_scale * 10.0 ** (-acq.clearance_at_43ghz_db / 10.0)


def psd_model(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
              theta: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Analytic one-sided PSD of the homodyne output on the FFT grid.

    S(f) = |H(f)|²·(I/I_ref)·V_rel(θ)·(2/fs) + S_el, with V_rel the chain's
    quadrature variance relative to the pump-off shot reference (flat in f
    for THz-wide sources) and S_el the electrical floor.

    Returns (freqs, power) with freqs the rfft grid of one frame. S(f) is a
    density on f ≥ 0 at every bin; analysis.FrameStats.spectrum estimates half
    of it at DC (and at Nyquist, for even frame lengths), whose bins have no
    negative-frequency mirror (Heinzel, Rüdiger & Schilling 2002).
    """
    freqs = np.fft.rfftfreq(acq.samples_per_frame, acq.sample_interval)
    return freqs, _one_sided_model(chain, resp, acq, theta, freqs)


def _one_sided_model(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                     theta: float | None, freqs: np.ndarray) -> np.ndarray:
    """The one-sided model S(f) of psd_model on an arbitrary frequency grid."""
    v_rel = relative_quadrature_power(chain, theta)
    shot = (acq.photocurrent / REFERENCE_PHOTOCURRENT_A) * (2.0 / acq.sample_rate)
    return resp.magnitude_squared(freqs) * shot * v_rel + _electrical_floor(resp, acq)


def model_variance(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                   theta: float | None = None) -> float:
    """Expected per-sample variance of a synthesized frame, ∫S(f)df."""
    freqs, power = psd_model(chain, resp, acq, theta)
    return float(np.trapezoid(power, freqs))


# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905). NEP 19 keeps both fixed,
# so the arithmetic below gives SeedSequence's and PCG64's states bit for bit.
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Each step below takes Python ints or uint64 arrays, not both at once. Arrays
# hold 32-bit words in uint64, so the one dtype's loops serve every step: a
# product of two words still fits, and "& _MASK32" reduces mod 2**32.


def _hashmix(value, h):
    """SeedSequence's hashmix of one word: (hashed word, next hash constant)."""
    value = value ^ h
    h = (h * _MULT_A) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: list, h, word) -> tuple[list, int]:
    """Mix one entropy word past SeedSequence's pool into every pool word."""
    mixed = []
    for x in pool:
        v, h = _hashmix(word, h)
        mixed.append(_mix(x, v))
    return mixed, h


def _mix_entropy(words: list) -> tuple[list, int]:
    """SeedSequence.mix_entropy of at least _POOL_WORDS entropy words: (pool,
    hash constant). SeedSequence hashes a missing word as 0, so shorter entropy
    gives the same pool padded with zeros."""
    h = _INIT_A
    pool = []
    for word in words[:_POOL_WORDS]:
        v, h = _hashmix(word, h)
        pool.append(v)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for word in words[_POOL_WORDS:]:
        pool, h = _absorb(pool, h, word)
    return pool, h


def _generate_state(pool: list, n_words: int):
    """Yield the n_words 32-bit words of SeedSequence.generate_state(n_words
    // 2, np.uint64) in turn, each value's low word first."""
    h = _INIT_B
    for i in range(n_words):
        v = pool[i % _POOL_WORDS] ^ h
        h = (h * _MULT_B) & _MASK32
        v = (v * h) & _MASK32
        yield v ^ (v >> 16)


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of a non-negative int."""
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def frame_seed(master_seed: int, frame_index):
    """Derive the independent 64-bit stream seed for one frame, or for each of
    an integer array of frame indices (each below 2**64) as a uint64 array.

    Equals SeedSequence(master_seed, spawn_key=(frame_index,))
    .generate_state(2, np.uint64)[0]: the master seed's words are hashed once,
    then every frame's spawn-key words at once.
    """
    index = np.asarray(frame_index)
    if index.dtype.kind not in "iu":
        raise TypeError(f"frame indices must be integers, got {index.dtype}")
    if index.dtype.kind == "i" and np.any(index < 0):
        raise ValueError("frame indices must be non-negative")
    index = index.reshape(-1).astype(np.uint64, copy=False)
    run = _words(int(master_seed))
    pool, h = _mix_entropy(run + [0] * (_POOL_WORDS - len(run)))
    pool = [np.full(index.shape, x, dtype=np.uint64) for x in pool]
    pool, h = _absorb(pool, h, index & _MASK32)
    high = index >> 32
    if np.count_nonzero(high):          # a spawn key of two words, low word first
        two = high != 0
        mixed, _ = _absorb([x[two] for x in pool], h, high[two])
        for x, y in zip(pool, mixed):
            x[two] = y
    lo, hi = _generate_state(pool, 2)
    seeds = lo | (hi << 32)
    return int(seeds[0]) if np.ndim(frame_index) == 0 else seeds.reshape(np.shape(frame_index))


def _pcg64_states(seeds: np.ndarray):
    """Yield, for each uint64 seed in turn, the (state, inc) of PCG64(seed).

    PCG64 takes SeedSequence(seed).generate_state(4, np.uint64) as a 128-bit
    initial state and stream and applies pcg_setseq_128_srandom_r. The hashes
    run on the whole array; the 128-bit steps on one row at a time.
    """
    zero = np.zeros_like(seeds)
    pool, _ = _mix_entropy([seeds & _MASK32, seeds >> 32, zero, zero])
    vals = np.empty((len(seeds), 4), dtype=np.uint64)
    words = _generate_state(pool, 8)
    for k, (lo, hi) in enumerate(zip(words, words)):
        vals[:, k] = lo | (hi << 32)
    del zero, pool, lo, hi          # only vals stays while the rows are yielded
    for row in vals:
        s_hi, s_lo, seq_hi, seq_lo = row.tolist()
        inc = (((seq_hi << 64 | seq_lo) << 1) | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


# Peak bytes per frame of frame_seed and _pcg64_states on a block of frames
# (145 measured with tracemalloc), so that a block keeps to CHUNK_BYTES.
_SEED_BYTES_PER_FRAME = 160


def _frame_states(master_seed: int, first_frame: int, count: int):
    """Yield the (state, inc) of default_rng(frame_seed(master_seed, i)) for
    frames i = first_frame, ..., first_frame + count - 1, deriving the seeds
    one block of chunk_rows(_SEED_BYTES_PER_FRAME, count) frames at a time."""
    if not 0 <= first_frame <= 2 ** 64 - count:
        raise ValueError("frame indices must lie in [0, 2**64)")
    block = chunk_rows(_SEED_BYTES_PER_FRAME, count)
    for start in range(0, count, block):
        index = np.arange(min(block, count - start), dtype=np.uint64)
        index += np.uint64(first_frame + start)
        yield from _pcg64_states(frame_seed(master_seed, index))


def _synthesis_sigma(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                     theta: float) -> np.ndarray:
    """Per-bin amplitude σ(f) of the 2n-sample synthesis spectrum
    (Timmer & König, A&A 300, 707 (1995))."""
    fs = acq.sample_rate
    n2 = 2 * acq.samples_per_frame
    s2 = _one_sided_model(chain, resp, acq, theta, np.fft.rfftfreq(n2, 1.0 / fs))
    return np.sqrt(s2 * fs * n2 / 2.0)


def synthesize_frame(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                     theta: float | None = None, seed: int = 0) -> Ensemble:
    """One reproducible homodyne frame, as a one-frame Ensemble, with the
    analytic target spectrum.

    The per-frame reference for synthesize_frames: row i of an ensemble is
    this frame with seed=frame_seed(master_seed, first_frame + i).
    """
    th = chain.lo_phase if theta is None else theta
    rng = np.random.default_rng(seed)
    n = acq.samples_per_frame
    # Synthesize at 2x length, keep the second half.
    sigma = _synthesis_sigma(chain, resp, acq, th)
    nbins = len(sigma)
    spec = np.empty(nbins, dtype=np.complex128)
    re = rng.standard_normal(nbins)
    im = rng.standard_normal(nbins)
    spec[1:-1] = (sigma[1:-1] / math.sqrt(2.0)) * (re[1:-1] + 1j * im[1:-1])
    # DC and Nyquist are their own mirror images: real, half one-sided weight
    spec[0] = sigma[0] * re[0]
    spec[-1] = sigma[-1] * re[-1]
    samples = np.fft.irfft(spec, n=2 * n)[n:]
    return Ensemble(samples=samples[None], config=acq, theta=th)


def shared_frame_chunks(chains, resp: FrequencyResponse, acq: AcquisitionConfig,
                        theta: float | None = None, master_seed: int = 0,
                        n_frames: int | None = None, first_frame: int = 0):
    """Synthesize the ensembles of several chains that share one master seed,
    chunk by chunk, with per-frame independent RNG streams.

    Frame i of every chain comes from the same stream, drawn once: each chunk
    of rows is drawn, then shaped by each chain's σ(f) in turn (common random
    numbers). Yields (start, j, chunk) for each chunk and, within it, each
    chain j in order: the rows start.. of chain j, together n_frames rows per
    chain (default acq.frames). theta defaults to each chain's LO phase. A
    chunk takes chunk_rows(16 * samples_per_frame, n_frames) rows, so that
    each of its buffers (the draws, the spectrum and the 2n-sample irfft
    output) holds at most about CHUNK_BYTES, and every row equals
    synthesize_frame's frame for that chain and seed byte for byte. first_frame
    offsets the frame indices, so an ensemble can be produced in parts that
    reproduce the exact same streams. Frame i's stream is that of
    default_rng(frame_seed(master_seed, i)): the seeds and PCG64 states of a
    block of frames are derived at once, and one generator of this call's own
    is set to each state in turn. Each chunk is a view into a buffer the
    next one overwrites: consume or copy it before advancing.
    """
    count = acq.frames if n_frames is None else n_frames
    n = acq.samples_per_frame
    nbins = n + 1
    # One amplitude row per chain scales the real and the imaginary draws
    # alike. DC and Nyquist are real and take σ itself; irfft never reads
    # their imaginary parts.
    amp = np.empty((len(chains), nbins))
    for a, chain in zip(amp, chains):
        sigma = _synthesis_sigma(chain, resp, acq, chain.lo_phase if theta is None else theta)
        np.divide(sigma, math.sqrt(2.0), out=a)
        a[[0, -1]] = sigma[[0, -1]]
    rows = chunk_rows(16 * n, count)
    noise = np.empty((rows, 2, nbins))
    spec = np.empty((rows, nbins), dtype=np.complex128)
    full = np.empty((rows, 2 * n))
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    states = _frame_states(master_seed, first_frame, count)
    for start in range(0, count, rows):
        k = min(rows, count - start)
        for r in range(k):
            state["state"]["state"], state["state"]["inc"] = next(states)
            bitgen.state = state
            rng.standard_normal(out=noise[r])      # re, then im
        for j, a in enumerate(amp):
            np.multiply(a, noise[:k, 0], out=spec.real[:k])
            np.multiply(a, noise[:k, 1], out=spec.imag[:k])
            np.fft.irfft(spec[:k], n=2 * n, axis=1, out=full[:k])
            yield start, j, full[:k, n:]


def frame_chunks(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                 theta: float | None = None, master_seed: int = 0,
                 n_frames: int | None = None, first_frame: int = 0):
    """The chunks of one chain's frames: shared_frame_chunks for that chain
    alone (same arguments), yielding each rows × samples_per_frame chunk."""
    for _, _, chunk in shared_frame_chunks((chain,), resp, acq, theta, master_seed,
                                           n_frames, first_frame):
        yield chunk


def synthesize_frames(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                      theta: float | None = None, master_seed: int = 0,
                      n_frames: int | None = None, first_frame: int = 0) -> Ensemble:
    """The frames of frame_chunks (same arguments) as one Ensemble block."""
    th = chain.lo_phase if theta is None else theta
    count = acq.frames if n_frames is None else n_frames
    block = np.empty((count, acq.samples_per_frame))
    start = 0
    for chunk in frame_chunks(chain, resp, acq, th, master_seed, count, first_frame):
        block[start:start + len(chunk)] = chunk
        start += len(chunk)
    return Ensemble(samples=block, config=acq, theta=th)


def extract_wavepacket(frames: Ensemble, mode_fn: np.ndarray,
                       center_time: float) -> np.ndarray:
    """Quadrature sample of each frame's wavepacket defined by a temporal mode
    window, one value per frame.

    mode_fn must be L²-normalized on the sample grid (Σ f²·Δt = 1); the
    values are scaled so a full-band vacuum ensemble has variance 1/2.
    """
    mode = np.asarray(mode_fn, dtype=float)
    dt = frames.config.sample_interval
    if abs(float(np.sum(mode ** 2)) * dt - 1.0) > 1e-6:
        raise ValueError("mode function must be L2-normalized on the sample grid")
    start = int(round(center_time / dt))
    if start < 0 or start + len(mode) > frames.samples.shape[1]:
        raise IndexError("mode window overruns the trace")
    segment = frames.samples[:, start:start + len(mode)]
    # Row by row, not segment @ mode: a frame gets the same value alone as in a block.
    return np.sum(mode * segment, axis=1) * dt * math.sqrt(frames.config.sample_rate / 2.0)
