"""Detection-electronics frequency response and Monte Carlo trace synthesis.

Traces are emitted in shot-noise-normalized units: a hypothetical all-pass
vacuum chain at the reference photocurrent has unit per-sample variance.
Absolute volts are never calibrated.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .gaussian import ChainModel, relative_quadrature_power

REFERENCE_PHOTOCURRENT_A = 3.0e-3
# Bytes per chunk: each buffer of a chunked loop holds at most about this many
# (see frame_rows). The histogram counts CHUNK_BYTES // 16 samples at a time.
CHUNK_BYTES = 1 << 18


def chunk_rows(row_bytes: int, limit: int) -> int:
    """Rows of row_bytes each per CHUNK_BYTES, read at call time, in [1, limit]."""
    return max(1, min(limit, CHUNK_BYTES // max(row_bytes, 1)))


def frame_rows(samples_per_frame: int, limit: int) -> int:
    """Frames per chunk of synthesis, trace reads, FrameStats and frame_variances:
    as many as synthesis's 2n-sample irfft output fits in CHUNK_BYTES. At 12512
    samples that is one, and numpy's rfft of one frame allocates no batched-lane
    workspace (~0.5 MB)."""
    return chunk_rows(16 * samples_per_frame, limit)


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
        # A high order overflows the power above f3db; 1/(1 + inf) = 0 there
        # is the brick-wall limit that such an order stands for.
        with np.errstate(over="ignore"):
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
        if not 1 <= self.frames < 2 ** 32:
            raise ValueError("frames must be >= 1 and < 2**32")
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
# so _seed_sequence and _pcg64_states give SeedSequence's and PCG64's states
# bit for bit. The hash constants are uint32, as in the C code.
_POOL_SIZE = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_sequence(entropy: list, n_words: int) -> np.ndarray:
    """SeedSequence.mix_entropy, then generate_state(n_words // 2, np.uint64),
    transcribed line by line from numpy/random/bit_generator.pyx and run on
    many seed sequences at once: entropy is their assembled entropy, a list of
    uint32 words and word arrays that broadcast to one length n, and the result
    is an (n, n_words // 2) uint64 array.

    Every value is uint32 and wraps mod 2**32, as in the C code. numpy reports
    that wrap as an overflow for scalars alone, so the report is turned off.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    with np.errstate(over="ignore"):
        # mix_entropy: past the end of a short entropy, the hash runs on 0.
        mixer = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0))
                 for i in range(_POOL_SIZE)]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
        for word in entropy[_POOL_SIZE:]:
            for i_dst in range(_POOL_SIZE):
                mixer[i_dst] = mix(mixer[i_dst], hashmix(word))
        # generate_state
        hash_const = _INIT_B
        state = np.empty((len(mixer[0]), n_words), dtype=np.uint32)
        for i_dst in range(n_words):
            data_val = mixer[i_dst % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B
            data_val = data_val * hash_const
            state[:, i_dst] = data_val ^ (data_val >> _XSHIFT)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def frame_seed(master_seed: int, frame_index):
    """Derive the independent 64-bit stream seed for one frame, or for each of
    an integer array of frame indices (each below 2**64) as a uint64 array.

    Equals SeedSequence(master_seed, spawn_key=(frame_index,))
    .generate_state(2, np.uint64)[0], whose entropy is the master seed's
    32-bit words, low first and padded to four, then the spawn key's: one word
    below 2**32, else two.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {master_seed}")
    index = np.asarray(frame_index)
    if index.dtype.kind not in "iu":
        raise TypeError(f"frame indices must be integers, got {index.dtype}")
    if index.dtype.kind == "i" and np.any(index < 0):
        raise ValueError("frame indices must be non-negative")
    index = index.reshape(-1).astype(np.uint64, copy=False)
    n_run = max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    run = list(np.frombuffer(master_seed.to_bytes(4 * n_run, "little"), dtype="<u4"))
    seeds = _seed_sequence(run + [index.astype(np.uint32)], 2)[:, 0]
    two = np.flatnonzero(index >> 32)   # spawn keys of two words, low word first
    if len(two):
        seeds[two] = _seed_sequence(run + [index[two].astype(np.uint32),
                                           (index[two] >> 32).astype(np.uint32)], 2)[:, 0]
    return int(seeds[0]) if np.ndim(frame_index) == 0 else seeds.reshape(np.shape(frame_index))


def _pcg64_states(seeds: np.ndarray):
    """Yield, for each uint64 seed in turn, the (state, inc) of PCG64(seed).

    PCG64 takes SeedSequence(seed).generate_state(4, np.uint64) as a 128-bit
    initial state and stream and applies pcg_setseq_128_srandom_r. The hashes
    run on the whole array; the 128-bit steps on one row at a time.
    """
    vals = _seed_sequence([seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)], 8)
    for row in vals:
        s_hi, s_lo, seq_hi, seq_lo = row.tolist()
        inc = (((seq_hi << 64 | seq_lo) << 1) | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


# Bytes per frame that frame_seed and _pcg64_states may hold at their peak on
# a block of frames, so that a block keeps to CHUNK_BYTES. tracemalloc
# measures 86 on a 1638-frame block, whatever the spawn keys' word counts.
_SEED_BYTES_PER_FRAME = 160


def _frame_states(master_seed: int, first_frame: int, count: int):
    """Yield the (state, inc) of default_rng(frame_seed(master_seed, i)) for
    frames i = first_frame, ..., first_frame + count - 1, deriving the seeds
    one block of chunk_rows(_SEED_BYTES_PER_FRAME, count) frames at a time."""
    first_frame = operator.index(first_frame)
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
    (Timmer & König, A&A 300, 707 (1995)); a σ past float range is refused."""
    fs = acq.sample_rate
    n2 = 2 * acq.samples_per_frame
    try:
        with np.errstate(over="raise"):
            s2 = _one_sided_model(chain, resp, acq, theta, np.fft.rfftfreq(n2, 1.0 / fs))
            return np.sqrt(s2 * fs * n2 / 2.0)
    # OverflowError comes from the float power in _electrical_floor.
    except (FloatingPointError, OverflowError):
        raise ValueError("the synthesis amplitude overflows: lower photocurrent_ma "
                         "or raise clearance_at_43ghz_db") from None


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
    chunk takes frame_rows(samples_per_frame, n_frames) rows, so that
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
    rows = frame_rows(n, count)
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


def synthesize_frames(chain: ChainModel, resp: FrequencyResponse, acq: AcquisitionConfig,
                      theta: float | None = None, master_seed: int = 0,
                      n_frames: int | None = None, first_frame: int = 0) -> Ensemble:
    """The frames of shared_frame_chunks for this chain alone (same arguments)
    as one Ensemble block."""
    th = chain.lo_phase if theta is None else theta
    count = acq.frames if n_frames is None else n_frames
    block = np.empty((count, acq.samples_per_frame))
    for start, _, chunk in shared_frame_chunks((chain,), resp, acq, th, master_seed,
                                               count, first_frame):
        block[start:start + len(chunk)] = chunk
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
