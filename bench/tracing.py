"""Spans around calls into opahd's public functions, and the in-process replay
of each CLI command that the traced run measures.

The program is not changed: for the span and allocation passes the functions
are swapped in their modules' namespaces for wrappers that record a span
(name, start, end, parent, work done, peak allocation), so the calls the
program makes internally, such as `frame_seed` inside `synthesize_frames`,
are timed too. Spans are kept in memory and written out by `run.py`.
"""
from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from opahd import analysis, config, signal_chain, traceio
from opahd.fitting import FitConvergenceError


class NullTracer:
    """The untraced replay: spans cost nothing."""

    @contextmanager
    def span(self, name):
        yield


class Tracer:
    """Spans as [name, start_s, end_s, parent index, work, peak bytes]."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[list] = []
        self._open: list[list] = []     # [span index, bytes at start, peak bytes]

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.spans), 0, 0]
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        self._open.append(frame)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, 0])

    def end(self, work) -> None:
        end = time.perf_counter()
        index, base, peak = self._open.pop()
        span = self.spans[index]
        span[2], span[4] = end, work
        if self.alloc:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span[5] = peak - base
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        except BaseException:
            self.end(0)
            raise
        self.end(1)

    def wrap(self, fn, name, work):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(0)
                raise
            self.end(work(args, result))
            return result
        return traced


def _one(args, result):
    return 1


def _n_result(args, result):
    return len(result)


def _n_first(args, result):
    return len(args[0])


def _trace_bytes_written(args, result):
    frames = args[1]
    return traceio.HEADER_SIZE + len(frames) * frames[0].samples.nbytes


def _trace_bytes_read(args, result):
    return traceio.HEADER_SIZE + result[0].nbytes


# (module, attribute, span name, work done by one call)
TARGETS = (
    (signal_chain, "frame_seed", "signal_chain.frame_seed", _one),
    (signal_chain, "relative_quadrature_power", "gaussian.relative_quadrature_power", _one),
    (analysis, "relative_quadrature_power", "gaussian.relative_quadrature_power", _one),
    (signal_chain, "synthesize_frames", "signal_chain.synthesize_frames", _n_result),
    (analysis, "synthesize_frames", "signal_chain.synthesize_frames", _n_result),
    (signal_chain, "model_variance", "signal_chain.model_variance", _one),
    (traceio, "write_traces", "traceio.write_traces", _trace_bytes_written),
    (traceio, "read_traces", "traceio.read_traces", _trace_bytes_read),
    (traceio, "records_from_array", "traceio.records_from_array", _n_result),
    (analysis, "averaged_fft", "analysis.averaged_fft", _n_first),
    (analysis, "relative_level", "analysis.relative_level", _one),
    (analysis, "variance_level", "analysis.variance_level",
     lambda args, result: len(args[0]) + len(args[1])),
    (analysis, "artifact_mask", "analysis.artifact_mask", _one),
    (analysis, "histogram", "analysis.histogram", _n_first),
    (analysis, "loss_sweep", "analysis.loss_sweep", _n_result),
    (analysis, "fit_pump_curve", "analysis.fit_pump_curve", _one),
)


@contextmanager
def instrumented(tracer):
    """Route every TARGETS call through `tracer` while the block runs."""
    if isinstance(tracer, NullTracer):
        yield
        return
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for module, attr, name, work in TARGETS:
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, work))
        if tracer.alloc:
            tracemalloc.start()
        yield
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# The replays call the same public functions as opahd.cli, in the same order,
# and leave out only the command's own glue (argument parsing, per-frame
# np.var lists for summary.json, CSV and JSON formatting).

def replay_simulate(tracer, config_path: Path, out: Path) -> None:
    with tracer.span("config.load"):
        cfg = config.ExperimentConfig.load(config_path)
    out.mkdir(parents=True, exist_ok=True)
    for label, chain, seed in (("signal", cfg.chain, cfg.seed),
                               ("shot", cfg.chain.without_squeezing(), cfg.seed + 1)):
        frames = signal_chain.synthesize_frames(chain, cfg.response, cfg.acquisition,
                                                master_seed=seed)
        traceio.write_traces(out / f"{label}.trace", frames)
        signal_chain.model_variance(chain, cfg.response, cfg.acquisition)


def replay_analyze(tracer, config_path: Path, out: Path) -> float:
    """Returns the level in dB, which must equal the CLI's levels.json."""
    with tracer.span("config.load"):
        cfg = config.ExperimentConfig.load(config_path)
    signal = traceio.records_from_array(*traceio.read_traces(out / "signal.trace"))
    shot = traceio.records_from_array(*traceio.read_traces(out / "shot.trace"))
    spec_sig = analysis.averaged_fft(signal, window=cfg.analysis.window)
    spec_shot = analysis.averaged_fft(shot, window=cfg.analysis.window)
    rel = analysis.relative_level(spec_sig, spec_shot)
    level_db, _ = analysis.variance_level(signal, shot)
    analysis.artifact_mask(rel.freqs, cfg.analysis.mask_center_ghz * 1e9,
                           cfg.analysis.mask_width_ghz * 1e9)
    analysis.histogram(signal, bins=cfg.analysis.histogram_bins)
    return level_db


def replay_sweep(tracer, config_path: Path, added_loss, gains_db, mc_frames: int):
    with tracer.span("config.load"):
        cfg = config.ExperimentConfig.load(config_path)
    return analysis.loss_sweep(cfg.chain, list(added_loss), tuple(gains_db),
                               monte_carlo=True, resp=cfg.response, acq=cfg.acquisition,
                               mc_frames=mc_frames, master_seed=cfg.seed)


def fit_campaign(curves) -> list:
    """Fit every curve; a curve's entry is its result or the exception it raised."""
    results = []
    for curve in curves:
        try:
            results.append(analysis.fit_pump_curve(curve.points))
        except (ValueError, ArithmeticError, FitConvergenceError) as err:
            results.append(err)
    return results
