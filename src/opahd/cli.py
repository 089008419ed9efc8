"""Command-line interface: simulate | analyze | fit | sweep-loss | plan-wdm.

Global flags: --config PATH, --seed N, --out DIR. Each flag can also be set
through the environment as OPAHD_CONFIG, OPAHD_SEED, OPAHD_OUT (command
line wins). An omitted plan-wdm flag, or sweep-loss --added-loss, --gains-db
or --mc-frames, leaves the default of wdm.plan_bands or analysis.loss_sweep.
An empty --added-loss or --gains-db list is a usage error (exit 2).

simulate and analyze stream: simulate writes each trace file chunk by chunk
as it synthesizes the frames, and analyze reduces each trace file chunk by
chunk, with a second pass over the signal file for the histogram. Each
chunked loop sizes its chunks so that every buffer it allocates, once per
stream, holds about signal_chain.CHUNK_BYTES (256 KiB): synthesis counts its
2 × samples_per_frame inverse-FFT output, the other loops 8 bytes per sample.
Their memory is O(chunk) however many frames a config asks for, plus 8 bytes
per frame per stream for the per-frame variances. Before writing a trace,
simulate reserves the whole file (posix_fallocate), so a full disk exits 4
before any sample is written. Every
output file is written to a temporary file beside it and moved into place
only when complete. JSON outputs never contain NaN or infinity. Before
writing any output, analyze rejects (exit 2) a trace file with a non-finite
sample, traces whose level or plateau statistics are not finite, and an
artifact mask that leaves no plateau bin; numpy's overflow warnings on the
way are silenced, so only the one-line error prints. Before writing a trace,
simulate rejects (exit 2) a record_duration whose sample interval the trace
header cannot hold (1 fs to 2**64 - 1 fs).

Each of the two commands has two independent streams: simulate synthesizes,
writes and takes the variances of the signal ensemble (seed) and of the shot
ensemble (seed + 1); analyze makes the signal file's first pass and then its
histogram pass, and the shot file's first pass. When the process may use two
CPUs and a stream holds more than one chunk of samples, and for simulate when
frames have at least THREADED_SYNTHESIS_MIN_SAMPLES samples, the shot stream
runs on a worker thread (numpy releases the interpreter lock in its RNG, FFTs
and file I/O). Shorter frames stay on one thread: there a second stream saves
little time and still adds about 1.5 MB of peak RSS. The outputs do not depend
on it. If either stream fails, the other stops at its next chunk and the
command exits as it would have on one thread. main first allocates and frees
one 2 MiB block, which stops glibc from mapping and unmapping the per-chunk
temporaries on every call (see MMAP_BLOCK_BYTES).

sweep-loss --monte-carlo shares the signal and shot seeds' per-frame streams
across all points (common random numbers): each frame's noise is drawn once
and shaped for every point, and only per-frame variances are kept, so its
memory is O(chunk) + 16 bytes × points × mc_frames (8 per seed).
--mc-frames must be an integer >= 2 (exit 2 otherwise, before any synthesis).

fit rejects (exit 2, naming the file and line) a levels row whose field count
differs from the header's or whose field does not parse or overflows, and
exits 3 when a field of the fit result is not finite. It makes the output
directory only once it has a result to write.

Exit codes: 0 success, 2 validation/usage error, 3 numeric failure, 4 I/O or
memory error. A command that fails removes the output directory if it made
it and the directory is still empty.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import signal_chain, traceio, wdm
from .config import ConfigError, ExperimentConfig
from .fitting import FitConvergenceError
from .signal_chain import frame_chunks, model_variance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

ENV_PREFIX = "OPAHD_"


def _env_default(name: str, fallback=None):
    return os.environ.get(ENV_PREFIX + name, fallback)


# plan-wdm's flags as (flag, plan_bands argument, the flag's unit in Hz).
PLAN_FLAGS = (("--carrier-thz", "carrier_f", 1e12),
              ("--spacing-ghz", "channel_spacing", 1e9),
              ("--width-ghz", "channel_width", 1e9),
              ("--bandwidth-thz", "source_bandwidth", 1e12),
              ("--guard-ghz", "guard", 1e9))


def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of at least one number."""
    values = tuple(float(x) for x in text.split(",") if x.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _seed(text: str) -> int:
    """--seed's value: a non-negative integer, as numpy's SeedSequence takes."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opahd",
        description="Simulator and analysis toolkit for OPA-assisted broadband "
                    "homodyne measurement of squeezed light.")
    parser.add_argument("--config", default=_env_default("CONFIG"),
                        help="experiment config JSON (default: built-in defaults)")
    parser.add_argument("--seed", type=_seed, default=_env_default("SEED"),
                        help="master seed override (a non-negative integer)")
    parser.add_argument("--out", default=_env_default("OUT", "."),
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="synthesize signal and shot-noise trace files")

    p_an = sub.add_parser("analyze", help="spectra, levels and histograms from traces")
    p_an.add_argument("traces", help="signal trace file")
    p_an.add_argument("shot", help="shot-noise reference trace file")

    p_fit = sub.add_parser("fit", help="fit the pump-power noise curve")
    p_fit.add_argument("levels_csv",
                       help="CSV with columns pump_mw, level_db, branch (+1/-1)")

    p_sw = sub.add_parser("sweep-loss", help="squeezing level vs loss added after the amplifier")
    p_sw.add_argument("--added-loss", dest="added_loss_grid", type=_floats,
                      default=argparse.SUPPRESS, help="comma-separated added-loss fractions")
    p_sw.add_argument("--gains-db", type=_floats, default=argparse.SUPPRESS,
                      help="comma-separated gains (dB)")
    p_sw.add_argument("--monte-carlo", action="store_true",
                      help="also estimate each point from synthesized traces")
    p_sw.add_argument("--mc-frames", type=int, default=argparse.SUPPRESS)

    p_wdm = sub.add_parser("plan-wdm", help="plan symmetric sideband channel pairs")
    for flag, name, _ in PLAN_FLAGS:
        p_wdm.add_argument(flag, dest=name, type=float, default=argparse.SUPPRESS)
    p_wdm.add_argument("--grid-aligned", action="store_true")
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=args.seed)
    return cfg


# Shorter frames are synthesized on one thread: a second stream's buffers and
# thread stack add about 1.5 MB of peak RSS at any frame length, and at short
# frames two threads save little time. simulate of 2 × 2048 frames took 0.59 s
# on one thread and 0.56 s on two at 512 samples, at 38.8 and 40.4 MB; at 1024
# samples two threads saved 2 % for +1.6 MB, and at 2048, 27 % for +1.5 MB
# (medians of 15 runs each, 2 CPUs).
THREADED_SYNTHESIS_MIN_SAMPLES = 2048


def _two_threads(stream_bytes: int) -> bool:
    """Whether a command runs its two streams on two threads: only when this
    process may use two CPUs and a stream holds more than one chunk of
    samples. A smaller stream gains nothing and would double its buffers."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # the platform cannot say
        cpus = 1
    return cpus >= 2 and stream_bytes > signal_chain.CHUNK_BYTES


class _Stopped(Exception):
    """Ends a stream early because the other stream has failed."""


def _both(first, second, threaded: bool) -> tuple:
    """Run two independent streams, first(chunks) and second(chunks), and
    return both results; with threaded, second runs on a worker thread.

    A stream passes each of its chunk iterators through chunks, which stops it
    at its next chunk once the other stream has raised. The first exception
    raised is then re-raised here, in the calling thread, after both streams
    have ended and so have removed their temporary files.
    """
    failed = threading.Event()

    def chunks(iterable):
        for item in iterable:
            if failed.is_set():
                raise _Stopped
            yield item

    if not threaded:
        return first(chunks), second(chunks)
    results, errors = [None, None], []

    def run(i, stream):
        try:
            results[i] = stream(chunks)
        except BaseException as err:    # re-raised below, in the calling thread
            errors.append(err)
            failed.set()

    worker = threading.Thread(target=run, args=(1, second))
    worker.start()
    run(0, first)
    worker.join()
    for err in errors:
        if not isinstance(err, _Stopped):
            raise err
    return tuple(results)


def _simulate_stream(cfg: ExperimentConfig, path: Path, chain, seed: int, chunks) -> dict:
    """Synthesize one ensemble into the trace file at path; returns its entry
    in summary.json."""
    acq = cfg.acquisition
    variances = np.empty(acq.frames)
    with traceio.trace_writer(path, acq, chain.lo_phase, acq.frames) as write:
        done = 0
        for chunk in chunks(frame_chunks(chain, cfg.response, acq, master_seed=seed)):
            write(chunk)
            variances[done:done + len(chunk)] = ana.frame_variances(chunk)
            done += len(chunk)
    return {
        "file": path.name,
        "frames": acq.frames,
        "samples_per_frame": acq.samples_per_frame,
        "master_seed": seed,
        "analytic_variance": model_variance(chain, cfg.response, acq),
        "empirical_variance": float(np.mean(variances)),
    }


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    acq = cfg.acquisition
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    signal, shot = _both(
        partial(_simulate_stream, cfg, out / "signal.trace", cfg.chain, cfg.seed),
        partial(_simulate_stream, cfg, out / "shot.trace", cfg.chain.without_squeezing(),
                cfg.seed + 1),
        acq.samples_per_frame >= THREADED_SYNTHESIS_MIN_SAMPLES
        and _two_threads(8 * acq.frames * acq.samples_per_frame))
    summary = {"schema_version": 1, "master_seed": cfg.seed,
               "config": cfg.to_dict(), "traces": {"signal": signal, "shot": shot}}
    traceio.write_json(out / "summary.json", summary)
    print(f"wrote {out / 'signal.trace'}, {out / 'shot.trace'}, {out / 'summary.json'}")
    return EXIT_OK


def _quiet():
    """numpy error state for analyze's reductions. A sample whose square
    overflows makes them warn; the finiteness checks that follow turn such a
    result into exit 2, so the warnings would only print above that error. The
    state holds per thread, so the worker's stream sets it again."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _first_pass(reader: traceio.TraceReader, window: str, chunks) -> ana.FrameStats:
    """Reduce a trace file chunk by chunk; every sample must be finite."""
    stats = ana.FrameStats(reader.acquisition, reader.meta["frames"], window)
    with _quiet():
        for chunk in chunks(reader.chunks()):
            stats.add(chunk)
    if not (np.isfinite(stats.lo) and np.isfinite(stats.hi)):
        raise traceio.TraceFormatError(f"{reader.path}: non-finite sample values")
    return stats


@_quiet()
def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    window, bins = cfg.analysis.window, cfg.analysis.histogram_bins
    with traceio.TraceReader(args.traces) as sig_file, traceio.TraceReader(args.shot) as shot_file:
        def signal_passes(chunks):
            stats = _first_pass(sig_file, window, chunks)
            return stats, ana.pooled_histogram(chunks(sig_file.chunks()), bins,
                                               stats.lo, stats.hi)

        (signal, (edges, counts)), shot = _both(
            signal_passes, partial(_first_pass, shot_file, window),
            _two_threads(max(8 * f.meta["frames"] * f.meta["samples_per_frame"]
                             for f in (sig_file, shot_file))))
    rel = ana.relative_level(signal.spectrum(), shot.spectrum())
    level_db, err_db = ana.level_from_variances(signal.variances, shot.variances)
    center_hz = cfg.analysis.mask_center_ghz * 1e9
    width_hz = cfg.analysis.mask_width_ghz * 1e9
    in_band = ana.artifact_mask(rel.freqs, center_hz, width_hz) & (
        rel.freqs <= cfg.response.detector_f3db)
    if not in_band.any():
        raise ValueError("the artifact mask (analysis.mask_center_ghz, mask_width_ghz) "
                         "covers every bin up to detector_f3db: no plateau is left")
    plateau = rel.power_db()[in_band]
    report = {
        "schema_version": 1,
        "frames": signal.count,
        "level_db": level_db,
        "level_err_db": err_db,
        "plateau_mean_db": float(plateau.mean()),
        "plateau_std_db": float(plateau.std()),
        "plateau_band_hz": [0.0, cfg.response.detector_f3db],
        "artifact_mask_center_hz": center_hz,
        "artifact_mask_width_hz": width_hz,
    }
    # write_json refuses NaN and infinity; checked here, before spectrum.csv is
    # written, so that a failure leaves no output.
    if not np.isfinite([level_db, err_db, plateau.mean(), plateau.std()]).all():
        raise ValueError("the level or the plateau statistics are not finite: a sample "
                         "power overflows or a plateau bin is zero")

    traceio.write_csv(out / "spectrum.csv", ["freq_hz", "power_rel", "power_db"],
                      ([f"{f:.6e}", f"{p:.9e}", f"{10 * math.log10(p):.6f}"]
                       for f, p in zip(rel.freqs, rel.power)))
    traceio.write_json(out / "levels.json", report)
    traceio.write_csv(out / "histogram.csv", ["bin_left", "bin_right", "count"],
                      ([f"{left:.9e}", f"{right:.9e}", int(c)]
                       for left, right, c in zip(edges[:-1], edges[1:], counts)))

    print(f"level: {level_db:+.2f} dB +/- {err_db:.2f} dB "
          f"(plateau mean {plateau.mean():+.2f} dB)")
    return EXIT_OK


def _read_levels_csv(path) -> list[tuple[float, float, int]]:
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {
                "pump_mw", "level_db", "branch"} <= set(reader.fieldnames):
            raise ConfigError(
                f"{path}: expected CSV header pump_mw,level_db,branch")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            # DictReader files surplus fields under None and fills missing ones with None.
            extra, missing = len(row.get(None, ())), list(row.values()).count(None)
            if extra or missing:
                width = len(reader.fieldnames)
                raise ConfigError(f"{where} has {width + extra - missing} fields "
                                  f"where the header has {width}")
            try:
                pump_w = float(row["pump_mw"]) * 1e-3
                level = 10.0 ** (float(row["level_db"]) / 10.0)
                branch = int(row["branch"])
            except (ValueError, OverflowError) as err:
                raise ConfigError(f"{where}: {err}") from None
            points.append((pump_w, level, branch))
    if not points:
        raise ConfigError(f"{path}: no data rows")
    return points


def cmd_fit(args) -> int:
    points = _read_levels_csv(args.levels_csv)
    result = ana.fit_pump_curve(points)
    report = {
        "schema_version": 1,
        "loss_fraction": result.big_l,
        "gain_coefficient_per_w": result.a_coeff,
        "squeezing_floor_db": -10.0 * math.log10(result.big_l) if result.big_l > 0 else None,
        "covariance": result.covariance.tolist(),
        "residuals_squeeze": result.residuals_squeeze.tolist(),
        "residuals_antisqueeze": result.residuals_antisqueeze.tolist(),
        "cost": result.cost,
        "iterations": result.n_iter,
    }
    for field, value in report.items():
        if value is not None and not np.isfinite(value).all():
            raise ArithmeticError(f"fit result {field} is not finite; fit.json not written")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traceio.write_json(out / "fit.json", report)
    floor = report["squeezing_floor_db"]
    floor_txt = f"{floor:.2f} dB floor" if floor is not None else "lossless"
    print(f"loss fraction L = {result.big_l:.4f} ({floor_txt}), "
          f"a = {result.a_coeff:.4f} /W")
    return EXIT_OK


def cmd_sweep_loss(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    given = {k: v for k, v in vars(args).items()
             if k in ("added_loss_grid", "gains_db", "mc_frames")}
    rows = ana.loss_sweep(cfg.chain, monte_carlo=args.monte_carlo,
                          resp=cfg.response, acq=cfg.acquisition, master_seed=cfg.seed, **given)
    traceio.write_csv(
        out / "sweep.csv",
        ["gain_db", "added_loss", "squeezing_db_oracle", "squeezing_db_mc"],
        ([row.gain_db, row.added_loss, f"{row.squeezing_db_oracle:.6f}",
          "" if row.squeezing_db_mc is None else f"{row.squeezing_db_mc:.6f}"]
         for row in rows))
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return EXIT_OK


def cmd_plan_wdm(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    given = vars(args)
    plan = wdm.plan_bands(grid_aligned=args.grid_aligned, **{
        name: given[name] * unit for _, name, unit in PLAN_FLAGS if name in given})
    wdm.write_plan_json(out / "plan.json", plan)
    wdm.write_plan_csv(out / "plan.csv", plan)
    if plan.pairs:
        print(f"{len(plan.pairs)} channel pairs, usable clock "
              f"{plan.usable_clock_hz / 1e9:.0f} GHz per pair")
    else:
        print(f"empty plan: {plan.diagnostic}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "fit": cmd_fit,
    "sweep-loss": cmd_sweep_loss,
    "plan-wdm": cmd_plan_wdm,
}


# Allocated and freed at the start of main, a block of this size raises glibc's
# dynamic mmap threshold (mallopt(3), M_MMAP_THRESHOLD) from 128 KiB to its own
# size, and the heap trim threshold to twice that. Until then each per-chunk
# temporary over 128 KiB (numpy's FFT scratch, np.histogram's blocks, the
# variance and trace-writer copies) is mapped, page-faulted in and unmapped on
# every call. At 512 frames × 12512 samples, one thread per command, this cuts
# simulate's minor faults from 85 k to 1.0 k and analyze's from 79 k to 0.7 k.
# 1 MiB still left analyze at 47 k; 2 MiB is the smallest power of two that
# removes the churn. Repeating the allocation is harmless.
MMAP_BLOCK_BYTES = 2 << 20


def main(argv=None) -> int:
    np.empty(MMAP_BLOCK_BYTES, dtype=np.uint8)      # freed at once, never touched
    parser = build_parser()
    args = parser.parse_args(argv)
    made_out = not os.path.lexists(args.out)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, traceio.TraceFormatError, ValueError) as err:
        message, code = f"error: {err}", EXIT_USAGE
    except (FitConvergenceError, FloatingPointError, ArithmeticError) as err:
        message, code = f"numeric failure: {err}", EXIT_NUMERIC
    except OSError as err:
        message, code = f"I/O error: {err}", EXIT_IO
    except MemoryError as err:      # numpy's message names the refused allocation
        message, code = f"memory error: {err}", EXIT_IO
    print(message, file=sys.stderr)
    if made_out:
        # A failed command leaves no output directory it made; rmdir removes
        # it only while it is empty.
        with contextlib.suppress(OSError):
            os.rmdir(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
