"""Command-line interface: simulate | analyze | fit | sweep-loss | plan-wdm.

simulate synthesizes the signal and shot-noise trace files and summary.json;
analyze reduces them to spectrum.csv, levels.json and histogram.csv; fit fits
the pump-power noise curve of a levels CSV into fit.json; sweep-loss writes
the squeezing level against added loss to sweep.csv; plan-wdm writes the
symmetric sideband channel pairs to plan.json and plan.csv.

Exit codes: 0 success, 2 validation/usage error, 3 numeric failure, 4 I/O or
memory error, 128 + the signal's number on SIGINT, SIGTERM or SIGHUP. main
makes --out before the command runs, and a command that fails or is stopped
removes every directory made for --out that is still empty. README's "Command
line" section gives the flags, outputs and rules of each command.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import signal
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import signal_chain, traceio, wdm
from .config import ConfigError, ExperimentConfig
from .signal_chain import model_variance, shared_frame_chunks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opahd",
        description="Simulator and analysis toolkit for OPA-assisted broadband "
                    "homodyne measurement of squeezed light.")
    parser.add_argument("--config", help="experiment config JSON (default: built-in defaults)")
    parser.add_argument("--seed", type=int, help="master seed override (a non-negative integer)")
    parser.add_argument("--out", default=".", help="output directory")
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


# A second thread adds ~1 MB of peak RSS, and below 1024 samples per frame
# it saves neither command any time (README).
THREADED_MIN_SAMPLES = 1024


def _two_threads(samples_per_frame: int, frames: int) -> bool:
    """Whether a command runs its two streams on two threads, which numpy's
    RNG, FFTs and file I/O let run at once by releasing the interpreter lock:
    only when this process may use two CPUs, frames have at least
    THREADED_MIN_SAMPLES samples and a stream holds more than one chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # the platform cannot say
        cpus = 1
    return (cpus >= 2 and samples_per_frame >= THREADED_MIN_SAMPLES
            and signal_chain.frame_rows(samples_per_frame, frames) < frames)


class _Stopped(Exception):
    """Ends a stream early because the other stream has failed."""


def _both(first, second, threaded: bool) -> tuple:
    """Run two independent streams, first(chunks) and second(chunks), and
    return both results; with threaded, second runs on a worker thread.

    A stream passes each of its chunk iterators through chunks, which stops it
    at its next chunk once the other stream has raised. The first exception
    raised is then re-raised here, in the calling thread, after both streams
    have ended and so have removed their temporary files; an interrupt while
    the calling thread waits for the worker stops the worker the same way.
    """
    failed = threading.Event()

    def chunks(iterable):
        for item in iterable:
            if failed.is_set():
                raise _Stopped
            yield item

    if not threaded:
        return first(chunks), second(chunks)
    results, errors, worker_done = [None, None], [], threading.Event()

    def run(i, stream):
        try:
            results[i] = stream(chunks)
        except BaseException as err:    # re-raised below, in the calling thread
            errors.append(err)
            failed.set()
        if i == 1:
            worker_done.set()

    threading.Thread(target=run, args=(1, second)).start()
    try:
        run(0, first)
        # Not Thread.join: a signal that interrupts join can mark a running
        # thread as stopped (bpo-45274), and the process would exit without it.
        worker_done.wait()
    finally:        # the worker has ended here, unless an interrupt came first
        failed.set()
        worker_done.wait()
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
        for start, _, chunk in chunks(shared_frame_chunks((chain,), cfg.response, acq,
                                                          master_seed=seed)):
            write(chunk)
            variances[start:start + len(chunk)] = ana.frame_variances(chunk)
    return {
        "file": path.name,
        "frames": acq.frames,
        "samples_per_frame": acq.samples_per_frame,
        "master_seed": seed,
        "analytic_variance": model_variance(chain, cfg.response, acq),
        "empirical_variance": float(np.mean(variances)),
    }


def cmd_simulate(args, out: Path) -> None:
    cfg = _load_config(args)
    acq = cfg.acquisition
    signal, shot = _both(
        partial(_simulate_stream, cfg, out / "signal.trace", cfg.chain, cfg.seed),
        partial(_simulate_stream, cfg, out / "shot.trace", cfg.chain.without_squeezing(),
                cfg.seed + 1),
        _two_threads(acq.samples_per_frame, acq.frames))
    summary = {"schema_version": 1, "master_seed": cfg.seed,
               "config": cfg.to_dict(), "traces": {"signal": signal, "shot": shot}}
    traceio.write_json(out / "summary.json", summary)
    print(f"wrote {out / 'signal.trace'}, {out / 'shot.trace'}, {out / 'summary.json'}")


def _quiet():
    """numpy error state for analyze's reductions. A sample whose square
    overflows makes them warn; the finiteness checks that follow turn such a
    result into exit 2, so the warnings would only print above that error. The
    state holds per thread, so the worker's stream sets it again."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _first_pass(reader: traceio.TraceReader, window: str, chunks) -> ana.FrameStats:
    """Reduce a trace file chunk by chunk; every sample must be finite."""
    stats = ana.FrameStats(reader.acquisition, reader.acquisition.frames, window)
    with _quiet():
        stats.add(chunks(reader.chunks()))
    if not (np.isfinite(stats.lo) and np.isfinite(stats.hi)):
        raise traceio.TraceFormatError(f"{reader.path}: non-finite sample values")
    return stats


@_quiet()
def cmd_analyze(args, out: Path) -> None:
    cfg = _load_config(args)
    window, bins = cfg.analysis.window, cfg.analysis.histogram_bins
    with traceio.TraceReader(args.traces) as sig_file, traceio.TraceReader(args.shot) as shot_file:
        a, b = sig_file.acquisition, shot_file.acquisition
        if (a.samples_per_frame, a.record_duration) != (b.samples_per_frame, b.record_duration):
            raise traceio.TraceFormatError(
                f"{sig_file.path} has {a.samples_per_frame} samples in {a.record_duration} s "
                f"per frame and {shot_file.path} {b.samples_per_frame} in "
                f"{b.record_duration} s: the two traces must share one frame grid")

        def signal_passes(chunks):
            stats = _first_pass(sig_file, window, chunks)
            return stats, ana.pooled_histogram(chunks(sig_file.chunks()), bins,
                                               stats.lo, stats.hi)

        (signal, (edges, counts)), shot = _both(
            signal_passes, partial(_first_pass, shot_file, window),
            _two_threads(a.samples_per_frame, max(a.frames, b.frames)))
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


def cmd_fit(args, out: Path) -> None:
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
    traceio.write_json(out / "fit.json", report)
    floor = report["squeezing_floor_db"]
    floor_txt = f"{floor:.2f} dB floor" if floor is not None else "lossless"
    print(f"loss fraction L = {result.big_l:.4f} ({floor_txt}), "
          f"a = {result.a_coeff:.4f} /W")


def cmd_sweep_loss(args, out: Path) -> None:
    cfg = _load_config(args)
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


def cmd_plan_wdm(args, out: Path) -> None:
    given = vars(args)
    plan = wdm.plan_bands(grid_aligned=args.grid_aligned, **{
        name: given[name] * unit for _, name, unit in PLAN_FLAGS if name in given})
    traceio.write_json(out / "plan.json", {"schema_version": 1, **plan.to_dict()})
    traceio.write_csv(out / "plan.csv", ["pair_index", "lower_hz", "upper_hz", "width_hz"],
                      ([i, f"{lo:.6f}", f"{hi:.6f}", f"{plan.channel_width:.6f}"]
                       for i, (lo, hi) in enumerate(plan.pairs)))
    if plan.pairs:
        print(f"{len(plan.pairs)} channel pairs, usable clock "
              f"{plan.usable_clock_hz / 1e9:.0f} GHz per pair")
    else:
        print(f"empty plan: {plan.diagnostic}")


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
# temporary over 128 KiB (numpy's FFT scratch, synthesis's copies) is mapped,
# page-faulted in and unmapped on every call. At 512 frames × 12512 samples
# this cuts simulate's minor faults from 39 k to 5.6 k; 512 KiB does as well.
# analyze, whose FFTs take one frame, takes 5.0 k either way. Repeating the
# allocation is harmless.
MMAP_BLOCK_BYTES = 2 << 20


class _Signalled(BaseException):
    """Raised by a stop signal, so that a command unwinds as on any error."""


def _raise_signalled(signum, frame):
    raise _Signalled(signum)


def main(argv=None) -> int:
    np.empty(MMAP_BLOCK_BYTES, dtype=np.uint8)      # freed at once, never touched
    # numpy.random imports secrets, hmac and so _hashlib, which maps OpenSSL's
    # libcrypto (3.4 MB RSS). Hidden, hashlib uses CPython's built-in digests.
    sys.modules.setdefault("_hashlib", None)
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    made = [path for path in (out, *out.parents) if not os.path.lexists(path)]
    # Only the main thread may set handlers; a signal ignored (nohup) stays so.
    main_thread = threading.current_thread() is threading.main_thread()
    handlers = {sig: signal.signal(sig, _raise_signalled)
                for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
                if main_thread and signal.getsignal(sig) != signal.SIG_IGN}
    try:
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](args, out)
        made = []       # the command has succeeded: keep what it made
        return EXIT_OK
    except _Signalled as err:
        message, code = f"interrupted by {signal.Signals(err.args[0]).name}", 128 + err.args[0]
    except ValueError as err:
        message, code = f"error: {err}", EXIT_USAGE
    except ArithmeticError as err:
        message, code = f"numeric failure: {err}", EXIT_NUMERIC
    except OSError as err:
        message, code = f"I/O error: {err}", EXIT_IO
    except MemoryError as err:      # numpy's message names the refused allocation
        message, code = f"memory error: {err}", EXIT_IO
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
        # A failed command leaves none of the directories made for --out,
        # deepest first; rmdir removes each only while it is empty.
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
