#!/usr/bin/env python3
"""The opahd benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is run from `src` the
way the tier-1 tests run it (PYTHONPATH=src), and the package need not be
installed. A run repeats whole rounds of the workload until `--seconds` is
spent, checks every round's outputs against the model in checks.py, and
prints one JSON line: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`. Files go to .bench_work/<workload>/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_PROBES = 5
COMMANDS = ("simulate", "analyze", "sweep")
PROBE_REFERENCE_S = 0.05
PROBE_SIGNAL = np.random.default_rng(0).standard_normal(25024)

sys.path.insert(0, str(SRC))
try:
    import tracing
except ModuleNotFoundError as err:
    if err.name != "opahd":
        raise
    tracing = None


class BenchError(RuntimeError):
    """A command of the program failed."""


def child_env() -> dict:
    """The caller's environment without OPAHD_* overrides, with src importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPAHD_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float]:
    """Run one child to its end through spawn.py; returns its wall time in s
    and its own peak RSS in MB."""
    spawn = [sys.executable, str(Path(__file__).with_name("spawn.py")), str(log), "--"]
    done = subprocess.run(spawn + argv, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT, check=True)
    report = json.loads(done.stdout)
    if report["exit"] != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with {report['exit']}:\n"
                         f"{log.read_text(errors='replace')[-2000:]}")
    return report["wall_s"], report["maxrss_kib"] * 1024 / 1e6


def cli_round(w, inp, out: Path) -> dict:
    """simulate, analyze and sweep-loss as children, one at a time:
    {command: (wall s, peak RSS MB)}."""
    cli = [sys.executable, "-m", "opahd.cli"]
    argv = {
        "simulate": ["--config", str(inp.pipeline_config), "--out", str(out), "simulate"],
        "analyze": ["--config", str(inp.pipeline_config), "--out", str(out), "analyze",
                    str(out / "signal.trace"), str(out / "shot.trace")],
        "sweep": ["--config", str(inp.sweep_config), "--out", str(out), "sweep-loss",
                  "--monte-carlo", "--added-loss", ",".join(map(str, w.added_loss)),
                  "--gains-db", ",".join(map(str, w.gains_db)),
                  "--mc-frames", str(w.mc_frames)],
    }
    return {cmd: run_child(cli + argv[cmd], out / f"{cmd}.log") for cmd in COMMANDS}


def output_errors(w, inp, out: Path) -> list[str]:
    return (checks.check_pipeline(w, inp.squeeze_r, out)
            + checks.check_sweep(w, inp.squeeze_r, out))


def failed_fits(curves, results) -> int:
    """A finite curve fails if its fit raises; a curve with a NaN level fails
    unless its fit raises ValueError."""
    return sum(isinstance(res, Exception) if c.finite else not isinstance(res, ValueError)
               for c, res in zip(curves, results))


def another_round(start: float, rounds: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def machine_probe() -> float:
    """Wall time of a fixed mix of interpreter, FFT and memory-copy work that
    does not touch opahd: a gauge of this machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(PROBE_SIGNAL))
    block = np.ones(4_000_000)
    for _ in range(3):
        block.copy()
    return time.perf_counter() - t0


def untraced_run(w, seed: int, seconds: float, workdir: Path, out: Path):
    """End-to-end metrics: medians over the run's rounds, with times scaled to
    a machine on which the probe takes PROBE_REFERENCE_S (see README.md,
    "Times at a reference machine speed"). Each round sets up its inputs
    afresh, the same for one seed."""
    times, rss, probes, errors, attempted, failed = [], [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        probes.append(machine_probe())
        t0 = time.perf_counter()
        inp = workloads.setup(w, seed, workdir)
        setup_s = time.perf_counter() - t0
        cli = cli_round(w, inp, out)
        probes.append(machine_probe())
        t0 = time.perf_counter()
        results = tracing.fit_campaign(inp.curves)
        fits_s = time.perf_counter() - t0
        times.append({"setup": setup_s, "fits": fits_s, **{c: cli[c][0] for c in COMMANDS}})
        rss.append({c: cli[c][1] for c in COMMANDS})
        errors += output_errors(w, inp, out) + checks.check_fits(inp.curves, results)
        attempted += len(COMMANDS) + len(inp.curves)
        failed += failed_fits(inp.curves, results)
        if not another_round(start, len(times), seconds):
            break

    scale = PROBE_REFERENCE_S / statistics.median(probes)

    def median_s(step):
        return scale * statistics.median(t[step] for t in times)

    def median_mb(cmd):
        return statistics.median(r[cmd] for r in rss)

    metrics = {
        "setup_s": (median_s("setup"), "s"),
        "simulate_s": (median_s("simulate"), "s"),
        "analyze_s": (median_s("analyze"), "s"),
        "sweep_s": (median_s("sweep"), "s"),
        "simulate_peak_rss_mb": (median_mb("simulate"), "MB"),
        "analyze_peak_rss_mb": (median_mb("analyze"), "MB"),
        "sweep_peak_rss_mb": (median_mb("sweep"), "MB"),
        "fits_per_s": (len(inp.curves) / median_s("fits"), "1/s"),
    }
    return metrics, errors, attempted, failed


def import_probe(workdir: Path) -> tuple[float, float]:
    """Median wall time of a child that only imports opahd.cli (interpreter
    start-up included), and median time of the import itself in ms."""
    code = ("import time; t0 = time.perf_counter(); import opahd.cli; "
            "print(time.perf_counter() - t0)")
    log = workdir / "import.log"
    walls, imports = [], []
    for _ in range(IMPORT_PROBES):
        walls.append(run_child([sys.executable, "-c", code], log)[0])
        imports.append(float(log.read_text().split()[-1]))
    return statistics.median(walls), 1e3 * statistics.median(imports)


def replay_round(tracer, w, inp, out: Path) -> tuple[dict, float, list]:
    """The round's commands and fits in-process: (wall s per step, level_db, fits)."""
    steps = {
        "simulate": lambda: tracing.replay_simulate(tracer, inp.pipeline_config, out),
        "analyze": lambda: tracing.replay_analyze(tracer, inp.pipeline_config, out),
        "sweep": lambda: tracing.replay_sweep(tracer, inp.sweep_config, w.added_loss,
                                              w.gains_db, w.mc_frames),
        "fits": lambda: tracing.fit_campaign(inp.curves),
    }
    walls, values = {}, {}
    with tracing.instrumented(tracer):
        for name, step in steps.items():
            t0 = time.perf_counter()
            with tracer.span(f"replay.{name}"):
                values[name] = step()
            walls[name] = time.perf_counter() - t0
    return walls, values["analyze"], values["fits"]


def traced_run(w, inp, seconds: float, out: Path, workdir: Path):
    """Per-layer metrics. Each round runs the CLI commands untraced (for the
    glue figure), then replays the round in-process three times: untraced,
    with spans, and with spans plus tracemalloc (for peak allocations)."""
    startup_s, import_ms = import_probe(workdir)
    timed, alloc = tracing.Tracer(alloc=False), tracing.Tracer(alloc=True)
    replay_out = out / "replay"
    errors, iterations = [], []
    attempted = failed = rounds = 0
    glue = overhead = alloc_overhead = 0.0
    start = time.perf_counter()
    probes = []
    while True:
        probes.append(machine_probe())
        cli = cli_round(w, inp, out)
        errors += output_errors(w, inp, out)
        plain, _, _ = replay_round(tracing.NullTracer(), w, inp, replay_out)
        walls, level_db, results = replay_round(timed, w, inp, replay_out)
        alloc_walls, _, _ = replay_round(alloc, w, inp, replay_out)
        cli_level = json.loads((out / "levels.json").read_text())["level_db"]
        if level_db != cli_level:
            errors.append(f"replayed level {level_db!r} != opahd analyze {cli_level!r}")
        errors += checks.check_fits(inp.curves, results)
        attempted += len(COMMANDS) + len(inp.curves)
        failed += failed_fits(inp.curves, results)
        iterations += [res.n_iter for c, res in zip(inp.curves, results)
                       if c.finite and not isinstance(res, Exception)]
        glue += sum(cli[cmd][0] - startup_s - plain[cmd] for cmd in COMMANDS)
        overhead += sum(walls.values()) - sum(plain.values())
        alloc_overhead += sum(alloc_walls.values()) - sum(plain.values())
        rounds += 1
        if not another_round(start, rounds, seconds):
            break

    (workdir / "spans.json").write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "work", "peak_alloc_bytes"],
        "timed": timed.spans, "alloc": alloc.spans}))

    total, work, peak = defaultdict(float), defaultdict(float), defaultdict(int)
    for name, t0, t1, _, n, _ in timed.spans:
        total[name] += t1 - t0
        work[name] += n
    for name, *_, peak_bytes in alloc.spans:
        peak[name] = max(peak[name], peak_bytes)

    def per(name, scale):
        return scale * total[name] / work[name], {1e6: "us", 1e3: "ms"}[scale]

    def mb_per_s(name):
        return work[name] / total[name] / 1e6, "MB/s"

    def peak_mb(name):
        return peak[name] / 1e6, "MB"

    metrics = {
        "gaussian.relative_quadrature_power.us_per_call":
            per("gaussian.relative_quadrature_power", 1e6),
        "signal_chain.frame_seed.us_per_frame": per("signal_chain.frame_seed", 1e6),
        "signal_chain.synthesize_frames.us_per_frame": per("signal_chain.synthesize_frames", 1e6),
        "signal_chain.synthesize_frames.peak_alloc_mb": peak_mb("signal_chain.synthesize_frames"),
        "traceio.write_traces.mb_per_s": mb_per_s("traceio.write_traces"),
        "traceio.write_traces.peak_alloc_mb": peak_mb("traceio.write_traces"),
        "traceio.read_traces.mb_per_s": mb_per_s("traceio.read_traces"),
        "traceio.read_traces.peak_alloc_mb": peak_mb("traceio.read_traces"),
        "traceio.records_from_array.us_per_frame": per("traceio.records_from_array", 1e6),
        "analysis.averaged_fft.us_per_frame": per("analysis.averaged_fft", 1e6),
        "analysis.averaged_fft.peak_alloc_mb": peak_mb("analysis.averaged_fft"),
        "analysis.variance_level.us_per_frame": per("analysis.variance_level", 1e6),
        "analysis.histogram.us_per_frame": per("analysis.histogram", 1e6),
        "analysis.histogram.peak_alloc_mb": peak_mb("analysis.histogram"),
        "analysis.fit_pump_curve.ms_per_fit": per("analysis.fit_pump_curve", 1e3),
        "fitting.iterations_per_fit": (statistics.fmean(iterations), "count"),
        "config.load.ms": per("config.load", 1e3),
        "cli.import.ms": (import_ms, "ms"),
        "cli.glue.s": (glue / rounds, "s"),
        "trace.overhead_s": (overhead / rounds, "s"),
        "trace.alloc_overhead_s": (alloc_overhead / rounds, "s"),
        "machine.probe_ms": (1e3 * statistics.median(probes), "ms"),
    }
    return metrics, errors, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if tracing is None:
        print(f"error: {SRC / 'opahd'} not found; run from an opahd source checkout",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    workdir = WORK / w.name
    out = workdir / "out"
    shutil.rmtree(workdir, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        inp = workloads.setup(w, args.seed, workdir)
        # Not timed: byte-compile the package in a fresh checkout, warm NumPy's linalg.
        run_child([sys.executable, "-c", "import opahd.cli"], workdir / "warmup.log")
        tracing.fit_campaign(inp.curves[:1])
        if args.trace:
            metrics, errors, attempted, failed = traced_run(w, inp, args.seconds, out, workdir)
        else:
            metrics, errors, attempted, failed = untraced_run(w, args.seed, args.seconds,
                                                              workdir, out)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for message in dict.fromkeys(errors):
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
