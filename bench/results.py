#!/usr/bin/env python3
"""Collect benchmark runs over seeds, and compare two collections metric by
metric against the bounds in BENCHMARK.json.

    python3 bench/results.py collect DIR [--runs 10] [--first-seed 1] [--workload W]... [--trace 0]
    python3 bench/results.py spread DIR
    python3 bench/results.py compare BASE_DIR HEAD_DIR

`collect` runs the command in BENCHMARK.json once per seed and workload, one
run at a time, cycling through the workloads for each seed, and appends each
result line to DIR/<workload>.jsonl. `spread` prints, per workload and
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
against the metric's bound. `compare` takes two such directories, made by
the same benchmark code and settings on the parent and on the change, and
reports a metric as a regression when the change's median is worse than the
parent's by more than the bound, and as unresolved when either side's spread
exceeds the bound. It exits 1 on a regression, on a differing share of failed
operations or on an incorrect run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(out: Path, runs: int, first_seed: int, names: list[str], trace: int) -> int:
    bench = spec()
    names = names or [w["name"] for w in bench["workloads"]]
    out.mkdir(parents=True, exist_ok=True)
    for seed in range(first_seed, first_seed + runs):
        for name in names:
            argv = bench["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]),
                                       "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(out / f"{name}.jsonl", "a") as fh:
                fh.write(json.dumps({"seed": seed, "result": result}) + "\n")
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return 0


def load(directory: Path) -> dict[str, list[dict]]:
    return {path.stem: [json.loads(line)["result"] for line in path.read_text().splitlines()]
            for path in sorted(directory.glob("*.jsonl"))}


def summary(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def failed_shares(runs: list[dict]) -> set[Fraction]:
    return {Fraction(r["failed"], r["attempted"]) for r in runs}


def spread(directory: Path) -> int:
    metrics = spec()["end_to_end"]
    status = 0
    for name, runs in load(directory).items():
        shares = failed_shares(runs)
        print(f"{name}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed share {', '.join(str(s) for s in sorted(shares))}")
        status |= len(shares) != 1 or not all(r["correct"] for r in runs)
        for m in metrics:
            med, sp = summary([r["metrics"][m["name"]]["value"] for r in runs])
            mark = "ok" if sp <= m["bound"] / 3 else ("wide" if sp <= m["bound"] else "OVER")
            print(f"  {m['name']:24s} median {med:12.5g} {m['unit']:5s} "
                  f"spread {sp:7.2%}  bound {m['bound']:.0%}  {mark}")
    return status


def compare(base_dir: Path, head_dir: Path) -> int:
    metrics = spec()["end_to_end"]
    base, head = load(base_dir), load(head_dir)
    status = 0
    for name in base:
        if name not in head:
            print(f"{name}: missing from {head_dir}")
            status = 1
            continue
        b_share, h_share = failed_shares(base[name]), failed_shares(head[name])
        correct = all(r["correct"] for r in base[name] + head[name])
        print(f"{name}: failed share {sorted(b_share)} -> {sorted(h_share)}, "
              f"all correct: {correct}")
        status |= b_share != h_share or not correct
        for m in metrics:
            b_med, b_sp = summary([r["metrics"][m["name"]]["value"] for r in base[name]])
            h_med, h_sp = summary([r["metrics"][m["name"]]["value"] for r in head[name]])
            change = (h_med - b_med) / abs(b_med)
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "REGRESSION"
                status = 1
            elif max(b_sp, h_sp) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {m['name']:24s} {b_med:12.5g} -> {h_med:12.5g} {m['unit']:5s} "
                  f"{change:+7.2%}  spread {b_sp:6.2%}/{h_sp:6.2%}  "
                  f"bound {m['bound']:.0%}  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("dir", type=Path)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.add_parser("spread").add_argument("dir", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "collect":
        return collect(args.dir, args.runs, args.first_seed, args.workload, args.trace)
    if args.cmd == "spread":
        return spread(args.dir)
    return compare(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
