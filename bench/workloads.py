"""The benchmark's workloads and the seeded inputs each one gives the program.

Every workload runs the same operations in every round: `opahd simulate`,
`opahd analyze` and `opahd sweep-loss --monte-carlo` as child processes, then
a campaign of pump-curve fits in-process. Workloads differ in the inputs,
which decide which layer dominates (see README.md).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The paper's chain after the squeezer: amplifier gain and internal
# efficiency, then the downstream (homodyne) efficiency.
PSA_GAIN_DB = 35.0
ETA_OPA = 0.79
ETA_HD = 0.076
DETECTOR_F3DB_HZ = 43e9
SCOPE_CUTOFF_HZ = 63e9
FILTER_ORDER = 4

# Pump-curve campaign: 0.1 dB level noise, (L, a) drawn per curve.
FIT_NOISE_DB = 0.1
FIT_L_RANGE = (0.2, 0.4)
FIT_A_RANGE = (4.0, 8.0)            # 1/W
TWO_BRANCH_PUMPS_W = np.linspace(0.05, 0.438, 8)
# A squeeze-only curve carries about a tenth of the information on `a` that a
# two-branch curve does: at 8 points the Cramér-Rao bound on `a` is ~9 %, so
# the ±5 % recovery check needs a finer pump scan (~1.5 % at 256 points).
SQUEEZE_ONLY_PUMPS_W = np.linspace(0.01, 0.438, 256)
# Curves with one NaN level are the same in every run, whatever the seed.
NONFINITE_L, NONFINITE_A = 0.29, 6.0


@dataclass(frozen=True)
class Frames:
    """Acquisition settings written into a config."""

    record_duration_ns: float
    samples_per_frame: int
    frames: int
    clearance_db: float | None      # None: electrical floor off

    @property
    def sample_rate(self) -> float:
        return self.samples_per_frame / (self.record_duration_ns * 1e-9)


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: Frames                # simulate + analyze
    sweep: Frames                   # sweep-loss --monte-carlo
    added_loss: tuple[float, ...]
    gains_db: tuple[float, ...]
    mc_frames: int
    two_branch: int                 # curves per round, by kind
    squeeze_only: int
    nonfinite: int


PAPER_SHAPE = dict(record_duration_ns=78.2, samples_per_frame=12512, clearance_db=20.0)
SHORT_SHAPE = dict(record_duration_ns=3.2, samples_per_frame=512, clearance_db=None)
FULL_LOSS_GRID = tuple(round(0.1 * i, 1) for i in range(10))

WORKLOADS = {w.name: w for w in (
    Workload("paper-pipeline",
             pipeline=Frames(frames=512, **PAPER_SHAPE),
             sweep=Frames(frames=16, **PAPER_SHAPE),
             added_loss=(0.0, 0.5), gains_db=(0.0, 35.0), mc_frames=16,
             two_branch=40, squeeze_only=40, nonfinite=0),
    Workload("short-frame-sweep",
             pipeline=Frames(frames=2048, **SHORT_SHAPE),
             sweep=Frames(frames=256, **SHORT_SHAPE),
             added_loss=FULL_LOSS_GRID, gains_db=(0.0, 35.0), mc_frames=256,
             two_branch=40, squeeze_only=40, nonfinite=0),
    Workload("pump-fit",
             pipeline=Frames(frames=64, **SHORT_SHAPE),
             sweep=Frames(frames=16, **SHORT_SHAPE),
             added_loss=(0.0,), gains_db=(PSA_GAIN_DB,), mc_frames=16,
             two_branch=144, squeeze_only=144, nonfinite=12),
)}


@dataclass(frozen=True)
class Curve:
    """One pump-power scan: points are (pump_w, level_rel, branch)."""

    points: list
    big_l: float
    a_coeff: float
    finite: bool


@dataclass(frozen=True)
class Inputs:
    pipeline_config: Path
    sweep_config: Path
    squeeze_r: float
    curves: list


def config_dict(frames: Frames, seed: int, squeeze_r: float) -> dict:
    return {
        "seed": seed,
        "chain": {"lo_phase_rad": 0.0, "stages": [
            {"kind": "squeeze", "r": squeeze_r},
            {"kind": "psa", "gain_db": PSA_GAIN_DB, "eta_opa": ETA_OPA},
            {"kind": "loss", "eta": ETA_HD},
        ]},
        "acquisition": {
            "record_duration_ns": frames.record_duration_ns,
            "samples_per_frame": frames.samples_per_frame,
            "frames": frames.frames,
            "photocurrent_ma": 3.0,
            "clearance_at_43ghz_db": frames.clearance_db,
        },
        "response": {"detector_f3db_ghz": DETECTOR_F3DB_HZ / 1e9,
                      "scope_cutoff_ghz": SCOPE_CUTOFF_HZ / 1e9,
                      "filter_order": FILTER_ORDER},
    }


def pump_level(pump_w: float, big_l: float, a_coeff: float, branch: int) -> float:
    return big_l + (1.0 - big_l) * math.exp(branch * 2.0 * math.sqrt(a_coeff * pump_w))


def _noisy_curve(rng, pumps, branches) -> Curve:
    big_l = rng.uniform(*FIT_L_RANGE)
    a_coeff = rng.uniform(*FIT_A_RANGE)
    points = [(float(p), pump_level(p, big_l, a_coeff, b)
               * 10.0 ** (rng.normal(0.0, FIT_NOISE_DB) / 10.0), b)
              for b in branches for p in pumps]
    return Curve(points, big_l, a_coeff, True)


def _nonfinite_curve(i: int) -> Curve:
    points = [(float(p), pump_level(p, NONFINITE_L, NONFINITE_A, b), b)
              for b in (-1, 1) for p in TWO_BRANCH_PUMPS_W]
    k = i % len(points)
    points[k] = (points[k][0], float("nan"), points[k][2])
    return Curve(points, NONFINITE_L, NONFINITE_A, False)


def setup(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the configs and the fit campaign for one seed."""
    rng = np.random.default_rng([seed, 0x0BE4C])
    program_seed = int(rng.integers(0, 2**31))
    squeeze_r = float(rng.uniform(0.9, 1.1))
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, frames in (("pipeline", w.pipeline), ("sweep", w.sweep)):
        paths[label] = workdir / f"{label}.json"
        paths[label].write_text(
            json.dumps(config_dict(frames, program_seed, squeeze_r), indent=2) + "\n")

    curves = [_noisy_curve(rng, TWO_BRANCH_PUMPS_W, (-1, 1)) for _ in range(w.two_branch)]
    curves += [_noisy_curve(rng, SQUEEZE_ONLY_PUMPS_W, (-1,)) for _ in range(w.squeeze_only)]
    curves += [_nonfinite_curve(i) for i in range(w.nonfinite)]
    with open(workdir / "campaign.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "pump_mw", "level_db", "branch", "true_l", "true_a_per_w"])
        for i, c in enumerate(curves):
            for pump_w, level, branch in c.points:
                writer.writerow([i, f"{pump_w * 1e3:.6f}", f"{10 * math.log10(level):.6f}",
                                 branch, f"{c.big_l:.6f}", f"{c.a_coeff:.6f}"])
    return Inputs(paths["pipeline"], paths["sweep"], squeeze_r, curves)
