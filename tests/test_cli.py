"""CLI contract: subcommands, exit codes, config round trip, determinism."""
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opahd import analysis as ana
from opahd import cli, signal_chain, traceio, wdm
from opahd.cli import main
from opahd.config import AnalysisOptions, ConfigError, ExperimentConfig
from opahd.fitting import FitConvergenceError
from opahd.gaussian import ChainModel, loss, phase, psa, pump_curve, squeeze
from opahd.signal_chain import AcquisitionConfig, FrequencyResponse, shared_frame_chunks
from opahd.traceio import write_json
from opahd.wdm import plan_bands

SMALL_CONFIG = {
    "seed": 77,
    "chain": {
        "lo_phase_rad": 0.0,
        "stages": [
            {"kind": "squeeze", "r": 1.0},
            {"kind": "psa", "gain_db": 35.0, "eta_opa": 0.79},
            {"kind": "loss", "eta": 0.076},
        ],
    },
    "acquisition": {
        "record_duration_ns": 3.2,
        "samples_per_frame": 512,
        "frames": 8,
        "photocurrent_ma": 3.0,
        "clearance_at_43ghz_db": 20.0,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_traces_and_summary(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert run("--config", config_path, "--out", out, "simulate") == 0
        assert (out / "signal.trace").exists()
        assert (out / "shot.trace").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["traces"]["signal"]["frames"] == 8
        assert summary["traces"]["signal"]["samples_per_frame"] == 512
        emp = summary["traces"]["shot"]["empirical_variance"]
        ana = summary["traces"]["shot"]["analytic_variance"]
        assert emp == pytest.approx(ana, rel=0.3)

    def test_single_frame(self, tmp_path, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["acquisition"]["frames"] = 1
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "one"
        assert run("--config", config_path, "--out", out, "simulate") == 0
        assert json.loads((out / "summary.json").read_text())[
            "traces"]["signal"]["frames"] == 1

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("--config", config_path, "--out", out1, "simulate") == 0
        assert run("--config", config_path, "--out", out2, "simulate") == 0
        assert (out1 / "signal.trace").read_bytes() == (out2 / "signal.trace").read_bytes()
        assert (out1 / "shot.trace").read_bytes() == (out2 / "shot.trace").read_bytes()

    def test_integral_float_counts_give_the_same_bytes(self, tmp_path, config_path):
        acquisition = dict(SMALL_CONFIG["acquisition"], samples_per_frame=512.0, frames=8.0)
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, acquisition=acquisition)))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("--config", config_path, "--out", out1, "simulate") == 0
        assert run("--config", path, "--out", out2, "simulate") == 0
        for name in ("signal.trace", "shot.trace", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("--config", config_path, "--out", out1, "simulate")
        run("--config", config_path, "--out", out2, "--seed", 999, "simulate")
        assert (out1 / "signal.trace").read_bytes() != (out2 / "signal.trace").read_bytes()

    def test_invalid_stage_parameter_exit_2(self, tmp_path):
        bad = dict(SMALL_CONFIG, chain={"stages": [{"kind": "loss", "eta": 1.5}]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run("--config", path, "--out", tmp_path, "simulate") == 2

    def test_non_numeric_stage_parameter_exit_2(self, tmp_path, capsys):
        bad = dict(SMALL_CONFIG, chain={"stages": [{"kind": "squeeze", "r": "abc"}]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run("--config", path, "--out", tmp_path / "out", "simulate") == 2
        err = capsys.readouterr().err
        assert "squeeze channel parameter r" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("r", [1e6, -1e6, 178.0])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep-loss", "--monte-carlo"]])
    def test_squeeze_r_out_of_range_exit_2(self, tmp_path, capsys, r, command):
        stages = [dict(SMALL_CONFIG["chain"]["stages"][0], r=r),
                  *SMALL_CONFIG["chain"]["stages"][1:]]
        bad = dict(SMALL_CONFIG, chain={"stages": stages})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run("--config", path, "--out", tmp_path / "out", *command) == 2
        err = capsys.readouterr().err
        assert "squeeze r must be within" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stages, message", [
        ([{"kind": "psa", "gain_db": 7000, "eta_opa": 0.79}, {"kind": "loss", "eta": 0.076}],
         "psa gain_db must be within"),
        ([{"kind": "squeeze", "r": 177}, {"kind": "phase", "theta": 0.3},
          {"kind": "squeeze", "r": -177}, {"kind": "phase", "theta": 0.3},
          {"kind": "squeeze", "r": 177}, {"kind": "psa", "gain_db": 35, "eta_opa": 0.79},
          {"kind": "loss", "eta": 0.076}],
         "chain propagates vacuum to a covariance that is not finite"),
    ], ids=["psa-gain", "overflowing-chain"])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep-loss", "--monte-carlo"]])
    def test_chain_out_of_range_exit_2(self, tmp_path, capsys, stages, message, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, chain={"stages": stages})))
        assert run("--config", path, "--out", tmp_path / "out", *command) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("theta", [1e300, -1e300, math.nan, math.inf, 9.3e12])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep-loss", "--monte-carlo"]])
    def test_lo_phase_out_of_range_exit_2(self, tmp_path, capsys, theta, command):
        chain = dict(SMALL_CONFIG["chain"], lo_phase_rad=theta)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, chain=chain)))
        assert run("--config", path, "--out", tmp_path / "out", *command) == 2
        err = capsys.readouterr().err
        assert "lo_phase_rad must be finite and within ±9.223e+12 rad" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, message", [
        ({"chain": {"stages": "abc"}}, "chain.stages must be a list of objects"),
        ({"chain": {"stages": {"kind": "loss", "eta": 0.5}}},
         "chain.stages must be a list of objects"),
        ({"chain": {"stages": [["loss", 0.5]]}}, "chain.stages must be a list of objects"),
        ({"chain": "abc"}, "chain must be an object"),
        ({"acquisition": "abc"}, "acquisition must be an object"),
        ({"analysis": {"window": "foo"}},
         "analysis window must be 'rectangular' or 'hann', got 'foo'"),
        ({"analysis": {"histogram_bins": 200.5}},
         "histogram_bins must be an integer >= 2, got 200.5"),
        ({"analysis": {"histogram_bins": "200"}},
         "histogram_bins must be an integer >= 2, got '200'"),
        ({"analysis": {"mask_center_ghz": math.nan}},
         "mask_center_ghz and mask_width_ghz must be finite"),
        ({"analysis": {"mask_width_ghz": math.inf}},
         "mask_center_ghz and mask_width_ghz must be finite"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], samples_per_frame=2 ** 32)},
         "samples_per_frame must be >= 2 and < 2**32"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], samples_per_frame=512.5)},
         "samples_per_frame must be an integer, got 512.5"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], frames=8.9)},
         "frames must be an integer, got 8.9"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], frames="8")},
         "frames must be an integer, got '8'"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], frames=True)},
         "frames must be an integer, got True"),
        ({"response": {"filter_order": 4.5}}, "filter_order must be an integer, got 4.5"),
        ({"seed": 77.5}, "seed must be an integer, got 77.5"),
        ({"seed": math.inf}, "seed must be an integer, got inf"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], photocurrent_ma=True)},
         "photocurrent_ma must be a number, got True"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], record_duration_ns="0.4")},
         "record_duration_ns must be a number, got '0.4'"),
        ({"chain": dict(SMALL_CONFIG["chain"], lo_phase_rad="0.1")},
         "lo_phase_rad must be a number, got '0.1'"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], clearance_at_43ghz_db=False)},
         "clearance_at_43ghz_db must be a number, got False"),
        ({"chain": {"stages": [{"kind": "loss", "eta": "0.5"}]}},
         "loss channel parameter eta must be a finite number, got '0.5'"),
        ({"chain": {"stages": [{"kind": "loss", "eta": True}]}},
         "loss channel parameter eta must be a finite number, got True"),
        ({"analysis": {"mask_center_ghz": True}},
         "mask_center_ghz and mask_width_ghz must be finite and mask_width_ghz >= 0, "
         "got (True, 1.0)"),
        ({"sed": 5}, "config has no key 'sed'"),
        ({"chain": dict(SMALL_CONFIG["chain"], lo_phase=1.5708)},
         "chain has no key 'lo_phase'"),
        ({"acquisition": dict(SMALL_CONFIG["acquisition"], sample_per_frame=512)},
         "acquisition has no key 'sample_per_frame'"),
        ({"response": {"detector_f3db": 43e9}}, "response has no key 'detector_f3db'"),
        ({"chain": {"stages": [{"kind": "loss", "eta": 0.5, "gain_db": 35.0}]}},
         "loss channel takes exactly the parameters ['eta'], got ['eta', 'gain_db']"),
        ({"schema_version": 2}, "unsupported schema_version 2"),
    ], ids=["stages-string", "stages-object", "stage-list", "chain-string",
            "acquisition-string", "window", "bins-fraction", "bins-string", "mask-nan",
            "mask-inf", "samples-2**32", "samples-fraction", "frames-fraction",
            "frames-string", "frames-bool", "filter-order-fraction", "seed-fraction",
            "seed-inf", "photocurrent-bool", "duration-string", "lo-phase-string",
            "clearance-bool", "eta-string", "eta-bool", "mask-bool", "unknown-top-key",
            "unknown-chain-key", "unknown-acquisition-key", "unknown-response-key",
            "unknown-stage-parameter", "schema-version-2"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, section, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, **section}))
        assert run("--config", path, "--out", tmp_path / "out", "simulate") == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_samples_per_frame_past_the_header_exit_2_for_sweep(self, tmp_path, capsys):
        # At load, before _synthesis_sigma would allocate 2n floats.
        acquisition = dict(SMALL_CONFIG["acquisition"], samples_per_frame=2 ** 32)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, acquisition=acquisition)))
        assert run("--config", path, "--out", tmp_path / "out", "sweep-loss",
                   "--monte-carlo", "--mc-frames", "2") == 2
        err = capsys.readouterr().err
        assert "samples_per_frame must be >= 2 and < 2**32" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["simulate"], ["sweep-loss", "--monte-carlo"]],
                             ids=["simulate", "sweep-loss"])
    def test_negative_seed_exit_2_before_any_output(self, tmp_path, config_path, capsys,
                                                    command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "seed": -5}))
        assert run("--config", path, "--out", tmp_path / "config", *command) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer, got -5" in err
        assert "Traceback" not in err
        assert run("--config", config_path, "--seed", -1, "--out", tmp_path / "flag",
                   *command) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "config").exists() and not (tmp_path / "flag").exists()

    @pytest.mark.parametrize("duration_ns", [1e19, 1e-9, math.inf, math.nan])
    def test_sample_interval_the_header_cannot_hold_exit_2(self, tmp_path, capsys,
                                                           duration_ns):
        acquisition = dict(SMALL_CONFIG["acquisition"], record_duration_ns=duration_ns)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, acquisition=acquisition)))
        out = tmp_path / "out"
        assert run("--config", path, "--out", out, "simulate") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if math.isfinite(duration_ns):
            assert "record_duration gives a sample interval of" in err
        else:   # rejected at load
            assert "record_duration must be finite and positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("section, key, field", [
        ("acquisition", "record_duration_ns", "record_duration"),
        ("acquisition", "photocurrent_ma", "photocurrent"),
        ("acquisition", "clearance_at_43ghz_db", "clearance_at_43ghz_db"),
        ("response", "detector_f3db_ghz", "detector_f3db"),
        ("response", "scope_cutoff_ghz", "scope_cutoff"),
    ])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep-loss", "--monte-carlo"]],
                             ids=["simulate", "sweep-loss"])
    def test_non_finite_acquisition_or_response_exit_2(self, tmp_path, capsys, command,
                                                       section, key, field, value):
        raw = dict(SMALL_CONFIG)
        raw[section] = dict(raw.get(section, {}), **{key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert run("--config", path, "--out", tmp_path / "out", *command) == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_brick_wall_filter_order_runs_without_warning(self, tmp_path, capsys):
        """An order whose power overflows above detector_f3db makes the
        response a brick wall there, and simulate and the Monte Carlo sweep
        run without numpy's overflow warning."""
        order = 10 ** 30
        assert FrequencyResponse(filter_order=order).magnitude_squared(
            np.array([0.0, 43e9, 44e9])).tolist() == [1.0, 0.5, 0.0]
        path = tmp_path / "order.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, response={"filter_order": order})))
        out = tmp_path / "out"
        assert run("--config", path, "--out", out, "simulate") == 0
        assert run("--config", path, "--out", out, "sweep-loss", "--monte-carlo",
                   "--mc-frames", "4") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key, value, code", [
        ("clearance_at_43ghz_db", -3060, 2), ("clearance_at_43ghz_db", -4000, 2),
        ("photocurrent_ma", 1e308, 2), ("clearance_at_43ghz_db", -3000, 0),
        ("photocurrent_ma", 1e300, 0)])
    @pytest.mark.parametrize("command", [
        ["simulate"], ["sweep-loss", "--monte-carlo", "--mc-frames", "4"]],
        ids=["simulate", "sweep-loss"])
    def test_overflowing_synthesis_amplitude_exit_2(self, tmp_path, capsys, command, key,
                                                    value, code):
        """A σ(f) past float range is refused where it is formed, with one line
        and no numpy warning; a σ just inside the range still runs."""
        acquisition = dict(SMALL_CONFIG["acquisition"], **{key: value})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, acquisition=acquisition)))
        out = tmp_path / "out"
        assert run("--config", path, "--out", out, *command) == code
        err = capsys.readouterr().err
        if code:
            assert err == ("error: the synthesis amplitude overflows: lower photocurrent_ma "
                           "or raise clearance_at_43ghz_db\n")
            assert not out.exists()
        else:
            assert err == ""

    def test_failure_partway_leaves_no_partial_trace(self, tmp_path, config_path,
                                                     monkeypatch):
        cfg = json.loads(config_path.read_text())
        cfg["acquisition"]["frames"] = 300      # ten synthesis chunks of 512 samples
        config_path.write_text(json.dumps(cfg))
        kept = tmp_path / "kept"
        assert run("--config", config_path, "--out", kept, "simulate") == 0
        before = (kept / "signal.trace").read_bytes()

        def disk_full_after_one_chunk(*args, **kwargs):
            chunks = shared_frame_chunks(*args, **kwargs)
            yield next(chunks)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("opahd.cli.shared_frame_chunks", disk_full_after_one_chunk)
        fresh = tmp_path / "fresh"
        assert run("--config", config_path, "--out", fresh, "simulate") == 4
        assert not fresh.exists()
        assert run("--config", config_path, "--out", kept, "simulate") == 4
        assert (kept / "signal.trace").read_bytes() == before
        assert sorted(p.name for p in kept.iterdir()) == [
            "shot.trace", "signal.trace", "summary.json"]

    @pytest.mark.parametrize("code", [errno.EOPNOTSUPP, errno.EINVAL])
    def test_no_preallocation_gives_the_same_bytes(self, tmp_path, config_path, monkeypatch,
                                                   code):
        """A filesystem that cannot reserve a trace file's space still gets
        every byte of it."""
        reserved = tmp_path / "reserved"
        assert run("--config", config_path, "--out", reserved, "simulate") == 0

        def unsupported(fd, offset, length):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "posix_fallocate", unsupported)
        plain = tmp_path / "plain"
        assert run("--config", config_path, "--out", plain, "simulate") == 0
        for name in ("signal.trace", "shot.trace", "summary.json"):
            assert (plain / name).read_bytes() == (reserved / name).read_bytes()

    def test_disk_full_at_preallocation_exit_4_before_any_sample(self, tmp_path,
                                                                config_path, monkeypatch,
                                                                capsys):
        """posix_fallocate reserves the whole trace file before its header is
        written; ENOSPC there exits 4 and leaves no temporary file and no
        output directory, and an existing directory keeps its old traces."""
        kept = tmp_path / "kept"
        assert run("--config", config_path, "--out", kept, "simulate") == 0
        before = {p.name: p.read_bytes() for p in kept.iterdir()}
        sizes = []

        def disk_full(fd, offset, length):
            sizes.append(os.fstat(fd).st_size)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", disk_full)
        fresh = tmp_path / "fresh"
        assert run("--config", config_path, "--out", fresh, "simulate") == 4
        assert "I/O error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert not fresh.exists()
        assert run("--config", config_path, "--out", kept, "simulate") == 4
        assert {p.name: p.read_bytes() for p in kept.iterdir()} == before
        assert sizes and set(sizes) == {0}

    def test_shot_failure_on_worker_stops_signal(self, tmp_path, config_path, monkeypatch,
                                                 capsys):
        """The shot stream runs out of disk space on the worker thread. The
        signal stream, held after its first chunk until the worker has ended,
        stops at its next chunk; the command exits 4 without a traceback, and
        neither a trace nor a temporary file is left."""
        cfg = json.loads(config_path.read_text())
        cfg["acquisition"]["frames"] = 300      # ten synthesis chunks of 512 samples
        config_path.write_text(json.dumps(cfg))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("opahd.cli.THREADED_MIN_SAMPLES", 512)
        shot_failed = threading.Event()
        shot_thread = []
        signal_chunks = []

        def failing_shot(*args, master_seed, **kwargs):
            chunks = shared_frame_chunks(*args, master_seed=master_seed, **kwargs)
            if master_seed == cfg["seed"]:
                for start, j, chunk in chunks:
                    signal_chunks.append(len(chunk))
                    yield start, j, chunk
                    assert shot_failed.wait(timeout=10)
                    shot_thread[0].join(timeout=10)
            else:
                yield next(chunks)
                shot_thread.append(threading.current_thread())
                shot_failed.set()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("opahd.cli.shared_frame_chunks", failing_shot)
        out = tmp_path / "out"
        assert run("--config", config_path, "--out", out, "simulate") == 4
        err = capsys.readouterr().err
        assert "I/O error: [Errno 28] No space left on device" in err
        assert "Traceback" not in err
        assert shot_thread[0] is not threading.main_thread()
        assert not shot_thread[0].is_alive()
        # Stopped at its first or second chunk, whichever followed the failure.
        assert len(signal_chunks) <= 2
        assert not out.exists()

    def test_unparseable_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("--config", path, "--out", tmp_path, "simulate") == 2


# Electrical floor on, 1000-sample frames, and frame counts (300 and 70) that
# are not multiples of the synthesis chunk (16 rows at this width) or of the
# analysis chunk (256 rows).
GOLDEN_CONFIG = {
    "seed": 2718,
    "chain": SMALL_CONFIG["chain"],
    "acquisition": {
        "record_duration_ns": 6.25,
        "samples_per_frame": 1000,
        "frames": 300,
        "photocurrent_ma": 3.0,
        "clearance_at_43ghz_db": 20.0,
    },
}
GOLDEN_SHA256 = {
    "signal.trace": "a34ae1addfe06e41f1a1e9825a8e89f9c7873de49ec98e1d0b6c7bbcac820b33",
    "shot.trace": "97889e10e1e103b4abef3f514e324e0a6cb5419b0321a8914ee3b12c4e0eae8c",
    "summary.json": "a59d4d47ed6c46c750c2590db83c974a8f91a52eab658bcea6f1be76bfff76a6",
    "levels.json": "22c34d9b5bbdfd65b7c690c803c41a05de1df3bdc81a6990b1178792a1ed6de3",
    "spectrum.csv": "fb8d6e39443e9c85c652622a11c9b562bec1309525c5ff43e2c5d266cf74ce08",
    "histogram.csv": "cf862bb80d246596936c938dcefacdf4bbcdb4091932978beaf003abde8eb571",
    "sweep.csv": "35a5043cd162db504eec681b7d396086c0272121b0b77971a3fee9aed4a84428",
}


def test_outputs_match_golden_sha256(tmp_path):
    """Every output byte of simulate, analyze and a Monte Carlo sweep is pinned."""
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    common = ("--config", path, "--out", out)
    assert run(*common, "simulate") == 0
    assert run(*common, "analyze", out / "signal.trace", out / "shot.trace") == 0
    assert run(*common, "sweep-loss", "--monte-carlo", "--added-loss", "0,0.5",
               "--gains-db", "35", "--mc-frames", "70") == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


@pytest.mark.parametrize("cpus, min_samples, threads", [
    ({0}, 1000, {"shared_frame_chunks": 1, "chunks": 1}),
    ({0, 1}, 1000, {"shared_frame_chunks": 2, "chunks": 2}),
    ({0, 1}, 1001, {"shared_frame_chunks": 1, "chunks": 1}),
    ({0}, 1001, {"shared_frame_chunks": 1, "chunks": 1}),
], ids=["one-cpu", "two-cpus", "two-cpus-short-frames", "one-cpu-short-frames"])
def test_golden_sha256_serial_and_concurrent(tmp_path, monkeypatch, cpus, min_samples,
                                             threads):
    """The pinned outputs, with simulate's and analyze's two streams on one
    thread and on two. The golden frames have 1000 samples: at the
    frame-length gate both commands thread on two CPUs, below it neither does."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr("opahd.cli.THREADED_MIN_SAMPLES", min_samples)
    idents = {"shared_frame_chunks": set(), "chunks": set()}

    def on_thread(fn):
        def recorded(*args, **kwargs):
            idents[fn.__name__].add(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    monkeypatch.setattr("opahd.cli.shared_frame_chunks", on_thread(shared_frame_chunks))
    monkeypatch.setattr(traceio.TraceReader, "chunks", on_thread(traceio.TraceReader.chunks))
    test_outputs_match_golden_sha256(tmp_path)
    assert {name: len(ids) for name, ids in idents.items()} == threads


@pytest.mark.parametrize("samples_per_frame, frames, threaded", [
    (12512, 2, True), (1024, 17, True),
    (12512, 1, False), (1024, 16, False), (1023, 10 ** 4, False),
])
def test_two_threads_when_a_stream_holds_more_than_one_chunk(monkeypatch, samples_per_frame,
                                                             frames, threaded):
    """On two CPUs, frames of at least THREADED_MIN_SAMPLES samples thread once
    a stream holds more than one chunk of frame_rows frames: 12512-sample
    frames take one a chunk, 1024-sample frames 16."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._two_threads(samples_per_frame, frames) is threaded


# Each command's per-frame arrays, refused by numpy at these sizes: simulate's
# variances at 2**32 - 1 frames (32 GiB), and the sweep's at 1e11 frames per
# seed. The allocating function is patched, so no test asks for the memory.
MEMORY_ERRORS = {
    "simulate": ("opahd.cli._simulate_stream", (2 ** 32 - 1,), []),
    "sweep-loss": ("opahd.analysis._sweep_variances", (2, 10 ** 11),
                   ["--monte-carlo", "--mc-frames", str(10 ** 11)]),
}


@pytest.mark.parametrize("command", MEMORY_ERRORS)
def test_memory_error_exit_4_without_output_directory(tmp_path, monkeypatch, capsys,
                                                      command):
    target, shape, flags = MEMORY_ERRORS[command]
    message = (f"Unable to allocate 32.0 GiB for an array with shape {shape} "
               f"and data type float64")

    def refused(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, refused)
    config = dict(SMALL_CONFIG, acquisition=dict(SMALL_CONFIG["acquisition"],
                                                 frames=2 ** 32 - 1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run("--config", path, "--out", out, command, *flags) == 4
    err = capsys.readouterr().err
    assert err == f"memory error: {message}\n"
    assert not out.exists()


# Run in a fresh interpreter, which has not loaded _hashlib as this one has;
# exits 77 where a bare numpy import loads it, since main then saves nothing.
NO_LIBCRYPTO_CHILD = """
import sys
import numpy as np
if "_hashlib" in sys.modules:
    sys.exit(77)
from opahd.cli import main
config, out = sys.argv[1:]
common = ["--config", config, "--out", out]
assert main(common + ["simulate"]) == 0
assert main(common + ["sweep-loss", "--monte-carlo", "--mc-frames", "4",
                      "--added-loss", "0,0.5", "--gains-db", "35"]) == 0
assert main(common + ["analyze", out + "/signal.trace", out + "/shot.trace"]) == 0
import hashlib
assert hashlib.sha256(b"opahd").hexdigest() == (
    "33d70647a2a669b51325e86f8beee09134f0b6b7d275283cd278b7ab07066a90")
np.random.default_rng().standard_normal()
with open("/proc/self/maps") as fh:
    assert "libcrypto" not in fh.read()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_commands_map_no_libcrypto(tmp_path, config_path):
    """simulate, sweep-loss --monte-carlo and analyze never map OpenSSL's
    libcrypto; hashlib still gives its digests and numpy its OS entropy."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    child = subprocess.run([sys.executable, "-c", NO_LIBCRYPTO_CHILD, config_path,
                            tmp_path / "out"], env=env, capture_output=True, text=True)
    if child.returncode == 77:
        pytest.skip("importing numpy loads _hashlib here")
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""


# Runs main with _two_threads forced to argv[1] ("0" or "1") and each chunk
# of the streams whose master seeds argv[2] lists slowed by 50 ms, after a
# line with the seed on stdout. SIGINT is not ignored, as in a terminal, even
# where the test runs with it ignored.
SLOWED_CHILD = """
import signal, sys, time
from opahd import cli
threaded, slow, *argv = sys.argv[1:]
signal.signal(signal.SIGINT, signal.default_int_handler)
cli._two_threads = lambda *args: threaded == "1"
chunks = cli.shared_frame_chunks

def slowed(*args, master_seed, **kwargs):
    for item in chunks(*args, master_seed=master_seed, **kwargs):
        if str(master_seed) in slow.split(","):
            print(master_seed, flush=True)
            time.sleep(0.05)
        yield item

cli.shared_frame_chunks = slowed
sys.exit(cli.main(argv))
"""


@pytest.mark.parametrize("threaded, slow, sig", [
    ("0", "0,1", signal.SIGINT), ("0", "0,1", signal.SIGTERM),
    ("1", "0,1", signal.SIGINT), ("1", "0,1", signal.SIGTERM), ("1", "1", signal.SIGTERM),
], ids=["one-thread-sigint", "one-thread-sigterm", "two-threads-sigint",
        "two-threads-sigterm", "during-join-sigterm"])
def test_signal_leaves_no_partial_output(tmp_path, threaded, slow, sig):
    """SIGINT or SIGTERM in the middle of simulate exits 128 + the signal's
    number with one line on stderr, and leaves no temporary file and no output
    directory. A signal that comes while the main thread waits for the worker,
    after the main stream has put its trace in place, stops the worker too."""
    acquisition = dict(SMALL_CONFIG["acquisition"], record_duration_ns=6.4,
                       samples_per_frame=1024, frames=1600)    # 100 chunks a stream
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, seed=0, acquisition=acquisition)))
    out = tmp_path / "a" / "b" / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    child = subprocess.Popen(
        [sys.executable, "-c", SLOWED_CHILD, threaded, slow, "--config", path, "--out", out,
         "simulate"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # Each slowed stream that runs from the start has a temporary file.
        running = set(slow.split(",")) if threaded == "1" else {"0"}
        seen = set()
        while not running <= seen:
            line = child.stdout.readline()
            assert line, child.stderr.read()
            seen.add(line.strip())
        deadline = time.monotonic() + 60
        while slow == "1" and not (out / "signal.trace").exists():
            assert time.monotonic() < deadline and child.poll() is None
            time.sleep(0.01)
        child.send_signal(sig)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 128 + sig
    assert err == f"interrupted by {signal.Signals(sig).name}\n"
    assert not list(tmp_path.rglob("*.tmp"))
    if slow == "1":
        assert [p.name for p in out.iterdir()] == ["signal.trace"]
    else:
        assert not (tmp_path / "a").exists()


# Each command failing with --out <tmp>/a/b/c, as (config, argv, exit code):
# simulate after --out is made, on a sample interval the trace header cannot
# hold, and the rest before any output is written.
NESTED_FAILURES = {
    "simulate-past-the-header": (
        dict(SMALL_CONFIG, acquisition=dict(SMALL_CONFIG["acquisition"],
                                            record_duration_ns=1e19)), ["simulate"], 2),
    "simulate-bad-config": (dict(SMALL_CONFIG, sed=5), ["simulate"], 2),
    "sweep-loss-bad-config": (dict(SMALL_CONFIG, sed=5), ["sweep-loss", "--monte-carlo"], 2),
    "analyze-missing-trace": (SMALL_CONFIG, ["analyze", "missing.trace", "missing.trace"], 4),
    "fit-two-rows": (SMALL_CONFIG, ["fit", "levels.csv"], 2),
    "plan-wdm-zero-width": (SMALL_CONFIG, ["plan-wdm", "--width-ghz", "0"], 2),
}


@pytest.mark.parametrize("a_exists", [False, True], ids=["new-a", "existing-a"])
@pytest.mark.parametrize("case", NESTED_FAILURES)
def test_failure_removes_every_directory_made_for_out(tmp_path, monkeypatch, capsys, case,
                                                      a_exists):
    """A failing command removes --out and every parent that main made for
    it, but never a directory that existed before the run."""
    raw, argv, code = NESTED_FAILURES[case]
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(raw))
    Path("levels.csv").write_text("pump_mw,level_db,branch\n100,-3.2,-1\n300,11.5,1\n")
    if a_exists:
        Path("a").mkdir()
    assert run("--config", "config.json", "--out", tmp_path / "a" / "b" / "c", *argv) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["config.json", "levels.csv"] + ["a"] * a_exists)
    assert not a_exists or not any(Path("a").iterdir())


def test_nested_out_is_made_and_kept(tmp_path, config_path):
    out = tmp_path / "a" / "b" / "c"
    assert run("--config", config_path, "--out", out, "simulate") == 0
    assert sorted(p.name for p in out.iterdir()) == ["shot.trace", "signal.trace",
                                                     "summary.json"]


def test_out_naming_a_file_exit_4_before_the_inputs_are_read(tmp_path, capsys):
    """--out is made before the command runs, so a file in its place fails
    before fit reads its CSV, which does not exist here."""
    out = tmp_path / "out"
    out.write_text("a file")
    assert run("--out", out, "fit", tmp_path / "missing.csv") == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and str(out) in err and "missing.csv" not in err
    assert out.read_text() == "a file"


class TestAnalyze:
    def test_vacuum_self_analysis_is_zero_db(self, tmp_path, config_path, capsys):
        cfg = json.loads(config_path.read_text())
        cfg["chain"]["stages"] = []
        cfg["acquisition"]["frames"] = 32
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        run("--config", config_path, "--out", out, "simulate")
        assert run("--config", config_path, "--out", out, "analyze",
                   out / "signal.trace", out / "shot.trace") == 0
        levels = json.loads((out / "levels.json").read_text())
        assert levels["level_db"] == pytest.approx(0.0, abs=0.3)
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"freq_hz", "power_rel", "power_db"}
        assert (out / "histogram.csv").exists()

    def test_squeezed_level_negative(self, tmp_path, config_path):
        out = tmp_path / "out"
        cfg = json.loads(config_path.read_text())
        cfg["acquisition"]["frames"] = 64
        config_path.write_text(json.dumps(cfg))
        run("--config", config_path, "--out", out, "simulate")
        run("--config", config_path, "--out", out, "analyze",
            out / "signal.trace", out / "shot.trace")
        levels = json.loads((out / "levels.json").read_text())
        assert levels["level_db"] < -1.0

    def test_missing_shot_argument_usage_error(self, tmp_path, config_path):
        with pytest.raises(SystemExit) as info:
            run("--config", config_path, "--out", tmp_path, "analyze", "only.trace")
        assert info.value.code == 2

    def test_corrupt_trace_exit_2(self, tmp_path, config_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"not a trace file at all, nothing to see")
        assert run("--config", config_path, "--out", tmp_path,
                   "analyze", bad, bad) == 2


    @pytest.mark.parametrize("shot_acquisition", [
        {"samples_per_frame": 256}, {"record_duration_ns": 6.4},
    ], ids=["samples", "duration"])
    def test_mismatched_pair_exit_2_before_reading_a_frame(self, tmp_path, config_path,
                                                           capsys, monkeypatch,
                                                           shot_acquisition):
        assert run("--config", config_path, "--out", tmp_path / "sig", "simulate") == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(dict(SMALL_CONFIG, acquisition=dict(
            SMALL_CONFIG["acquisition"], **shot_acquisition))))
        assert run("--config", other, "--out", tmp_path / "shot", "simulate") == 0
        capsys.readouterr()
        read = []
        monkeypatch.setattr(traceio.TraceReader, "chunks", lambda self: read.append(self))
        signal_path = tmp_path / "sig" / "signal.trace"
        shot_path = tmp_path / "shot" / "shot.trace"
        out = tmp_path / "out"
        assert run("--config", config_path, "--out", out, "analyze",
                   signal_path, shot_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(signal_path) in err and str(shot_path) in err
        assert not out.exists() and read == []

    def test_mask_over_the_whole_plateau_exit_2_before_any_output(self, tmp_path,
                                                                 config_path, capsys):
        traces = tmp_path / "traces"
        assert run("--config", config_path, "--out", traces, "simulate") == 0
        masked = tmp_path / "masked.json"
        masked.write_text(json.dumps(dict(SMALL_CONFIG, analysis={"mask_width_ghz": 1e6})))
        out = tmp_path / "out"
        assert run("--config", masked, "--out", out, "analyze",
                   traces / "signal.trace", traces / "shot.trace") == 2
        err = capsys.readouterr().err
        assert "mask_center_ghz, mask_width_ghz" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["signal.trace", "shot.trace"])
    def test_non_finite_sample_exit_2_before_any_output(self, tmp_path, config_path,
                                                         capsys, bad):
        traces = tmp_path / "traces"
        assert run("--config", config_path, "--out", traces, "simulate") == 0
        with open(traces / bad, "r+b") as fh:
            fh.seek(traceio.HEADER_SIZE + 8 * 1000)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        out = tmp_path / "out"
        assert run("--config", config_path, "--out", out, "analyze",
                   traces / "signal.trace", traces / "shot.trace") == 2
        assert f"{traces / bad}: non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_sample_power_exit_2_before_any_output(self, tmp_path, config_path,
                                                              capsys):
        # A finite sample whose square overflows makes the level infinite,
        # which levels.json cannot hold; spectrum.csv must not be left behind.
        traces = tmp_path / "traces"
        assert run("--config", config_path, "--out", traces, "simulate") == 0
        with open(traces / "signal.trace", "r+b") as fh:
            fh.seek(traceio.HEADER_SIZE + 8 * 1000)
            fh.write(np.array([1e200], dtype="<f8").tobytes())
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("--config", config_path, "--out", out, "analyze",
                       traces / "signal.trace", traces / "shot.trace") == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "the level or the plateau statistics are not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow_on_the_worker_thread_prints_no_warning(self, tmp_path, config_path,
                                                            monkeypatch, capsys):
        traces = tmp_path / "traces"
        assert run("--config", config_path, "--out", traces, "simulate") == 0
        with open(traces / "shot.trace", "r+b") as fh:
            fh.seek(traceio.HEADER_SIZE + 8 * 1000)
            fh.write(np.array([1e200], dtype="<f8").tobytes())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("opahd.cli.THREADED_MIN_SAMPLES", 512)
        monkeypatch.setattr(signal_chain, "CHUNK_BYTES", 2 * 8 * 512)   # 8 chunks a file
        readers = set()
        chunks = traceio.TraceReader.chunks

        def recorded(reader):
            readers.add((Path(reader.path).name, threading.current_thread()))
            return chunks(reader)

        monkeypatch.setattr(traceio.TraceReader, "chunks", recorded)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("--config", config_path, "--out", out, "analyze",
                       traces / "signal.trace", traces / "shot.trace") == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        shot_threads = {thread for name, thread in readers if name == "shot.trace"}
        assert shot_threads and threading.main_thread() not in shot_threads
        assert capsys.readouterr().err == ("error: the level or the plateau statistics are "
                                           "not finite: a sample power overflows\n")
        assert not out.exists()


# A trace file's body may take up to this many bytes, so that every fuzzed
# file stays under 64 KiB; a header that implies more gets a shorter body.
FUZZ_BODY_BYTES = 64 * 1024 - traceio.HEADER_SIZE - 8


@st.composite
def _trace_files(draw):
    """(path kind, file bytes): a header, perhaps truncated, with each field
    drawn from values that pass and that fail its check, then a body whose
    length is up to 8 bytes off what the header implies."""
    kind = draw(st.sampled_from(["file"] * 8 + ["directory", "missing"]))
    magic = draw(st.sampled_from([traceio.MAGIC] * 4 + [b"SQZTRACF", bytes(8)]))
    version = draw(st.sampled_from([traceio.VERSION] * 4 + [0, 2, 2 ** 32 - 1]))
    n = draw(st.one_of(st.integers(0, 80), st.sampled_from([512, 2 ** 31, 2 ** 32 - 1])))
    frames = draw(st.one_of(st.integers(0, 12), st.sampled_from([300, 2 ** 32 - 1])))
    interval_fs = draw(st.one_of(st.sampled_from([0, 1, 6250, 2 ** 64 - 1]),
                                 st.integers(0, 2 ** 64 - 1)))
    theta = draw(st.integers(-2 ** 63, 2 ** 63 - 1))
    header = struct.pack(traceio._HEADER_FMT, magic, version, n, frames, interval_fs, theta)
    header = header[:draw(st.sampled_from([traceio.HEADER_SIZE] * 6 + [0, 39, 63]))]
    implied = 8 * n * frames
    if implied <= FUZZ_BODY_BYTES:
        length = max(0, implied + draw(st.sampled_from([0] * 16 + list(range(-8, 9)))))
    else:
        length = draw(st.integers(0, FUZZ_BODY_BYTES))
    scale = draw(st.sampled_from([1.0, 0.0, 1e-300, 1e300]))
    samples = np.random.default_rng(draw(st.integers(0, 2 ** 32))).standard_normal(
        length // 8 + 1) * scale
    samples[draw(st.integers(0, length // 8))] = draw(st.sampled_from(
        [1.0, 0.0, np.nan, np.inf, -np.inf, 1e308]))
    body = samples.astype("<f8").tobytes()[:length]
    return kind, header + body


@settings(max_examples=150, deadline=None)
@given(fuzzed=_trace_files(), position=st.sampled_from(["signal", "shot", "both"]))
def test_fuzzed_trace_header_exits_cleanly(tmp_path_factory, fuzzed, position):
    """analyze of a fuzzed trace file exits 0, 2, 3 (all-zero frames: a
    zero-variance ensemble) or 4 with no traceback, and a failure leaves no
    output directory. A header that implies a large file fails the size check
    before any buffer is made."""
    good = tmp_path_factory.getbasetemp() / "fuzz-good.trace"
    if not good.exists():
        acq = AcquisitionConfig(record_duration=64 * 6.25e-12, samples_per_frame=64,
                                frames=4)
        with traceio.trace_writer(good, acq, 0.0, 4) as write:
            write(np.random.default_rng(0).standard_normal((4, 64)))
    kind, data = fuzzed
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.trace"
        if kind == "file":
            path.write_bytes(data)
        elif kind == "directory":
            path.mkdir()
        signal = path if position != "shot" else good
        shot = path if position != "signal" else good
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("--out", out, "analyze", signal, shot)
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert not out.exists()
        else:
            assert {p.name for p in out.iterdir()} == {"spectrum.csv", "levels.json",
                                                        "histogram.csv"}


class TestFit:
    @staticmethod
    def write_levels(path, big_l=0.29, a=6.0):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pump_mw", "level_db", "branch"])
            for branch in (-1, 1):
                for pump_mw in np.linspace(10, 438, 8):
                    level = pump_curve(pump_mw * 1e-3, big_l, a, branch)
                    writer.writerow([pump_mw, 10 * math.log10(level), branch])

    def test_exact_csv_round_trip(self, tmp_path, capsys):
        path = tmp_path / "levels.csv"
        self.write_levels(path)
        assert run("--out", tmp_path, "fit", path) == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["loss_fraction"] == pytest.approx(0.29, abs=1e-6)
        assert report["gain_coefficient_per_w"] == pytest.approx(6.0, rel=1e-6)
        assert report["squeezing_floor_db"] == pytest.approx(5.376, abs=1e-3)

    def test_empty_csv_usage_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("pump_mw,level_db,branch\n")
        assert run("--out", tmp_path, "fit", path) == 2

    def test_wrong_header_usage_error(self, tmp_path):
        path = tmp_path / "wrong.csv"
        path.write_text("a,b\n1,2\n")
        assert run("--out", tmp_path, "fit", path) == 2

    def test_nan_level_usage_error(self, tmp_path):
        path = tmp_path / "levels.csv"
        self.write_levels(path)
        lines = path.read_text().splitlines()
        pump, _, branch = lines[3].split(",")
        lines[3] = f"{pump},nan,{branch}"
        path.write_text("\n".join(lines) + "\n")
        assert run("--out", tmp_path, "fit", path) == 2
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("row, fields", [("200", 1), ("200,-4", 2), ("200,-4,-1,7", 4)])
    def test_row_field_count_exit_2(self, tmp_path, capsys, row, fields):
        path = tmp_path / "levels.csv"
        path.write_text(f"pump_mw,level_db,branch\n0,0,-1\n100,-3,-1\n{row}\n300,-5,-1\n")
        assert run("--out", tmp_path / "out", "fit", path) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 4 has {fields} fields where the header has 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, message", [("100,-3,x", "invalid literal for int()"),
                                              ("100,1e5,-1", "Numerical result out of range")])
    def test_unparsable_field_names_line_exit_2(self, tmp_path, capsys, row, message):
        path = tmp_path / "levels.csv"
        path.write_text(f"pump_mw,level_db,branch\n0,0,-1\n{row}\n300,-5,-1\n")
        assert run("--out", tmp_path / "out", "fit", path) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3: " in err and message in err
        assert not (tmp_path / "out").exists()

    def test_negative_pump_exit_2(self, tmp_path, capsys):
        path = tmp_path / "levels.csv"
        path.write_text("pump_mw,level_db,branch\n0,0,-1\n100,-3,-1\n-200,-4,-1\n300,-5,-1\n")
        assert run("--out", tmp_path / "out", "fit", path) == 2
        assert "point 2 has -0.2 W" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_trial_steps_leave_stderr_empty(self, tmp_path):
        # A fit of this anti-squeezing curve succeeds, so the run must print
        # none of numpy's warnings. The search's points where exp overflows
        # are those of test_non_finite_result_exit_3, which runs in-process
        # with warnings as errors.
        path = tmp_path / "levels.csv"
        path.write_text("pump_mw,level_db,branch\n11,-4.76,1\n158,-0.56,1\n442,5.19,1\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        child = subprocess.run([sys.executable, "-W", "default", "-m", "opahd.cli",
                                "--out", tmp_path / "out", "fit", path],
                               env=env, capture_output=True, text=True)
        assert child.returncode == 0
        assert child.stderr == ""
        assert (tmp_path / "out" / "fit.json").exists()

    def test_non_finite_result_exit_3(self, tmp_path, capsys):
        # Two points at zero pump and one at 1e-300 W: JᵀJ is singular, so the
        # covariance is NaN. The grid for so small a pump reaches a past
        # float range, where exp overflows.
        path = tmp_path / "levels.csv"
        path.write_text("pump_mw,level_db,branch\n0,0,-1\n0,0,1\n1e-297,0,-1\n")
        assert run("--out", tmp_path / "out", "fit", path) == 3
        assert "fit result covariance is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nonconvergence_exit_3(self, tmp_path, capsys, monkeypatch):
        # FitConvergenceError is an ArithmeticError, which main reports as a
        # numeric failure.
        def stalls(points):
            raise FitConvergenceError("no convergence after 200 iterations", np.zeros(2), 1.0)

        monkeypatch.setattr(ana, "fit_pump_curve", stalls)
        path = tmp_path / "levels.csv"
        path.write_text("pump_mw,level_db,branch\n100,-3.2,-1\n300,-4.6,-1\n300,11.5,1\n")
        assert run("--out", tmp_path / "out", "fit", path) == 3
        assert capsys.readouterr().err == "numeric failure: no convergence after 200 iterations\n"
        assert not (tmp_path / "out").exists()


_FUZZED_FIELDS = st.one_of(
    st.sampled_from(["", "x", "nan", "-nan", "inf", "-inf", "1e308", "1e400", "-1e400",
                     "-0", "0", "1.5", "0x10", " 2 ", "1_0"]),
    st.floats().map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str))


@st.composite
def _levels_rows(draw):
    """Rows of a levels CSV: points on a pump curve, about one row in four
    with fuzzed fields, and some rows short of or past three fields."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        pump_mw = draw(st.floats(0, 500))
        branch = draw(st.sampled_from([-1, 1]))
        level_db = 10 * math.log10(pump_curve(pump_mw * 1e-3, 0.29, 6.0, branch))
        row = [repr(pump_mw), repr(level_db), str(branch)]
        if draw(st.integers(0, 3)) == 0:
            for i in draw(st.sets(st.integers(0, 2), min_size=1)):
                row[i] = draw(_FUZZED_FIELDS)
        width = draw(st.sampled_from([3] * 16 + [1, 2, 4]))
        rows.append(",".join((row + [draw(_FUZZED_FIELDS)])[:width]))
    return "".join(row + "\n" for row in rows)


@settings(max_examples=150, deadline=None)
@given(rows=_levels_rows())
@example(rows="42095358.0,0.0,1\n421.0,12.39,1\n7.0,-1.18,-1\n")
@example(rows="1e308,-0.47,-1\n0.0,0.0,-1\n0.0,0.0,-1\n")
def test_fuzzed_levels_csv_exits_cleanly(rows):
    """fit of a fuzzed levels CSV exits 0, 2 or 3 with no traceback, and a
    failure leaves no fit.json and no output directory. The examples are
    pumps of kilowatts and more, whose fit warned before its exit 3."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "levels.csv"
        path.write_text("pump_mw,level_db,branch\n" + rows)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("--out", out, "fit", path)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert not out.exists()
        else:
            assert {p.name for p in out.iterdir()} == {"fit.json"}


# A valid config of 4 frames of 64 samples with every key written out.
FUZZ_CONFIG = {
    "seed": 5,
    "chain": {"lo_phase_rad": 0.0, "stages": [
        {"kind": "squeeze", "r": 1.0},
        {"kind": "psa", "gain_db": 35.0, "eta_opa": 0.79},
        {"kind": "loss", "eta": 0.076}]},
    "acquisition": {"record_duration_ns": 0.4, "samples_per_frame": 64, "frames": 4,
                    "photocurrent_ma": 3.0, "clearance_at_43ghz_db": 20.0},
    "response": {"detector_f3db_ghz": 43.0, "scope_cutoff_ghz": 63.0, "filter_order": 4},
    "analysis": {"mask_center_ghz": 34.0, "mask_width_ghz": 1.0, "histogram_bins": 20,
                 "window": "hann"},
}
_SECTIONS = ("acquisition", "response", "analysis")
_STAGES = [("chain", "stages", i) for i in range(3)]
_KINDS = [(*stage, "kind") for stage in _STAGES]
_PARAMS = [(*_STAGES[0], "r"), (*_STAGES[1], "gain_db"), (*_STAGES[1], "eta_opa"),
           (*_STAGES[2], "eta")]
_CLEARANCE = ("acquisition", "clearance_at_43ghz_db")
# FUZZ_CONFIG's keys by path: those that take any float; the counts that the
# trace header bounds; the integers that take any large value, which only
# wrong types and non-finite values make invalid; and the strings.
_FLOAT_PATHS = [("chain", "lo_phase_rad"), *_PARAMS,
                *[(section, key) for section in _SECTIONS
                  for key, value in FUZZ_CONFIG[section].items()
                  if isinstance(value, float) and (section, key) != _CLEARANCE]]
_COUNT_PATHS = [("acquisition", "samples_per_frame"), ("acquisition", "frames")]
_INT_PATHS = [("seed",), ("response", "filter_order"), ("analysis", "histogram_bins")]
_STRING_PATHS = [("analysis", "window"), *_KINDS]
_OPTIONAL_PATHS = [("seed",), ("chain", "lo_phase_rad"),
                   *[(section, key) for section in _SECTIONS for key in FUZZ_CONFIG[section]]]
_WRONG_TYPES = st.sampled_from(["abc", "0.4", True, False, [], [1.0], {}, {"x": 1}])
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Keys that no table lists, anywhere a config holds keys: the top level,
# chain, a stage and each section.
_UNKNOWN_KEYS = [(*where, name)
                 for where in [(), ("chain",), _STAGES[1], *[(s,) for s in _SECTIONS]]
                 for name in ["extra", "note", "Frames", "seed_", "bins", "lo_phase"]]
# Each change makes any config invalid: a path and the value it gets.
_INVALID_CHANGES = st.one_of(
    st.tuples(st.sampled_from(_UNKNOWN_KEYS),
              st.one_of(st.none(), st.integers(-9, 9), st.text(max_size=3))),
    st.tuples(st.sampled_from(_FLOAT_PATHS + _COUNT_PATHS + _INT_PATHS + _STRING_PATHS),
              _WRONG_TYPES | st.none()),
    st.tuples(st.just(_CLEARANCE), _WRONG_TYPES),
    st.tuples(st.sampled_from(_FLOAT_PATHS + _COUNT_PATHS + _INT_PATHS + [_CLEARANCE]),
              _NON_FINITE),
    st.tuples(st.sampled_from(_COUNT_PATHS),
              st.integers(2 ** 32, 2 ** 256) | st.integers(-2 ** 64, 0)),
    st.tuples(st.sampled_from(_FLOAT_PATHS),
              st.integers(10 ** 309, 10 ** 400).map(lambda x: x * (-1) ** x)),
    st.tuples(st.sampled_from(_KINDS), st.sampled_from(["gain", "", "PSA", "squeezer"])),
    st.tuples(st.sampled_from(_STAGES), st.sampled_from(["loss", 1, ["loss", 0.5], None])),
    st.sampled_from([(path, value) for path, values in zip(
        _PARAMS, [(-1e6, 1e6), (-1.0, 1e6), (-0.5, 1.5), (-0.5, 1.5)]) for value in values]),
    st.tuples(st.sampled_from(_KINDS + _PARAMS), st.just("drop")),
    st.tuples(st.sampled_from([("chain",), *[(section,) for section in _SECTIONS],
                               ("chain", "stages")]), st.sampled_from(["abc", 1, None])))


def _at(cfg, path):
    """The container of path's last key, or None where the fuzz has already
    put something else on the way, or the list is too short."""
    parent = None
    for key in path:
        if not (isinstance(cfg, dict) and isinstance(key, str)
                or isinstance(cfg, list) and isinstance(key, int) and key < len(cfg)):
            return None
        parent, cfg = cfg, cfg.get(key) if isinstance(cfg, dict) else cfg[key]
    return parent


@st.composite
def _invalid_configs(draw):
    """FUZZ_CONFIG with optional keys dropped, which leaves it valid, then one
    to three changes each of which makes it invalid: a wrong type, a
    non-finite number, a huge integer, a bad stage, a section that is not an
    object, or a key that no table lists."""
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    for path in draw(st.lists(st.sampled_from(_OPTIONAL_PATHS), max_size=4)):
        _at(cfg, path).pop(path[-1], None)
    for path, value in draw(st.lists(_INVALID_CHANGES, min_size=1, max_size=3)):
        parent = _at(cfg, path)
        if parent is not None and value == "drop":
            parent.pop(path[-1], None)
        elif parent is not None:
            parent[path[-1]] = value
    if draw(st.sampled_from([False] * 19 + [True])):
        cfg = draw(st.sampled_from([[], "abc", 1, None]))      # not an object at all
    return cfg


@settings(max_examples=150, deadline=None)
@given(raw=_invalid_configs(),
       command=st.sampled_from([["simulate"], ["sweep-loss", "--monte-carlo"],
                                ["analyze", "signal.trace", "shot.trace"]]))
def test_fuzzed_config_exits_2_before_any_output(raw, command):
    """A config with a wrong type, a non-finite number, a huge integer, a bad
    stage, a section that is not an object or an unknown key fails at load,
    with a one-line error, exit 2 and no output directory, however its
    optional keys are dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        # So that no command below gets past its config, whatever sizes it names.
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("--config", path, "--out", out, *command)
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not out.exists()


# Values for the flags of sweep-loss and plan-wdm as (valid, invalid or
# extreme). The plan-wdm values hold a plan to at most 300 pairs, or are
# rejected before any pair is built.
_SWEEP_VALUES = {
    "--added-loss": (["0", "0.5", "0.99"], ["1", "-0.1", "nan", "inf", "1e400", "abc", ""]),
    "--gains-db": (["0", "35"], ["-5", "1541.4", "nan", "inf", "x", ""]),
}
_MC_FRAMES = (["2", "64"], ["-1", "0", "1", "2.5", "x"])
_PLAN_VALUES = {
    "--carrier-thz": (["194"], ["0", "-1", "1e400", "nan", "abc"]),
    "--spacing-ghz": (["100", "10"], ["1e-300", "0", "-1", "inf", "abc"]),
    "--width-ghz": (["100", "50"], ["0", "200", "nan", "abc"]),
    "--bandwidth-thz": (["6", "1", "0"], ["1e-300", "-1", "inf", "abc"]),
    "--guard-ghz": (["0", "10"], ["-1", "1e300", "nan", "abc"]),
}


@st.composite
def _sweep_and_plan_argv(draw):
    """sweep-loss with at most 2 × 2 points and 64 Monte-Carlo frames, or
    plan-wdm with each flag omitted or given; most values drawn are valid."""
    def value(pool):
        valid, invalid = pool
        return draw(st.sampled_from(valid * 4 + invalid))

    if draw(st.booleans()):
        argv = ["sweep-loss", f"--mc-frames={value(_MC_FRAMES)}"]
        argv += [f"{flag}={','.join(value(pool) for _ in range(draw(st.integers(1, 2))))}"
                 for flag, pool in _SWEEP_VALUES.items()]
        return argv + ["--monte-carlo"] * draw(st.integers(0, 1))
    argv = ["plan-wdm"] + ["--grid-aligned"] * draw(st.integers(0, 1))
    return argv + [f"{flag}={value(pool)}" for flag, pool in _PLAN_VALUES.items()
                   if draw(st.booleans())]


@settings(max_examples=100, deadline=None)
@given(argv=_sweep_and_plan_argv())
def test_fuzzed_sweep_and_plan_arguments_exit_cleanly(argv):
    """sweep-loss and plan-wdm exit 0, 2, 3 or 4 on any of their arguments,
    with no traceback, and a failure leaves no output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(FUZZ_CONFIG))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = run("--config", path, "--out", out, *argv)
            except SystemExit as stop:      # argparse's usage errors
                code = stop.code
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert not out.exists()
        else:
            assert {p.name for p in out.iterdir()} == (
                {"sweep.csv"} if argv[0] == "sweep-loss" else {"plan.json", "plan.csv"})


class TestSweepLoss:
    def test_table_columns_and_shape(self, tmp_path, config_path):
        assert run("--config", config_path, "--out", tmp_path, "sweep-loss",
                   "--added-loss", "0,0.5,0.9", "--gains-db", "0,35") == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"gain_db", "added_loss", "squeezing_db_oracle",
                                "squeezing_db_mc"}
        high_gain = [r for r in rows if r["gain_db"] == "35.0"]
        spread = (float(high_gain[-1]["squeezing_db_oracle"])
                  - float(high_gain[0]["squeezing_db_oracle"]))
        assert 0.0 < spread < 1.0

    def test_bad_grid_exit_2(self, tmp_path, config_path):
        assert run("--config", config_path, "--out", tmp_path, "sweep-loss",
                   "--added-loss", "0,1.0") == 2

    def test_chain_without_loss_after_the_psa_exit_2(self, tmp_path, capsys):
        stages = [{"kind": "loss", "eta": 0.5},
                  {"kind": "psa", "gain_db": 35.0, "eta_opa": 0.79}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, chain={"stages": stages})))
        assert run("--config", path, "--out", tmp_path / "out", "sweep-loss") == 2
        assert capsys.readouterr().err == (
            "error: sweep chain must contain a loss stage after the psa\n")
        assert not (tmp_path / "out").exists()

    def test_omitted_flags_keep_the_library_defaults(self, tmp_path, config_path,
                                                     monkeypatch):
        calls = []
        sweep = ana.loss_sweep

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(ana, "loss_sweep", recording)
        assert run("--config", config_path, "--out", tmp_path, "sweep-loss",
                   "--added-loss", "0,0.5") == 0
        assert "gains_db" not in calls[0] and "mc_frames" not in calls[0]
        with open(tmp_path / "sweep.csv", newline="") as fh:
            assert {row["gain_db"] for row in csv.DictReader(fh)} == {"0.0", "35.0"}
        assert run("--config", config_path, "--out", tmp_path, "sweep-loss") == 0
        assert "added_loss_grid" not in calls[1]
        with open(tmp_path / "sweep.csv", newline="") as fh:
            losses = [row["added_loss"] for row in csv.DictReader(fh)]
        assert losses == [f"0.{i}" for i in range(10)] * 2

    @pytest.mark.parametrize("flag", ["--added-loss", "--gains-db"])
    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_grid_exit_2_before_any_output(self, tmp_path, config_path, capsys,
                                                  flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run("--config", config_path, "--out", out, "sweep-loss", flag, value)
        assert info.value.code == 2
        assert "expected at least one number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frames", ["0", "1", "-3"])
    def test_too_few_mc_frames_exit_2_before_synthesis(self, tmp_path, config_path,
                                                        monkeypatch, capsys, frames):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(signal_chain, "frame_seed", no_synthesis)
        assert run("--config", config_path, "--out", tmp_path, "sweep-loss",
                   "--monte-carlo", "--mc-frames", frames) == 2
        err = capsys.readouterr().err
        assert "mc_frames must be an integer >= 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_overflowing_frame_variances_sweep_without_warning(self, tmp_path, capsys):
        """At 1e300 mA the frame variances' deviations overflow when squared.
        The sweep uses only the mean-based level and prints no warning;
        analyze turns the infinite error into exit 2."""
        acquisition = dict(SMALL_CONFIG["acquisition"], photocurrent_ma=1e300)
        path = tmp_path / "bright.json"
        path.write_text(json.dumps(dict(SMALL_CONFIG, acquisition=acquisition)))
        out = tmp_path / "out"
        assert run("--config", path, "--out", out, "sweep-loss", "--monte-carlo",
                   "--mc-frames", "4") == 0
        assert capsys.readouterr().err == ""
        assert run("--config", path, "--out", out, "simulate") == 0
        assert run("--config", path, "--out", out / "analysis", "analyze",
                   out / "signal.trace", out / "shot.trace") == 2
        assert "the level or the plateau statistics are not finite" in capsys.readouterr().err


class TestPlanWdm:
    def test_default_plan(self, tmp_path, capsys):
        assert run("--out", tmp_path, "plan-wdm") == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert len(plan["pairs"]) == 30
        assert (tmp_path / "plan.csv").exists()
        assert "30 channel pairs" in capsys.readouterr().out

    def test_infeasible_plan_reports_diagnostic(self, tmp_path, capsys):
        assert run("--out", tmp_path, "plan-wdm", "--bandwidth-thz", "0") == 0
        assert "empty plan" in capsys.readouterr().out

    def test_omitted_flags_keep_the_library_defaults(self, tmp_path, monkeypatch):
        calls = []
        plan_bands_ = wdm.plan_bands

        def recording(**kwargs):
            calls.append(kwargs)
            return plan_bands_(**kwargs)

        monkeypatch.setattr(wdm, "plan_bands", recording)
        assert run("--out", tmp_path, "plan-wdm") == 0
        assert run("--out", tmp_path, "plan-wdm", "--spacing-ghz", "50") == 0
        assert calls == [{"grid_aligned": False},
                         {"grid_aligned": False, "channel_spacing": 50e9}]

    @pytest.mark.parametrize("flag, name", [("--carrier-thz", "carrier_f"),
                                            ("--spacing-ghz", "channel_spacing"),
                                            ("--width-ghz", "channel_width"),
                                            ("--bandwidth-thz", "source_bandwidth"),
                                            ("--guard-ghz", "guard")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_argument_exit_2(self, tmp_path, capsys, flag, name, value):
        assert run("--out", tmp_path, "plan-wdm", flag, value) == 2
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_spacing_too_fine_exit_2(self, tmp_path, capsys):
        # Never run at a commit without the pair bound: it builds the list unbounded.
        assert run("--out", tmp_path, "plan-wdm", "--spacing-ghz", "1e-300") == 2
        err = capsys.readouterr().err
        assert "more than 1048576 channel pairs" in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("write", [
    lambda path: write_json(path, replace(plan_bands(), carrier_f=math.nan).to_dict()),
    lambda path: traceio.write_csv(path, ["x"], ([float(x)] for x in ("1", "x"))),
], ids=["write_json", "write_csv"])
def test_failed_write_keeps_old_file(tmp_path, write):
    path = tmp_path / "out"
    path.write_text("old\n")
    with pytest.raises(ValueError):
        write(path)
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


_stages = st.one_of(
    st.builds(squeeze, st.floats(-3.0, 3.0)),
    st.builds(loss, st.floats(0.0, 1.0)),
    st.builds(phase, st.floats(-math.pi, math.pi)),
    st.builds(psa, st.floats(0.0, 60.0), st.floats(0.0, 1.0)),
)


def _in(unit: float, lo: float, hi: float):
    """A value stated in a config file's unit, scaled to SI as from_dict
    scales it. Not every float64 is such a value: see
    test_duration_off_the_ns_grid_round_trips."""
    return st.floats(lo, hi).map(lambda v: v * unit)


_configs = st.builds(
    ExperimentConfig,
    chain=st.builds(ChainModel, stages=st.lists(_stages, max_size=5).map(tuple),
                    lo_phase=st.floats(-math.pi, math.pi)),
    acquisition=st.builds(
        AcquisitionConfig,
        record_duration=_in(1e-9, 1e-3, 1e6),
        samples_per_frame=st.integers(2, 1 << 20),
        frames=st.integers(1, 1 << 20),
        photocurrent=_in(1e-3, 1e-3, 1e3),
        clearance_at_43ghz_db=st.none() | st.floats(-100.0, 100.0)),
    response=st.builds(FrequencyResponse, detector_f3db=_in(1e9, 1e-3, 1e3),
                       scope_cutoff=_in(1e9, 1e-3, 1e3), filter_order=st.integers(1, 16)),
    analysis=st.builds(AnalysisOptions),
    seed=st.integers(0, 2 ** 63 - 1),
)


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(_configs)
    def test_random_config_dump_load(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        write_json(path, cfg.to_dict())
        assert ExperimentConfig.load(path) == cfg

    @pytest.mark.xfail(strict=True, reason="no float64 number of ns times 1e-9 is 1e-12")
    def test_duration_off_the_ns_grid_round_trips(self):
        cfg = ExperimentConfig(acquisition=AcquisitionConfig(record_duration=1e-12))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_omitted_fields_take_dataclass_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()

    def test_parse_serialize_parse(self):
        cfg = ExperimentConfig.from_dict(SMALL_CONFIG)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dump_load(self, tmp_path):
        cfg = ExperimentConfig.from_dict(SMALL_CONFIG)
        path = tmp_path / "cfg.json"
        write_json(path, cfg.to_dict())
        assert ExperimentConfig.load(path) == cfg

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_environment_sets_no_flag(tmp_path, config_path, monkeypatch):
    """Only the flags set --config, --seed and --out: variables named after
    them change no byte and make no directory."""
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(SMALL_CONFIG, seed=5)))
    assert run("--config", config_path, "--out", tmp_path / "plain", "simulate") == 0
    monkeypatch.setenv("OPAHD_OUT", str(tmp_path / "env_out"))
    monkeypatch.setenv("OPAHD_CONFIG", str(other))
    monkeypatch.setenv("OPAHD_SEED", "9")
    assert run("--config", config_path, "--out", tmp_path / "env", "simulate") == 0
    for name in ("signal.trace", "shot.trace", "summary.json"):
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "env", "other.json", "plain"]
