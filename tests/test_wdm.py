"""Sideband pair planning: symmetry, non-overlap, monotonicity."""
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahd import wdm
from opahd.cli import main
from opahd.wdm import plan_bands


def channel_intervals(plan):
    half = plan.channel_width / 2.0
    out = []
    for lo, hi in plan.pairs:
        out.append((lo - half, lo + half))
        out.append((hi - half, hi + half))
    return sorted(out)


def assert_plan_invariants(plan):
    for lo, hi in plan.pairs:
        assert lo + hi == pytest.approx(2 * plan.carrier_f, rel=1e-12)
    intervals = channel_intervals(plan)
    # slack covers float rounding only; real overlaps are fractions of a spacing
    tol = 1e-6 * plan.channel_spacing + 1e-9 * plan.carrier_f
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        assert a1 <= b0 + tol
    half_band = plan.source_bandwidth / 2.0
    for a0, a1 in intervals:
        assert a0 >= plan.carrier_f - half_band - tol
        assert a1 <= plan.carrier_f + half_band + tol


class TestDefaults:
    def test_thirty_pairs(self):
        plan = plan_bands()
        assert len(plan.pairs) == 30
        assert_plan_invariants(plan)

    def test_usable_clock_capped_by_measurement_bandwidth(self):
        plan = plan_bands()
        assert plan.usable_clock_hz == 43e9
        narrow = plan_bands(channel_spacing=25e9)
        assert narrow.usable_clock_hz == 25e9

    def test_zero_bandwidth_empty(self):
        plan = plan_bands(source_bandwidth=0.0)
        assert plan.pairs == ()
        assert plan.diagnostic != ""

    def test_guard_skips_carrier_region(self):
        plan = plan_bands(guard=200e9)
        assert len(plan.pairs) == 28
        lowest_offset = plan.pairs[0][1] - plan.carrier_f
        assert lowest_offset - plan.channel_width / 2 >= 200e9

    def test_grid_aligned(self):
        plan = plan_bands(guard=120e9, grid_aligned=True)
        for lo, hi in plan.pairs:
            offset = hi - plan.carrier_f
            assert offset % plan.channel_spacing == pytest.approx(0.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_bands(channel_spacing=0.0)
        with pytest.raises(ValueError):
            plan_bands(channel_width=150e9)  # wider than spacing
        with pytest.raises(ValueError):
            plan_bands(guard=-1.0)

    @pytest.mark.parametrize("name", ["carrier_f", "channel_spacing", "channel_width",
                                      "source_bandwidth", "guard"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            plan_bands(**{name: value})

    def test_pair_count_bounded_before_the_list_is_built(self, monkeypatch):
        monkeypatch.setattr(wdm, "MAX_PAIRS", 30)
        assert len(plan_bands().pairs) == 30
        monkeypatch.setattr(wdm, "MAX_PAIRS", 29)
        with pytest.raises(ValueError, match="more than 29 channel pairs"):
            plan_bands()

    def test_grid_aligned_offset_past_float_range_of_spacings(self):
        # guard / spacing overflows float64; nothing fits the 1 Hz band
        plan = plan_bands(channel_spacing=1e-300, guard=1e10, source_bandwidth=1.0,
                          grid_aligned=True)
        assert plan.pairs == ()


class TestMonotonicity:
    def test_pair_count_nonincreasing_in_guard(self):
        counts = [len(plan_bands(guard=g * 1e9).pairs) for g in range(0, 3000, 100)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_pair_count_nonincreasing_in_spacing(self):
        counts = [len(plan_bands(channel_spacing=s * 1e9).pairs)
                  for s in (50, 100, 150, 200, 400)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


@settings(max_examples=300, deadline=None)
@given(
    carrier=st.floats(1e12, 500e12),
    spacing=st.floats(1e9, 1e12),
    width_frac=st.floats(0.1, 1.0),
    bandwidth=st.floats(0.0, 20e12),
    guard=st.floats(0.0, 2e12),
)
def test_random_geometry_invariants(carrier, spacing, width_frac, bandwidth, guard):
    plan = plan_bands(carrier_f=carrier, channel_spacing=spacing,
                      channel_width=width_frac * spacing,
                      source_bandwidth=bandwidth, guard=guard)
    assert_plan_invariants(plan)


class TestExport:
    def test_json(self, tmp_path):
        assert main(["--out", str(tmp_path), "plan-wdm"]) == 0
        text = (tmp_path / "plan.json").read_text()
        assert text.endswith("}\n")
        data = json.loads(text)
        assert data == {"schema_version": 1, **plan_bands().to_dict()}
        assert len(data["pairs"]) == 30
        assert data["pairs"][0]["lower_hz"] + data["pairs"][0]["upper_hz"] == \
            pytest.approx(2 * 194.0e12)

    def test_csv(self, tmp_path):
        assert main(["--out", str(tmp_path), "plan-wdm"]) == 0
        with open(tmp_path / "plan.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert set(rows[0]) == {"pair_index", "lower_hz", "upper_hz", "width_hz"}
        for i, (row, (lo, hi)) in enumerate(zip(rows, plan_bands().pairs)):
            assert row == {"pair_index": str(i), "lower_hz": f"{lo:.6f}",
                           "upper_hz": f"{hi:.6f}", "width_hz": f"{100e9:.6f}"}


def test_package_root_and_wdm_load_no_numpy():
    """The package root holds only __version__, so importing it and the
    pure-Python wdm module in a fresh interpreter loads no numpy."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    child = subprocess.run(
        [sys.executable, "-c", "import sys, opahd, opahd.wdm\n"
         "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
         "assert isinstance(opahd.__version__, str)"],
        env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
