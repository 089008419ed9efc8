"""Frequency-band pairing for a multi-core homodyne processor.

Partitions a broadband squeezed spectrum into upper/lower sideband channel
pairs symmetric about the carrier, each pair feeding one independent
measurement chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

MEASUREMENT_BANDWIDTH_HZ = 43e9  # detection chain 3-dB bandwidth
MAX_PAIRS = 1 << 20


@dataclass(frozen=True)
class BandPlan:
    carrier_f: float
    channel_spacing: float
    channel_width: float
    source_bandwidth: float
    guard: float
    pairs: tuple  # ((lower_center, upper_center), ...) ordered by offset
    diagnostic: str = ""

    @property
    def usable_clock_hz(self) -> float:
        """Per-pair processor clock limit: channel width capped by the
        measurement bandwidth."""
        return min(self.channel_width, MEASUREMENT_BANDWIDTH_HZ)

    def to_dict(self) -> dict:
        return {
            "carrier_hz": self.carrier_f,
            "channel_spacing_hz": self.channel_spacing,
            "channel_width_hz": self.channel_width,
            "source_bandwidth_hz": self.source_bandwidth,
            "guard_hz": self.guard,
            "usable_clock_hz": self.usable_clock_hz,
            "pairs": [
                {"pair_index": i, "lower_hz": lo, "upper_hz": hi,
                 "width_hz": self.channel_width}
                for i, (lo, hi) in enumerate(self.pairs)
            ],
            "diagnostic": self.diagnostic,
        }


def plan_bands(carrier_f: float = 194.0e12, channel_spacing: float = 100e9,
               channel_width: float | None = None, source_bandwidth: float = 6e12,
               guard: float = 0.0, grid_aligned: bool = False) -> BandPlan:
    """Maximal set of symmetric, non-overlapping sideband channel pairs.

    Pair k has sideband centers carrier ± offset_k. Offsets start at
    guard + width/2 (skipping the carrier/locking region) and advance by
    the channel spacing; every channel must fit inside the source band.
    With grid_aligned, offsets snap up to multiples of the spacing.

    Every argument must be finite. A plan holds at most MAX_PAIRS = 2**20
    pairs; a geometry with more is rejected before any pair is built.
    """
    given = dict(carrier_f=carrier_f, channel_spacing=channel_spacing,
                 channel_width=channel_width, source_bandwidth=source_bandwidth, guard=guard)
    for name, value in given.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if carrier_f <= 0 or channel_spacing <= 0:
        raise ValueError("carrier and spacing must be positive")
    if guard < 0:
        raise ValueError("guard must be >= 0")
    if source_bandwidth < 0:
        raise ValueError("source bandwidth must be >= 0")
    width = channel_spacing if channel_width is None else channel_width
    if width <= 0 or width > channel_spacing:
        raise ValueError("channel width must be in (0, spacing]")

    half_band = source_bandwidth / 2.0
    first = guard + width / 2.0
    # An offset of more than float64's range of spacings stays where it is:
    # snapping it would move it by less than its own rounding.
    if grid_aligned and math.isfinite(first / channel_spacing):
        first = max(math.ceil(first / channel_spacing - 1e-12), 1) * channel_spacing

    # slack absorbs float rounding when the geometry tiles the band exactly
    slack = 1e-9 * max(channel_spacing, 1.0)
    room = half_band - first - width / 2.0
    steps = room / channel_spacing + 1e-9
    if steps >= MAX_PAIRS:
        raise ValueError(f"the source band holds more than {MAX_PAIRS} channel pairs "
                         f"at a channel_spacing of {channel_spacing:.3e} Hz")
    count = int(steps) + 1 if room >= -slack else 0
    pairs = [(carrier_f - (first + k * channel_spacing),
              carrier_f + (first + k * channel_spacing)) for k in range(count)]
    diagnostic = "" if pairs else (
        f"no feasible pairs: first channel needs offset {first:.3e} Hz + "
        f"half-width {width / 2:.3e} Hz inside half-band {half_band:.3e} Hz")
    return BandPlan(
        carrier_f=carrier_f,
        channel_spacing=channel_spacing,
        channel_width=width,
        source_bandwidth=source_bandwidth,
        guard=guard,
        pairs=tuple(pairs),
        diagnostic=diagnostic,
    )
