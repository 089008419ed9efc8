"""Trace file I/O.

Binary layout: 64-byte little-endian header, then frames × samples float64.

    offset  size  field
    0       8     magic "SQZTRACE"
    8       4     format version (uint32, currently 1)
    12      4     samples_per_frame (uint32)
    16      4     frames (uint32)
    20      8     sample interval in femtoseconds (uint64)
    28      8     LO phase theta in microradians (int64)
    36      28    reserved (zero)
"""
from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .signal_chain import AcquisitionConfig, Ensemble

MAGIC = b"SQZTRACE"
VERSION = 1
HEADER_SIZE = 64
_HEADER_FMT = "<8sIIIQq28x"


class TraceFormatError(ValueError):
    """Raised when a trace file fails header or size validation."""


def write_traces(path: str | Path, ens: Ensemble) -> None:
    """Write an ensemble; the samples go out straight from its block."""
    if len(ens) == 0:
        raise ValueError("no frames to write")
    acq = ens.config
    header = struct.pack(
        _HEADER_FMT, MAGIC, VERSION,
        acq.samples_per_frame, len(ens),
        round(acq.sample_interval * 1e15),
        round(ens.theta * 1e6),
    )
    data = ens.samples.astype("<f8", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.data)


def read_traces(path: str | Path) -> tuple[np.ndarray, dict]:
    """Load a trace file; returns (frames × samples array, header metadata)."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise TraceFormatError(f"{path}: file shorter than header")
        magic, version, n_samples, n_frames, dt_fs, theta_urad = struct.unpack(
            _HEADER_FMT, head)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        expected = HEADER_SIZE + 8 * n_samples * n_frames
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TraceFormatError(
                f"{path}: size {size} does not match header ({expected} expected)")
        count = n_samples * n_frames
        data = np.fromfile(fh, dtype="<f8", count=count)
    if data.size != count:
        raise TraceFormatError(f"{path}: truncated while reading")
    meta = {
        "version": version,
        "samples_per_frame": int(n_samples),
        "frames": int(n_frames),
        "sample_interval_s": dt_fs * 1e-15,
        "theta_rad": theta_urad * 1e-6,
    }
    return data.reshape(n_frames, n_samples), meta


def records_from_array(data: np.ndarray, meta: dict,
                       config: AcquisitionConfig | None = None) -> Ensemble:
    """Wrap a loaded array as an Ensemble without copying it."""
    if config is None:
        n = meta["samples_per_frame"]
        config = AcquisitionConfig(
            record_duration=n * meta["sample_interval_s"],
            samples_per_frame=n,
            frames=meta["frames"],
        )
    return Ensemble(samples=data, config=config, theta=meta["theta_rad"])
