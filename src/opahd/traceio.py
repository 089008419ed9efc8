"""Trace file I/O, whole or chunk by chunk, and atomic output files.

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

import csv
import errno
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .signal_chain import AcquisitionConfig, Ensemble, frame_rows

MAGIC = b"SQZTRACE"
VERSION = 1
HEADER_SIZE = 64
_HEADER_FMT = "<8sIIIQq28x"


class TraceFormatError(ValueError):
    """Raised when a trace file fails header or size validation."""


@contextmanager
def atomic_output(path: str | Path, mode: str = "w", **open_args):
    """Open a temporary file beside path for writing. When the block ends
    normally the file replaces path through os.replace; when it raises, the
    temporary file is removed and path keeps what it held."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj: dict) -> None:
    """Write obj as indented JSON through atomic_output, refusing NaN."""
    with atomic_output(path) as fh:
        fh.write(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write the header and then each of rows as CSV through atomic_output."""
    with atomic_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def trace_writer(path: str | Path, config: AcquisitionConfig, theta: float, frames: int):
    """Write a trace file of `frames` frames chunk by chunk.

    Yields a function that appends one rows × samples_per_frame chunk. The
    header is packed up front; the file appears under path, through
    atomic_output, only when the block ends with all frames written.
    """
    if not 1 <= frames < 2 ** 32:
        raise ValueError(f"a trace file holds 1 to 2**32 - 1 frames, not {frames}")
    interval_fs = config.sample_interval * 1e15
    if not 0.5 < interval_fs < 2 ** 64:         # rounds to 1 .. 2**64 - 1 fs
        raise ValueError(
            f"record_duration gives a sample interval of {config.sample_interval:.3e} s; "
            f"the trace header holds 1 fs to 2**64 - 1 fs")
    n = config.samples_per_frame
    header = struct.pack(_HEADER_FMT, MAGIC, VERSION, n, frames, round(interval_fs),
                         round(theta * 1e6))
    with atomic_output(path, "wb") as fh:
        # Reserve the whole file first: ext4 then allocates its blocks as they
        # are written, not when os.replace moves the file over an older one,
        # and a full disk fails here, before any sample is written.
        try:
            os.posix_fallocate(fh.fileno(), 0, HEADER_SIZE + 8 * n * frames)
        except OSError as err:
            if err.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
                raise
        fh.write(header)
        written = 0

        def write(chunk: np.ndarray) -> None:
            nonlocal written
            data = np.ascontiguousarray(chunk, dtype="<f8")
            if data.ndim != 2 or data.shape[1] != n:
                raise ValueError("chunk must be a rows × samples_per_frame block")
            fh.write(data.data)
            written += len(data)

        yield write
        if written != frames:
            raise ValueError(f"{path}: {written} of the {frames} frames in the header written")


def write_traces(path: str | Path, ens: Ensemble) -> None:
    """Write an ensemble; the samples go out straight from its block."""
    with trace_writer(path, ens.config, ens.theta, len(ens)) as write:
        write(ens.samples)


class TraceReader:
    """An open trace file whose header and size have been checked, read chunk
    by chunk. Opening it reads the header into acquisition, the
    AcquisitionConfig it records, and theta, the LO phase in rad. Use it as a
    context manager, which closes the file."""

    def __init__(self, path: str | Path):
        self.path = path
        self._buf = None            # chunks' buffer, kept for every pass
        self._fh = open(path, "rb")
        try:
            self.acquisition, self.theta = self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _read_header(self) -> tuple[AcquisitionConfig, float]:
        path, fh = self.path, self._fh
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            raise TraceFormatError(f"{path}: file shorter than header")
        magic, version, n, frames, dt_fs, theta_urad = struct.unpack(_HEADER_FMT, head)
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        expected = HEADER_SIZE + 8 * n * frames
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TraceFormatError(
                f"{path}: size {size} does not match header ({expected} expected)")
        try:
            acq = AcquisitionConfig(record_duration=n * (dt_fs * 1e-15),
                                    samples_per_frame=n, frames=frames)
        except ValueError as err:
            raise TraceFormatError(f"{path}: {err}") from None
        return acq, theta_urad * 1e-6

    def _fill(self, out: np.ndarray) -> None:
        if self._fh.readinto(out) != out.nbytes:
            raise TraceFormatError(f"{self.path}: truncated while reading")

    def chunks(self):
        """Yield the frames in order as chunks of frame_rows(samples, frames)
        rows. Each chunk is a view into the reader's one buffer, which the next
        chunk, of this pass or a later one, overwrites. Every call starts again
        from the first frame."""
        n, frames = self.acquisition.samples_per_frame, self.acquisition.frames
        rows = frame_rows(n, frames)
        if self._buf is None or len(self._buf) != rows:
            self._buf = np.empty((rows, n), dtype="<f8")
        self._fh.seek(HEADER_SIZE)
        for start in range(0, frames, rows):
            view = self._buf[:min(rows, frames - start)]
            self._fill(view)
            yield view


def read_traces(path: str | Path) -> tuple[np.ndarray, AcquisitionConfig, float]:
    """Load a whole trace file as (frames × samples array, the AcquisitionConfig
    its header records, LO phase theta in rad)."""
    with TraceReader(path) as reader:
        acq = reader.acquisition
        out = np.empty((acq.frames, acq.samples_per_frame), dtype="<f8")
        reader._fill(out)           # the file is positioned just past the header
        return out, acq, reader.theta


def records_from_array(data: np.ndarray, acq: AcquisitionConfig, theta: float) -> Ensemble:
    """Wrap a loaded array as an Ensemble without copying it."""
    return Ensemble(samples=data, config=acq, theta=theta)
