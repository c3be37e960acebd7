"""Artifact serialization: CSV time series, JSON summaries, columnar
binary field snapshots, and the run manifest.

CSV follows RFC 4180 (CRLF line endings, minimal quoting).  JSON is
written with sorted keys.  Snapshots are little-endian: 6 magic bytes
"BLMHD1", int64 nx, int64 ny, float64 (y_max, stretch, time), then the
six field bodies (rho_shift, u_shift, h_shift, v, g, psi) as row-major
float64 arrays of shape (nx, ny).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import time as _time
from dataclasses import asdict, dataclass, field

import numpy as np

from .state import State, derive_secondary

SNAPSHOT_MAGIC = b"BLMHD1"
_SNAPSHOT_FIELDS = ("rho_shift", "u_shift", "h_shift", "v", "g", "psi")
_HEADER = struct.Struct("<qqddd")


class SnapshotError(ValueError):
    """Malformed snapshot file."""


def write_csv(path, columns, rows) -> None:
    """RFC 4180 CSV with a header row; deterministic formatting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_format_cell(c) for c in row])


def _format_cell(c):
    if isinstance(c, (bool, np.bool_)):
        return "true" if c else "false"
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    if isinstance(c, np.integer):
        return int(c)
    return c


def write_json(path, obj) -> None:
    """JSON with stable (sorted) key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, tuple):
        return list(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_snapshot(path, state: State) -> None:
    """Columnar binary snapshot of the three state fields and the v, g and
    psi that derive_secondary builds from them."""
    grid = state.grid
    fields = [state.rho_shift, state.u_shift, state.h_shift]
    fields += [derive_secondary(state, name) for name in _SNAPSHOT_FIELDS[3:]]
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(
            _HEADER.pack(grid.nx, grid.ny, grid.y_max, grid.stretch, state.time)
        )
        for f in fields:
            vals = np.ascontiguousarray(f.values, dtype="<f8")
            fh.write(vals.tobytes())


def read_snapshot(path) -> dict:
    """Read a snapshot back: header dict plus field arrays.  A snapshot is
    where data enter the package, so a field body holding a NaN or an
    infinity is a SnapshotError, as is a bad header, size or tail.  The
    header must give nx, ny >= 8 (the GridSpec minimum) and a finite
    y_max, stretch and time, and the file must hold exactly the six bodies
    it announces; both are checked before any body is read."""
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"bad magic bytes {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SnapshotError("truncated header")
        nx, ny, y_max, stretch, t = _HEADER.unpack(header)
        if min(nx, ny) < 8 or not all(map(math.isfinite, (y_max, stretch, t))):
            raise SnapshotError(
                f"bad header: nx={nx}, ny={ny}, y_max={y_max}, stretch={stretch}, time={t}"
            )
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        want = 8 * nx * ny * len(_SNAPSHOT_FIELDS)
        if size != want:
            what = "truncated field bodies" if size < want else "trailing bytes after the bodies"
            raise SnapshotError(f"{what}: {size} bytes, the header announces {want}")
        out = {
            "nx": nx,
            "ny": ny,
            "y_max": y_max,
            "stretch": stretch,
            "time": t,
        }
        for name in _SNAPSHOT_FIELDS:
            body = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8").reshape(nx, ny)
            if not np.isfinite(body).all():
                raise SnapshotError(f"non-finite entries in field {name}")
            out[name] = body.copy()
    return out


def config_digest(canonical: str) -> str:
    """sha256 hex digest of the canonicalized configuration text."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record for one CLI invocation: start() fills in what is
    known before the verb runs, the CLI its outputs, and finish() the
    rest."""

    verb: str
    config_digest: str
    version: str
    started: str
    finished: str = field(init=False, default="")
    outputs: list = field(init=False, default_factory=list)
    passed: bool = field(init=False, default=False)
    failures: list = field(init=False, default_factory=list)

    @staticmethod
    def start(verb: str, digest: str, version: str) -> "RunManifest":
        return RunManifest(
            verb=verb,
            config_digest=digest,
            version=version,
            started=_timestamp(),
        )

    def finish(self, passed: bool, failures=None) -> "RunManifest":
        self.finished = _timestamp()
        self.passed = bool(passed)
        self.failures = list(failures or [])
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def _timestamp() -> str:
    return _time.strftime("%Y-%m-%dT%H:%M:%S", _time.gmtime())
