"""Reading and writing timed landmark datasets.

CSV is the canonical interchange format: a header row
``id,time,x1,y1,...,xm,ym`` (a ``z`` column per landmark for 3-D data)
followed by one record per row.  TPS files are import only; blocks start with
``LM=m``, carry m whitespace-separated coordinate lines and end with
key=value attribute lines (``ID=``, and ``AGE=`` or ``TIME=`` for the time).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class LandmarkFormatError(ValueError):
    """Malformed landmark file; message carries the offending line number."""


@dataclass(frozen=True)
class LandmarkFileRecord:
    """One timed landmark configuration as read from a file."""

    id: str
    time: float
    landmarks: np.ndarray        # (m, d)

    @property
    def m(self) -> int:
        return self.landmarks.shape[0]

    @property
    def d(self) -> int:
        return self.landmarks.shape[1]


def parse_landmarks(path, fmt: str | None = None) -> list:
    """Parse a landmark file; the format defaults to the file suffix."""
    path = str(path)
    if fmt is None:
        fmt = "tps" if path.lower().endswith(".tps") else "csv"
    if fmt == "csv":
        return _parse_csv(path)
    if fmt == "tps":
        return _parse_tps(path)
    raise ValueError(f"unknown landmark format {fmt!r}")


def _parse_csv(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise LandmarkFormatError(f"{path}:1: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:2] != ["id", "time"]:
        raise LandmarkFormatError(
            f"{path}:1: header must start with 'id,time', got {lines[0]!r}"
        )
    coords = header[2:]
    if not coords:
        raise LandmarkFormatError(f"{path}:1: no coordinate columns")
    d = _coord_dim(coords, path)
    m, rem = divmod(len(coords), d)
    if rem or m < 1:
        raise LandmarkFormatError(f"{path}:1: inconsistent coordinate columns")

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2 + m * d:
            raise LandmarkFormatError(
                f"{path}:{lineno}: expected {2 + m * d} fields, got {len(cells)}"
            )
        try:
            time = float(cells[1])
            values = np.array([float(c) for c in cells[2:]], dtype=float)
        except ValueError as exc:
            raise LandmarkFormatError(f"{path}:{lineno}: non-numeric field ({exc})")
        if not np.isfinite(time) or not np.all(np.isfinite(values)):
            raise LandmarkFormatError(f"{path}:{lineno}: non-finite value")
        records.append(
            LandmarkFileRecord(id=cells[0], time=time, landmarks=values.reshape(m, d))
        )
    if not records:
        raise LandmarkFormatError(f"{path}: no records")
    return records


def _coord_dim(coords, path) -> int:
    """Landmark dimension d of the columns x1,y1[,z1],x2,y2[,z2],... in order."""
    d = 3 if len(coords) > 2 and coords[2] == "z1" else 2
    expected = (f"{axis}{i + 1}" for i in range(len(coords)) for axis in "xyz"[:d])
    for col, want in zip(coords, expected):
        if col != want:
            raise LandmarkFormatError(
                f"{path}:1: coordinate columns must be x1,y1[,z1],x2,y2[,z2],... "
                f"in order; expected {want!r}, got {col!r}"
            )
    return d


_TPS_KEY = re.compile(r"^\s*([A-Za-z_]+)\s*=\s*(.*?)\s*$")


def _parse_tps(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    records = []
    i = 0
    n = len(lines)
    expected_shape = None
    while i < n:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        match = _TPS_KEY.match(line)
        if not match or match.group(1).upper() != "LM":
            raise LandmarkFormatError(f"{path}:{i + 1}: expected 'LM=' block, got {line!r}")
        try:
            m = int(match.group(2))
        except ValueError:
            raise LandmarkFormatError(f"{path}:{i + 1}: bad landmark count {line!r}")
        start = i + 1
        rows = []
        i = start
        while i < n and len(rows) < m:
            text = lines[i].strip()
            if _TPS_KEY.match(text) and not _looks_numeric(text):
                break
            if text:
                try:
                    rows.append([float(tok) for tok in text.split()])
                except ValueError as exc:
                    raise LandmarkFormatError(f"{path}:{i + 1}: bad coordinates ({exc})")
            i += 1
        if len(rows) != m:
            raise LandmarkFormatError(
                f"{path}:{start}: block declares LM={m} but has {len(rows)} coordinate lines"
            )
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise LandmarkFormatError(f"{path}:{start}: ragged coordinate rows")
        landmarks = np.array(rows, dtype=float)
        if expected_shape is None:
            expected_shape = landmarks.shape
        elif landmarks.shape != expected_shape:
            raise LandmarkFormatError(
                f"{path}:{start}: block shape {landmarks.shape} differs from "
                f"{expected_shape}"
            )

        rec_id = None
        time = None
        while i < n:
            text = lines[i].strip()
            if not text:
                i += 1
                continue
            match = _TPS_KEY.match(text)
            if not match or match.group(1).upper() == "LM":
                break
            key = match.group(1).upper()
            if key == "ID":
                rec_id = match.group(2)
            elif key in ("AGE", "TIME"):
                try:
                    time = float(match.group(2))
                except ValueError:
                    raise LandmarkFormatError(f"{path}:{i + 1}: bad {key} value")
            i += 1
        records.append(
            LandmarkFileRecord(
                id=rec_id if rec_id is not None else str(len(records)),
                time=time if time is not None else np.nan,
                landmarks=landmarks,
            )
        )
    if not records:
        raise LandmarkFormatError(f"{path}: no records")
    return records


def _looks_numeric(text: str) -> bool:
    try:
        [float(tok) for tok in text.split()]
        return True
    except ValueError:
        return False


def write_landmarks_csv(records, path) -> None:
    """Serialize records to canonical CSV; floats keep full precision."""
    if not records:
        raise ValueError("nothing to write")
    m, d = records[0].m, records[0].d
    axes = "xyz"[:d]
    header = ["id", "time"] + [f"{axes[j]}{i + 1}" for i in range(m) for j in range(d)]
    rows = [",".join(header)]
    for rec in records:
        if (rec.m, rec.d) != (m, d):
            raise ValueError("records disagree on landmark count or dimension")
        cells = [rec.id, repr(float(rec.time))]
        cells += [repr(float(v)) for v in rec.landmarks.reshape(-1)]
        rows.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
