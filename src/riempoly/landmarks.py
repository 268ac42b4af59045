"""Reading and writing timed landmark datasets.

CSV is the canonical interchange format: a header row
``id,time,x1,y1,...,xm,ym`` (a ``z`` column per landmark for 3-D data)
followed by one record per row, so it carries 2-D and 3-D landmarks only.
TPS files are read, not written; blocks start with ``LM=m`` (m >= 1), carry
m whitespace-separated coordinate lines of any one width and end with
key=value attribute lines (``ID=``, and ``AGE=`` or ``TIME=`` for the time).
An ID holds no comma, which a CSV field cannot carry, and a given AGE or
TIME is finite; a block without either has no time.

A CSV file is read into one float array: each line's field count is checked
and its cells converted with Python's float, then one finiteness check runs
over the whole table, and every record takes its row from it; an error
names the first bad line in file order, whatever its fault.  A TPS file is
read in one pass over its lines with at most one open block.  Its
coordinates close at their m-th row, where their width and shape are
checked; a key line or the end of the file before that row is a count error.
These three errors name the block's LM line, and every other TPS error its
own line.  Blank lines are skipped but counted.  Every CSV file is written
by write_table, and the files of one call share their float text: csv_lines
formats each distinct value once across all of them.
"""

from __future__ import annotations

import math
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

    width = 2 + m * d
    ids, linenos, rows, fault = [], [], [], None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            fault = f"{path}:{lineno}: expected {width} fields, got {len(cells)}"
            break
        try:
            rows.append(list(map(float, cells[1:])))
        except ValueError as exc:
            fault = f"{path}:{lineno}: non-numeric field ({exc})"
            break
        ids.append(cells[0].strip())
        linenos.append(lineno)
    # the lines before a fault all converted, so a non-finite one comes first
    table = np.array(rows, dtype=float).reshape(len(rows), width - 1)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        fault = f"{path}:{linenos[np.argmin(finite)]}: non-finite value"
    if fault:
        raise LandmarkFormatError(fault)
    if not rows:
        raise LandmarkFormatError(f"{path}: no records")
    return [LandmarkFileRecord(id=rec_id, time=time, landmarks=values.reshape(m, d))
            for rec_id, time, values in zip(ids, table[:, 0].tolist(), table[:, 1:])]


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

    # blocks holds [landmarks, id, time] per closed block; rows is the open
    # block's coordinate rows, from its LM line until its m-th row
    blocks, rows, shape = [], None, None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        match = _TPS_KEY.match(text)
        if rows is not None:
            if match:
                break    # a key line before the m-th row: the count error below
            try:
                rows.append([float(tok) for tok in text.split()])
            except ValueError as exc:
                raise LandmarkFormatError(f"{path}:{lineno}: bad coordinates ({exc})")
            if len(rows) == m:
                if len({len(row) for row in rows}) != 1:
                    raise LandmarkFormatError(f"{path}:{start}: ragged coordinate rows")
                landmarks = np.array(rows, dtype=float)
                shape = shape or landmarks.shape
                if landmarks.shape != shape:
                    raise LandmarkFormatError(
                        f"{path}:{start}: block shape {landmarks.shape} differs from {shape}")
                blocks.append([landmarks, None, np.nan])
                rows = None
            continue
        key = match.group(1).upper() if match else None
        if key == "LM":
            try:
                m = int(match.group(2))
            except ValueError:
                m = 0
            if m < 1:
                raise LandmarkFormatError(f"{path}:{lineno}: bad landmark count {text!r}")
            start, rows = lineno, []
        elif key and blocks:
            value = match.group(2)
            if key == "ID":
                if "," in value:
                    raise LandmarkFormatError(
                        f"{path}:{lineno}: ID {value!r} holds a comma, "
                        "which the CSV layout cannot carry")
                blocks[-1][1] = value
            elif key in ("AGE", "TIME"):
                try:
                    time = float(value)
                except ValueError:
                    time = math.nan
                if not math.isfinite(time):
                    raise LandmarkFormatError(f"{path}:{lineno}: bad {key} value")
                blocks[-1][2] = time
        else:
            raise LandmarkFormatError(f"{path}:{lineno}: expected 'LM=' block, got {text!r}")
    if rows is not None:
        raise LandmarkFormatError(
            f"{path}:{start}: block declares LM={m} but has {len(rows)} coordinate lines")
    if not blocks:
        raise LandmarkFormatError(f"{path}: no records")
    return [LandmarkFileRecord(id=str(i) if rec_id is None else rec_id, time=time,
                               landmarks=landmarks)
            for i, (landmarks, rec_id, time) in enumerate(blocks)]


def write_landmarks_csv(records, path) -> None:
    """Serialize records to canonical CSV; floats keep full precision."""
    if not records:
        raise ValueError("nothing to write")
    m, d = records[0].m, records[0].d
    if d not in (2, 3):
        raise ValueError(f"the CSV layout carries 2-D or 3-D landmarks, not {d}-D")
    if any((rec.m, rec.d) != (m, d) for rec in records):
        raise ValueError("records disagree on landmark count or dimension")
    for rec in records:
        if "," in rec.id:
            raise ValueError(f"id {rec.id!r} holds a comma, which the CSV layout cannot carry")
    header = ["id", "time"] + [f"{axis}{i + 1}" for i in range(m) for axis in "xyz"[:d]]
    landmarks = np.reshape([rec.landmarks for rec in records], (len(records), -1))
    write_table((path, header, [rec.id for rec in records],
                 np.column_stack([[rec.time for rec in records], landmarks])))


def write_table(*files) -> None:
    """Write CSV files, each given as (path, header, prefixes, table).

    A file is its header's names, then csv_lines(prefixes, table).  The
    files of one call share their float text: a value is formatted once for
    all of them.  Each file is written as soon as its lines are made.
    """
    texts = csv_lines(*[(prefixes, table) for _, _, prefixes, table in files])
    for (path, header, _, _), lines in zip(files, texts):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in [",".join(header)] + lines)


def csv_lines(*tables):
    """CSV lines for each (prefixes, table): one per row, after its row's prefix.

    Yields one list of lines per table, each made when it is asked for.
    Floats are written as repr, Python's shortest round-trip form, so the
    text re-parses to the same doubles.  repr runs once per distinct bit
    pattern of all the tables (-0.0 and 0.0 stay apart), and the values are
    read through one tolist, not one numpy scalar at a time.
    """
    arrays = [np.ascontiguousarray(table, dtype=float) for _, table in tables]
    # unnamed, the concatenated copy is freed before the lines are made
    distinct, where = np.unique(
        np.concatenate([array.ravel() for array in arrays]).view(np.uint64),
        return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    start = 0
    for (prefixes, _), array in zip(tables, arrays):
        cells = text[where[start:start + array.size]].reshape(array.shape).tolist()
        start += array.size
        yield [f"{prefix},{','.join(row)}" for prefix, row in zip(prefixes, cells)]
