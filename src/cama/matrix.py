"""Binary incidence matrix linking question-solution pairs to knowledge points."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError


@dataclass(frozen=True)
class IncidenceMatrix:
    """Dense n x k matrix of {0,1}: row per QA pair, column per knowledge point.

    ``cells`` is a read-only column-major ``uint8`` copy: a column is contiguous.
    """

    cells: np.ndarray
    row_ids: tuple[str, ...]
    col_keys: tuple[str, ...]

    def __post_init__(self):
        cells = np.array(self.cells, dtype=np.uint8, order="F")
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        if not np.isin(cells, (0, 1)).all():
            raise ValueError("cells must contain only 0 and 1")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
        object.__setattr__(self, "col_keys", tuple(str(c) for c in self.col_keys))
        n, k = cells.shape
        if len(self.row_ids) != n:
            raise ValueError(f"{len(self.row_ids)} row ids for {n} rows")
        if len(self.col_keys) != k:
            raise ValueError(f"{len(self.col_keys)} column keys for {k} columns")
        if len(set(self.col_keys)) != k:
            raise ValueError("column keys must be pairwise distinct")

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", *self.col_keys])
        for rid, row in zip(self.row_ids, self.cells):
            writer.writerow([rid, *(int(x) for x in row)])
        return buf.getvalue()

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def incidence_from_csv(text: str) -> IncidenceMatrix:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise ParseError("incidence CSV is empty")
    header = rows[0]
    if not header or header[0] != "id":
        raise ParseError("incidence CSV header must start with 'id'")
    col_keys = header[1:]
    if not col_keys:
        raise ParseError("incidence CSV has no knowledge-point columns")
    row_ids, data = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        row_ids.append(row[0])
        try:
            values = [int(x) for x in row[1:]]
        except ValueError as e:
            raise ParseError(f"line {lineno}: non-integer cell ({e})") from e
        if any(v not in (0, 1) for v in values):
            raise ParseError(f"line {lineno}: cells must be 0 or 1")
        data.append(values)
    cells = np.array(data, dtype=np.uint8) if data else np.zeros((0, len(col_keys)), dtype=np.uint8)
    return IncidenceMatrix(cells=cells, row_ids=tuple(row_ids), col_keys=tuple(col_keys))


def load_incidence_csv(path: str | Path) -> IncidenceMatrix:
    return incidence_from_csv(Path(path).read_text(encoding="utf-8"))
