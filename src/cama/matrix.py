"""Binary incidence matrix linking question-solution pairs to knowledge points."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import compress
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
        given = np.asarray(self.cells)
        # NaN and infinity have no uint8 value: the cast would warn first
        if given.dtype.kind in "fc" and not np.isfinite(given).all():
            raise ValueError("cells must contain only 0 and 1")
        cells = np.array(given, dtype=np.uint8, order="F")
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-D array")
        # the cast wraps 257 to 1 and truncates 0.7 to 0, so other dtypes
        # must come through it unchanged
        if (cells > 1).any() or (
            given.dtype != np.uint8 and not np.array_equal(cells, given)
        ):
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
    """Read the CSV layout ``to_csv`` writes: header ``id,<key>,...``, then one
    row per QA pair with its id and one 0/1 cell per key.

    ``csv.reader`` splits the rows, so quoting, CRLF line ends and blank
    lines behave as in any CSV file. Rows whose cells are all exactly ``0``
    or ``1`` (the canonical form ``to_csv`` writes) are converted and
    range-checked together in one NumPy pass over their joined bytes. Any
    other row is parsed cell by cell with ``int()``, so a cell that
    ``int()`` reads as 0 or 1 (``01``, `` 1``, ``+0``, ``-0``) is still
    accepted.

    Raises ``ParseError`` for the first bad row in file order: a row with
    the wrong number of fields, a cell ``int()`` rejects, or a value other
    than 0 or 1. The message names the row's line, counting the header as
    line 1 and skipping blank lines (a quoted field that spans lines counts
    once).
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ParseError("incidence CSV is empty")
    header = rows[0]
    if not header or header[0] != "id":
        raise ParseError("incidence CSV header must start with 'id'")
    col_keys = header[1:]
    if not col_keys:
        raise ParseError("incidence CSV has no knowledge-point columns")
    width, k = len(header), len(col_keys)
    body = rows[1:]
    # rows past the first ragged one are never read: its error comes first
    n = next((i for i, row in enumerate(body) if len(row) != width), len(body))
    full = body[:n]
    texts = [",".join(row[1:]) for row in full]
    # a canonical row is k one-byte digits and k - 1 commas; with a trailing
    # comma each such row is 2k bytes of (digit, comma) pairs. A row of that
    # length whose even bytes are all 0 or 1 is canonical: its k - 1 joining
    # commas can only sit in the k - 1 odd bytes. Non-ASCII characters
    # become one "?" byte each, which is no digit.
    fits = np.fromiter(map(len, texts), dtype=np.intp, count=n) == 2 * k - 1
    joined = "".join(t + "," for t in compress(texts, fits))
    pairs = np.frombuffer(joined.encode("ascii", "replace"), dtype=np.uint8)
    digits = pairs.reshape(-1, 2 * k)[:, 0::2]
    ok = ((digits | 1) == ord("1")).all(axis=1)
    canonical = np.zeros(n, dtype=bool)
    canonical[np.flatnonzero(fits)[ok]] = True
    cells = np.empty((n, k), dtype=np.uint8, order="F")
    cells[canonical] = digits[ok] - ord("0")
    for i in np.flatnonzero(~canonical).tolist():
        cells[i] = _parse_cells(full[i], i + 2)
    if n < len(body):
        raise ParseError(f"line {n + 2}: expected {width} fields, got {len(body[n])}")
    row_ids = tuple(row[0] for row in full)
    return IncidenceMatrix(cells=cells, row_ids=row_ids, col_keys=tuple(col_keys))


def _parse_cells(row: list[str], lineno: int) -> list[int]:
    """Cells of a row that is not canonical, read with ``int()``."""
    try:
        values = [int(x) for x in row[1:]]
    except ValueError as e:
        raise ParseError(f"line {lineno}: non-integer cell ({e})") from e
    if any(v not in (0, 1) for v in values):
        raise ParseError(f"line {lineno}: cells must be 0 or 1")
    return values


def load_incidence_csv(path: str | Path) -> IncidenceMatrix:
    return incidence_from_csv(Path(path).read_text(encoding="utf-8"))
