"""Binary incidence matrix linking question-solution pairs to knowledge points."""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError
from .model import read_text, write_atomic


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
        object.__setattr__(self, "row_ids", tuple(map(str, self.row_ids)))
        object.__setattr__(self, "col_keys", tuple(map(str, self.col_keys)))
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
        """The header and each row as ``_csv_line`` writes them. The cell
        text of all rows is built in one NumPy pass; ``_csv_line`` writes
        the header and each row whose id it would quote."""
        n, k = self.cells.shape
        # each row's cells as k (comma, digit) byte pairs and a newline
        tails = np.full((n, 2 * k + 1), ord(","), dtype=np.uint8)
        tails[:, 1::2] = self.cells + ord("0")
        tails[:, -1] = ord("\n")
        cell_text = tails.tobytes().decode("ascii").split("\n")
        return _csv_line(["id", *self.col_keys]) + "".join(
            rid + text + "\n"
            if _PLAIN_ID.fullmatch(rid)
            else _csv_line([rid, *self.cells[i].tolist()])
            for i, (rid, text) in enumerate(zip(self.row_ids, cell_text))
        )

    def save_csv(self, path: str | Path) -> None:
        write_atomic(path, self.to_csv())


# an id that _csv_line writes unquoted: not empty, no comma, quote or control character
_PLAIN_ID = re.compile(r'[^",\x00-\x1f]+')


def _csv_line(fields: list) -> str:
    """One CSV row ending in ``\\n``. ``csv.writer`` quotes a field holding a
    character of its line terminator, so writing with ``\\r\\n`` quotes a
    carriage return too, which a reader would otherwise take for a line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def incidence_from_csv(text: str) -> IncidenceMatrix:
    """Read the CSV layout ``to_csv`` writes: header ``id,<key>,...``, then one
    row per QA pair with its id and one 0/1 cell per key.

    The rows are the non-empty records ``csv.reader`` reads in strict mode
    from a file opened with ``newline=""``, so quoting, CRLF or CR line ends
    and blank lines behave as in any CSV file, and a quote that never closes
    is an error rather than a field that holds the rest of the file.

    One reader takes the whole text. A text with no ``"``, carriage return or
    NUL has no quoted field and only ``\\n`` ends a record, so its records
    are exactly its non-empty lines split at every comma: the header is the
    first of them, and the rest are split in one NumPy pass over their UTF-8
    bytes, in which no byte of a multi-byte character is a comma or a
    newline. That pass applies no field size limit. Any other text is read
    by ``csv.reader``, which rejects a field over 131,072 characters and, on
    Python 3.10, a NUL. ``load_incidence_csv`` reads the line ends of a file
    without quotes as ``\\n``, so only a quote sends a file to ``csv.reader``.

    On the NumPy pass, rows whose cells are all exactly ``0`` or ``1`` (the
    canonical form ``to_csv`` writes) are converted and range-checked
    together. Any other row, and every row ``csv.reader`` reads, is parsed
    cell by cell with ``int()``, so a cell that ``int()`` reads as 0 or 1
    (``01``, `` 1``, ``+0``, ``-0``) is still accepted.

    Raises ``ParseError`` for a byte-order mark at the start of ``text``
    (as ``read_json`` does), for a record ``csv.reader`` cannot read and for
    the first bad row in file order: a row with the wrong number of fields,
    a cell ``int()`` rejects, or a value other than 0 or 1. The message
    names the row's line, counting the header as line 1 and skipping blank
    lines (a quoted field that spans lines counts once).
    """
    if text.startswith("\ufeff"):  # as read_json refuses it
        raise ParseError("invalid incidence CSV: Unexpected UTF-8 BOM", position=0)
    plain = not ('"' in text or "\r" in text or "\0" in text)
    if plain:
        first, _, body = text.lstrip("\n").partition("\n")
        header = first.split(",") if first else None
    else:
        rows = _csv_rows(text)
        header = rows.pop(0) if rows else None
    if header is None:
        raise ParseError("incidence CSV is empty")
    if header[0] != "id":
        raise ParseError("incidence CSV header must start with 'id'")
    col_keys = header[1:]
    if not col_keys:
        raise ParseError("incidence CSV has no knowledge-point columns")
    if plain:
        row_ids, cells = _split_lines(body, len(header))
    else:
        cells = np.empty((len(rows), len(col_keys)), dtype=np.uint8)
        for i, row in enumerate(rows):
            cells[i] = _parse_cells(row, len(header), i + 2)
        row_ids = [row[0] for row in rows]
    try:
        return IncidenceMatrix(cells=cells, row_ids=tuple(row_ids), col_keys=tuple(col_keys))
    except ValueError as e:  # a repeated column key
        raise ParseError(f"invalid incidence CSV: {e}") from e


def _csv_rows(text: str) -> list[list[str]]:
    """The non-empty records of ``text``; one ``csv.reader`` cannot read is a ParseError."""
    try:
        return list(filter(None, csv.reader(io.StringIO(text, newline=""), strict=True)))
    except csv.Error as e:  # an unclosed quote, a field over the size limit
        raise ParseError(f"invalid incidence CSV: {e}") from e


def _split_lines(body: str, width: int):
    """Row ids and cells of a body with no quote, carriage return or NUL:
    its non-empty lines split at every comma, each ``width`` fields long."""
    raw = body.encode()
    data = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(data)]))
    filled = starts < ends
    starts, ends = starts[filled], ends[filled]
    # a line of L bytes holds at most L commas, so the sum cannot overflow
    count_type = np.min_scalar_type((ends - starts).max(initial=0))
    fields = np.add.reduceat(data == ord(","), starts, dtype=count_type).astype(np.intp) + 1
    # a row that fits has all its fields and room for k (comma, digit)
    # pairs after its id: with exactly k commas, those pairs hold all of them
    k = width - 1
    tails = ends - 2 * k
    fits = (fields == width) & (tails >= starts)
    cells = np.empty((len(fields), k), dtype=np.uint8)
    canonical = np.zeros(len(fields), dtype=bool)
    if fits.any():  # then data holds at least 2k bytes
        pairs = sliding_window_view(data, 2 * k)[tails[fits]]
        # read as little-endian (comma, digit) pairs, a canonical row's
        # are all "," | "0" << 8 or "," | "1" << 8
        canonical[fits] = ((pairs.view("<u2") | 0x100) == ord(",") | ord("1") << 8).all(axis=1)
        cells[fits] = pairs[:, 1::2] - ord("0")
    # a ragged row is never canonical, so _parse_cells raises its error;
    # rows past the first one are never read, as its error comes first
    ragged = np.flatnonzero(fields != width)
    stop = int(ragged[0]) + 1 if len(ragged) else len(fields)
    for i in np.flatnonzero(~canonical[:stop]).tolist():
        cells[i] = _parse_cells(raw[starts[i] : ends[i]].decode().split(","), width, i + 2)
    return [line.partition(",")[0] for line in body.split("\n") if line], cells


def _parse_cells(row: list[str], width: int, lineno: int) -> list[int]:
    """Cells of a row of ``width`` fields, read with ``int()``."""
    if len(row) != width:
        raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
    try:
        values = [int(x) for x in row[1:]]
    except ValueError as e:
        raise ParseError(f"line {lineno}: non-integer cell ({e})") from e
    if any(v not in (0, 1) for v in values):
        raise ParseError(f"line {lineno}: cells must be 0 or 1")
    return values


def load_incidence_csv(path: str | Path) -> IncidenceMatrix:
    """The matrix of a CSV file as ``incidence_from_csv`` reads its text.

    Line ends are read as written, so a carriage return in a quoted id or
    key loads back. A file with no quote has no field that holds one, and
    reading its line ends as ``\\n`` keeps it on the NumPy pass."""
    text = read_text(path, "incidence CSV", newline="")
    if "\r" in text and '"' not in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return incidence_from_csv(text)
