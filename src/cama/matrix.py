"""Binary incidence matrix linking question-solution pairs to knowledge points."""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError
from .model import read_text


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
        Path(path).write_text(self.to_csv(), encoding="utf-8")


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

    The rows are the records ``csv.reader`` reads in strict mode from a
    file opened with ``newline=""``, so quoting, CRLF or CR line ends and
    blank lines behave as in any CSV file, and a quote that never closes is
    an error rather than a field that holds the rest of the file.
    ``csv.reader`` reads the header. The body after it is split without
    ``csv.reader`` when it holds no ``"``, carriage return or NUL: then no
    field is quoted and only ``\\n`` ends a record, so the reader's rows are
    exactly the body's non-empty lines split at every comma. That split
    runs in NumPy over the body's UTF-8 bytes, in which no byte of a
    multi-byte character is a comma or a newline. It applies no field size
    limit, where ``csv.reader`` rejects a field over 131,072 characters.
    Any other body is split by ``csv.reader``, which on Python 3.10 also
    rejects a NUL. ``load_incidence_csv`` reads the line ends of a file
    without quotes as ``\\n``, so only a quote sends a file's body there.

    Rows whose cells are all exactly ``0`` or ``1`` (the canonical form
    ``to_csv`` writes) are converted and range-checked together in one
    NumPy pass. Any other row is parsed cell by cell with ``int()``, so a
    cell that ``int()`` reads as 0 or 1 (``01``, `` 1``, ``+0``, ``-0``) is
    still accepted.

    Raises ``ParseError`` for a byte-order mark at the start of ``text``
    (as ``read_json`` does), for a record ``csv.reader`` cannot read and for
    the first bad row in file order: a row with the wrong number of fields,
    a cell ``int()`` rejects, or a value other than 0 or 1. The message
    names the row's line, counting the header as line 1 and skipping blank
    lines (a quoted field that spans lines counts once).
    """
    if text.startswith("\ufeff"):  # as read_json refuses it
        raise ParseError("invalid incidence CSV: Unexpected UTF-8 BOM", position=0)
    reader = csv.reader(_lines(text), strict=True)
    records = _records(reader)
    header = next(records, None)
    if header is None:
        raise ParseError("incidence CSV is empty")
    if header[0] != "id":
        raise ParseError("incidence CSV header must start with 'id'")
    col_keys = header[1:]
    if not col_keys:
        raise ParseError("incidence CSV has no knowledge-point columns")
    width, k = len(header), len(col_keys)
    # the header and any blank lines before it are the first line_num lines
    body = text[sum(map(len, islice(_lines(text), reader.line_num))) :]
    if '"' in body or "\r" in body or "\0" in body:
        row_ids, fields, fits, pairs, row_at = _split_records(list(records), k)
    else:
        row_ids, fields, fits, pairs, row_at = _split_lines(body, k)
    # rows past the first ragged one are never read: its error comes first
    ragged = np.flatnonzero(fields != width)
    n = int(ragged[0]) if len(ragged) else len(fields)
    # pairs holds the last 2k bytes of each row that fits. Read as
    # little-endian (comma, digit) pairs, a canonical row's are all
    # "," | "0" << 8 or "," | "1" << 8
    canonical = np.zeros(len(fields), dtype=bool)
    canonical[fits] = ((pairs.view("<u2") | 0x100) == ord(",") | ord("1") << 8).all(axis=1)
    cells = np.empty((len(fields), k), dtype=np.uint8)
    cells[fits] = pairs[:, 1::2] - ord("0")
    for i in np.flatnonzero(~canonical[:n]).tolist():
        cells[i] = _parse_cells(row_at(i), i + 2)
    if n < len(fields):
        raise ParseError(f"line {n + 2}: expected {width} fields, got {fields[n]}")
    try:
        return IncidenceMatrix(cells=cells, row_ids=tuple(row_ids), col_keys=tuple(col_keys))
    except ValueError as e:  # a repeated column key
        raise ParseError(f"invalid incidence CSV: {e}") from e


def _lines(text: str):
    """The lines of ``text``, each with its line end, as a file opened with
    ``newline=""`` yields them to ``csv.reader``: ``\\r\\n``, ``\\r`` and
    ``\\n`` each end one. io.StringIO splits them so too, but holds a
    4-byte-per-character copy of ``text``."""
    start = end = 0
    while start < len(text):
        if end <= start:  # the next \n, found once for the lines before it
            end = text.find("\n", start) + 1 or len(text)
        # a \r that no \n follows ends a line of its own
        cr = text.find("\r", start, end - 1)
        stop = cr + 1 if cr != -1 and text[cr + 1] != "\n" else end
        yield text[start:stop]
        start = stop


def _records(reader):
    """The non-empty rows of ``reader``; a record it cannot read is a ParseError."""
    try:
        yield from filter(None, reader)
    except csv.Error as e:  # an unclosed quote, a field over the size limit
        raise ParseError(f"invalid incidence CSV: {e}") from e


def _split_lines(body: str, k: int):
    """(row ids, field counts, which rows fit, their last 2k bytes, row
    accessor) of a body with no quote, carriage return or NUL: its
    non-empty lines split at every comma."""
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
    # a row that fits has k + 1 fields and room for k (comma, digit) pairs
    # after its id: with exactly k commas, those pairs hold all of them
    tails = ends - 2 * k
    fits = (fields == k + 1) & (tails >= starts)
    pairs = np.empty((0, 2 * k), dtype=np.uint8)
    if fits.any():  # then data holds at least 2k bytes
        pairs = sliding_window_view(data, 2 * k)[tails[fits]]
    row_ids = [line.partition(",")[0] for line in body.split("\n") if line]
    return row_ids, fields, fits, pairs, lambda i: raw[starts[i] : ends[i]].decode().split(",")


def _split_records(rows: list[list[str]], k: int):
    """What ``_split_lines`` returns, for rows ``csv.reader`` split."""
    fields = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    texts = [",".join(row[1:]) for row in rows]
    # a canonical row's cells join to 2k - 1 characters; non-ASCII
    # characters become one "?" byte each, which is no digit
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(rows))
    fits = (fields == k + 1) & (lengths == 2 * k - 1)
    joined = "".join("," + t for t in compress(texts, fits))
    pairs = np.frombuffer(joined.encode("ascii", "replace"), dtype=np.uint8).reshape(-1, 2 * k)
    return [row[0] for row in rows], fields, fits, pairs, rows.__getitem__


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
    """The matrix of a CSV file as ``incidence_from_csv`` reads its text.

    Line ends are read as written, so a carriage return in a quoted id or
    key loads back. A file with no quote has no field that holds one, and
    reading its line ends as ``\\n`` keeps its body on the plain path."""
    text = read_text(path, "incidence CSV", newline="")
    if "\r" in text and '"' not in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return incidence_from_csv(text)
