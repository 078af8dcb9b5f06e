"""``incidence_from_csv`` against the cell-by-cell loader it replaced.

``ref_incidence_from_csv`` calls ``int()`` on every cell and range-checks
each row in Python. On seeded random documents (odd cells, quoted ids,
ragged rows, blank lines, CRLF, header-only documents, a missing final
newline) the vectorised loader must give the same cells, row ids and
column keys, or raise the same error with the same message, and the sweep
must reach both its canonical pass and its per-row fallback.
"""

import csv
import io
import random

import numpy as np

import cama.matrix
from cama.errors import ParseError
from cama.matrix import IncidenceMatrix, incidence_from_csv


def ref_incidence_from_csv(text: str) -> IncidenceMatrix:
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


# raw CSV tokens for a cell; '"1"' is a quoted 1, '"1,0"' a quoted comma
ODD_CELLS = ["01", " 1", "1 ", "+0", "-0", "00", "1_0", "2", "-1", "x", "", '"1"', '"1,0"', "١", "٠"]
ROW_IDS = ["q1", "r 2", '"q,3"', '"a, ""b"""', "", "١", "id"]
KEYS = ["a", "b c", '"sums, products"', "١", "k"]


def random_document(rng: random.Random) -> str:
    header = ["id", *rng.sample(KEYS, rng.randint(1, len(KEYS)))]
    if rng.random() < 0.03:
        header[0] = rng.choice(["", "ID", "x"])
    if rng.random() < 0.02:
        header = ["id"]
    odd_rate = rng.choice([0.0, 0.02, 0.1, 0.5])
    lines = [",".join(header)]
    for _ in range(rng.randint(0, 8)):
        cells = [
            rng.choice(ODD_CELLS) if rng.random() < odd_rate else rng.choice("01")
            for _ in range(len(header) - 1)
        ]
        if rng.random() < 0.05:
            cells = cells[:-1] if cells and rng.random() < 0.5 else [*cells, "1"]
        lines.append(",".join([rng.choice(ROW_IDS), *cells]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randint(0, len(lines)), "")
    text = rng.choice(["\n", "\r\n"]).join(lines)
    if rng.random() < 0.7:
        text += "\n"
    return "" if rng.random() < 0.01 else text


def outcome(load, text):
    try:
        z = load(text)
    except ParseError as e:
        return ("error", str(e))
    return ("matrix", z.cells.tobytes(order="F"), z.cells.shape, z.row_ids, z.col_keys)


def test_vectorised_loader_matches_reference(monkeypatch):
    fallback_rows = 0
    parse_cells = cama.matrix._parse_cells

    def counting_parse_cells(row, lineno):
        nonlocal fallback_rows
        fallback_rows += 1
        return parse_cells(row, lineno)

    monkeypatch.setattr(cama.matrix, "_parse_cells", counting_parse_cells)
    rng = random.Random(20240611)
    canonical_docs = fallback_docs = errors = loaded = 0
    for _ in range(5000):
        text = random_document(rng)
        before = fallback_rows
        got = outcome(incidence_from_csv, text)
        assert got == outcome(ref_incidence_from_csv, text), repr(text)
        fallbacks = fallback_rows - before
        fallback_docs += fallbacks > 0
        if got[0] == "matrix":
            loaded += 1
            canonical_docs += got[2][0] > fallbacks
        else:
            errors += 1
    assert canonical_docs >= 100
    assert fallback_docs >= 100
    assert loaded >= 1000 and errors >= 1000


def test_bad_cell_reported_before_later_ragged_row():
    text = "id,a,b\nr1,0,1\nr2,1,2\nr3,0,0\nr4,1\n"
    assert outcome(incidence_from_csv, text) == ("error", "line 3: cells must be 0 or 1")
    assert outcome(ref_incidence_from_csv, text) == ("error", "line 3: cells must be 0 or 1")


def test_ragged_row_reported_before_later_bad_cell():
    text = "id,a,b\nr1,0,1\n\nr2,1\nr3,x,0\n"
    expected = ("error", "line 3: expected 3 fields, got 2")
    assert outcome(incidence_from_csv, text) == expected
    assert outcome(ref_incidence_from_csv, text) == expected
