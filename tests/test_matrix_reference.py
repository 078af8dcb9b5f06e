"""``incidence_from_csv`` against the cell-by-cell loader it replaced.

``ref_incidence_from_csv`` splits every row with ``csv.reader``, calls
``int()`` on every cell and range-checks each row in Python. On seeded
random documents (odd cells, quoted and non-ASCII ids and keys, ragged
rows, rows of only commas, blank and whitespace-only lines, a NUL in an
id, CRLF, header-only documents, a missing final newline, a quote that
first appears in the last row) the vectorised loader must give the same
cells, row ids and column keys, or raise the same error with the same
message. The sweep must reach its canonical pass and its per-row
fallback, and read texts both as plain lines and with ``csv.reader``.
"""

import csv
import io
import random

import numpy as np
import pytest

import cama.matrix
from cama.errors import ParseError
from cama.matrix import IncidenceMatrix, incidence_from_csv


def ref_incidence_from_csv(text: str) -> IncidenceMatrix:
    reader = csv.reader(io.StringIO(text), strict=True)
    try:
        rows = [row for row in reader if row]
    except csv.Error as e:  # an unclosed quote; on Python 3.10, a NUL
        raise ParseError(f"invalid incidence CSV: {e}") from e
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
PLAIN_CELLS = ["01", " 1", "1 ", "+0", "-0", "00", "1_0", "2", "-1", "x", "", "١", "٠"]
ODD_CELLS = [*PLAIN_CELLS, '"1"', '"1,0"']
PLAIN_IDS = ["q1", "r 2", "", "١", "id", "é", "问题7", "a\u2028b", "q\0"]
ROW_IDS = [*PLAIN_IDS, '"q,3"', '"a, ""b"""']
KEYS = ["a", "b c", '"sums, products"', "١", "ключ", "数学", "k"]


def random_document(rng: random.Random) -> str:
    header = ["id", *rng.sample(KEYS, rng.randint(1, len(KEYS)))]
    if rng.random() < 0.03:
        header[0] = rng.choice(["", "ID", "x"])
    if rng.random() < 0.02:
        header = ["id"]
    odd_rate = rng.choice([0.0, 0.02, 0.1, 0.5])
    # without a quoted id or cell, a body with "\n" line ends is plain
    quoting = rng.random() < 0.5
    row_ids, odd_cells = (ROW_IDS, ODD_CELLS) if quoting else (PLAIN_IDS, PLAIN_CELLS)
    lines = [",".join(header)]
    for _ in range(rng.randint(0, 8)):
        cells = [
            rng.choice(odd_cells) if rng.random() < odd_rate else rng.choice("01")
            for _ in range(len(header) - 1)
        ]
        if rng.random() < 0.05:
            cells = cells[:-1] if cells and rng.random() < 0.5 else [*cells, "1"]
        lines.append(",".join([rng.choice(row_ids), *cells]))
    if rng.random() < 0.05:
        lines.insert(rng.randint(1, len(lines)), "," * rng.randint(1, len(header)))
    if not quoting and rng.random() < 0.1:
        lines.append(",".join(['"late, quote"', *rng.choices("01", k=len(header) - 1)]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "", " ", "\t"]))
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


def counting(monkeypatch, name: str) -> list[int]:
    """Replace ``cama.matrix.<name>`` by a wrapper that counts its calls."""
    calls = [0]
    original = getattr(cama.matrix, name)

    def wrapper(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(cama.matrix, name, wrapper)
    return calls


def test_vectorised_loader_matches_reference(monkeypatch):
    fallback_rows = counting(monkeypatch, "_parse_cells")
    split_calls = {name: counting(monkeypatch, name) for name in ("_split_lines", "_csv_rows")}
    split_docs = dict.fromkeys(split_calls, 0)
    rng = random.Random(20240611)
    canonical_docs = fallback_docs = errors = loaded = 0
    for _ in range(5000):
        text = random_document(rng)
        before = fallback_rows[0]
        split_before = {name: calls[0] for name, calls in split_calls.items()}
        got = outcome(incidence_from_csv, text)
        assert got == outcome(ref_incidence_from_csv, text), repr(text)
        fallbacks = fallback_rows[0] - before
        fallback_docs += fallbacks > 0
        for name, calls in split_calls.items():
            split_docs[name] += calls[0] > split_before[name]
        if got[0] == "matrix":
            loaded += 1
            canonical_docs += got[2][0] > fallbacks
        else:
            errors += 1
    assert canonical_docs >= 100
    assert fallback_docs >= 100
    assert loaded >= 1000 and errors >= 1000
    assert split_docs["_split_lines"] >= 100 and split_docs["_csv_rows"] >= 100


def test_bad_cell_reported_before_later_ragged_row():
    text = "id,a,b\nr1,0,1\nr2,1,2\nr3,0,0\nr4,1\n"
    assert outcome(incidence_from_csv, text) == ("error", "line 3: cells must be 0 or 1")
    assert outcome(ref_incidence_from_csv, text) == ("error", "line 3: cells must be 0 or 1")


def test_ragged_row_reported_before_later_bad_cell():
    text = "id,a,b\nr1,0,1\n\nr2,1\nr3,x,0\n"
    expected = ("error", "line 3: expected 3 fields, got 2")
    assert outcome(incidence_from_csv, text) == expected
    assert outcome(ref_incidence_from_csv, text) == expected


def splitters_used(monkeypatch, text: str) -> list[str]:
    calls = {name: counting(monkeypatch, name) for name in ("_split_lines", "_csv_rows")}
    incidence_from_csv(text)
    return [name for name, count in calls.items() if count[0]]


def test_non_ascii_text_stays_plain(monkeypatch):
    text = "id,ключ,数学\nq1,0,1\n\né,1,1\n"
    assert splitters_used(monkeypatch, text) == ["_split_lines"]


# a NUL goes there too, since Python 3.10's csv.reader rejects it; the
# sweep checks that on 3.10
@pytest.mark.parametrize("body", ['q1,0,1\n"q2",1,1\n', "q1,0,1\r\nq2,1,1\r\n"])
def test_quote_or_carriage_return_goes_to_csv_reader(monkeypatch, body):
    assert splitters_used(monkeypatch, f"id,a,b\n{body}") == ["_csv_rows"]


@pytest.mark.parametrize("header", ['id,"sums, products",b', 'id,"two\nlines",b', '"id",a,b'])
def test_quoted_header_goes_to_csv_reader(monkeypatch, header):
    assert splitters_used(monkeypatch, f"{header}\nq1,0,1\n\né,1,1\n") == ["_csv_rows"]


def test_field_size_limit_applies_only_to_csv_reader():
    long_id = "q" * (csv.field_size_limit() + 1)
    assert incidence_from_csv(f"id,a\n{long_id},1\n").row_ids == (long_id,)
    for text in (f'id,a\n{long_id},1\n"q2",0\n', f'"id",a\n{long_id},1\n'):
        with pytest.raises(ParseError, match="field larger than field limit"):
            incidence_from_csv(text)


def test_unclosed_quote_is_an_error():
    # csv.reader outside strict mode would read the rest of the file into one key
    with pytest.raises(ParseError, match="unexpected end of data"):
        incidence_from_csv('id,a,"b,c\nr0,1,1,1\n')
