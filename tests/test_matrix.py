import csv
import io
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cama.errors import ParseError
from cama.matrix import IncidenceMatrix, incidence_from_csv, load_incidence_csv


def small_matrix() -> IncidenceMatrix:
    return IncidenceMatrix(
        cells=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8),
        row_ids=("q1", "q2", "q3"),
        col_keys=("area", "volume"),
    )


class TestInvariants:
    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            IncidenceMatrix(
                cells=np.array([[2]]), row_ids=("r",), col_keys=("a",)
            )

    @pytest.mark.parametrize("value", [257, 0.7, -1, 2.0, 1.5])
    def test_values_changed_by_the_cast_rejected(self, value):
        for cells in ([[0, value]], np.array([[0, value]])):
            with pytest.raises(ValueError):
                IncidenceMatrix(cells=cells, row_ids=("r",), col_keys=("a", "b"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cells_rejected_without_a_warning(self, value):
        for cells in ([[0, value]], np.array([[0, value]], dtype=np.float32)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^cells must contain only 0 and 1$"):
                    IncidenceMatrix(cells=cells, row_ids=("r",), col_keys=("a", "b"))

    @pytest.mark.parametrize(
        "cells",
        [[[0.0, 1.0]], np.array([[0.0, 1.0]], dtype=np.float32), [[False, True]], [[0, 1]]],
    )
    def test_exact_zero_one_values_accepted(self, cells):
        z = IncidenceMatrix(cells=cells, row_ids=("r",), col_keys=("a", "b"))
        assert z.cells.dtype == np.uint8
        assert z.cells.tolist() == [[0, 1]]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            IncidenceMatrix(
                cells=np.zeros((1, 2)), row_ids=("r",), col_keys=("a", "a")
            )

    def test_row_id_count_mismatch(self):
        with pytest.raises(ValueError):
            IncidenceMatrix(cells=np.zeros((2, 1)), row_ids=("r",), col_keys=("a",))

    def test_cells_frozen_after_build(self):
        z = small_matrix()
        with pytest.raises(ValueError):
            z.cells[0, 0] = 0

    def test_source_array_not_aliased(self):
        source = np.zeros((1, 1), dtype=np.uint8)
        z = IncidenceMatrix(cells=source, row_ids=("r",), col_keys=("a",))
        source[0, 0] = 1
        assert z.cells[0, 0] == 0


class TestCsvRoundTrip:
    def test_round_trip(self):
        z = small_matrix()
        again = incidence_from_csv(z.to_csv())
        assert (again.cells == z.cells).all()
        assert again.row_ids == z.row_ids
        assert again.col_keys == z.col_keys

    def test_keys_with_commas_quoted(self):
        z = IncidenceMatrix(
            cells=np.array([[1]], dtype=np.uint8),
            row_ids=("q1",),
            col_keys=("sums, products",),
        )
        again = incidence_from_csv(z.to_csv())
        assert again.col_keys == ("sums, products",)

    def test_file_round_trip(self, tmp_path):
        z = small_matrix()
        z.save_csv(tmp_path / "z.csv")
        assert (load_incidence_csv(tmp_path / "z.csv").cells == z.cells).all()

    # a line end or a field end inside an id or a key
    @pytest.mark.parametrize("text", ["a\rb", "\r", "a\r\nb", "a\nb", "a,b", 'say "hi"', '"', "é"])
    def test_file_round_trip_of_ids_and_keys(self, tmp_path, text):
        z = IncidenceMatrix(cells=[[1, 0], [0, 1]], row_ids=(text, "q2"), col_keys=(text, "k"))
        z.save_csv(tmp_path / "z.csv")
        again = load_incidence_csv(tmp_path / "z.csv")
        assert (again.row_ids, again.col_keys) == (z.row_ids, z.col_keys)
        assert np.array_equal(again.cells, z.cells)

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_quoted_file_with_cr_line_ends(self, tmp_path, newline):
        (tmp_path / "z.csv").write_bytes(f'id,a{newline}"q,1",1{newline}q2,0'.encode())
        again = load_incidence_csv(tmp_path / "z.csv")
        assert (again.row_ids, again.cells.tolist()) == (("q,1", "q2"), [[1], [0]])

    def test_byte_order_mark_named(self, tmp_path):
        (tmp_path / "z.csv").write_text("id,a\nq1,1\n", encoding="utf-8-sig")
        message = r"^invalid incidence CSV: Unexpected UTF-8 BOM \(position 0\)$"
        with pytest.raises(ParseError, match=message):
            load_incidence_csv(tmp_path / "z.csv")

    def test_large_round_trip(self):
        rng = np.random.default_rng(7)
        z = IncidenceMatrix(
            cells=rng.integers(0, 2, size=(20_000, 40), dtype=np.uint8),
            row_ids=tuple(f"q{i}, part {i % 3}" for i in range(20_000)),
            col_keys=tuple(f"point {j}" for j in range(40)),
        )
        again = incidence_from_csv(z.to_csv())
        assert np.array_equal(again.cells, z.cells)
        assert again.row_ids == z.row_ids
        assert again.col_keys == z.col_keys
        assert again.cells.flags.f_contiguous
        assert not again.cells.flags.writeable

    def test_missing_id_header_rejected(self):
        with pytest.raises(ParseError):
            incidence_from_csv("area,volume\n1,0\n")

    def test_non_binary_cell_rejected(self):
        with pytest.raises(ParseError):
            incidence_from_csv("id,a\nr1,3\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError):
            incidence_from_csv("id,a,b\nr1,1\n")

    def test_repeated_column_key_rejected(self):
        with pytest.raises(ParseError, match="column keys must be pairwise distinct"):
            incidence_from_csv("id,a,a\nr1,0,1\n")

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError):
            incidence_from_csv("")


def writer_csv(z: IncidenceMatrix) -> str:
    """Each row as ``csv.writer`` writes it with a ``\\r\\n`` line terminator,
    which quotes a field holding ``\\r`` as well as one holding ``\\n``,
    then ended by ``\\n``."""
    rows = [["id", *z.col_keys], *([rid, *map(int, row)] for rid, row in zip(z.row_ids, z.cells))]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


# pieces of ids and keys: commas, quotes, line ends, NUL, non-ASCII, nothing
TEXT_PIECES = ["q1", "a,b", 'say "hi"', "two\nlines", "cr\r", "\0", "\t", " ", "é", "数", ""]


def random_text(rng: random.Random) -> str:
    return "".join(rng.choices(TEXT_PIECES, k=rng.randint(0, 3)))


class TestToCsv:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_csv_writer(self, seed):
        rng = random.Random(seed)
        n, k = rng.choice([0, 1, 3, 40]), rng.randint(0, 5)
        keys = list(dict.fromkeys(random_text(rng) for _ in range(3 * k)))[:k]
        z = IncidenceMatrix(
            cells=np.array(rng.choices([0, 1], k=n * len(keys))).reshape(n, len(keys)),
            row_ids=[random_text(rng) for _ in range(n)],
            col_keys=keys,
        )
        assert z.to_csv() == writer_csv(z)

    def test_zero_rows(self):
        z = IncidenceMatrix(cells=np.zeros((0, 2)), row_ids=(), col_keys=("a", "b,c"))
        assert z.to_csv() == writer_csv(z) == 'id,a,"b,c"\n'


# ids and keys: line ends, NUL, separators, a BOM, commas, quotes, non-ASCII
id_text = st.text(
    st.sampled_from(["\r", "\n", "\0", "\u2028", "\ufeff", ",", '"', " ", "q", "1", "é", "数"])
    | st.characters(codec="utf-8"),
    max_size=6,
)


@st.composite
def matrices(draw):
    keys = draw(st.lists(id_text, min_size=1, max_size=4, unique=True))
    row_ids = draw(st.lists(id_text, max_size=5))
    cells = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=len(keys), max_size=len(keys)),
            min_size=len(row_ids),
            max_size=len(row_ids),
        )
    )
    return IncidenceMatrix(
        cells=np.array(cells, dtype=np.uint8).reshape(len(row_ids), len(keys)),
        row_ids=row_ids,
        col_keys=keys,
    )


class TestCsvFileRoundTrip:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(z=matrices())
    def test_save_csv_loads_back(self, tmp_path_factory, z):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        try:
            z.save_csv(path)
            again = load_incidence_csv(path)
        except (csv.Error, ParseError):
            # Python 3.10's csv module refuses a NUL; 3.11's writes and reads it
            if sys.version_info < (3, 11) and "\0" in "".join((*z.row_ids, *z.col_keys)):
                return
            raise
        assert (again.row_ids, again.col_keys) == (z.row_ids, z.col_keys)
        assert np.array_equal(again.cells, z.cells)
