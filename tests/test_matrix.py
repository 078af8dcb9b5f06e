import warnings

import numpy as np
import pytest

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

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError):
            incidence_from_csv("")
