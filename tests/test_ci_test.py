import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammainccinv

from conftest import one_at_a_time

import cama.discovery
from cama.discovery import (
    CiTestResult,
    _cut_table,
    _g_squared,
    _g_squared_batch,
    _independent,
    _pack,
    chi2_sf,
    cpdag_from_ci,
    discover_cpdag,
    g_squared_ci_test,
)
from cama.graph import serialize_graph
from cama.matrix import IncidenceMatrix
from cama.model import KnowledgePoint
from cama.oracle import TrueDag, random_true_dag, sample_incidence


def matrix_from_counts(counts: dict[tuple[int, ...], int], k: int) -> IncidenceMatrix:
    """Expand {row-pattern: count} into an explicit incidence matrix."""
    rows = []
    for pattern, count in sorted(counts.items()):
        rows.extend([list(pattern)] * count)
    cells = np.array(rows, dtype=np.uint8)
    return IncidenceMatrix(
        cells=cells,
        row_ids=tuple(f"r{i}" for i in range(len(rows))),
        col_keys=tuple(f"c{i}" for i in range(k)),
    )


def g2_reference(cells, x, y, s):
    """Naive dict-based G-squared: the independent oracle for the fast path."""
    strata = {}
    for row in cells:
        key = tuple(int(row[j]) for j in sorted(s))
        strata.setdefault(key, []).append((int(row[x]), int(row[y])))
    stat, dof = 0.0, 0
    for pairs in strata.values():
        counts = {(a, b): 0 for a in (0, 1) for b in (0, 1)}
        for ab in pairs:
            counts[ab] += 1
        rx = {a: counts[(a, 0)] + counts[(a, 1)] for a in (0, 1)}
        ry = {b: counts[(0, b)] + counts[(1, b)] for b in (0, 1)}
        if min(rx.values()) == 0 or min(ry.values()) == 0:
            continue
        dof += 1
        n = len(pairs)
        for a in (0, 1):
            for b in (0, 1):
                o = counts[(a, b)]
                if o:
                    stat += 2.0 * o * math.log(o * n / (rx[a] * ry[b]))
    return stat, dof


def g2_stratum_loop(z, x, y, s, alpha):
    """G-squared as a loop over the strata that np.unique finds: the
    reference for the vectorised kernel. It adds the same terms in the same
    order, so the two agree to the last bit."""
    xcol = z.cells[:, x].astype(np.int64)
    ycol = z.cells[:, y].astype(np.int64)
    if s:
        scols = z.cells[:, sorted(s)].astype(np.int64)
        weights = np.left_shift(1, np.arange(len(s), dtype=np.int64))
        _, strata = np.unique(scols @ weights, return_inverse=True)
    else:
        strata = np.zeros(z.rows, dtype=np.int64)
    n_strata = int(strata.max()) + 1 if z.rows else 0
    flat = strata * 4 + xcol * 2 + ycol
    counts = np.bincount(flat, minlength=n_strata * 4).reshape(n_strata, 2, 2)

    statistic = 0.0
    dof = 0
    for table in counts:
        row = table.sum(axis=1)
        col = table.sum(axis=0)
        if row.min() == 0 or col.min() == 0:
            continue
        dof += 1
        expected = np.outer(row, col) / table.sum()
        observed = table.astype(np.float64)
        mask = observed > 0
        statistic += 2.0 * float(
            (observed[mask] * np.log(observed[mask] / expected[mask])).sum()
        )
    if dof == 0:
        return CiTestResult(statistic=0.0, dof=0, p_value=1.0, independent=True)
    statistic = max(statistic, 0.0)
    p_value = chi2_sf(statistic, dof)
    return CiTestResult(statistic, dof, p_value, p_value > alpha)


def sweep_matrix(rng, rows: int, size: int, kind: str) -> IncidenceMatrix:
    """Columns x=0, y=1 and conditioning columns 2..size+1. Column 1 copies
    column 0 in about half the rows, so both decisions occur."""
    k = size + 2
    if kind == "mixed":  # constant columns among sparse and dense ones
        p = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0], size=k)
    else:
        p = np.full(k, {"sparse": 0.05, "dense": 0.5}[kind])
    cells = (rng.random((rows, k)) < p).astype(np.uint8)
    copy = rng.random(rows) < 0.5
    cells[copy, 1] = cells[copy, 0]
    return IncidenceMatrix(
        cells=cells,
        row_ids=tuple(map(str, range(rows))),
        col_keys=tuple(f"c{i}" for i in range(k)),
    )


# 2 * (80 * ln 1.6 + 20 * ln 0.4), evaluated by hand
HAND_G2_40_10_10_40 = 38.548951404351494


class TestGSquared:
    def test_balanced_table_statistic_zero(self):
        z = matrix_from_counts({(1, 1): 25, (1, 0): 25, (0, 1): 25, (0, 0): 25}, 2)
        result = g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.05)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.independent

    def test_hand_computed_statistic(self):
        z = matrix_from_counts({(1, 1): 40, (1, 0): 10, (0, 1): 10, (0, 0): 40}, 2)
        result = g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.05)
        assert result.statistic == pytest.approx(HAND_G2_40_10_10_40, rel=1e-9)
        assert result.dof == 1
        assert not result.independent

    def test_identical_columns_dependent(self):
        cells = np.zeros((100, 2), dtype=np.uint8)
        cells[:50] = 1
        z = IncidenceMatrix(cells=cells, row_ids=tuple(map(str, range(100))), col_keys=("a", "b"))
        result = g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.05)
        assert result.p_value == pytest.approx(0.0, abs=1e-12)
        assert not result.independent

    def test_degenerate_stratum_zero_dof(self):
        # x constant: its margin is zero on one side in every stratum
        z = matrix_from_counts({(1, 1): 10, (1, 0): 10}, 2)
        result = g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.05)
        assert result.dof == 0
        assert result.independent
        assert result.p_value == 1.0

    def test_matches_reference_on_random_tables(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            k = int(rng.integers(3, 6))
            n = int(rng.integers(20, 200))
            cells = (rng.random((n, k)) < rng.uniform(0.2, 0.8, size=k)).astype(np.uint8)
            z = IncidenceMatrix(
                cells=cells,
                row_ids=tuple(map(str, range(n))),
                col_keys=tuple(f"c{i}" for i in range(k)),
            )
            cond = frozenset(int(c) for c in rng.choice(k, size=int(rng.integers(0, k - 1)), replace=False))
            cond -= {0, 1}
            result = g_squared_ci_test(z, 0, 1, cond, alpha=0.05)
            ref_stat, ref_dof = g2_reference(cells, 0, 1, cond)
            assert result.dof == ref_dof
            assert result.statistic == pytest.approx(ref_stat, rel=1e-9, abs=1e-12)

    def test_conditioning_splits_strata(self):
        # within each stratum of column 2, x and y agree exactly
        z = matrix_from_counts(
            {(1, 1, 0): 20, (0, 0, 0): 20, (1, 1, 1): 20, (0, 0, 1): 20}, 3
        )
        marginal = g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.05)
        conditional = g_squared_ci_test(z, 0, 1, frozenset({2}), alpha=0.05)
        assert not marginal.independent
        assert conditional.dof == 2
        assert not conditional.independent  # still perfectly associated per stratum

    def test_column_out_of_range(self):
        z = matrix_from_counts({(0, 1): 5}, 2)
        with pytest.raises(ValueError, match="column 9 out of range for 2 columns"):
            g_squared_ci_test(z, 0, 9, frozenset(), alpha=0.05)

    def test_overlarge_conditioning_set(self):
        cells = np.zeros((4, 40), dtype=np.uint8)
        z = IncidenceMatrix(
            cells=cells,
            row_ids=tuple(map(str, range(4))),
            col_keys=tuple(f"c{i}" for i in range(40)),
        )
        with pytest.raises(ValueError, match="conditioning set of size 32 exceeds 30"):
            g_squared_ci_test(z, 0, 1, frozenset(range(2, 34)), alpha=0.05)

    def test_alpha_bounds(self):
        z = matrix_from_counts({(0, 1): 5, (1, 0): 5}, 2)
        with pytest.raises(ValueError):
            g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.0)

    @pytest.mark.parametrize("rows", [1, 5, 40, 300, 3000, 20000])
    def test_matches_stratum_loop(self, rows):
        # with 1, 5 and 40 rows the larger s have more possible strata than
        # rows, so the kernel renumbers the strata present
        rng = np.random.default_rng(rows)
        for size in range(9):
            for kind in ("sparse", "dense", "mixed"):
                z = sweep_matrix(rng, rows, size, kind)
                s = frozenset(range(2, size + 2))
                got = g_squared_ci_test(z, 0, 1, s, alpha=0.05)
                want = g2_stratum_loop(z, 0, 1, s, alpha=0.05)
                case = (rows, size, kind)
                assert (got.dof, got.independent) == (want.dof, want.independent), case
                assert got.statistic == pytest.approx(want.statistic, rel=1e-9, abs=0), case
                assert got.p_value == pytest.approx(want.p_value, rel=1e-9, abs=0), case

    def test_zero_margin_strata_add_nothing(self):
        # columns (x, y, c2, c3): x is constant where c2=c3=0, y where
        # c2=1, c3=0; both vary where c2=0, c3=1; no row has c2=c3=1
        z = matrix_from_counts(
            {(1, 1, 0, 0): 9, (1, 0, 0, 0): 3, (1, 1, 1, 0): 4, (0, 1, 1, 0): 6,
             (1, 1, 0, 1): 8, (0, 1, 0, 1): 2, (1, 0, 0, 1): 1, (0, 0, 0, 1): 5},
            4,
        )
        got = g_squared_ci_test(z, 0, 1, frozenset({2, 3}), alpha=0.05)
        assert got == g2_stratum_loop(z, 0, 1, frozenset({2, 3}), alpha=0.05)
        assert got.dof == 1

    def test_thirty_conditioning_columns(self):
        # four strata of about 50 rows, told apart by the top conditioning
        # column too, which takes the code's highest bit
        rng = np.random.default_rng(30)
        patterns = (rng.random((4, 30)) < 0.5).astype(np.uint8)
        patterns[:, -1] = (0, 1, 0, 1)
        cells = np.zeros((200, 32), dtype=np.uint8)
        cells[:, :2] = rng.random((200, 2)) < 0.5
        cells[:, 2:] = patterns[rng.integers(0, 4, size=200)]
        z = IncidenceMatrix(
            cells=cells,
            row_ids=tuple(map(str, range(200))),
            col_keys=tuple(f"c{i}" for i in range(32)),
        )
        s = frozenset(range(2, 32))
        result = g_squared_ci_test(z, 0, 1, s, alpha=0.05)
        assert result == g2_stratum_loop(z, 0, 1, s, 0.05)
        assert result.dof == len({row.tobytes() for row in patterns})

    def test_zero_rows(self):
        z = IncidenceMatrix(
            cells=np.zeros((0, 4), dtype=np.uint8),
            row_ids=(),
            col_keys=tuple(f"c{i}" for i in range(4)),
        )
        for s in (frozenset(), frozenset({2}), frozenset({2, 3})):
            result = g_squared_ci_test(z, 0, 1, s, alpha=0.05)
            assert result == CiTestResult(statistic=0.0, dof=0, p_value=1.0, independent=True)


def batch_kernel(z, x, y, s, alpha=0.05):
    """Statistic, dof, p-value and decision of T tests that share |S|, from
    the code discover_cpdag runs: ``_g_squared_batch`` over the packed
    columns and their co-occurrence counts, ``chi2_sf`` and ``_independent``."""
    x, y, s = (np.asarray(a, dtype=np.intp) for a in (x, y, s))
    statistic, dof = _g_squared_batch(z, _pack(z.cells), x, y, s)
    return statistic, dof, chi2_sf(statistic, dof), _independent(statistic, dof, alpha)


def assert_batch_matches_scalar(z, x, y, s):
    """Every field of every batched test equals the scalar kernel's, bit for bit."""
    x, y, s = np.asarray(x), np.asarray(y), np.asarray(s).reshape(len(x), -1)
    statistic, dof, p_value, independent = batch_kernel(z, x, y, s)
    for t in range(len(x)):
        want = g_squared_ci_test(z, int(x[t]), int(y[t]), frozenset(s[t].tolist()), 0.05)
        got = (float(statistic[t]), int(dof[t]), float(p_value[t]), bool(independent[t]))
        assert got == (want.statistic, want.dof, want.p_value, want.independent), (t, got, want)


def random_tests(rng, k: int, size: int, count: int):
    """``count`` tests on k columns with random x, y and an unsorted s of ``size``."""
    picks = np.array([rng.permutation(k)[: size + 2] for _ in range(count)])
    return picks[:, 0], picks[:, 1], picks[:, 2:]


def all_tests(k: int, size: int):
    """(x, y, s) of every test on k columns with |s| = size."""
    triples = [
        (x, y, c)
        for x in range(k)
        for y in range(k)
        if x != y
        for c in combinations([w for w in range(k) if w not in (x, y)], size)
    ]
    x, y, c = zip(*triples)
    return np.array(x), np.array(y), np.array(c, dtype=np.intp).reshape(len(x), size)


class TestGSquaredBatch:
    @pytest.mark.parametrize("rows", [0, 1, 5, 40, 300, 3000])
    def test_matches_scalar_kernel(self, rows):
        rng = np.random.default_rng(rows)
        for kind in ("sparse", "dense", "mixed"):
            z = sweep_matrix(rng, rows, 4, kind)
            for size in (0, 1):
                assert_batch_matches_scalar(z, *all_tests(z.cols, size))

    def test_zero_margin_strata(self):
        # (x, y, c2, c3): given c2, x is constant where c2 = 1 and y where
        # c2 = 0; c3 = 1 on every row, so its stratum 0 is empty
        z = matrix_from_counts(
            {(1, 1, 0, 1): 9, (0, 1, 0, 1): 3, (1, 0, 1, 1): 4, (1, 1, 1, 1): 6}, 4
        )
        assert_batch_matches_scalar(z, *all_tests(4, 0))
        assert_batch_matches_scalar(z, *all_tests(4, 1))
        dof = batch_kernel(z, [0, 0], [1, 1], [[2], [3]])[1]
        assert dof.tolist() == [0, 1]

    def test_rows_past_one_packed_word(self):
        # 64 rows fill one packed word; 65 spill one bit into a second. An
        # all-ones and an all-zeros column give empty strata, which hold
        # only padding bits if any
        for rows in (63, 64, 65, 130):
            z = sweep_matrix(np.random.default_rng(rows), rows, 3, "dense")
            constant = np.ones(rows, dtype=np.uint8)
            cells = np.column_stack([z.cells, constant, 0 * constant])
            z = IncidenceMatrix(
                cells=cells, row_ids=z.row_ids, col_keys=(*z.col_keys, "ones", "zeros")
            )
            for size in (1, 2, 3):
                assert_batch_matches_scalar(z, *all_tests(z.cols, size))

    def test_empty_batch(self):
        z = sweep_matrix(np.random.default_rng(0), 10, 1, "dense")
        for size in (0, 1):
            out = batch_kernel(z, [], [], np.zeros((0, size), dtype=int))
            assert [len(a) for a in out] == [0, 0, 0, 0]

    @pytest.mark.parametrize("rows", [1, 5, 40, 300, 3000])
    def test_matches_stratum_loop_at_every_level(self, rows):
        # 12 columns, each test with random x, y and an unsorted s; with 1,
        # 5 and 40 rows the larger s have more possible strata than rows
        rng = np.random.default_rng(rows)
        for size in range(9):
            for kind in ("sparse", "dense", "mixed"):
                z = sweep_matrix(rng, rows, 10, kind)
                x, y, s = random_tests(rng, z.cols, size, 8)
                assert_batch_matches_scalar(z, x, y, s)
                statistic, dof, p_value, independent = batch_kernel(z, x, y, s)
                for t in range(len(x)):
                    want = g2_stratum_loop(z, x[t], y[t], frozenset(s[t].tolist()), 0.05)
                    case = (rows, size, kind, t)
                    assert (dof[t], independent[t]) == (want.dof, want.independent), case
                    assert statistic[t] == pytest.approx(want.statistic, rel=1e-9, abs=0), case
                    assert p_value[t] == pytest.approx(want.p_value, rel=1e-9, abs=0), case

    @pytest.mark.parametrize("masks", [True, False])
    def test_statistics_match_stratum_loop_bit_for_bit(self, monkeypatch, masks):
        # the kernel adds each stratum's four terms and then the strata in
        # the loop's order, so a rewrite that moves one bit of a statistic
        # shows here; masks=False sends every level to the bincount fallback
        monkeypatch.setattr(cama.discovery, "_masks_are_cheaper", lambda level, words: masks)
        for rows in (1, 40, 300, 3000):
            rng = np.random.default_rng(rows)
            for size in range(7):
                for kind in ("sparse", "dense", "mixed"):
                    z = sweep_matrix(rng, rows, 10, kind)
                    x, y, s = random_tests(rng, z.cols, size, 8)
                    statistic, dof, p_value, _ = batch_kernel(z, x, y, s)
                    for t in range(len(x)):
                        want = g2_stratum_loop(z, x[t], y[t], frozenset(s[t].tolist()), 0.05)
                        got = (float(statistic[t]), int(dof[t]), float(p_value[t]))
                        assert got == (want.statistic, want.dof, want.p_value), (rows, size, kind, t)

    @pytest.mark.parametrize("rows", [5, 300, 3000])
    def test_chunks_and_bincount_fallback_agree(self, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        z = sweep_matrix(rng, rows, 10, "mixed")
        words = -(-rows // 64)
        for size in (0, 1, 3, 6):
            x, y, s = random_tests(rng, z.cols, size, 13)
            want = batch_kernel(z, x, y, s)
            # chunks of one test, of two and a part, and of all but one
            per_test = (1 << size) * words
            for budget in (1, per_test * 2 + 1, per_test * 12):
                monkeypatch.setattr(cama.discovery, "_BATCH_WORDS", budget)
                got = batch_kernel(z, x, y, s)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (size, budget)
            monkeypatch.undo()
            for masks in (True, False):
                monkeypatch.setattr(
                    cama.discovery, "_masks_are_cheaper", lambda level, words: masks
                )
                got = batch_kernel(z, x, y, s)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (size, masks)
            monkeypatch.undo()

    def test_thirty_conditioning_columns_fall_back_to_bincount(self):
        # 2**30 stratum masks per test are out of reach: each test is a bincount
        rng = np.random.default_rng(30)
        z = sweep_matrix(rng, 200, 30, "dense")
        assert not cama.discovery._masks_are_cheaper(30, 4)
        x, y, s = random_tests(rng, z.cols, 30, 3)
        assert_batch_matches_scalar(z, x, y, s)

    def test_crossover_prefers_masks_at_low_levels(self):
        # the measured crossover: co-occurrence tables up to |S| = 8 with one
        # word of rows, and 5 with 3k rows (47 words) and 50k rows (782 words)
        cheaper = cama.discovery._masks_are_cheaper
        for words, last in ((1, 8), (47, 5), (782, 5)):
            assert [cheaper(level, words) for level in range(12)] == [
                level <= last for level in range(12)
            ], words


def test_discover_cpdag_batches_every_level(monkeypatch):
    # one kernel call per wave, with |S| never falling, and no scalar test
    def scalar_test(*args):
        raise AssertionError("discover_cpdag ran a scalar test")

    monkeypatch.setattr(cama.discovery, "g_squared_ci_test", scalar_test)
    batched = []
    kernel = cama.discovery._g_squared_batch

    def recording(z, packed, x, y, s):
        batched.append(s.shape[1])
        return kernel(z, packed, x, y, s)

    monkeypatch.setattr(cama.discovery, "_g_squared_batch", recording)
    z = sample_incidence(random_true_dag(12, 2 / 11, seed=3), 4000, seed=3)
    discover_cpdag(z)
    assert batched == sorted(batched) and batched.count(0) == 1
    assert set(batched) >= {0, 1, 2} and batched.count(1) > 1


def test_batch_refuses_more_than_thirty_conditioning_columns():
    # x and y copy the last conditioning column with 10% noise, so they are
    # independent given it; a stratum code of 31 conditioning columns would
    # lose that column's bit and find them dependent
    rng = np.random.default_rng(31)
    cells = np.zeros((2000, 33), dtype=np.uint8)
    cells[:, -1] = rng.random(2000) < 0.5
    for col in (0, 1):
        cells[:, col] = cells[:, -1] ^ (rng.random(2000) < 0.1)
    z = IncidenceMatrix(
        cells=cells,
        row_ids=tuple(map(str, range(2000))),
        col_keys=tuple(f"c{i}" for i in range(33)),
    )
    s = np.arange(2, 33).reshape(1, 31)
    assert g2_stratum_loop(z, 0, 1, frozenset(range(2, 33)), 0.05).independent
    with pytest.raises(ValueError, match="conditioning set of size 31 exceeds 30"):
        batch_kernel(z, [0], [1], s)
    with pytest.raises(ValueError, match="max_cond_size 31 exceeds 30"):
        discover_cpdag(z, max_cond_size=31)
    # the last thirty, which hold the copied column, still decide as the loop
    assert_batch_matches_scalar(z, [0], [1], s[:, 1:])
    want = g2_stratum_loop(z, 0, 1, frozenset(range(3, 33)), 0.05)
    assert bool(batch_kernel(z, [0], [1], s[:, 1:])[3][0]) == want.independent


def test_popcount_reads_per_test(monkeypatch):
    # the work the co-occurrence kernel saves: one discovery counts each
    # column and pair of columns once; after that a test reads no packed
    # word given no column, one row of words (x & y & s) given one, and
    # five (the subsets of three or four of its columns) given two
    batches, packs, reads = [], [], Counter()
    popcount, kernel, pack = (
        cama.discovery._popcount, cama.discovery._g_squared_batch, cama.discovery._pack
    )

    def counting_popcount(words):
        reads[len(batches) - 1 if batches else "pack"] += math.prod(words.shape[:-1])
        return popcount(words)

    def recording(z, packed, x, y, s):
        batches.append((s.shape[1], len(x)))
        return kernel(z, packed, x, y, s)

    def counting_pack(cells):
        packs.append(cells.shape[1])
        return pack(cells)

    monkeypatch.setattr(cama.discovery, "_popcount", counting_popcount)
    monkeypatch.setattr(cama.discovery, "_g_squared_batch", recording)
    monkeypatch.setattr(cama.discovery, "_pack", counting_pack)
    z = sample_incidence(random_true_dag(12, 2 / 11, seed=3), 4000, seed=3)
    discover_cpdag(z)
    assert packs == [12] and reads["pack"] == 12 * 13 // 2
    per_test = {0: 0, 1: 1, 2: 5}
    assert {level for level, _ in batches} == set(per_test)
    for wave, (level, tests) in enumerate(batches):
        assert reads[wave] == per_test[level] * tests, (wave, level, tests)


def test_level_zero_wave_is_one_table_call(monkeypatch):
    # a level-0 table reads no packed word, so a wave of 240 tests on 50k
    # rows is one call; level 1 keeps chunks of _BATCH_WORDS words per
    # stratum: 41 tests of 2 strata and 782 words
    calls = []
    tables = cama.discovery._cooccurrence_tables

    def counting(packed, rows, x, y, s):
        calls.append((s.shape[1], len(x)))
        return tables(packed, rows, x, y, s)

    monkeypatch.setattr(cama.discovery, "_cooccurrence_tables", counting)
    rng = np.random.default_rng(50)
    z = sweep_matrix(rng, 50_000, 14, "mixed")
    x, y, s = all_tests(z.cols, 0)
    assert_batch_matches_scalar(z, x, y, s)
    assert calls == [(0, 240)]
    calls.clear()
    assert_batch_matches_scalar(z, *random_tests(rng, z.cols, 1, 120))
    step = cama.discovery._BATCH_WORDS // (2 * 782)
    assert calls == [(1, step), (1, step), (1, 120 - 2 * step)]


def test_level_zero_batch_memory_is_bounded():
    # all 499,500 pairs of 1000 columns in one level-0 batch: chunks of
    # _BATCH_WORDS tests keep the peak under 40 MB (about 25 MB measured),
    # where one chunk of every test peaks near 140 MB, and give its
    # statistics and dofs bit for bit
    rng = np.random.default_rng(60)
    k, rows = 1000, 200
    z = IncidenceMatrix(
        cells=(rng.random((rows, k)) < 0.3).astype(np.uint8),
        row_ids=tuple(map(str, range(rows))),
        col_keys=tuple(f"c{i}" for i in range(k)),
    )
    packed = _pack(z.cells)
    x, y = np.triu_indices(k, 1)
    s = np.empty((len(x), 0), np.intp)
    tracemalloc.start()
    try:
        statistic, dof = _g_squared_batch(z, packed, x, y, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak
    one_chunk = _g_squared(cama.discovery._cooccurrence_tables(packed, rows, x, y, s))
    assert np.array_equal(statistic, one_chunk[0]) and np.array_equal(dof, one_chunk[1])


def test_cut_table_computes_each_dof_once(monkeypatch):
    # one discovery computes the cut of each dof its waves meet once
    asked, dofs = [], []
    inverse, kernel = cama.discovery._chi2_cut, cama.discovery._g_squared_batch

    def recording_inverse(dof, alpha):
        asked.append(dof)
        return inverse(dof, alpha)

    def recording_kernel(*args):
        statistic, dof = kernel(*args)
        dofs.append(dof)
        return statistic, dof

    monkeypatch.setattr(cama.discovery, "_chi2_cut", recording_inverse)
    monkeypatch.setattr(cama.discovery, "_g_squared_batch", recording_kernel)
    z = sample_incidence(random_true_dag(12, 2 / 11, seed=3), 4000, seed=3)
    discover_cpdag(z)
    met = np.unique(np.concatenate(dofs))
    assert sorted(asked) == met[met > 0].tolist()
    assert len(dofs) > len(asked)


def test_cut_table_decides_as_p_values_across_calls():
    # cuts kept from earlier calls decide as fresh ones: each call mixes
    # dofs met before with new ones, statistics on and near their cuts
    rng = np.random.default_rng(1)
    independent = _cut_table(0.05)
    for dofs in ([3, 1], [1, 7, 3], [64, 0], [2, 7, 1, 0, 64]):
        dof = np.repeat(dofs, 20)
        cut = np.where(dof > 0, 2.0 * gammainccinv(np.maximum(dof, 1) / 2.0, 0.05), 1.0)
        statistic = cut * (1 + rng.choice([0.0, 1e-7, -1e-7, 1e-3, -1e-3], len(dof)))
        want = chi2_sf(statistic, dof) > 0.05
        assert np.array_equal(independent(statistic, dof), want), dofs


class TestIndependentDecision:
    def test_equals_p_value_above_alpha_around_the_cut(self):
        # statistics on, just off and far off the cut where p = alpha
        rng = np.random.default_rng(0)
        for alpha in (1e-6, 0.01, 0.05, 0.5, 0.99):
            for dof in (1, 2, 3, 4, 7, 16, 64, 256):
                cut = 2.0 * gammainccinv(dof / 2.0, alpha)
                offsets = np.concatenate(
                    [[0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 2e-6, 1e-4, 0.1, 1.0],
                     rng.uniform(0, 2e-6, 20)]
                )
                statistic = np.concatenate(
                    [cut * (1 + offsets), cut * (1 - offsets[offsets < 1]), [0.0, 1e4],
                     np.nextafter(cut, [0.0, np.inf])]
                )
                dofs = np.full(len(statistic), dof)
                want = chi2_sf(statistic, dofs) > alpha
                assert np.array_equal(_independent(statistic, dofs, alpha), want), (alpha, dof)

    def test_zero_dof_is_independent(self):
        statistic = np.array([0.0, 0.0, 5.0])
        dof = np.array([0, 1, 1])
        assert _independent(statistic, dof, 0.05).tolist() == [True, True, False]


def sparse_dag(k: int, seed: int) -> TrueDag:
    """random_true_dag's structure with the tables of extracted incidence: a
    point is present with p in [0.25, 0.6] when any parent is and in [0.03,
    0.08] otherwise, about 7% ones in all."""
    base = random_true_dag(k, 2 / (k - 1), seed=seed)
    rng = np.random.default_rng(seed)
    cpts = []
    for parents in base.parents:
        any_parent = np.arange(2 ** len(parents)) > 0
        p_one = np.where(
            any_parent,
            rng.uniform(0.25, 0.6, size=any_parent.size),
            rng.uniform(0.03, 0.08, size=any_parent.size),
        )
        cpts.append(np.column_stack([1.0 - p_one, p_one]))
    return TrueDag(names=base.names, parents=base.parents, cpt=tuple(cpts))


def assert_cpdag_bytes_match(z, max_cond_size=None):
    """discover_cpdag equals cpdag_from_ci over the one-at-a-time stratum loop.

    ``max_cond_size=None`` passes no cap, so both run at their default.
    """
    cap = {} if max_cond_size is None else {"max_cond_size": max_cond_size}
    points = tuple(KnowledgePoint(key=key) for key in z.col_keys)
    reference = cpdag_from_ci(
        z.cols,
        one_at_a_time(lambda u, v, s: g2_stratum_loop(z, u, v, s, 0.05).independent),
        points,
        **cap,
    )
    got = discover_cpdag(z, **cap)
    assert serialize_graph(got) == serialize_graph(reference), max_cond_size


@pytest.mark.parametrize("k", [10, 20])
@pytest.mark.parametrize("rows", [2000, 20000])
def test_cpdag_bytes_match_stratum_loop(k, rows):
    for seed in range(3):
        z = sample_incidence(random_true_dag(k, 2 / (k - 1), seed=seed), rows, seed=seed)
        for max_cond_size in (0, 1, None):
            assert_cpdag_bytes_match(z, max_cond_size)


@pytest.mark.parametrize("max_cond_size", [0, 1, None])
@pytest.mark.parametrize("k", [60, 120])
def test_cpdag_bytes_match_stratum_loop_sparse_wide(k, max_cond_size):
    z = sample_incidence(sparse_dag(k, seed=k), 3000, seed=k)
    assert 0.04 < z.cells.mean() < 0.1
    assert_cpdag_bytes_match(z, max_cond_size)


@pytest.mark.parametrize("rows", [0, 1, 50])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_cpdag_bytes_match_stratum_loop_degenerate(k, rows):
    cells = (np.random.default_rng(k).random((rows, k)) < 0.5).astype(np.uint8)
    z = IncidenceMatrix(
        cells=cells,
        row_ids=tuple(map(str, range(rows))),
        col_keys=tuple(f"c{i}" for i in range(k)),
    )
    for max_cond_size in (0, 1, None):
        assert_cpdag_bytes_match(z, max_cond_size)


class TestChiSquareSurvival:
    def test_against_numerical_quadrature(self):
        # independent oracle: integrate the chi-square density directly
        for x, dof in [(1.0, 1), (3.84, 1), (5.99, 2), (10.0, 4), (38.55, 1)]:
            density = lambda t, d=dof: (
                t ** (d / 2 - 1) * math.exp(-t / 2) / (2 ** (d / 2) * math.gamma(d / 2))
            )
            expected, _ = integrate.quad(density, x, np.inf)
            assert chi2_sf(x, dof) == pytest.approx(expected, rel=1e-9)

    def test_zero_dof_returns_one(self):
        assert chi2_sf(5.0, 0) == 1.0
