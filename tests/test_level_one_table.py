"""Level 1's candidate table from neighbour masks, and the memory of the
skeleton search when every pair survives level 0 or none does.

``_neighbour_table`` lays out each pair's level-1 candidates from the
adjacency matrix; they must be ``_subsets``' candidates in ``_subsets``'
order, a block of at most ``_BLOCK`` at a time, however many pairs one
mask holds.
"""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

import cama.discovery
from cama.discovery import _BLOCK, _neighbour_table, _subsets, skeleton_from_ci

from test_skeleton_reference import assert_same_search, counted, counted_batch, ref_skeleton_from_ci


def random_adjacency(seed: int) -> np.ndarray:
    """A random graph whose pairs take every kind of level-1 candidate list:
    shared neighbours, more than ``_BLOCK`` candidates (dense seeds), an
    end of degree 1 (the last node but two hangs off node 0) and none at
    all (the last two nodes are an edge of their own)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(6, 160))
    upper = np.triu(rng.random((k, k)) < rng.uniform(0.05, 0.95), 1)
    adj = upper | upper.T
    adj[k - 3 :] = adj[:, k - 3 :] = False
    adj[0, k - 3] = adj[k - 3, 0] = True
    adj[k - 2, k - 1] = adj[k - 1, k - 2] = True
    return adj


def table_candidates(adj: np.ndarray, u: np.ndarray, v: np.ndarray) -> list[list[int]]:
    """Every level-1 candidate of each pair, read block by block as the
    wave loop reads them: a pair takes its next block while its last one
    was full."""
    got = [[] for _ in u]
    playing, first = np.arange(len(u)), 0
    while len(playing):
        flat, start, count = _neighbour_table(adj, u, v, playing, first)
        assert flat.shape == (count.sum(), 1) and flat.dtype == np.intp
        assert (count <= _BLOCK).all()
        for i, a, n in zip(playing.tolist(), start.tolist(), count.tolist()):
            got[i] += flat[a : a + n, 0].tolist()
        playing, first = playing[count == _BLOCK], first + _BLOCK
    return got


@pytest.mark.parametrize("seed", range(12))
def test_neighbour_table_gives_subsets_in_order(seed):
    adj = random_adjacency(seed)
    u, v = np.nonzero(np.triu(adj))
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    want = [[c for (c,) in _subsets(nbrs, a, b, 1)] for a, b in zip(u.tolist(), v.tolist())]
    assert table_candidates(adj, u, v) == want
    shared = [len(set(nbrs[a]) & set(nbrs[b])) for a, b in zip(u.tolist(), v.tolist())]
    assert [] in want and any(shared)
    assert min(len(nbrs[a]) for a in u.tolist() + v.tolist()) == 1


def test_neighbour_table_spans_blocks():
    # a complete graph on 150 columns: 148 candidates a pair, three blocks
    adj = ~np.eye(150, dtype=bool)
    u, v = np.nonzero(np.triu(adj))
    got = table_candidates(adj, u, v)
    assert all(len(c) == 148 for c in got)
    assert got[0] == list(range(2, 150)) and got[-1] == list(range(148))


def recorded_waves(k, decide):
    """Every wave ``skeleton_from_ci(k, decide)`` asks, as lists of (x, y,
    s) tuples, and the skeleton."""
    waves = []

    def recording(x, y, s):
        waves.append(list(zip(x.tolist(), y.tolist(), map(tuple, s.tolist()))))
        return decide(x, y, s)

    return waves, skeleton_from_ci(k, recording)


def sparse_independence(x, y, s):
    """Independent for a few pairs at level 0 and, at |S| >= 1, for about one
    candidate in 40, so pairs run through several blocks of candidates."""
    code = x * 7919 + y * 104729 + (s * 31).sum(axis=1)
    return code % (41 if s.shape[1] else 5) == 0


@pytest.mark.parametrize("mask_cells", [1, 1000])
def test_mask_chunks_ask_the_same_tests(monkeypatch, mask_cells):
    # one pair per mask, or a few, must ask each pair the same candidates
    # in the same waves as one mask over every pair
    k = 90
    want_waves, want = recorded_waves(k, sparse_independence)
    monkeypatch.setattr(cama.discovery, "_MASK_CELLS", mask_cells)
    got_waves, got = recorded_waves(k, sparse_independence)
    assert got_waves == want_waves
    assert (got.adjacency == want.adjacency).all()
    assert list(got.sepsets.items()) == list(want.sepsets.items())
    level_one = [w for w in want_waves if len(w[0][2]) == 1]
    assert len(level_one) > _BLOCK  # the pairs in play took a second block


def test_level_one_table_memory_grows_with_pairs():
    # 200 columns stay complete through level 0, so each of the 19,900
    # pairs has 198 level-1 candidates and leaves at its first. One
    # _subsets source per pair, with two copied neighbour lists and a set,
    # peaked at 245 MB; the table of one block per pair is 10 MB (about
    # 22 MB at the peak measured)
    k = 200
    decide, got_sizes = counted_batch(lambda x, y, s: np.full(len(x), s.shape[1] == 1))
    tracemalloc.start()
    try:
        got = skeleton_from_ci(k, decide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    independent, want_sizes = counted(lambda u, v, s: len(s) == 1)
    want = ref_skeleton_from_ci(k, independent)
    assert_same_search(got, got_sizes, want, want_sizes, k)
    assert got_sizes == {0: 19_900, 1: 19_900}
    assert peak < 32 * 2**20, peak


def test_level_zero_removals_memory_is_bounded():
    # every pair of 1000 columns is independent at level 0: 499,500 empty
    # sepsets, which a dict held in 70 MB (91 MB at the peak). The removal-
    # level matrix holds them in 1 MB (about 12 MB at the peak measured,
    # most of it the level's pair indices)
    k = 1000
    tracemalloc.start()
    try:
        sk = skeleton_from_ci(k, lambda x, y, s: np.ones(len(x), dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak
    assert not sk.adjacency.any()
    assert len(sk.sepsets) == k * (k - 1) // 2
    assert list(islice(sk.sepsets.items(), 3)) == [((0, j), frozenset()) for j in (1, 2, 3)]
    assert sk.sepsets[(k - 2, k - 1)] == frozenset()
