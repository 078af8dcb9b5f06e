"""The wave skeleton search against the one-at-a-time search it replaced.

``ref_skeleton_from_ci`` asks each still-adjacent pair its candidate
conditioning sets one test at a time, lazily, and stops at the first
independent one. The wave search must ask exactly the same tests: on
seeded random DAGs, with the d-separation oracle and with G-squared, it
must give the same adjacency, the same sepsets in the same insertion order
and the same number of tests at every level.
"""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import cama.discovery
from cama.discovery import DEFAULT_MAX_COND_SIZE, discover_cpdag, g_squared_ci_test, skeleton_from_ci
from cama.oracle import d_separation_ci, dsep_independence, random_true_dag, sample_incidence

from test_ci_test import sparse_dag


def ref_candidates(frozen, u, v, level):
    if level == 0:
        yield ()
        return
    tested = set()
    for base in (frozen[u], frozen[v]):
        pool = [w for w in base if w != u and w != v]
        for subset in combinations(pool, level):
            if subset not in tested:
                tested.add(subset)
                yield subset


def ref_skeleton_from_ci(k, independent, max_cond_size=DEFAULT_MAX_COND_SIZE):
    cap = min(k - 2, max_cond_size)
    adj = {i: set(range(k)) - {i} for i in range(k)}
    sepsets = {}
    level = 0
    while level <= cap:
        frozen = {i: sorted(adj[i]) for i in range(k)}
        if not any(
            len(frozen[u]) - 1 >= level and v in adj[u] for u in range(k) for v in frozen[u]
        ):
            break
        removals = []
        for u in range(k):
            for v in frozen[u]:
                if v <= u:
                    continue
                for subset in map(frozenset, ref_candidates(frozen, u, v, level)):
                    if independent(u, v, subset):
                        removals.append((u, v, subset))
                        break
        for u, v, ss in removals:
            adj[u].discard(v)
            adj[v].discard(u)
            sepsets[(u, v)] = ss
        level += 1
    adjacency = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in adj[i]:
            adjacency[i, j] = True
    return adjacency, sepsets


def counted(independent):
    """``independent`` and a Counter of the tests it is asked, per |S|."""
    sizes = Counter()

    def counting(u, v, s):
        sizes[len(s)] += 1
        return independent(u, v, s)

    return counting, sizes


def counted_batch(decide):
    """``decide`` and a Counter of the tests it is asked, per |S|."""
    sizes = Counter()

    def counting(x, y, s):
        sizes[s.shape[1]] += len(x)
        return decide(x, y, s)

    return counting, sizes


def assert_same_search(got, got_sizes, want, want_sizes, case):
    adjacency, sepsets = want
    assert (got.adjacency == adjacency).all(), case
    assert list(got.sepsets.items()) == list(sepsets.items()), case
    assert got_sizes == want_sizes, case


def test_oracle_waves_ask_the_reference_tests():
    deepest = 0
    for seed in range(30):
        k = 4 + seed % 7
        dag = random_true_dag(k, (0.2, 0.35, 0.5)[seed % 3], seed=seed)
        for max_cond_size in (DEFAULT_MAX_COND_SIZE, 1):
            decide, got_sizes = counted_batch(dsep_independence(dag))
            got = skeleton_from_ci(k, decide, max_cond_size=max_cond_size)
            independent, want_sizes = counted(lambda u, v, s: d_separation_ci(dag, u, v, s))
            want = ref_skeleton_from_ci(k, independent, max_cond_size)
            assert_same_search(got, got_sizes, want, want_sizes, (seed, max_cond_size))
            deepest = max(deepest, *want_sizes)
    assert deepest >= 3


@pytest.mark.parametrize("masks", [True, False])
def test_g_squared_waves_ask_the_reference_tests(monkeypatch, masks):
    # masks=False sends every level to the per-test bincount fallback
    if not masks:
        monkeypatch.setattr(cama.discovery, "_masks_are_cheaper", lambda level, words: False)
    kernel = cama.discovery._g_squared_batch
    got_sizes = Counter()

    def counting(z, packed, x, y, s):
        got_sizes[s.shape[1]] += len(x)
        return kernel(z, packed, x, y, s)

    skeletons = []
    search = cama.discovery.skeleton_from_ci

    def keeping(*args, **kwargs):
        skeletons.append(search(*args, **kwargs))
        return skeletons[-1]

    monkeypatch.setattr(cama.discovery, "_g_squared_batch", counting)
    monkeypatch.setattr(cama.discovery, "skeleton_from_ci", keeping)
    deepest = 0
    for seed in range(6):
        k, rows = (10, 2000) if seed % 2 else (16, 5000)
        dag = sparse_dag(k, seed) if seed % 3 == 2 else random_true_dag(k, 2 / (k - 1), seed=seed)
        z = sample_incidence(dag, rows, seed=seed)
        got_sizes.clear()
        discover_cpdag(z)
        independent, want_sizes = counted(
            lambda u, v, s: g_squared_ci_test(z, u, v, s, 0.05).independent
        )
        want = ref_skeleton_from_ci(z.cols, independent)
        assert_same_search(skeletons[-1], got_sizes, want, want_sizes, seed)
        deepest = max(deepest, *want_sizes)
    assert deepest >= 2


def test_candidate_table_memory_grows_with_pairs():
    # on 60 columns that stay complete until |S| = 2, each of the 1770
    # pairs has C(58, 2) = 1653 level-2 candidates and leaves at its first:
    # a table of whole candidate lists would hold about 2.9 M rows (47 MB)
    # where a one-at-a-time search builds 1770
    k = 60
    decide, got_sizes = counted_batch(lambda x, y, s: np.full(len(x), s.shape[1] == 2))
    tracemalloc.start()
    try:
        got = skeleton_from_ci(k, decide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    independent, want_sizes = counted(lambda u, v, s: len(s) == 2)
    want = ref_skeleton_from_ci(k, independent)
    assert_same_search(got, got_sizes, want, want_sizes, k)
    assert got_sizes == {0: 1770, 1: 1770 * 58, 2: 1770}
    assert peak < 16 * 2**20, peak
