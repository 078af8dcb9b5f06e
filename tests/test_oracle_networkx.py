"""``oracle.d_separation_ci`` against networkx's d-separation test.

Every pair of nodes and every conditioning set of up to two other nodes is
checked on seeded random DAGs. Skipped when networkx is not installed.
"""

from itertools import combinations

import pytest

from cama.oracle import d_separation_ci, random_true_dag

nx = pytest.importorskip("networkx")


@pytest.mark.parametrize(
    "k, edge_prob, seed",
    [(5, 0.5, 1), (8, 0.3, 2), (10, 0.25, 3), (12, 0.2, 4), (12, 0.35, 5)],
)
def test_d_separation_matches_networkx(k, edge_prob, seed):
    dag = random_true_dag(k, edge_prob, seed=seed)
    g = nx.DiGraph()
    g.add_nodes_from(range(k))
    g.add_edges_from((p, child) for child in range(k) for p in dag.parents[child])
    seen = set()
    for x, y in combinations(range(k), 2):
        rest = [n for n in range(k) if n not in (x, y)]
        for size in range(3):
            for s in combinations(rest, size):
                separated = d_separation_ci(dag, x, y, set(s))
                assert separated == nx.is_d_separator(g, {x}, {y}, set(s)), (x, y, s)
                seen.add(separated)
    assert seen == {True, False}
