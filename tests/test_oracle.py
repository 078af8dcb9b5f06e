import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cama.graph import Mcg, graphs_equal
from cama.model import KnowledgePoint
from cama.oracle import (
    TrueDag,
    d_separation_ci,
    random_true_dag,
    sample_incidence,
    structural_hamming_distance,
    true_cpdag,
)


def flip_cpt(p_flip: float) -> np.ndarray:
    """Child copies its single parent, flipping with probability p_flip."""
    return np.array([[1 - p_flip, p_flip], [p_flip, 1 - p_flip]])


def root_cpt(p_one: float) -> np.ndarray:
    return np.array([[1 - p_one, p_one]])


def chain_dag(flip=0.1) -> TrueDag:
    return TrueDag(
        names=("n0", "n1", "n2"),
        parents=((), (0,), (1,)),
        cpt=(root_cpt(0.5), flip_cpt(flip), flip_cpt(flip)),
    )


def collider_dag(flip=0.1, root=0.3) -> TrueDag:
    # noisy XOR with off-half roots keeps every pairwise margin dependent
    xor = np.array(
        [[1 - flip, flip], [flip, 1 - flip], [flip, 1 - flip], [1 - flip, flip]]
    )
    return TrueDag(
        names=("n0", "n1", "n2"),
        parents=((), (), (0, 1)),
        cpt=(root_cpt(root), root_cpt(root), xor),
    )


def fork_dag(flip=0.1) -> TrueDag:
    return TrueDag(
        names=("n0", "n1", "n2"),
        parents=((), (0,), (0,)),
        cpt=(root_cpt(0.5), flip_cpt(flip), flip_cpt(flip)),
    )


def dsep_bruteforce(dag: TrueDag, x: int, y: int, s: frozenset) -> bool:
    """Path-blocking oracle: enumerate all simple trails and check blocking."""
    neighbors = {i: set() for i in range(dag.k)}
    for u, v in dag.edges():
        neighbors[u].add(v)
        neighbors[v].add(u)

    descendants = {}
    for node in range(dag.k):
        seen = {node}
        stack = [node]
        while stack:
            cur = stack.pop()
            for child in dag.children(cur):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        descendants[node] = seen

    def blocked(path) -> bool:
        for i in range(1, len(path) - 1):
            prev, node, nxt = path[i - 1], path[i], path[i + 1]
            is_collider = prev in dag.parents[node] and nxt in dag.parents[node]
            if is_collider:
                if not (descendants[node] & s):
                    return True
            elif node in s:
                return True
        return False

    def all_paths(current, path, visited):
        if current == y:
            yield list(path)
            return
        for nxt in neighbors[current]:
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                yield from all_paths(nxt, path, visited)
                path.pop()
                visited.remove(nxt)

    return all(blocked(p) for p in all_paths(x, [x], {x}))


class TestDSeparation:
    def test_collider_textbook(self):
        dag = collider_dag()
        assert d_separation_ci(dag, 0, 1, frozenset())
        assert not d_separation_ci(dag, 0, 1, frozenset({2}))

    def test_chain_textbook(self):
        dag = chain_dag()
        assert d_separation_ci(dag, 0, 2, frozenset({1}))
        assert not d_separation_ci(dag, 0, 2, frozenset())

    def test_fork_textbook(self):
        dag = fork_dag()
        assert d_separation_ci(dag, 1, 2, frozenset({0}))
        assert not d_separation_ci(dag, 1, 2, frozenset())

    def test_collider_descendant_opens_path(self):
        # 0 -> 2 <- 1, 2 -> 3: conditioning on 3 opens the collider
        dag = TrueDag(
            names=("a", "b", "c", "d"),
            parents=((), (), (0, 1), (2,)),
            cpt=(root_cpt(0.5), root_cpt(0.5), np.tile([0.5, 0.5], (4, 1)), flip_cpt(0.1)),
        )
        assert d_separation_ci(dag, 0, 1, frozenset())
        assert not d_separation_ci(dag, 0, 1, frozenset({3}))

    def test_matches_bruteforce_on_random_dags(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            dag = random_true_dag(6, edge_prob=0.4, seed=0, rng=rng)
            for x, y in itertools.combinations(range(6), 2):
                others = [n for n in range(6) if n not in (x, y)]
                size = int(rng.integers(0, 4))
                s = frozenset(
                    int(n) for n in rng.choice(others, size=size, replace=False)
                )
                assert d_separation_ci(dag, x, y, s) == dsep_bruteforce(dag, x, y, s)


class TestSampling:
    def test_deterministic_node_all_ones(self):
        dag = TrueDag(names=("a",), parents=((),), cpt=(root_cpt(1.0),))
        z = sample_incidence(dag, 50, seed=3)
        assert (z.cells[:, 0] == 1).all()

    def test_root_marginal_close_to_cpt(self):
        dag = TrueDag(names=("a",), parents=((),), cpt=(root_cpt(0.3),))
        z = sample_incidence(dag, 10_000, seed=5)
        assert abs(z.cells[:, 0].mean() - 0.3) <= 0.02

    def test_same_seed_identical(self):
        dag = chain_dag()
        z1 = sample_incidence(dag, 500, seed=9)
        z2 = sample_incidence(dag, 500, seed=9)
        assert (z1.cells == z2.cells).all()
        assert z1.row_ids == z2.row_ids

    def test_different_seed_differs(self):
        dag = chain_dag()
        z1 = sample_incidence(dag, 500, seed=1)
        z2 = sample_incidence(dag, 500, seed=2)
        assert (z1.cells != z2.cells).any()

    def test_column_keys_are_node_names(self):
        z = sample_incidence(chain_dag(), 10, seed=0)
        assert z.col_keys == ("n0", "n1", "n2")


def dags_of_three_nodes_with_skeleton(skeleton_edges):
    """Enumerate all DAG orientations of a 3-node skeleton (test oracle)."""
    results = []
    edges = list(skeleton_edges)
    for orientation in itertools.product((0, 1), repeat=len(edges)):
        directed = set()
        for (u, v), flip in zip(edges, orientation):
            directed.add((v, u) if flip else (u, v))
        # acyclic check via simple DFS over 3 nodes
        from cama.graph import topological_order

        if topological_order(3, directed) is not None:
            results.append(frozenset(directed))
    return results


def same_mec(d1: frozenset, d2: frozenset) -> bool:
    """Same skeleton and same v-structures (3-node Markov equivalence)."""

    def vstructs(directed):
        out = set()
        for w in range(3):
            parents = [u for u, v in directed if v == w]
            for a, b in itertools.combinations(sorted(parents), 2):
                if (a, b) not in directed and (b, a) not in directed:
                    adjacent = any(
                        {a, b} == {u, v} for u, v in directed
                    )
                    if not adjacent:
                        out.add((a, w, b))
        return out

    skel1 = {frozenset(e) for e in d1}
    skel2 = {frozenset(e) for e in d2}
    return skel1 == skel2 and vstructs(d1) == vstructs(d2)


class TestTrueCpdag:
    def test_chain_fully_undirected(self):
        # oracle: the chain's equivalence class contains three DAGs,
        # so neither edge is compelled
        dag = chain_dag()
        chain_edges = frozenset({(0, 1), (1, 2)})
        mec = [
            d
            for d in dags_of_three_nodes_with_skeleton([(0, 1), (1, 2)])
            if same_mec(d, chain_edges)
        ]
        assert len(mec) == 3
        cpdag = true_cpdag(dag)
        assert cpdag.directed == frozenset()
        assert cpdag.undirected == {(0, 1), (1, 2)}

    def test_collider_is_its_own_cpdag(self):
        dag = collider_dag()
        collider_edges = frozenset({(0, 2), (1, 2)})
        mec = [
            d
            for d in dags_of_three_nodes_with_skeleton([(0, 2), (1, 2)])
            if same_mec(d, collider_edges)
        ]
        assert mec == [collider_edges]
        cpdag = true_cpdag(dag)
        assert cpdag.directed == {(0, 2), (1, 2)}
        assert cpdag.undirected == frozenset()

    def test_fork_fully_undirected(self):
        cpdag = true_cpdag(fork_dag())
        assert cpdag.directed == frozenset()
        assert cpdag.undirected == {(0, 1), (0, 2)}


def reference_shd(a: Mcg, b: Mcg) -> int:
    """SHD by one edge state per unordered key pair: absent, undirected,
    or directed either way."""

    def states(g: Mcg) -> dict[tuple[str, str], str]:
        key = [p.key for p in g.nodes]
        out = {}
        for u, v in g.directed:
            out[min(key[u], key[v]), max(key[u], key[v])] = "fwd" if key[u] < key[v] else "rev"
        for u, v in g.undirected:
            out[min(key[u], key[v]), max(key[u], key[v])] = "und"
        return out

    sa, sb = states(a), states(b)
    return sum(sa.get(p, "none") != sb.get(p, "none") for p in set(sa) | set(sb))


@st.composite
def same_key_pairs(draw, max_nodes=7):
    """Two graphs over the same keys; the second lists its nodes in a
    drawn order, so index order differs from the first graph's. A drawn
    share of the pairs copies the first graph's edges, so that equal
    graphs under different node orders come up too."""
    k = draw(st.integers(0, max_nodes))
    pts = tuple(KnowledgePoint(f"n{i}") for i in range(k))

    def edges():
        order = draw(st.permutations(range(k)))  # directed edges run forward in it
        directed, undirected = set(), set()
        for a, b in itertools.combinations(range(k), 2):
            kind = draw(st.sampled_from(["none", "dir", "und"]))
            if kind == "dir":
                directed.add((order[a], order[b]))
            elif kind == "und":
                undirected.add((order[a], order[b]))
        return directed, undirected

    directed_a, undirected_a = edges()
    directed_b, undirected_b = (directed_a, undirected_a) if draw(st.booleans()) else edges()
    perm = draw(st.permutations(range(k)))  # node i of a is node perm[i] of b
    nodes_b = [None] * k
    for i, j in enumerate(perm):
        nodes_b[j] = pts[i]
    a = Mcg(nodes=pts, directed=directed_a, undirected=undirected_a)
    b = Mcg(
        nodes=tuple(nodes_b),
        directed={(perm[u], perm[v]) for u, v in directed_b},
        undirected={(perm[u], perm[v]) for u, v in undirected_b},
    )
    return a, b


class TestShd:
    def graph(self, directed=(), undirected=(), k=3):
        pts = tuple(KnowledgePoint(f"n{i}") for i in range(k))
        return Mcg(nodes=pts, directed=frozenset(directed), undirected=frozenset(undirected))

    def test_identity_zero(self):
        g = self.graph(directed={(0, 1)}, undirected={(1, 2)})
        assert structural_hamming_distance(g, g) == 0

    def test_each_change_counts_one(self):
        base = self.graph(directed={(0, 1)})
        assert structural_hamming_distance(base, self.graph()) == 1  # deletion
        assert structural_hamming_distance(base, self.graph(directed={(1, 0)})) == 1
        assert structural_hamming_distance(base, self.graph(undirected={(0, 1)})) == 1
        assert (
            structural_hamming_distance(base, self.graph(directed={(0, 1)}, undirected={(1, 2)}))
            == 1
        )

    def test_node_order_irrelevant(self):
        pts = tuple(KnowledgePoint(f"n{i}") for i in range(3))
        g1 = Mcg(nodes=pts, directed={(0, 1)})
        g2 = Mcg(nodes=(pts[2], pts[0], pts[1]), directed={(1, 2)})
        assert structural_hamming_distance(g1, g2) == 0

    @settings(max_examples=200)
    @given(same_key_pairs())
    def test_matches_per_pair_states_and_graphs_equal(self, pair):
        a, b = pair
        shd = structural_hamming_distance(a, b)
        assert shd == reference_shd(a, b) == structural_hamming_distance(b, a)
        assert graphs_equal(a, b) == (shd == 0)

    def test_different_keys_rejected(self):
        g1 = self.graph(k=2)
        g2 = Mcg(nodes=(KnowledgePoint("x"), KnowledgePoint("y")))
        with pytest.raises(ValueError):
            structural_hamming_distance(g1, g2)


class TestRandomTrueDag:
    def test_reproducible_for_seed(self):
        d1 = random_true_dag(6, 0.3, seed=17)
        d2 = random_true_dag(6, 0.3, seed=17)
        assert d1.parents == d2.parents
        assert all((a == b).all() for a, b in zip(d1.cpt, d2.cpt))

    def test_acyclic_many_seeds(self):
        from cama.graph import topological_order

        for seed in range(30):
            dag = random_true_dag(7, 0.5, seed=seed)
            assert topological_order(dag.k, dag.edges()) is not None
