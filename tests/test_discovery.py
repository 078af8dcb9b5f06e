import logging

import numpy as np
import pytest

from conftest import one_at_a_time
from test_ci_test import sparse_dag
from test_oracle import chain_dag, collider_dag, fork_dag
from test_skeleton_reference import ref_skeleton_from_ci

from cama.discovery import (
    _assemble,
    cpdag_from_ci,
    discover_cpdag,
    g_squared_ci_test,
    meek_closure,
    orient_v_structures,
    skeleton_from_ci,
    Skeleton,
)
from cama.graph import Mcg, edge_keys, graphs_equal, topological_order
from cama.matrix import IncidenceMatrix
from cama.model import KnowledgePoint
from cama.oracle import (
    TrueDag,
    d_separation_ci,
    dsep_independence,
    oracle_cpdag,
    random_true_dag,
    sample_incidence,
    structural_hamming_distance,
    true_cpdag,
)


def pts(k):
    return tuple(KnowledgePoint(f"x{i}") for i in range(k))


def pc_skeleton(z, alpha):
    """PC skeleton of the incidence matrix under the G-squared test."""

    def independent(u, v, s):
        return g_squared_ci_test(z, u, v, s, alpha).independent

    return skeleton_from_ci(z.cols, one_at_a_time(independent))


def skeleton_of(adjacency_pairs, k, sepsets=None):
    adj = np.zeros((k, k), dtype=bool)
    for u, v in adjacency_pairs:
        adj[u, v] = adj[v, u] = True
    return Skeleton(adjacency=adj, sepsets=sepsets or {})


class TestPcSkeleton:
    def test_chain_samples_recover_skeleton(self):
        dag = chain_dag()
        z = sample_incidence(dag, 5000, seed=123)
        sk = pc_skeleton(z, alpha=0.05)
        assert sk.adjacency[0, 1] and sk.adjacency[1, 2]
        assert not sk.adjacency[0, 2]
        assert sk.sepsets[(0, 2)] == frozenset({1})

    def test_independent_columns_empty_skeleton(self):
        rng = np.random.default_rng(4)
        cells = (rng.random((5000, 2)) < 0.5).astype(np.uint8)
        z = IncidenceMatrix(
            cells=cells, row_ids=tuple(map(str, range(5000))), col_keys=("a", "b")
        )
        sk = pc_skeleton(z, alpha=0.05)
        assert not sk.adjacency.any()
        assert sk.sepsets[(0, 1)] == frozenset()

    def test_single_column_empty(self):
        z = IncidenceMatrix(
            cells=np.ones((10, 1), dtype=np.uint8), row_ids=tuple(map(str, range(10))), col_keys=("a",)
        )
        sk = pc_skeleton(z, alpha=0.05)
        assert sk.k == 1 and not sk.adjacency.any()

    def test_row_permutation_invariant(self):
        dag = fork_dag()
        z = sample_incidence(dag, 2000, seed=8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(z.rows)
        z_perm = IncidenceMatrix(
            cells=z.cells[perm],
            row_ids=tuple(z.row_ids[i] for i in perm),
            col_keys=z.col_keys,
        )
        sk1, sk2 = pc_skeleton(z, 0.05), pc_skeleton(z_perm, 0.05)
        assert (sk1.adjacency == sk2.adjacency).all()
        assert sk1.sepsets == sk2.sepsets

    def test_column_permutation_equivariant(self):
        dag = chain_dag()
        z = sample_incidence(dag, 2000, seed=21)
        perm = [2, 0, 1]  # new column j holds old column perm[j]
        z_perm = IncidenceMatrix(
            cells=z.cells[:, perm],
            row_ids=z.row_ids,
            col_keys=tuple(z.col_keys[j] for j in perm),
        )
        sk, sk_perm = pc_skeleton(z, 0.05), pc_skeleton(z_perm, 0.05)
        new_of_old = {old: new for new, old in enumerate(perm)}
        for i in range(3):
            for j in range(3):
                assert sk.adjacency[i, j] == sk_perm.adjacency[new_of_old[i], new_of_old[j]]

    def test_oracle_collider_skeleton(self):
        dag = collider_dag()
        sk = skeleton_from_ci(3, dsep_independence(dag))
        assert sk.adjacency[0, 2] and sk.adjacency[1, 2] and not sk.adjacency[0, 1]
        assert sk.sepsets[(0, 1)] == frozenset()

    def test_waves_keep_first_independent_subset(self):
        # d-separation has many separating sets per pair, so a wave that
        # took any independent candidate other than the first would show
        # against the one-at-a-time search
        sizes = set()
        for seed in range(10):
            dag = random_true_dag(9, 0.35, seed=seed)
            decide = dsep_independence(dag)
            calls = []

            def recording(x, y, s):
                calls.append(s.shape[1])
                return decide(x, y, s)

            batched = skeleton_from_ci(dag.k, recording)
            adjacency, sepsets = ref_skeleton_from_ci(
                dag.k, lambda u, v, s: d_separation_ci(dag, u, v, s)
            )
            assert calls == sorted(calls) and calls.count(0) == 1
            sizes.update(calls)
            assert (batched.adjacency == adjacency).all()
            assert list(batched.sepsets.items()) == list(sepsets.items()), seed
        assert {0, 1, 2} <= sizes


class TestSepsets:
    def search(self):
        # a collider 0->2<-1 and a chain 2->3->4: pairs leave at level 0
        # (empty sepsets) and at level 1
        dag = TrueDag(
            names=tuple("abcde"),
            parents=((), (), (0, 1), (2,), (3,)),
            cpt=tuple(np.full((2 ** n, 2), 0.5) for n in (0, 0, 2, 1, 1)),
        )
        return skeleton_from_ci(dag.k, dsep_independence(dag))

    def test_reads_as_the_dict_of_removals(self):
        sk = self.search()
        want = {
            (0, 1): frozenset(),
            (0, 3): frozenset({2}),
            (0, 4): frozenset({2}),
            (1, 3): frozenset({2}),
            (1, 4): frozenset({2}),
            (2, 4): frozenset({3}),
        }
        assert sk.sepsets == want and want == sk.sepsets
        assert list(sk.sepsets.items()) == list(want.items())
        assert len(sk.sepsets) == 6 and sk.sepsets != {**want, (0, 2): frozenset()}
        assert (0, 1) in sk.sepsets and (1, 0) not in sk.sepsets
        assert sk.sepsets.get((0, 2)) is None and sk.sepsets.get("ab") is None
        with pytest.raises(KeyError):
            sk.sepsets[(1, 0)]

    def test_is_read_only(self):
        sk = self.search()
        with pytest.raises(TypeError):
            sk.sepsets[(0, 2)] = frozenset()
        assert not hasattr(sk.sepsets, "update")


class TestSkeletonEquality:
    def test_equal_on_adjacency_and_sepsets(self):
        z = sample_incidence(random_true_dag(8, 0.35, seed=2), 3000, seed=2)
        sk = pc_skeleton(z, alpha=0.05)
        sepsets = dict(sk.sepsets)
        assert frozenset() in sepsets.values() and any(sepsets.values())
        assert sk == pc_skeleton(z, alpha=0.05)
        assert sk == Skeleton(adjacency=sk.adjacency.copy(), sepsets=sepsets)
        u, v = map(int, np.argwhere(np.triu(sk.adjacency))[0])
        one_edge_less = sk.adjacency.copy()
        one_edge_less[u, v] = one_edge_less[v, u] = False
        assert sk != Skeleton(adjacency=one_edge_less, sepsets=sepsets)
        (u, v), sepset = next((key, s) for key, s in sepsets.items() if s)
        other = next(w for w in range(sk.k) if w not in (u, v, *sepset))
        changed = {**sepsets, (u, v): sepset | {other}}
        assert sk != Skeleton(adjacency=sk.adjacency, sepsets=changed)
        with pytest.raises(TypeError, match="Skeleton"):
            hash(sk)


class TestSkeletonSepsetKeys:
    def test_key_orient_never_reads_is_refused(self):
        # on the path 0-1-2, the key (2, 0) was stored but never looked up,
        # so the collider 0->1<-2 came out as two undirected edges
        assert orient_v_structures(
            skeleton_of([(0, 1), (1, 2)], 3, sepsets={(0, 2): frozenset()}), pts(3)
        ).directed == {(0, 1), (2, 1)}
        for key in [(2, 0), (0, 0), (0, 3), (-1, 2), (0,), (0, 1, 2), "02", (0.0, 2.0)]:
            with pytest.raises(ValueError, match="is not a pair"):
                skeleton_of([(0, 1), (1, 2)], 3, sepsets={key: frozenset()})

    def test_adjacent_pair_is_refused(self):
        with pytest.raises(ValueError, match="adjacent pair"):
            skeleton_of([(0, 1), (1, 2)], 3, sepsets={(0, 1): frozenset()})

    def test_sepset_holding_its_pair_is_refused(self):
        for sepset in ({0}, {2}, {1, 2}):
            with pytest.raises(ValueError, match="holds one of its own pair"):
                skeleton_of([(0, 1), (1, 2)], 3, sepsets={(0, 2): frozenset(sepset)})

    def test_numpy_integer_keys_are_pairs(self):
        sk = skeleton_of([(0, 1), (1, 2)], 3, sepsets={(np.int64(0), np.int64(2)): frozenset({1})})
        assert sk.sepsets[(0, 2)] == frozenset({1})


class TestDecideResult:
    def test_short_result_is_refused(self):
        # 4 columns give 6 level-0 tests; one result too few must not leave
        # the last pair adjacent unasked
        with pytest.raises(ValueError, match=r"shape \(5,\).*shape \(6,\)"):
            skeleton_from_ci(4, lambda x, y, s: np.ones(len(x) - 1, bool))
        with pytest.raises(ValueError, match=r"shape \(6, 1\).*shape \(6,\)"):
            skeleton_from_ci(4, lambda x, y, s: np.ones((len(x), 1), bool))

    @pytest.mark.parametrize("form", ["list", "int array"])
    def test_list_and_int_results_act_as_bool(self, form):
        # a 0/1 int array used as an index would pick pairs 0 and 1 instead
        # of the independent ones
        convert = {"list": lambda a: a.tolist(), "int array": lambda a: a.astype(int)}[form]
        for seed in range(5):
            dag = random_true_dag(8, 0.35, seed=seed)
            decide = dsep_independence(dag)
            want = skeleton_from_ci(dag.k, decide)
            got = skeleton_from_ci(dag.k, lambda x, y, s: convert(decide(x, y, s)))
            assert (got.adjacency == want.adjacency).all(), seed
            assert list(got.sepsets.items()) == list(want.sepsets.items()), seed


class TestOrientVStructures:
    def test_collider_oriented(self):
        sk = skeleton_of([(0, 2), (1, 2)], 3, sepsets={(0, 1): frozenset()})
        g = orient_v_structures(sk, pts(3))
        assert g.directed == {(0, 2), (1, 2)}
        assert g.undirected == frozenset()

    def test_chain_left_undirected(self):
        sk = skeleton_of([(0, 1), (1, 2)], 3, sepsets={(0, 2): frozenset({1})})
        g = orient_v_structures(sk, pts(3))
        assert g.directed == frozenset()
        assert g.undirected == {(0, 1), (1, 2)}

    def test_empty_skeleton(self):
        g = orient_v_structures(skeleton_of([], 3), pts(3))
        assert g.k == 3 and g.edge_count() == 0

    def test_conflicting_orientations_stay_undirected(self):
        # 0-1-2-3 path plus sepsets forcing both 1->2 and 2->1 proposals
        sk = skeleton_of(
            [(0, 1), (1, 2), (2, 3)],
            4,
            sepsets={(0, 2): frozenset(), (1, 3): frozenset()},
        )
        g = orient_v_structures(sk, pts(4))
        assert (1, 2) not in g.directed and (2, 1) not in g.directed
        assert (1, 2) in g.undirected


class TestAssemble:
    def test_cycle_closing_orientation_downgraded(self, caplog):
        # 0->1 and 1->2 are accepted first, so 2->0 would close a cycle
        oriented = [(0, 1), (1, 2), (2, 0), (2, 3)]
        with caplog.at_level(logging.WARNING, logger="cama.discovery"):
            g = _assemble(pts(4), [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)], oriented)
        assert g.directed == {(0, 1), (1, 2), (2, 3)}
        assert g.undirected == {(0, 2), (1, 3)}
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].msg.startswith("downgrading ")
        assert warnings[0].getMessage().startswith("downgrading 2->0 ")


class TestMeekClosure:
    def test_r1(self):
        g = Mcg(nodes=pts(3), directed={(0, 1)}, undirected={(1, 2)})
        closed = meek_closure(g)
        assert closed.directed == {(0, 1), (1, 2)}

    def test_r2(self):
        g = Mcg(nodes=pts(3), directed={(0, 1), (1, 2)}, undirected={(0, 2)})
        closed = meek_closure(g)
        assert closed.directed == {(0, 1), (1, 2), (0, 2)}

    def test_r3(self):
        g = Mcg(
            nodes=pts(4),
            directed={(2, 1), (3, 1)},
            undirected={(0, 1), (0, 2), (0, 3)},
        )
        closed = meek_closure(g)
        assert (0, 1) in closed.directed
        assert (0, 2) in closed.undirected and (0, 3) in closed.undirected

    def test_r4(self):
        # a=0, b=1, c=2, d=3: 0-1, 0-2, 2->3, 3->1, 0-3 adjacent, 2,1 non-adjacent
        g = Mcg(
            nodes=pts(4),
            directed={(2, 3), (3, 1)},
            undirected={(0, 1), (0, 2), (0, 3)},
        )
        closed = meek_closure(g)
        assert (0, 1) in closed.directed

    def test_undirected_triangle_unchanged(self):
        g = Mcg(nodes=pts(3), undirected={(0, 1), (1, 2), (0, 2)})
        closed = meek_closure(g)
        assert graphs_equal(closed, g)

    def test_fixed_point(self):
        for seed in range(10):
            dag = random_true_dag(6, 0.4, seed=seed)
            g = cpdag_from_ci(6, dsep_independence(dag), pts(6))
            once = meek_closure(g)
            twice = meek_closure(once)
            assert graphs_equal(once, twice)


class TestDiscoverCpdag:
    def test_oracle_collider_exact(self):
        dag = collider_dag()
        g = oracle_cpdag(dag)
        assert structural_hamming_distance(g, true_cpdag(dag)) == 0
        assert g.directed == {(0, 2), (1, 2)}

    def test_oracle_chain_undirected(self):
        dag = chain_dag()
        g = cpdag_from_ci(3, dsep_independence(dag), pts(3))
        assert g.directed == frozenset()
        assert g.undirected == {(0, 1), (1, 2)}

    def test_single_column(self):
        z = IncidenceMatrix(
            cells=np.ones((20, 1), dtype=np.uint8),
            row_ids=tuple(map(str, range(20))),
            col_keys=("only",),
        )
        g = discover_cpdag(z, alpha=0.05)
        assert g.k == 1 and g.edge_count() == 0
        assert g.nodes[0].key == "only"

    def test_output_satisfies_invariants(self):
        for seed in range(15):
            dag = random_true_dag(6, 0.4, seed=100 + seed)
            z = sample_incidence(dag, 800, seed=seed)
            g = discover_cpdag(z, alpha=0.05)
            assert topological_order(g.k, g.directed) is not None  # Mcg built => holds

    def test_negative_max_cond_size_rejected(self):
        z = sample_incidence(random_true_dag(5, 0.4, seed=1), 500, seed=1)
        calls = []

        def decide(x, y, s):
            calls.append((x, y, s))
            return np.zeros(len(x), dtype=bool)

        with pytest.raises(ValueError, match="max_cond_size"):
            skeleton_from_ci(5, decide, max_cond_size=-1)
        with pytest.raises(ValueError, match="max_cond_size"):
            discover_cpdag(z, max_cond_size=-1)
        assert calls == []

    def test_zero_max_cond_size_runs_level_zero_only(self):
        calls = []

        def independent(u, v, s):
            calls.append(len(s))
            return (u, v) == (0, 2)

        sk = skeleton_from_ci(4, one_at_a_time(independent), max_cond_size=0)
        assert set(calls) == {0} and len(calls) == 6
        assert sk.sepsets == {(0, 2): frozenset()}

    def test_finite_sample_geometry_fork(self):
        z = sample_incidence(fork_dag(), 5000, seed=77)
        g = discover_cpdag(z, alpha=0.05)
        assert structural_hamming_distance(g, true_cpdag(fork_dag())) == 0

    def test_finite_sample_recovery_on_random_dags(self):
        # per n, the sums over seeds 0-4 of CPDAG SHD and of skeleton errors
        # (pairs adjacent in one graph only), as measured with the single-
        # sepset collider rule; a better orientation rule lowers them
        bounds = {2000: (53, 23), 20000: (46, 13), 100000: (41, 12)}

        def pairs(g):
            return {frozenset(e) for e in g.directed | g.undirected}

        for n, (max_shd, max_skeleton) in bounds.items():
            shd = skeleton = 0
            for seed in range(5):
                dag = random_true_dag(20, 2 / 19, seed)
                g = discover_cpdag(sample_incidence(dag, n, seed), alpha=0.05)
                truth = true_cpdag(dag)
                shd += structural_hamming_distance(g, truth)
                skeleton += len(pairs(g) ^ pairs(truth))
            assert shd <= max_shd and skeleton <= max_skeleton, (n, shd, skeleton)


def permuted_columns(z: IncidenceMatrix, order) -> IncidenceMatrix:
    """``z`` with new column j holding old column order[j], keys included."""
    return IncidenceMatrix(
        cells=z.cells[:, order],
        row_ids=z.row_ids,
        col_keys=tuple(z.col_keys[j] for j in order),
    )


def skeleton_keys(g: Mcg) -> set[frozenset[str]]:
    directed, undirected = edge_keys(g)
    return {frozenset(edge) for edge in directed} | undirected


def column_order_cases():
    """(name, matrix) of dense random DAGs and sparse tables like extracted
    incidence."""
    for k, rows, seed in [(10, 2000, 0), (20, 5000, 1), (20, 20000, 2), (40, 5000, 3)]:
        yield f"dense-{k}x{rows}", sample_incidence(random_true_dag(k, 2 / (k - 1), seed), rows, seed)
    for k, seed in [(60, 4), (120, 5)]:
        yield f"sparse-{k}x3000", sample_incidence(sparse_dag(k, seed=seed), 3000, seed=seed)


@pytest.mark.parametrize("name, z", list(column_order_cases()))
def test_column_order_leaves_skeleton_by_key(name, z):
    # the level-synchronized search decides each level on its frozen
    # adjacency, so the skeleton does not depend on the column order; the
    # orientations still may (colliders from order-dependent sepsets)
    want = skeleton_keys(discover_cpdag(z))
    rng = np.random.default_rng(z.cols)
    for _ in range(3):
        got = discover_cpdag(permuted_columns(z, rng.permutation(z.cols)))
        assert skeleton_keys(got) == want


class TestCpdagAgainstEquivalenceClass:
    """First-principles oracle: an edge is directed in the CPDAG iff every
    member of the Markov equivalence class orients it the same way."""

    K = 4

    @staticmethod
    def _all_dags(k):
        from itertools import combinations, product

        pairs = list(combinations(range(k), 2))
        out = []
        for states in product((0, 1, 2), repeat=len(pairs)):
            directed = set()
            for (u, v), s in zip(pairs, states):
                if s == 1:
                    directed.add((u, v))
                elif s == 2:
                    directed.add((v, u))
            if topological_order(k, directed) is not None:
                out.append(frozenset(directed))
        return out

    @staticmethod
    def _vstructs(directed, k):
        from itertools import combinations

        adjacent = {frozenset(e) for e in directed}
        found = set()
        for w in range(k):
            parents = sorted(u for u, v in directed if v == w)
            for a, b in combinations(parents, 2):
                if frozenset((a, b)) not in adjacent:
                    found.add((a, w, b))
        return found

    def _mec_cpdag(self, directed, universe):
        k = self.K
        skeleton = {frozenset(e) for e in directed}
        colliders = self._vstructs(directed, k)
        members = [
            d
            for d in universe
            if {frozenset(e) for e in d} == skeleton
            and self._vstructs(d, k) == colliders
        ]
        compelled, undirected = set(), set()
        for pair in skeleton:
            u, v = sorted(pair)
            directions = {("f" if (u, v) in m else "r") for m in members}
            if directions == {"f"}:
                compelled.add((u, v))
            elif directions == {"r"}:
                compelled.add((v, u))
            else:
                undirected.add((u, v))
        return Mcg(
            nodes=pts(k),
            directed=frozenset(compelled),
            undirected=frozenset(undirected),
        )

    def _dag_from_edges(self, directed):
        k = self.K
        parents = [[] for _ in range(k)]
        for u, v in sorted(directed):
            parents[v].append(u)
        cpt = tuple(np.tile([0.5, 0.5], (2 ** len(p), 1)) for p in parents)
        return TrueDag(
            names=tuple(f"x{i}" for i in range(k)),
            parents=tuple(tuple(p) for p in parents),
            cpt=cpt,
        )

    def test_exhaustive_four_node_dags(self):
        universe = self._all_dags(self.K)
        assert len(universe) == 543
        for directed in universe:
            dag = self._dag_from_edges(directed)
            reference = self._mec_cpdag(directed, universe)
            assert graphs_equal(true_cpdag(dag), reference), sorted(directed)
            assert graphs_equal(oracle_cpdag(dag), reference), sorted(directed)
