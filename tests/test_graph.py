import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import geometry_points

from cama.errors import ParseError
from cama.graph import (
    GraphBuilder,
    Mcg,
    Verbalization,
    deserialize_graph,
    export_dot,
    extract_subgraph,
    graphs_equal,
    serialize_graph,
    topological_order,
    verbalize,
)
from cama.model import KnowledgePoint


def points(k: int) -> tuple[KnowledgePoint, ...]:
    return tuple(KnowledgePoint(f"kp {i}", f"concept {i}") for i in range(k))


@st.composite
def random_mcgs(draw, max_nodes=8):
    k = draw(st.integers(min_value=0, max_value=max_nodes))
    order = draw(st.permutations(list(range(k))))
    directed, undirected = set(), set()
    for a in range(k):
        for b in range(a + 1, k):
            kind = draw(st.sampled_from(["none", "none", "dir", "und"]))
            if kind == "dir":
                directed.add((order[a], order[b]))  # forward in order: acyclic
            elif kind == "und":
                undirected.add((order[a], order[b]))
    return Mcg(nodes=points(k), directed=frozenset(directed), undirected=frozenset(undirected))


class TestInvariants:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            Mcg(nodes=(KnowledgePoint("A "), KnowledgePoint("  a")))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="directed part of the graph contains a cycle"):
            Mcg(nodes=points(3), directed={(0, 1), (1, 2), (2, 0)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Mcg(nodes=points(2), directed={(0, 0)})

    def test_pair_in_both_sets_rejected(self):
        with pytest.raises(ValueError):
            Mcg(nodes=points(2), directed={(0, 1)}, undirected={(0, 1)})

    def test_antiparallel_rejected(self):
        with pytest.raises(ValueError):
            Mcg(nodes=points(2), directed={(0, 1), (1, 0)})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Mcg(nodes=points(2), directed={(0, 5)})


def builder_of(g: Mcg) -> GraphBuilder:
    return GraphBuilder(g.k, g.directed, g.undirected)


class TestAddDirectedEdge:
    """Directed insertion through GraphBuilder: closes_cycle, then set_pair."""

    def test_add_to_empty(self):
        b = GraphBuilder(3)
        b.set_pair(0, 1, "directed")
        g = b.freeze(points(3))
        assert g.directed == {(0, 1)}
        assert g.undirected == frozenset()

    def test_cycle_closure_detected(self):
        b = builder_of(Mcg(nodes=points(3), directed={(0, 1), (1, 2)}))
        assert b.closes_cycle(2, 0)
        assert not b.closes_cycle(0, 2)

    def test_reverse_edge_replaced(self):
        b = builder_of(Mcg(nodes=points(2), directed={(1, 0)}))
        assert not b.closes_cycle(0, 1)  # the edge 1->0 itself goes away
        b.set_pair(0, 1, "directed")
        g = b.freeze(points(2))
        assert g.directed == {(0, 1)}
        assert g.undirected == frozenset()

    def test_reverse_edge_with_other_path_closes_cycle(self):
        b = builder_of(Mcg(nodes=points(3), directed={(1, 0), (1, 2), (2, 0)}))
        assert b.closes_cycle(0, 1)

    def test_undirected_upgraded(self):
        b = builder_of(Mcg(nodes=points(2), undirected={(0, 1)}))
        b.set_pair(0, 1, "directed")
        g = b.freeze(points(2))
        assert g.directed == {(0, 1)}
        assert g.undirected == frozenset()

    def test_acyclic_after_random_insertions(self):
        rng = random.Random(11)
        b = GraphBuilder(6)
        inserted = refused = 0
        for _ in range(200):
            u, v = rng.randrange(6), rng.randrange(6)
            if u == v:
                continue
            directed = b.freeze(points(6)).directed - {(v, u)} | {(u, v)}
            if b.closes_cycle(u, v):
                assert topological_order(6, directed) is None
                refused += 1
                continue
            b.set_pair(u, v, "directed")
            inserted += 1
            g = b.freeze(points(6))  # the Mcg check: raises on a cycle
            assert g.directed == directed
            assert topological_order(g.k, g.directed) is not None
        assert inserted > 10 and refused > 10


class TestGraphBuilder:
    def test_set_pair_undirected_and_remove(self):
        b = builder_of(Mcg(nodes=points(3), directed={(0, 1), (1, 2)}))
        b.set_pair(2, 1, "undirected")
        b.set_pair(1, 0, None)
        assert not b.adjacent(0, 1) and b.adjacent(1, 2) and b.adjacent(2, 1)
        g = b.freeze(points(3))
        assert g.directed == frozenset()
        assert g.undirected == {(1, 2)}

    def test_freeze_round_trips(self):
        g = Mcg(nodes=points(4), directed={(0, 1), (2, 1)}, undirected={(3, 2)})
        assert builder_of(g).freeze(g.nodes) == g


class TestExtractSubgraph:
    def test_circle_area_selection(self):
        area, cylinder, cone = geometry_points()
        g = Mcg(nodes=(area, cylinder, cone), directed={(0, 1), (0, 2)})
        sub = extract_subgraph(g, {0, 1})
        assert [p.key for p in sub.nodes] == ["area of a circle", "volume of a cylinder"]
        assert sub.directed == {(0, 1)}
        assert sub.undirected == frozenset()

    def test_empty_selection(self):
        g = Mcg(nodes=points(3), directed={(0, 1)})
        sub = extract_subgraph(g, set())
        assert sub.k == 0 and sub.edge_count() == 0

    def test_full_selection_identity(self):
        g = Mcg(nodes=points(4), directed={(0, 1)}, undirected={(2, 3)})
        assert graphs_equal(extract_subgraph(g, range(4)), g)

    def test_out_of_range_selection(self):
        with pytest.raises(ValueError):
            extract_subgraph(Mcg(nodes=points(2)), {5})

    @settings(max_examples=60)
    @given(random_mcgs(), st.sets(st.integers(0, 7)))
    def test_brute_force_edge_check(self, g, raw_selected):
        selected = {i for i in raw_selected if i < g.k}
        sub = extract_subgraph(g, selected)
        # brute force: every original edge appears iff both endpoints selected
        key_of = {i: p.key for i, p in enumerate(g.nodes)}
        sub_directed = {(sub.nodes[u].key, sub.nodes[v].key) for u, v in sub.directed}
        expect_directed = {
            (key_of[u], key_of[v])
            for u, v in g.directed
            if u in selected and v in selected
        }
        assert sub_directed == expect_directed
        sub_und = {frozenset((sub.nodes[u].key, sub.nodes[v].key)) for u, v in sub.undirected}
        expect_und = {
            frozenset((key_of[u], key_of[v]))
            for u, v in g.undirected
            if u in selected and v in selected
        }
        assert sub_und == expect_und


class TestVerbalize:
    def test_directed_sentence_exact(self):
        area, cylinder, _ = geometry_points()
        g = Mcg(nodes=(area, cylinder), directed={(0, 1)})
        v = verbalize(g)
        assert v.relations == (
            "**1.** area of a circle is a prerequisite for volume of a cylinder. "
            "If volume of a cylinder is used, then area of a circle could also be used."
        )

    def test_undirected_sentence_exact(self):
        area, cylinder, _ = geometry_points()
        g = Mcg(nodes=(area, cylinder), undirected={(0, 1)})
        assert verbalize(g).relations == (
            "**1.** area of a circle and volume of a cylinder are associated, "
            "but the direction of dependency is unclear. "
            "Either could be a prerequisite for the other."
        )

    def test_empty_graph(self):
        v = verbalize(Mcg(nodes=()))
        assert v == Verbalization(elements="", relations="")

    def test_elements_numbered_by_index(self):
        g = Mcg(nodes=points(2))
        assert verbalize(g).elements == "**1.** kp 0: concept 0\n**2.** kp 1: concept 1"

    def test_equal_graphs_verbalize_identical_relations(self):
        a, b, c = points(3)
        g1 = Mcg(nodes=(a, b, c), directed={(0, 1)}, undirected={(1, 2)})
        g2 = Mcg(nodes=(c, b, a), directed={(2, 1)}, undirected={(1, 0)})
        assert graphs_equal(g1, g2)
        assert verbalize(g1).relations == verbalize(g2).relations


def sorted_list_topological_order(k, directed):
    """The list-based Kahn sort that ``topological_order`` replaced: it pops
    the smallest ready node first by re-sorting the ready list."""
    succ = {i: [] for i in range(k)}
    indeg = [0] * k
    for u, v in directed:
        succ[u].append(v)
        indeg[v] += 1
    ready = sorted(i for i in range(k) if indeg[i] == 0)
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in sorted(succ[n]):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort()
    return order if len(order) == k else None


class TestTopologicalOrder:
    def test_same_order_as_sorted_list_version(self):
        rng = random.Random(5)
        cyclic = 0
        for _ in range(2000):
            k = rng.randrange(0, 16)
            p = rng.choice([0.05, 0.15, 0.3])
            # any direction per pair, so many graphs hold a cycle
            directed = [
                (u, v) for u in range(k) for v in range(k) if u != v and rng.random() < p / 2
            ]
            want = sorted_list_topological_order(k, directed)
            assert topological_order(k, directed) == want
            cyclic += want is None
        assert 200 < cyclic < 1800


class TestSubgraphView:
    @settings(max_examples=100)
    @given(random_mcgs(max_nodes=12), st.sets(st.integers(0, 11)))
    def test_equals_verbalized_extracted_subgraph(self, g, raw_selected):
        # twelve nodes, so that key order ("kp 10" < "kp 2") differs from index order
        selected = {i for i in raw_selected if i < g.k}
        assert verbalize(g, selected) == verbalize(extract_subgraph(g, selected))
        assert verbalize(g, range(g.k)) == verbalize(g)

    @settings(max_examples=30)
    @given(random_mcgs(), st.sets(st.integers(-3, 12), min_size=1))
    def test_out_of_range_index_raises_as_extract_subgraph(self, g, selected):
        assume(not all(0 <= i < g.k for i in selected))
        with pytest.raises(ValueError) as extracted:
            extract_subgraph(g, selected)
        with pytest.raises(ValueError, match=f"^{re.escape(str(extracted.value))}$"):
            verbalize(g, selected)

    def test_descriptionless_and_unsorted_nodes(self):
        nodes = (KnowledgePoint("zeta"), KnowledgePoint("alpha", "first"), KnowledgePoint("mu"))
        g = Mcg(nodes=nodes, directed={(0, 2), (1, 0)}, undirected={(1, 2)})
        for selected in ({0, 2}, {1, 2}, {0, 1, 2}, {2}, set()):
            assert verbalize(g, selected) == verbalize(extract_subgraph(g, selected))
        assert verbalize(g, [2, 0, 2]).elements == "**1.** zeta:\n**2.** mu:"

    def test_verbalized_once(self):
        g = Mcg(nodes=points(3), directed={(0, 1)})
        assert verbalize(g) is verbalize(g)


class TestGraphsEqual:
    def test_permutation_invariant(self):
        a, b, c = points(3)
        g1 = Mcg(nodes=(a, b, c), directed={(0, 1), (1, 2)})
        g2 = Mcg(nodes=(b, c, a), directed={(2, 0), (0, 1)})
        assert graphs_equal(g1, g2)

    def test_flipped_direction_differs(self):
        g1 = Mcg(nodes=points(2), directed={(0, 1)})
        g2 = Mcg(nodes=points(2), directed={(1, 0)})
        assert not graphs_equal(g1, g2)

    def test_downgraded_edge_differs(self):
        g1 = Mcg(nodes=points(2), directed={(0, 1)})
        g2 = Mcg(nodes=points(2), undirected={(0, 1)})
        assert not graphs_equal(g1, g2)

    def test_descriptions_ignored(self):
        g1 = Mcg(nodes=(KnowledgePoint("a", "one"),))
        g2 = Mcg(nodes=(KnowledgePoint("a", "two"),))
        assert graphs_equal(g1, g2)


class TestSerialization:
    def test_empty_round_trip(self):
        g = Mcg(nodes=())
        assert graphs_equal(deserialize_graph(serialize_graph(g)), g)

    @settings(max_examples=60)
    @given(random_mcgs())
    def test_round_trip_random(self, g):
        assert graphs_equal(deserialize_graph(serialize_graph(g)), g)

    def test_round_trip_124_nodes(self):
        rng = random.Random(124)
        k = 124
        directed, undirected = set(), set()
        for a in range(k):
            for b in range(a + 1, k):
                roll = rng.random()
                if roll < 0.01:
                    directed.add((a, b))
                elif roll < 0.02:
                    undirected.add((a, b))
        g = Mcg(nodes=points(k), directed=frozenset(directed), undirected=frozenset(undirected))
        again = deserialize_graph(serialize_graph(g))
        assert graphs_equal(again, g)

    def test_serialized_bytes_stable(self):
        g = Mcg(nodes=points(3), directed={(0, 1)}, undirected={(1, 2)})
        assert serialize_graph(g) == serialize_graph(g)

    def test_malformed_json_positioned_error(self):
        with pytest.raises(ParseError) as err:
            deserialize_graph('{"version": 1, "nodes": [')
        assert err.value.position is not None

    def test_bad_version_rejected(self):
        with pytest.raises(ParseError):
            deserialize_graph('{"version": 99, "nodes": []}')

    def test_cyclic_document_rejected(self):
        doc = (
            '{"version": 1, "nodes": [{"key": "a"}, {"key": "b"}],'
            ' "directed": [[0, 1], [1, 0]], "undirected": []}'
        )
        with pytest.raises(ParseError):
            deserialize_graph(doc)

    @pytest.mark.parametrize("description", ["null", "3", "[]"])
    def test_non_string_description_rejected(self, description):
        doc = f'{{"version": 1, "nodes": [{{"key": "a", "description": {description}}}]}}'
        with pytest.raises(ParseError, match="description"):
            deserialize_graph(doc)

    @pytest.mark.parametrize(
        "edges", ['"directed": [[0.7, 1]]', '"directed": [["1", 0]]', '"undirected": [[true, 0]]']
    )
    def test_non_integer_endpoint_rejected(self, edges):
        doc = f'{{"version": 1, "nodes": [{{"key": "a"}}, {{"key": "b"}}], {edges}}}'
        with pytest.raises(ParseError, match="integers"):
            deserialize_graph(doc)

    @pytest.mark.parametrize(
        "fields",
        ['"nodes": ""', '"nodes": {}', '"nodes": [], "directed": ""', '"nodes": [], "undirected": {}'],
    )
    def test_non_list_field_rejected(self, fields):
        # a string or an object iterates, and would load as no nodes or no edges
        with pytest.raises(ParseError, match="must be a list"):
            deserialize_graph(f'{{"version": 1, {fields}}}')

    def test_repeated_key_in_node_rejected(self):
        doc = '{"version": 1, "nodes": [{"key": "a", "key": "b"}]}'
        with pytest.raises(ParseError, match="repeated key 'key'"):
            deserialize_graph(doc)

    def test_accepts_bytes(self):
        g = Mcg(nodes=points(2), directed={(0, 1)})
        assert graphs_equal(deserialize_graph(serialize_graph(g).encode()), g)


class TestExportDot:
    def test_geometry_fork_dot(self):
        area, cylinder, cone = geometry_points()
        g = Mcg(nodes=(area, cylinder, cone), directed={(0, 1), (0, 2)})
        dot = export_dot(g)
        assert dot.count("->") == 2
        assert '"area of a circle" -> "volume of a cylinder";' in dot
        assert dot.count(";") == 5  # 3 node statements + 2 edges
        assert "dir=none" not in dot

    def test_undirected_marked_dir_none(self):
        g = Mcg(nodes=points(2), undirected={(0, 1)})
        assert '"kp 0" -> "kp 1" [dir=none];' in export_dot(g)

    def test_labels_quoted_and_escaped(self):
        g = Mcg(nodes=(KnowledgePoint('say "hi"'),))
        assert '"say \\"hi\\""' in export_dot(g)
