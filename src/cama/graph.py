"""Mixed prerequisite graph over knowledge points.

Directed edges mean "source is a prerequisite of target"; undirected edges
mean the two points are associated without a known direction. The directed
part is always acyclic.

``Mcg`` values are immutable, and building one runs the full invariant
check. Code that edits a graph edge by edge (discovery's orientation steps,
the alignment loop's relation edits) works on a mutable ``GraphBuilder``
and freezes it to an ``Mcg`` once, at the boundary.

An ``Mcg`` verbalizes itself once, on first use: a ``Verbalization`` holds
the two prompt blocks as text, and the graph keeps its unnumbered lines and
the two endpoints of each relation beside them. ``verbalize(g, selected)``
renders the subgraph induced by ``selected`` from those lines, keeping the
ones whose nodes are all selected and numbering them anew, so a view of a
subgraph builds no ``Mcg`` of its own. Graph equality and the structural
Hamming distance both compare graphs through ``edge_keys``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ParseError
from .model import KnowledgePoint, json_list, json_text, read_json, write_atomic

GRAPH_FORMAT_VERSION = 1

DIRECTED_SENTENCE = (
    "{u} is a prerequisite for {v}. If {v} is used, then {u} could also be used."
)
UNDIRECTED_SENTENCE = (
    "{u} and {v} are associated, but the direction of dependency is unclear. "
    "Either could be a prerequisite for the other."
)


def topological_order(k: int, directed: Iterable[tuple[int, int]]) -> list[int] | None:
    """Kahn topological sort, smallest ready node first; None when the
    directed edges contain a cycle. Endpoints must lie in 0..k-1."""
    succ: list[list[int]] = [[] for _ in range(k)]
    indeg = [0] * k
    for u, v in directed:
        succ[u].append(v)
        indeg[v] += 1
    ready = [i for i in range(k) if indeg[i] == 0]  # ascending, so a heap
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    return order if len(order) == k else None


@dataclass(frozen=True)
class Mcg:
    """Mixed graph: ordered knowledge points, directed and undirected edges.

    Edge endpoints are node indices. Undirected pairs are stored as
    (min, max) tuples.
    """

    nodes: tuple[KnowledgePoint, ...]
    directed: frozenset[tuple[int, int]] = frozenset()
    undirected: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "directed", frozenset(self.directed))
        und = frozenset((min(a, b), max(a, b)) for a, b in self.undirected)
        object.__setattr__(self, "undirected", und)
        k = len(self.nodes)

        keys = [p.key for p in self.nodes]
        if len(set(keys)) != k:
            dupes = sorted({x for x in keys if keys.count(x) > 1})
            raise ValueError(f"duplicate node keys: {dupes}")

        for u, v in self.directed | self.undirected:
            if not (0 <= u < k and 0 <= v < k):
                raise ValueError(f"edge ({u},{v}) out of range for {k} nodes")
            if u == v:
                raise ValueError(f"self-loop on node {u}")
        for u, v in self.directed:
            if (v, u) in self.directed:
                raise ValueError(f"both {u}->{v} and {v}->{u} present")
            if (min(u, v), max(u, v)) in self.undirected:
                raise ValueError(f"pair ({u},{v}) is both directed and undirected")
        if topological_order(k, self.directed) is None:
            raise ValueError("directed part of the graph contains a cycle")

    @property
    def k(self) -> int:
        return len(self.nodes)

    def key_index(self) -> dict[str, int]:
        return {p.key: i for i, p in enumerate(self.nodes)}

    def edge_count(self) -> int:
        return len(self.directed) + len(self.undirected)

    @cached_property
    def _verbalized(self) -> tuple[Verbalization, list[str], list[str], list[tuple[int, int]]]:
        """The whole graph's verbalization, computed on first use, with its
        unnumbered element lines, its relation sentences and the two node
        indices of each sentence, in line order.

        Relations list directed edges first, then undirected, each ordered
        by node keys, so that equal graphs verbalize identically regardless
        of node order.
        """
        key = [p.key for p in self.nodes]
        by_keys = lambda edge: (key[edge[0]], key[edge[1]])
        directed = sorted(self.directed, key=by_keys)
        undirected = sorted(
            ((u, v) if key[u] < key[v] else (v, u) for u, v in self.undirected), key=by_keys
        )
        sentences = [DIRECTED_SENTENCE.format(u=key[u], v=key[v]) for u, v in directed]
        sentences += [UNDIRECTED_SENTENCE.format(u=key[u], v=key[v]) for u, v in undirected]
        elements = [f"{p.key}: {p.description}".rstrip() for p in self.nodes]
        text = Verbalization(_numbered(elements), _numbered(sentences))
        return text, elements, sentences, directed + undirected


class GraphBuilder:
    """Mutable adjacency of a mixed graph over nodes 0..k-1, edited pair by pair.

    ``parents``/``children`` hold the directed edges and ``neighbors`` the
    undirected ones; a pair carries at most one edge, so the seed edges must
    join distinct pairs, as an ``Mcg``'s do. Nothing here checks
    acyclicity by itself: callers that must stay acyclic ask
    ``closes_cycle`` before a directed ``set_pair``, and ``freeze`` runs
    the full ``Mcg`` check.
    """

    def __init__(
        self,
        k: int,
        directed: Iterable[tuple[int, int]] = (),
        undirected: Iterable[tuple[int, int]] = (),
    ):
        self.parents: list[set[int]] = [set() for _ in range(k)]
        self.children: list[set[int]] = [set() for _ in range(k)]
        self.neighbors: list[set[int]] = [set() for _ in range(k)]
        for u, v in directed:
            self.children[u].add(v)
            self.parents[v].add(u)
        for u, v in undirected:
            self.neighbors[u].add(v)
            self.neighbors[v].add(u)

    def adjacent(self, a: int, b: int) -> bool:
        """Any edge, of either kind, between a and b."""
        return b in self.children[a] or b in self.parents[a] or b in self.neighbors[a]

    def set_pair(self, u: int, v: int, kind: str | None) -> None:
        """Replace whatever edge joins u and v with u->v ("directed"),
        u-v ("undirected") or nothing (None)."""
        for a, b in ((u, v), (v, u)):
            self.children[a].discard(b)
            self.parents[b].discard(a)
            self.neighbors[a].discard(b)
        if kind == "directed":
            self.children[u].add(v)
            self.parents[v].add(u)
        elif kind == "undirected":
            self.neighbors[u].add(v)
            self.neighbors[v].add(u)

    def closes_cycle(self, u: int, v: int) -> bool:
        """True when replacing the pair's edge with u->v would close a
        directed cycle, that is when v reaches u without the edge v->u."""
        stack = [w for w in self.children[v] if w != u]
        seen = set(stack)
        while stack:
            n = stack.pop()
            if n == u:
                return True
            for m in self.children[n] - seen:
                seen.add(m)
                stack.append(m)
        return False

    def freeze(self, nodes: Iterable[KnowledgePoint]) -> Mcg:
        return Mcg(
            nodes=tuple(nodes),
            directed=frozenset(
                (u, v) for u, vs in enumerate(self.children) for v in vs
            ),
            undirected=frozenset(
                (u, v) for u, vs in enumerate(self.neighbors) for v in vs if u < v
            ),
        )


def _chosen(g: Mcg, selected: Iterable[int]) -> list[int]:
    """``selected`` in ascending order, once each; all must be nodes of g."""
    chosen = sorted(set(selected))
    for i in chosen:
        if not (0 <= i < g.k):
            raise ValueError(f"selected node {i} out of range for {g.k} nodes")
    return chosen


def extract_subgraph(g: Mcg, selected: Iterable[int]) -> Mcg:
    """Induced subgraph on ``selected``, renumbered in ascending order: an
    edge survives iff both endpoints do. The pipeline does not build it; it
    renders a subgraph with ``verbalize(g, selected)``."""
    chosen = _chosen(g, selected)
    remap = {old: new for new, old in enumerate(chosen)}
    return Mcg(
        nodes=tuple(g.nodes[i] for i in chosen),
        directed=frozenset(
            (remap[u], remap[v]) for u, v in g.directed if u in remap and v in remap
        ),
        undirected=frozenset(
            (remap[u], remap[v]) for u, v in g.undirected if u in remap and v in remap
        ),
    )


class Verbalization(NamedTuple):
    """Numbered natural-language rendering of a graph for prompt injection:
    each field is its numbered lines (``**1.** ...``) joined by newlines."""

    elements: str
    relations: str


def _numbered(lines: Iterable[str]) -> str:
    return "\n".join(f"**{i}.** {line}" for i, line in enumerate(lines, start=1))


def verbalize(g: Mcg, selected: Iterable[int] | None = None) -> Verbalization:
    """Render nodes and edges as numbered element / relation lines.

    Each field is the prompt text: its lines joined by newlines, "" when
    there are none. Element numbering is 1-based and matches the factor
    indices the subgraph-matching prompt asks the model to echo back. With
    ``selected``, the result is the verbalization of
    ``extract_subgraph(g, selected)``, cut from g's own lines: those of the
    selected nodes and of the relations between them, numbered from 1.
    """
    text, elements, sentences, ends = g._verbalized
    if selected is None:
        return text
    chosen = _chosen(g, selected)
    keep = set(chosen)
    return Verbalization(
        _numbered(elements[i] for i in chosen),
        _numbered(line for line, (u, v) in zip(sentences, ends) if u in keep and v in keep),
    )


def graphs_equal(a: Mcg, b: Mcg) -> bool:
    """Equality up to node order and descriptions.

    True iff the key sets match and the edge sets match under the
    key-induced alignment.
    """
    keys_a = {p.key for p in a.nodes}
    keys_b = {p.key for p in b.nodes}
    if keys_a != keys_b:
        return False
    return edge_keys(a) == edge_keys(b)


def edge_keys(g: Mcg) -> tuple[set[tuple[str, str]], set[frozenset[str]]]:
    """The directed edges as (source key, target key) pairs and the
    undirected ones as frozensets of their two keys."""
    directed = {(g.nodes[u].key, g.nodes[v].key) for u, v in g.directed}
    undirected = {frozenset((g.nodes[u].key, g.nodes[v].key)) for u, v in g.undirected}
    return directed, undirected


def serialize_graph(g: Mcg) -> str:
    """Versioned JSON document; deterministic bytes for a given graph."""
    doc = {
        "version": GRAPH_FORMAT_VERSION,
        "nodes": [{"key": p.key, "description": p.description} for p in g.nodes],
        "directed": sorted([u, v] for u, v in g.directed),
        "undirected": sorted([u, v] for u, v in g.undirected),
    }
    return json_text(doc)


def deserialize_graph(data: str | bytes) -> Mcg:
    doc = read_json(data, "graph JSON")
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    if doc.get("version") != GRAPH_FORMAT_VERSION:
        raise ParseError(f"unsupported graph format version {doc.get('version')!r}")
    try:
        nodes = tuple(
            KnowledgePoint(key=n["key"], description=n.get("description", ""))
            for n in json_list(doc["nodes"], "nodes")
        )
        directed = _edges(json_list(doc.get("directed", []), "directed"))
        undirected = _edges(json_list(doc.get("undirected", []), "undirected"))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed graph document: {e}") from e
    try:
        return Mcg(nodes=nodes, directed=directed, undirected=undirected)
    except ValueError as e:
        raise ParseError(f"graph document violates invariants: {e}") from e


def _edges(pairs) -> frozenset[tuple[int, int]]:
    """Edge endpoints as read from JSON; each must be an integer, not a
    float, a string or a boolean."""
    edges = frozenset((u, v) for u, v in pairs)
    for edge in edges:
        if any(type(end) is not int for end in edge):
            raise TypeError(f"edge endpoints must be integers, got {list(edge)!r}")
    return edges


def load_graph(path) -> Mcg:
    return deserialize_graph(Path(path).read_bytes())


def save_graph(g: Mcg, path) -> None:
    write_atomic(path, serialize_graph(g))


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Mcg) -> str:
    """Graphviz DOT text: undirected association edges carry dir=none."""
    name = [_dot_quote(p.key) for p in g.nodes]
    lines = ["digraph mcg {", *(f"  {n};" for n in name)]
    for edges, attributes in ((g.directed, ""), (g.undirected, " [dir=none]")):
        lines += (f"  {name[u]} -> {name[v]}{attributes};" for u, v in sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
