"""Ground-truth DAG machinery for verifying structure discovery.

A TrueDag carries binary conditional probability tables, supports exact
d-separation queries (a perfect stand-in for the statistical CI test),
forward sampling into an incidence matrix, and direct construction of its
CPDAG for comparison against discovery output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discovery import DEFAULT_MAX_COND_SIZE, BatchTest, _assemble, cpdag_from_ci, meek_closure
from .errors import ParseError
from .graph import Mcg, edge_keys, topological_order
from .matrix import IncidenceMatrix
from .model import KnowledgePoint, json_list, read_json


@dataclass(frozen=True)
class TrueDag:
    """Binary Bayesian network: per-node parent lists and CPTs.

    ``cpt[i]`` has one row [P(node=0 | pa), P(node=1 | pa)] per parent
    assignment; assignment index treats the first parent as the least
    significant bit.
    """

    names: tuple[str, ...]
    parents: tuple[tuple[int, ...], ...]
    cpt: tuple[np.ndarray, ...]

    def __post_init__(self):
        k = len(self.names)
        if len(self.parents) != k or len(self.cpt) != k:
            raise ValueError("names, parents and cpt must have equal length")
        Mcg(tuple(KnowledgePoint(key=name) for name in self.names))  # distinct node keys
        object.__setattr__(
            self, "parents", tuple(tuple(int(p) for p in ps) for ps in self.parents)
        )
        tables = []
        for i, (ps, table) in enumerate(zip(self.parents, self.cpt)):
            for p in ps:
                if not (0 <= p < k) or p == i:
                    raise ValueError(f"node {i} has invalid parent {p}")
            arr = np.asarray(table, dtype=np.float64)
            if arr.shape != (2 ** len(ps), 2):
                raise ValueError(
                    f"node {i} CPT shape {arr.shape} != ({2 ** len(ps)}, 2)"
                )
            if not np.isfinite(arr).all() or (arr < 0).any() or (
                np.abs(arr.sum(axis=1) - 1.0).max() > 1e-12
            ):
                raise ValueError(f"node {i} CPT rows must be distributions")
            tables.append(arr)
        object.__setattr__(self, "cpt", tuple(tables))
        if topological_order(k, self.edges()) is None:
            raise ValueError("parent sets contain a directed cycle")

    @property
    def k(self) -> int:
        return len(self.names)

    def edges(self) -> list[tuple[int, int]]:
        return [(p, i) for i, ps in enumerate(self.parents) for p in ps]

    def children(self, i: int) -> list[int]:
        return [c for c, ps in enumerate(self.parents) if i in ps]


def d_separation_ci(dag: TrueDag, x: int, y: int, s: frozenset | set) -> bool:
    """True iff x and y are d-separated by s in the DAG.

    Reachability formulation: walk trails from x, tracking whether each
    node was entered from a child (up) or a parent (down); y reachable
    along an active trail means dependence. A walk entering a conditioned
    node from a parent turns back up to its parents, so going back up a
    directed path into s opens every collider that is an ancestor of s.
    """
    s = frozenset(s)
    if x == y or x in s or y in s:
        raise ValueError("x, y, and s must be distinct")

    visited: set[tuple[int, str]] = set()
    frontier: list[tuple[int, str]] = [(x, "up")]
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y:
            return False
        if direction == "up" and node not in s:
            for p in dag.parents[node]:
                frontier.append((p, "up"))
            for c in dag.children(node):
                frontier.append((c, "down"))
        elif direction == "down" and node in s:
            for p in dag.parents[node]:
                frontier.append((p, "up"))
        elif direction == "down":
            for c in dag.children(node):
                frontier.append((c, "down"))
    return True


def dsep_independence(dag: TrueDag) -> BatchTest:
    """d-separation in the DAG as the batch independence decision PC takes:
    x (T,), y (T,) and s (T, |S|) in, True where d-separated out."""

    def decide(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        tests = zip(x.tolist(), y.tolist(), s.tolist())
        return np.array([d_separation_ci(dag, u, v, c) for u, v, c in tests], dtype=bool)

    return decide


def oracle_cpdag(dag: TrueDag, max_cond_size: int = DEFAULT_MAX_COND_SIZE) -> Mcg:
    """Run the PC search with the exact d-separation oracle as its CI test.

    A second, search-independent route to the same object is true_cpdag;
    the two must agree on every DAG.
    """
    points = tuple(KnowledgePoint(key=name) for name in dag.names)
    return cpdag_from_ci(
        dag.k, dsep_independence(dag), points, max_cond_size=max_cond_size
    )


def sample_incidence(dag: TrueDag, n: int, seed: int) -> IncidenceMatrix:
    """Forward-sample n rows in ancestral order; deterministic per seed."""
    rng = np.random.default_rng(seed)
    order = topological_order(dag.k, dag.edges())
    assert order is not None
    cells = np.zeros((n, dag.k), dtype=np.uint8)
    for node in order:
        ps = dag.parents[node]
        if ps:
            index = np.zeros(n, dtype=np.int64)
            for bit, p in enumerate(ps):
                index |= cells[:, p].astype(np.int64) << bit
            p_one = dag.cpt[node][index, 1]
        else:
            p_one = np.full(n, dag.cpt[node][0, 1])
        cells[:, node] = (rng.random(n) < p_one).astype(np.uint8)
    row_ids = tuple(f"r{i:05d}" for i in range(n))
    return IncidenceMatrix(cells=cells, row_ids=row_ids, col_keys=dag.names)


def true_cpdag(dag: TrueDag) -> Mcg:
    """CPDAG of the DAG built structurally: skeleton + colliders + closure.

    Independent of the PC search path, so it can serve as the expected
    value when checking discovery output.
    """
    parents = [set(ps) for ps in dag.parents]
    # u->w when w has a parent v not adjacent to u; these are DAG edges, so
    # none closes a cycle and their order does not matter
    oriented = [
        (u, w)
        for w, ps in enumerate(dag.parents)
        for u in ps
        if any(v != u and v not in parents[u] and u not in parents[v] for v in ps)
    ]
    points = tuple(KnowledgePoint(key=name) for name in dag.names)
    return meek_closure(_assemble(points, dag.edges(), oriented))


def structural_hamming_distance(a: Mcg, b: Mcg) -> int:
    """Count of node pairs whose edge state differs between the two graphs.

    Edge state per pair is one of: absent, undirected, directed either way.
    Any mismatch (insertion, deletion, kind or direction change) counts 1,
    as one unordered key pair. Both graphs must cover the same node keys.
    """
    if {p.key for p in a.nodes} != {p.key for p in b.nodes}:
        raise ValueError("graphs cover different node keys")

    (da, ua), (db, ub) = edge_keys(a), edge_keys(b)
    return len({frozenset(e) for e in da ^ db} | (ua ^ ub))


def random_true_dag(
    k: int, edge_prob: float, seed: int, rng: np.random.Generator | None = None
) -> TrueDag:
    """Random DAG with random binary CPTs for benchmark sweeps.

    A random node order is drawn, each forward pair becomes an edge with
    probability edge_prob, and CPT rows are sampled away from 0/1 so the
    structure is detectable in samples.
    """
    gen = rng if rng is not None else np.random.default_rng(seed)
    order = gen.permutation(k)
    parent_sets: list[list[int]] = [[] for _ in range(k)]
    for i_pos in range(k):
        for j_pos in range(i_pos + 1, k):
            if gen.random() < edge_prob:
                parent_sets[order[j_pos]].append(int(order[i_pos]))
    cpts = []
    for i in range(k):
        rows = 2 ** len(parent_sets[i])
        p_one = gen.uniform(0.1, 0.9, size=rows)
        cpts.append(np.column_stack([1.0 - p_one, p_one]))
    names = tuple(f"x{i}" for i in range(k))
    return TrueDag(names=names, parents=tuple(tuple(ps) for ps in parent_sets), cpt=tuple(cpts))


def _names(value) -> list[str]:
    """A list of node names as read from JSON; each name must be a string."""
    if any(type(n) is not str for n in json_list(value, "node names")):
        raise TypeError(f"node names must be strings, got {value!r}")
    return value


def _cpt(value) -> np.ndarray:
    """A CPT as read from JSON: nested lists of numbers. NumPy would also
    take a boolean or a numeric string as a number."""
    cells = np.asarray(value, dtype=object)
    if any(type(cell) not in (int, float) for cell in cells.flat):
        raise TypeError(f"CPT cells must be numbers, got {value!r}")
    return cells.astype(np.float64)


def load_scenario(path: str | Path) -> TrueDag:
    """Read a TrueDag from its JSON scenario document {nodes, parents, cpt}."""
    doc = read_json(Path(path).read_bytes(), "scenario JSON")
    try:
        names = tuple(_names(doc["nodes"]))
        index = {n: i for i, n in enumerate(names)}
        parents = tuple(
            tuple(index[p] for p in _names(doc["parents"][name])) for name in names
        )
        cpt = tuple(_cpt(doc["cpt"][name]) for name in names)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"malformed scenario document: {e}") from e
    try:
        return TrueDag(names=names, parents=parents, cpt=cpt)
    except ValueError as e:
        raise ParseError(f"scenario violates invariants: {e}") from e

