"""Constraint-based structure discovery over binary incidence data.

Pipeline: likelihood-ratio (G-squared) independence tests feed a
level-synchronized PC skeleton search, unshielded colliders are oriented
conservatively, and the orientation closure rules complete the result to
a CPDAG. The independence decision is pluggable so an exact d-separation
oracle can stand in for the statistical test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc

from .errors import ColumnOutOfRange, StratumOverflow
from .graph import GraphBuilder, Mcg
from .matrix import IncidenceMatrix
from .model import KnowledgePoint

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.05
DEFAULT_MAX_COND_SIZE = 8

# decision: True means "independent at level alpha"
IndependenceTest = Callable[[int, int, frozenset], bool]


@dataclass(frozen=True)
class CiTestResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function via the regularized upper incomplete gamma."""
    if dof <= 0:
        return 1.0
    return float(gammaincc(dof / 2.0, x / 2.0))


def g_squared_ci_test(
    z: IncidenceMatrix, x: int, y: int, s: Sequence[int] | frozenset, alpha: float
) -> CiTestResult:
    """G-squared conditional independence test of columns x and y given s.

    Each row gets the code (x << 1) | y | sum(s_i << (i + 2)), s_i the i-th
    column of sorted(s), and one bincount of the codes gives the 2x2 (x, y)
    table of every stratum (code >> 2) in ascending stratum order. When the
    possible strata (2**|s|) outnumber the rows, the strata present are
    first renumbered in ascending order. Each table adds 2 * sum(O * ln(O/E))
    with E from its margins, zero O adding nothing, and one degree of
    freedom, unless x or y is constant in it; terms are summed in stratum
    order. With zero total dof the pair is declared independent.
    """
    s = frozenset(s)
    k = z.cols
    for col in (x, y, *s):
        if not (0 <= col < k):
            raise ColumnOutOfRange(f"column {col} out of range for {k} columns")
    if x == y or x in s or y in s:
        raise ValueError("x, y, and s must be distinct")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if len(s) > 30:
        raise StratumOverflow(f"conditioning set of size {len(s)} exceeds 30")

    # with at most 30 conditioning columns every code fits in 32 bits
    flat = np.left_shift(z.cells[:, x], 1, dtype=np.uint32)
    flat |= z.cells[:, y]
    for bit, col in enumerate(sorted(s), start=2):
        flat |= np.left_shift(z.cells[:, col], bit, dtype=np.uint32)
    n_strata = 1 << len(s)
    if n_strata > z.rows:
        present, strata = np.unique(flat >> 2, return_inverse=True)
        flat = (strata << 2) | (flat & 3)
        n_strata = len(present)
    counts = np.bincount(flat, minlength=4 * n_strata).reshape(n_strata, 2, 2)

    x_margin = counts.sum(axis=2)
    y_margin = counts.sum(axis=1)
    live = (np.minimum(x_margin, y_margin) > 0).all(axis=1)
    dof = int(np.count_nonzero(live))
    if dof == 0:
        return CiTestResult(statistic=0.0, dof=0, p_value=1.0, independent=True)
    table = counts[live]
    margins = x_margin[live][:, :, None] * y_margin[live][:, None, :]
    expected = margins / table.sum(axis=(1, 2))[:, None, None]
    observed = table.astype(np.float64)
    ratio = np.where(table > 0, observed / expected, 1.0)
    terms = (observed * np.log(ratio)).reshape(dof, 4).sum(axis=1)
    # a running sum in stratum order, as a loop over the strata would add
    statistic = max(float(np.cumsum(2.0 * terms)[-1]), 0.0)
    p_value = chi2_sf(statistic, dof)
    return CiTestResult(
        statistic=statistic, dof=dof, p_value=p_value, independent=p_value > alpha
    )


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency plus the separating sets found for removed pairs."""

    adjacency: np.ndarray
    sepsets: dict[tuple[int, int], frozenset[int]]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not (adj == adj.T).all() or adj.diagonal().any():
            raise ValueError("adjacency must be symmetric with a false diagonal")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(
            self,
            "sepsets",
            {
                (min(u, v), max(u, v)): frozenset(ss)
                for (u, v), ss in self.sepsets.items()
            },
        )

    @property
    def k(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.adjacency[i])]


def skeleton_from_ci(
    k: int, independent: IndependenceTest, max_cond_size: int | None = None
) -> Skeleton:
    """Level-synchronized PC skeleton phase over an arbitrary CI decision.

    For growing conditioning size l, every still-adjacent pair (u, v) is
    tested against each size-l subset of adj(u)\\{v} and adj(v)\\{u},
    enumerated in lexicographic column order. Removals are committed only
    once a level completes, so the result does not depend on scan order.
    """
    cap = min(k - 2, DEFAULT_MAX_COND_SIZE if max_cond_size is None else max_cond_size)
    adj = {i: set(range(k)) - {i} for i in range(k)}
    sepsets: dict[tuple[int, int], frozenset[int]] = {}

    level = 0
    while level <= cap:
        frozen = {i: sorted(adj[i]) for i in range(k)}
        if not any(
            len(frozen[u]) - 1 >= level and v in adj[u]
            for u in range(k)
            for v in frozen[u]
        ):
            break
        removals: list[tuple[int, int, frozenset[int]]] = []
        for u in range(k):
            for v in frozen[u]:
                if v <= u:
                    continue
                tested: set[frozenset[int]] = set()
                found = None
                for base in (frozen[u], frozen[v]):
                    pool = [w for w in base if w != u and w != v]
                    if len(pool) < level:
                        continue
                    for subset in combinations(pool, level):
                        cand = frozenset(subset)
                        if cand in tested:
                            continue
                        tested.add(cand)
                        if independent(u, v, cand):
                            found = cand
                            break
                    if found is not None:
                        break
                if found is not None:
                    removals.append((u, v, found))
        for u, v, ss in removals:
            adj[u].discard(v)
            adj[v].discard(u)
            sepsets[(u, v)] = ss
        level += 1

    adjacency = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in adj[i]:
            adjacency[i, j] = True
    return Skeleton(adjacency=adjacency, sepsets=sepsets)


def _placeholder_points(k: int) -> tuple[KnowledgePoint, ...]:
    return tuple(KnowledgePoint(key=f"x{i}") for i in range(k))


def _assemble(
    points: Sequence[KnowledgePoint],
    oriented: Sequence[tuple[int, int]],
    undirected: set[tuple[int, int]],
) -> Mcg:
    """Build a valid mixed graph from an ordered orientation list.

    Directed edges are inserted in orientation order; an edge that would
    close a directed cycle is downgraded back to undirected and logged.
    No pair may appear in ``oriented`` in both directions.
    """
    builder = GraphBuilder(len(points), undirected=undirected)
    for u, v in oriented:
        if builder.closes_cycle(u, v):
            logger.warning(
                "downgrading %d->%d to undirected: orientation closes a cycle", u, v
            )
            builder.set_pair(u, v, "undirected")
        else:
            builder.set_pair(u, v, "directed")
    return builder.freeze(points)


def orient_v_structures(
    sk: Skeleton, points: Sequence[KnowledgePoint] | None = None
) -> Mcg:
    """Orient unshielded colliders u->w<-v where w is outside sepset(u, v).

    Opposite proposals over a single edge cancel out and leave it
    undirected (conservative rule).
    """
    k = sk.k
    pts = tuple(points) if points is not None else _placeholder_points(k)
    if len(pts) != k:
        raise ValueError(f"{len(pts)} points for a {k}-node skeleton")

    proposals: list[tuple[int, int]] = []
    proposed: set[tuple[int, int]] = set()
    for w in range(k):
        nbrs = sk.neighbors(w)
        for u, v in combinations(nbrs, 2):
            if sk.adjacency[u, v]:
                continue
            sepset = sk.sepsets.get((min(u, v), max(u, v)))
            if sepset is None or w in sepset:
                continue
            for edge in ((u, w), (v, w)):
                if edge not in proposed:
                    proposed.add(edge)
                    proposals.append(edge)

    conflicted = {
        (min(u, v), max(u, v)) for u, v in proposed if (v, u) in proposed
    }
    oriented = [
        (u, v) for u, v in proposals if (min(u, v), max(u, v)) not in conflicted
    ]
    undirected = {
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if sk.adjacency[i, j]
        and (i, j) not in oriented
        and (j, i) not in oriented
    }
    return _assemble(pts, oriented, undirected)


def meek_closure(g: Mcg) -> Mcg:
    """Close a partially directed graph under the four Meek orientation rules.

    R1: a->b, b-c, a and c non-adjacent            => b->c
    R2: a->b->c, a-c                               => a->c
    R3: a-b, a-c, a-d, c->b, d->b, c,d non-adjacent => a->b
    R4: a-b, a-c, c->d, d->b, c,b non-adjacent,
        a and d adjacent                           => a->b

    Rules are swept in order R1..R4 with a deterministic edge scan until a
    full pass changes nothing.
    """
    pdag = GraphBuilder(g.k, g.directed, g.undirected)
    parents, children, neighbors = pdag.parents, pdag.children, pdag.neighbors
    adjacent = pdag.adjacent
    oriented: list[tuple[int, int]] = sorted(g.directed)

    def orient(a: int, b: int) -> None:
        pdag.set_pair(a, b, "directed")
        oriented.append((a, b))

    def r1_fires(b: int, c: int) -> bool:
        return any(not adjacent(a, c) for a in parents[b])

    def r2_fires(a: int, c: int) -> bool:
        return not children[a].isdisjoint(parents[c])

    def r3_fires(a: int, b: int) -> bool:
        linked = neighbors[a] & parents[b]
        return any(not adjacent(c, d) for c, d in combinations(linked, 2))

    def r4_fires(a: int, b: int) -> bool:
        return any(
            b in children[d] and adjacent(a, d)
            for c in neighbors[a]
            if not adjacent(c, b)
            for d in children[c]
        )

    def undirected() -> list[tuple[int, int]]:
        return sorted((u, v) for u, vs in enumerate(neighbors) for v in vs if u < v)

    rules = (r1_fires, r2_fires, r3_fires, r4_fires)
    changed = True
    while changed:
        changed = False
        for fires in rules:
            for u, v in undirected():
                if v not in neighbors[u]:
                    continue
                if fires(u, v):
                    orient(u, v)
                    changed = True
                elif fires(v, u):
                    orient(v, u)
                    changed = True
    return _assemble(g.nodes, oriented, set(undirected()))


def cpdag_from_ci(
    k: int,
    independent: IndependenceTest,
    points: Sequence[KnowledgePoint] | None = None,
    max_cond_size: int | None = None,
) -> Mcg:
    """Full PC pipeline (skeleton, colliders, closure) over a CI decision."""
    sk = skeleton_from_ci(k, independent, max_cond_size=max_cond_size)
    return meek_closure(orient_v_structures(sk, points))


def discover_cpdag(
    z: IncidenceMatrix,
    alpha: float = DEFAULT_ALPHA,
    max_cond_size: int | None = None,
) -> Mcg:
    """Infer the CPDAG of the incidence matrix with the G-squared test."""
    points = tuple(KnowledgePoint(key=key) for key in z.col_keys)

    def independent(u: int, v: int, s: frozenset) -> bool:
        return g_squared_ci_test(z, u, v, s, alpha).independent

    return cpdag_from_ci(z.cols, independent, points, max_cond_size=max_cond_size)
