"""Constraint-based structure discovery over binary incidence data.

Pipeline: likelihood-ratio (G-squared) independence tests feed a
level-synchronized PC skeleton search, unshielded colliders are oriented
conservatively, and the orientation closure rules complete the result to
a CPDAG. The independence decision is pluggable so an exact d-separation
oracle can stand in for the statistical test.

With G-squared, the tests of levels 0 and 1 (|S| <= 1) are answered in
one batch per level from count tables: the columns are packed into bit
words once, and each cell count of a 2x2 table is the popcount of an AND
of packed columns. The candidates are enumerated in the same order as the
one-at-a-time search and the first independent one still wins, so the
sepsets are unchanged. Larger conditioning sets are tested one at a time,
lazily.
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
# decision for a level's candidates at once: x (T,), y (T,), s (T, level)
BatchTest = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# levels below this are asked of a BatchTest, when one is given
BATCH_LEVELS = 2
# packed words per operand in one chunk of a batch, which bounds its memory
_BATCH_WORDS = 1 << 14


@dataclass(frozen=True)
class CiTestResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def chi2_sf(x: float | np.ndarray, dof: int | np.ndarray) -> float | np.ndarray:
    """Chi-square survival function via the regularized upper incomplete gamma.

    Elementwise over arrays, 1 where dof <= 0; scalars give a scalar.
    """
    return np.where(np.greater(dof, 0), gammaincc(dof / 2.0, x / 2.0), 1.0)[()]


def g_squared_ci_test(
    z: IncidenceMatrix, x: int, y: int, s: Sequence[int] | frozenset, alpha: float
) -> CiTestResult:
    """G-squared conditional independence test of columns x and y given s.

    Each row gets the code (x << 1) | y | sum(s_i << (i + 2)), s_i the i-th
    column of sorted(s), and one bincount of the codes gives the 2x2 (x, y)
    table of every stratum (code >> 2) in ascending stratum order. When the
    possible strata (2**|s|) outnumber the rows, the strata present are
    first renumbered in ascending order. The statistic is ``_g_squared``'s.
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
        # a matrix without rows still gets one (empty) stratum
        n_strata = max(len(present), 1)
    counts = np.bincount(flat, minlength=4 * n_strata).reshape(1, n_strata, 2, 2)
    statistic, dof, p_value = _g_squared(counts)
    return CiTestResult(
        statistic=float(statistic[0]),
        dof=int(dof[0]),
        p_value=float(p_value[0]),
        independent=bool(p_value[0] > alpha),
    )


def _g_squared(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistic, dof and p-value of each of T stacked tests.

    ``counts[t, stratum, a, b]`` counts the rows of the stratum with x = a
    and y = b. A stratum is live when x and y both vary in it; each live
    stratum adds 2 * sum(O * ln(O/E)), E from its margins and zero O adding
    nothing, and one degree of freedom. The terms are summed in stratum
    order, dead strata adding an exact 0.0. A test with zero dof gets
    statistic 0 and p-value 1, so it is declared independent.
    """
    x_margin = counts.sum(axis=3)
    y_margin = counts.sum(axis=2)
    live = np.minimum(x_margin, y_margin).min(axis=2) > 0
    table = counts[live]
    margins = x_margin[live][:, :, None] * y_margin[live][:, None, :]
    expected = margins / table.sum(axis=(1, 2))[:, None, None]
    observed = table.astype(np.float64)
    ratio = np.where(table > 0, observed / expected, 1.0)
    terms = np.zeros(live.shape)
    terms[live] = (observed * np.log(ratio)).reshape(-1, 4).sum(axis=1)
    # a running sum in stratum order, as a loop over the strata would add
    statistic = np.maximum((2.0 * terms).cumsum(axis=1)[:, -1], 0.0)
    dof = live.sum(axis=1)
    return statistic, dof, chi2_sf(statistic, dof)


def _bit_columns(cells: np.ndarray) -> np.ndarray:
    """Each column of a 0/1 matrix packed into 64-bit words, shape (k, words);
    the padding bits are 0."""
    packed = np.packbits(cells.T, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return packed.view(np.uint64)


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _pair_tables(n: int | np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """(T, 2, 2) tables of x and y over n rows from their packed words."""
    n11 = _popcount(bx & by)
    n10 = _popcount(bx) - n11
    n01 = _popcount(by) - n11
    return np.stack([n - n10 - n01 - n11, n01, n10, n11], axis=1).reshape(-1, 2, 2)


def g_squared_ci_batch(
    z: IncidenceMatrix, x: np.ndarray, y: np.ndarray, s: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Statistic, dof, p-value and decision of T tests with |S| <= 1, each
    equal to ``g_squared_ci_test``'s field bit for bit.

    ``x`` and ``y`` hold T columns and ``s`` has shape (T, 0) or (T, 1).
    The columns are packed into bit words once; a cell count of a table is
    the popcount of an AND of packed columns, and at |S| = 1 the stratum
    s = 0 is the whole table minus the stratum s = 1. Tests go in chunks
    of about ``_BATCH_WORDS`` words per operand.
    """
    x, y, s = (np.asarray(a, dtype=np.intp) for a in (x, y, s))
    if s.ndim != 2 or s.shape[1] > 1:
        raise ValueError(f"s must have shape (T, 0) or (T, 1), got {s.shape}")
    cols = np.concatenate([x, y, s.ravel()])
    if cols.size and not (0 <= cols.min() and cols.max() < z.cols):
        raise ColumnOutOfRange(f"a column is out of range for {z.cols} columns")
    if (x == y).any() or (s == x[:, None]).any() or (s == y[:, None]).any():
        raise ValueError("x, y, and s must be distinct")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    bits = _bit_columns(z.cells)
    statistic = np.empty(len(x))
    dof = np.empty(len(x), dtype=np.int64)
    p_value = np.empty(len(x))
    step = max(1, _BATCH_WORDS // max(bits.shape[1], 1))
    for start in range(0, len(x), step):
        part = slice(start, start + step)
        bx, by = bits[x[part]], bits[y[part]]
        tables = _pair_tables(z.rows, bx, by)[:, None]
        if s.shape[1]:
            bc = bits[s[part, 0]]
            ones = _pair_tables(_popcount(bc), bx & bc, by & bc)[:, None]
            tables = np.concatenate([tables - ones, ones], axis=1)
        statistic[part], dof[part], p_value[part] = _g_squared(tables)
    return statistic, dof, p_value, p_value > alpha


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


def _candidates(frozen: dict[int, list[int]], u: int, v: int, level: int):
    """Size-level subsets of adj(u)\\{v}, then of adj(v)\\{u}, each in
    lexicographic column order and each subset once, as sorted tuples."""
    if level == 0:  # the one empty subset, without building the pools
        yield ()
        return
    tested: set[tuple[int, ...]] = set()
    for base in (frozen[u], frozen[v]):
        pool = [w for w in base if w != u and w != v]
        for subset in combinations(pool, level):
            if subset not in tested:
                tested.add(subset)
                yield subset


def _batch_removals(
    pairs: list[tuple[int, int]], frozen: dict[int, list[int]], level: int, batch: BatchTest
) -> list[tuple[int, int, frozenset[int]]]:
    """One level's removals from a single batch over every pair's candidates:
    a pair takes its first independent candidate, as the lazy search does."""
    owner: list[int] = []
    flat: list[int] = []
    for i, (u, v) in enumerate(pairs):
        for subset in _candidates(frozen, u, v, level):
            owner.append(i)
            flat.extend(subset)
    if not owner:
        return []
    owners = np.array(owner)
    ends = np.array(pairs)[owners]
    s = np.array(flat, dtype=np.intp).reshape(len(owners), level)
    hits = np.flatnonzero(batch(ends[:, 0], ends[:, 1], s))
    _, first = np.unique(owners[hits], return_index=True)
    return [(*pairs[owners[t]], frozenset(s[t].tolist())) for t in hits[first]]


def skeleton_from_ci(
    k: int,
    independent: IndependenceTest,
    max_cond_size: int | None = None,
    batch: BatchTest | None = None,
) -> Skeleton:
    """Level-synchronized PC skeleton phase over an arbitrary CI decision.

    For growing conditioning size l, every still-adjacent pair (u, v) is
    tested against each size-l subset of adj(u)\\{v} and adj(v)\\{u},
    enumerated in lexicographic column order, until one is independent.
    Removals are committed only once a level completes, so the result does
    not depend on scan order. Given ``batch``, which must agree with
    ``independent``, the levels below ``BATCH_LEVELS`` decide all of their
    candidates in one call instead; each pair still takes its first
    independent candidate, so the sepsets are the same.
    """
    if max_cond_size is not None and max_cond_size < 0:
        raise ValueError("max_cond_size must be >= 0")
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
        pairs = [(u, v) for u in range(k) for v in frozen[u] if v > u]
        if batch is not None and level < BATCH_LEVELS:
            removals = _batch_removals(pairs, frozen, level, batch)
        else:
            removals = []
            for u, v in pairs:
                for subset in map(frozenset, _candidates(frozen, u, v, level)):
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
    batch: BatchTest | None = None,
) -> Mcg:
    """Full PC pipeline (skeleton, colliders, closure) over a CI decision."""
    sk = skeleton_from_ci(k, independent, max_cond_size=max_cond_size, batch=batch)
    return meek_closure(orient_v_structures(sk, points))


def discover_cpdag(
    z: IncidenceMatrix,
    alpha: float = DEFAULT_ALPHA,
    max_cond_size: int | None = None,
) -> Mcg:
    """Infer the CPDAG of the incidence matrix with the G-squared test;
    levels 0 and 1 of the skeleton search run as one batch each."""
    points = tuple(KnowledgePoint(key=key) for key in z.col_keys)

    def independent(u: int, v: int, s: frozenset) -> bool:
        return g_squared_ci_test(z, u, v, s, alpha).independent

    def batch(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        return g_squared_ci_batch(z, x, y, s, alpha)[3]

    return cpdag_from_ci(
        z.cols, independent, points, max_cond_size=max_cond_size, batch=batch
    )
