"""Constraint-based structure discovery over binary incidence data.

Pipeline: likelihood-ratio (G-squared) independence tests feed a
level-synchronized PC skeleton search, unshielded colliders are oriented
conservatively, and the orientation closure rules complete the result to
a CPDAG. The independence decision is pluggable so an exact d-separation
oracle can stand in for the statistical test.

Each level of the skeleton search runs in waves: wave r asks every pair
still adjacent for its r-th candidate conditioning set, and one batch
call decides all of those tests. A pair leaves at its first independent
candidate, so the tests asked and the sepsets are those of a one-at-a-time
search. With G-squared a batch is one kernel for any |S|: the columns are
packed into bit words once per discovery, each stratum of S is a mask of
ANDed packed columns, and each cell of its 2x2 table is a popcount. A
plain independence test, such as the d-separation oracle, is lifted to a
batch by a loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import gammaincc, gammainccinv

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

# packed words per operand in one chunk of a batch, which bounds its memory
_BATCH_WORDS = 1 << 16


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


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def g_squared_ci_test(
    z: IncidenceMatrix, x: int, y: int, s: Sequence[int] | frozenset, alpha: float
) -> CiTestResult:
    """G-squared conditional independence test of columns x and y given s.

    The tables come from one bincount of the rows (``_bincount_tables``)
    and the statistic from ``_g_squared``.
    """
    s = frozenset(s)
    k = z.cols
    for col in (x, y, *s):
        if not (0 <= col < k):
            raise ColumnOutOfRange(f"column {col} out of range for {k} columns")
    if x == y or x in s or y in s:
        raise ValueError("x, y, and s must be distinct")
    _check_alpha(alpha)
    if len(s) > 30:
        raise StratumOverflow(f"conditioning set of size {len(s)} exceeds 30")
    statistic, dof = _g_squared(_bincount_tables(z.cells, x, y, sorted(s)))
    p_value = chi2_sf(statistic, dof)
    return CiTestResult(
        statistic=float(statistic[0]),
        dof=int(dof[0]),
        p_value=float(p_value[0]),
        independent=bool(p_value[0] > alpha),
    )


def _bincount_tables(cells: np.ndarray, x: int, y: int, s: Sequence[int]) -> np.ndarray:
    """The (1, strata, 2, 2) tables of one test from one bincount of its rows.

    Each row gets the code (x << 1) | y | sum(s_i << (i + 2)), s_i the i-th
    column of the sorted ``s``, and one bincount of the codes gives the
    2x2 (x, y) table of every stratum (code >> 2) in ascending stratum
    order. When the possible strata (2**|s|) outnumber the rows, the strata
    present are first renumbered in ascending order.
    """
    rows = cells.shape[0]
    # with at most 30 conditioning columns every code fits in 32 bits
    flat = np.left_shift(cells[:, x], 1, dtype=np.uint32)
    flat |= cells[:, y]
    for bit, col in enumerate(s, start=2):
        flat |= np.left_shift(cells[:, col], bit, dtype=np.uint32)
    n_strata = 1 << len(s)
    if n_strata > rows:
        present, strata = np.unique(flat >> 2, return_inverse=True)
        flat = (strata << 2) | (flat & 3)
        # a matrix without rows still gets one (empty) stratum
        n_strata = max(len(present), 1)
    return np.bincount(flat, minlength=4 * n_strata).reshape(1, n_strata, 2, 2)


def _g_squared(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Statistic and dof of each of T stacked tests.

    ``counts[t, stratum, a, b]`` counts the rows of the stratum with x = a
    and y = b. A stratum is live when x and y both vary in it; each live
    stratum adds 2 * sum(O * ln(O/E)), E from its margins and zero O adding
    nothing, and one degree of freedom. The terms are summed in stratum
    order, dead strata adding an exact 0.0. A test with zero dof gets
    statistic 0; ``chi2_sf`` gives it p-value 1, so it is independent.
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
    return statistic, dof


def _independent(statistic: np.ndarray, dof: np.ndarray, alpha: float) -> np.ndarray:
    """``chi2_sf(statistic, dof) > alpha`` elementwise, computing few p-values.

    The p-value falls as the statistic grows and equals alpha at the cut
    2 * gammainccinv(dof / 2, alpha). A statistic more than 1e-6 (relative)
    away from its cut lies on the side that decides it: there the p-value
    differs from alpha by many orders of magnitude more than the rounding
    error of gammaincc or gammainccinv. Statistics nearer the cut get their
    p-value. A test with zero dof has the cut +inf, so it is independent.
    """
    dofs, index = np.unique(dof, return_inverse=True)
    cuts = np.full(len(dofs), np.inf)
    live = dofs > 0
    cuts[live] = 2.0 * gammainccinv(dofs[live] / 2.0, alpha)
    cut = cuts[index]
    decided = statistic < cut
    near = np.flatnonzero(np.abs(statistic - cut) <= 1e-6 * cut)
    decided[near] = chi2_sf(statistic[near], dof[near]) > alpha
    return decided


def _bit_columns(cells: np.ndarray) -> np.ndarray:
    """Each column of a 0/1 matrix packed into 64-bit words, shape (k, words);
    the padding bits are 0."""
    packed = np.packbits(cells.T, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return packed.view(np.uint64)


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _mask_tables(
    words: np.ndarray, valid: np.ndarray, x: np.ndarray, y: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """(T, 2**l, 2, 2) tables of T tests from packed columns, s of shape
    (T, l) with sorted rows.

    Stratum j of a test is the AND over i of the i-th column of s where
    bit i of j is set and of its complement where it is not, so the strata
    are in ``_bincount_tables``' order. The masks start from ``valid``, the
    first ``rows`` bits, so no padding bit enters a stratum. A cell count
    is the popcount of the stratum mask ANDed with x, y, both or neither.
    """
    bx, by = words[x][:, None], words[y][:, None]
    masks = np.broadcast_to(valid, (len(x), 1, valid.shape[-1]))
    for i in range(s.shape[1]):
        ones = masks & words[s[:, i]][:, None]
        masks = np.concatenate([masks ^ ones, ones], axis=1)
    with_x = masks & bx
    n, nx = _popcount(masks), _popcount(with_x)
    ny, nxy = _popcount(masks & by), _popcount(with_x & by)
    cells = np.stack([n - nx - ny + nxy, ny - nxy, nx - nxy, nxy], axis=-1)
    return cells.reshape(len(x), -1, 2, 2)


def _masks_are_cheaper(level: int, words: int) -> bool:
    """Whether a test's 2**level stratum masks over ``words`` packed words
    cost less than a bincount of its rows.

    Per test, measured on a 2-vCPU x86 VM (NumPy 2.4; 24 random columns,
    5 to 50k rows, levels 0 to 11): the masks take about 28 ns per stratum
    and packed word plus about 110 ns per stratum, and a bincount about
    60 us plus 90 ns per packed word of rows and code column. In units of
    28 ns that is 2**level * (words + 4) against 2048 + 3.5 * words *
    (level + 2). With few rows the bincount wins from about |S| = 9 on;
    with 3k rows from |S| = 7 and with 20k or more from |S| = 5.
    """
    return (1 << level) * (words + 4) <= 2048 + 3.5 * words * (level + 2)


def _g_squared_batch(
    z: IncidenceMatrix, words: np.ndarray, x: np.ndarray, y: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Statistic and dof of T valid tests that share |S|, from the columns
    of ``z`` packed by ``_bit_columns`` into ``words``."""
    level = s.shape[1]
    statistic = np.empty(len(x))
    dof = np.empty(len(x), dtype=np.int64)
    if not _masks_are_cheaper(level, words.shape[1]):
        for t in range(len(x)):
            tables = _bincount_tables(z.cells, x[t], y[t], np.sort(s[t]))
            (statistic[t],), (dof[t],) = _g_squared(tables)
        return statistic, dof
    s = np.sort(s, axis=1)
    valid = _bit_columns(np.ones((z.rows, 1), dtype=np.uint8))
    step = max(1, _BATCH_WORDS // ((1 << level) * max(words.shape[1], 1)))
    for start in range(0, len(x), step):
        part = slice(start, start + step)
        tables = _mask_tables(words, valid, x[part], y[part], s[part])
        statistic[part], dof[part] = _g_squared(tables)
    return statistic, dof


def g_squared_ci_batch(
    z: IncidenceMatrix, x: np.ndarray, y: np.ndarray, s: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Statistic, dof, p-value and decision of T tests that share |S|, each
    equal to ``g_squared_ci_test``'s field bit for bit.

    ``x`` and ``y`` hold T columns and ``s`` has shape (T, |S|); its rows
    need not be sorted. The columns are packed into bit words, and each
    cell count of a stratum's table is a popcount of packed words
    (``_mask_tables``). Tests go in chunks of about ``_BATCH_WORDS``
    words per operand. At levels where the 2**|S| stratum masks would cost
    more than a bincount of the rows, each test is a bincount instead.
    """
    x, y, s = (np.asarray(a, dtype=np.intp) for a in (x, y, s))
    if s.ndim != 2 or s.shape[0] != len(x) or len(x) != len(y):
        raise ValueError(f"s must have shape (T, |S|) for T = {len(x)}, got {s.shape}")
    cols = np.concatenate([x, y, s.ravel()])
    if cols.size and not (0 <= cols.min() and cols.max() < z.cols):
        raise ColumnOutOfRange(f"a column is out of range for {z.cols} columns")
    ordered = np.sort(s, axis=1)
    if (
        (x == y).any()
        or (s == x[:, None]).any()
        or (s == y[:, None]).any()
        or (ordered[:, 1:] == ordered[:, :-1]).any()
    ):
        raise ValueError("x, y, and s must be distinct")
    _check_alpha(alpha)
    if s.shape[1] > 30:
        raise StratumOverflow(f"conditioning set of size {s.shape[1]} exceeds 30")
    statistic, dof = _g_squared_batch(z, _bit_columns(z.cells), x, y, s)
    p_value = chi2_sf(statistic, dof)
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


def _candidates(
    frozen: dict[int, list[int]], u: int, v: int, level: int
) -> Iterator[tuple[int, ...]]:
    """Size-level subsets of adj(u)\\{v}, then of adj(v)\\{u}, each in
    lexicographic column order and each subset once, as sorted tuples."""
    pool_u = [w for w in frozen[u] if w != v]
    pool_v = [w for w in frozen[v] if w != u]
    # a subset of adj(v) was already asked when adj(u) holds all of it
    seen = set(pool_u).issuperset
    return chain(
        combinations(pool_u, level),
        (subset for subset in combinations(pool_v, level) if not seen(subset)),
    )


def _ask(
    decide: BatchTest, pairs: list[tuple[int, int]], flat: list[int], level: int
) -> list[bool]:
    """One call of ``decide`` on each pair given its size-level subset, the
    subsets laid end to end in ``flat``."""
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    s = np.array(flat, dtype=np.intp).reshape(len(pairs), level)
    return decide(ends[:, 0], ends[:, 1], s).tolist()


def _first_independent(
    pairs: list[tuple[int, int]], frozen: dict[int, list[int]], level: int, decide: BatchTest
) -> dict[tuple[int, int], tuple[int, ...]]:
    """The first independent size-level candidate of each pair that has one.

    Wave r asks every pair still in play for its r-th candidate in one
    call of ``decide``; a pair leaves at its first independent candidate
    or when its candidates run out.
    """
    if level == 0:  # one candidate per pair, the empty set: one wave
        hits = _ask(decide, pairs, [], 0)
        return {pair: () for pair, hit in zip(pairs, hits) if hit}
    found = {}
    playing = [(pair, _candidates(frozen, *pair, level)) for pair in pairs]
    while playing:
        asked, flat = [], []
        for pair, candidates in playing:
            subset = next(candidates, None)
            if subset is not None:
                asked.append((pair, candidates, subset))
                flat.extend(subset)
        if not asked:
            break
        hits = _ask(decide, [pair for pair, _, _ in asked], flat, level)
        playing = []
        for (pair, candidates, subset), hit in zip(asked, hits):
            if hit:
                found[pair] = subset
            else:
                playing.append((pair, candidates))
    return found


def _lift(independent: IndependenceTest) -> BatchTest:
    """A batch decision that asks ``independent`` one test at a time."""

    def batch(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        tests = zip(x.tolist(), y.tolist(), s.tolist())
        return np.array([independent(u, v, frozenset(c)) for u, v, c in tests], dtype=bool)

    return batch


def skeleton_from_ci(
    k: int,
    independent: IndependenceTest | None,
    max_cond_size: int | None = None,
    batch: BatchTest | None = None,
) -> Skeleton:
    """Level-synchronized PC skeleton phase over an arbitrary CI decision.

    For growing conditioning size l, every still-adjacent pair (u, v) is
    tested against each size-l subset of adj(u)\\{v} and adj(v)\\{u},
    enumerated in lexicographic column order, until one is independent.
    Removals are committed only once a level completes, so the result does
    not depend on scan order.

    A level runs in waves (``_first_independent``): wave r asks every pair
    still in play for its r-th candidate, and all of those tests are
    decided in one call of ``batch``, or of ``independent`` lifted to a
    batch by a loop when no ``batch`` is given. Each pair is asked the
    candidates a one-at-a-time search would ask, in the same order, so the
    test count of every level and the sepsets are the same.
    """
    if max_cond_size is not None and max_cond_size < 0:
        raise ValueError("max_cond_size must be >= 0")
    decide = batch if batch is not None else _lift(independent)
    cap = min(k - 2, DEFAULT_MAX_COND_SIZE if max_cond_size is None else max_cond_size)
    adj = {i: set(range(k)) - {i} for i in range(k)}
    sepsets: dict[tuple[int, int], frozenset[int]] = {}

    for level in range(cap + 1):
        frozen = {i: sorted(adj[i]) for i in range(k)}
        if not any(len(nbrs) > level for nbrs in frozen.values()):
            break
        pairs = [(u, v) for u in range(k) for v in frozen[u] if v > u]
        found = _first_independent(pairs, frozen, level, decide)
        # committed in pair order, as a one-at-a-time search would
        for (u, v), subset in sorted(found.items()):
            adj[u].discard(v)
            adj[v].discard(u)
            sepsets[(u, v)] = frozenset(subset)

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
    independent: IndependenceTest | None,
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
    """Infer the CPDAG of the incidence matrix with the G-squared test. The
    columns are packed into bit words once, and each wave of the skeleton
    search is one G-squared batch over them."""
    _check_alpha(alpha)
    points = tuple(KnowledgePoint(key=key) for key in z.col_keys)
    words = _bit_columns(z.cells)

    def batch(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        return _independent(*_g_squared_batch(z, words, x, y, s), alpha)

    return cpdag_from_ci(z.cols, None, points, max_cond_size=max_cond_size, batch=batch)
