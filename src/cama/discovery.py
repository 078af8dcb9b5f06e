"""Constraint-based structure discovery over binary incidence data.

Pipeline: likelihood-ratio (G-squared) independence tests feed a
level-synchronized PC skeleton search, unshielded colliders are oriented
from the sepsets that search found (opposite proposals cancel), and the
orientation closure rules complete the result to a CPDAG. The
independence decision is pluggable so an exact d-separation oracle can
stand in for the statistical test.

The search takes one kind of decision, a batch: given T tests as x (T,),
y (T,) and s (T, |S|), it returns a bool (T,), True where the test finds
independence. The adjacency is one (k, k) bool matrix. Level 0 is one
call over every pair of its upper triangle, and its removals are one
masked assignment. Each higher level lays the candidate conditioning sets
of its pairs end to end in one (N, |S|) table, a block of at most
``_BLOCK`` per pair at a time, with each pair's start row and count; the
r-th wave of a block asks every pair still in play for row start + r in
one call of the decision, and the pairs in play shrink by boolean masks.
Level 1's table comes from neighbour masks of the adjacency matrix, one
``np.nonzero`` over a bounded number of pairs at a time; higher levels
read one ``_subsets`` source per pair. A pair leaves at its first
independent candidate, so the tests asked and the sepsets are those of a
one-at-a-time search, and removals are committed only when a level ends.
Each removal's level goes into a (k, k) int8 matrix, so the pairs removed
at level 0, whose sepsets are all empty, take no dict entry; a
skeleton's ``sepsets`` is a read-only mapping over that matrix and a
dict of the later removals. A sepset key passed to ``Skeleton`` must be
a non-adjacent pair (u, v) with u < v whose set holds neither, the key
``orient_v_structures`` looks up.

With G-squared a batch is one kernel for any |S|. Once per discovery the
columns are packed into bit words and each column and each pair of
columns has its rows with 1 counted. A test's tables come by
inclusion-exclusion from the counts of rows where a subset of its columns
is all 1: subsets of one or two columns are looked up, and only larger
ones are popcounts of ANDed packed columns. A test given no column reads
no packed word, and a test given one column reads one. The tables lie
with the tests along their last axis, so the statistic is elementwise
adds over whole cells and strata, never a sum over an axis of length 2.
The cut that the statistic of each degree of freedom is compared with is
computed once per discovery; only a statistic within 1e-6 of its cut gets
its p-value. The dof of a test is a whole number, so the chi-square tail
has a closed form (Abramowitz & Stegun 26.4.4-26.4.5) and its cut follows
by Newton's method, both in the standard library and within 3e-12
(relative) of SciPy's incomplete gamma functions (``chi2_sf``,
``_chi2_cut``).
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, combinations, filterfalse, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_ALPHA, DEFAULT_MAX_COND_SIZE, G_SQUARED_MAX_COND_SIZE
from .errors import ParseError
from .graph import GraphBuilder, Mcg
from .matrix import IncidenceMatrix
from .model import KnowledgePoint

logger = logging.getLogger(__name__)

# decision for a level's candidates at once: x (T,), y (T,), s (T, level)
# in, True where independent out
BatchTest = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# packed words per stratum in one chunk of a batch at |S| >= 1, and tests in
# one chunk at |S| = 0, which reads no packed word; this bounds its memory
_BATCH_WORDS = 1 << 16

# candidates of one pair that a level's candidate table holds at once
_BLOCK = 64

# bool cells of the neighbour masks that lay out level 1's candidates at once
_MASK_CELLS = 1 << 18


@dataclass(frozen=True)
class CiTestResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def chi2_sf(x: float | np.ndarray, dof: int | np.ndarray) -> float | np.ndarray:
    """Chi-square survival function for whole-number dof, in closed form.

    With h = x / 2 and n = dof // 2 (Abramowitz & Stegun 1964,
    26.4.4-26.4.5): for even dof, e^-h * sum_{k<n} h^k / k!; for odd dof,
    erfc(sqrt(h)) + e^-h * sum_{k<n} h^(k+1/2) / Gamma(k + 3/2). Against
    SciPy's ``gammaincc`` the relative error is at most 3e-12 wherever the
    tail is at least 1e-12, for dof up to 5000 (``tests/test_chi_square.py``).

    Elementwise over arrays, 1 where dof <= 0; scalars give a scalar. A dof
    that is not a whole number is a ValueError.
    """
    x, dof = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(dof))
    if not (np.isfinite(dof) & (np.round(dof) == dof)).all():
        raise ValueError(f"chi-square dof must be whole numbers, got {dof}")
    tails = [_chi2_tail(a, int(d)) for a, d in zip(x.ravel().tolist(), dof.ravel().tolist())]
    return np.reshape(tails, x.shape)[()]


def _chi2_tail(x: float, dof: int) -> float:
    """``chi2_sf`` of one x and dof.

    Each term of the sum is the one before times h / (k + 1) or
    h / (k + 3/2). Past h = 700, e^-h leaves the normal doubles, and each
    term is the exp of its logarithm (``math.lgamma``) instead.
    """
    if dof <= 0 or x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    half = dof % 2 / 2.0  # the sum's powers are k + half
    tail = math.erfc(math.sqrt(h)) if half else 0.0
    if h > 700.0:
        log_h = math.log(h)
        return tail + sum(
            math.exp((k + half) * log_h - h - math.lgamma(k + half + 1.0))
            for k in range(dof // 2)
        )
    term = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if half else 1.0)
    for k in range(dof // 2):
        tail += term
        term *= h / (k + half + 1.0)
    return tail


def _chi2_cut(dof: int, alpha: float) -> float:
    """The x where ``_chi2_tail(x, dof)`` equals alpha, for dof >= 1.

    Newton's method on ln Q(x) - ln alpha, Q the tail, whose slope is
    -pdf(x) / Q(x), kept inside the bracket of the points seen on either
    side: a step that leaves it bisects it instead. It starts from the
    Wilson-Hilferty approximation dof * (1 - c + z sqrt(c))^3, c = 2 /
    (9 dof) and z the standard normal quantile at 1 - alpha; where that is
    not positive (few dof, alpha near 1), from 1 - Q ~ h^a / Gamma(a + 1),
    h = x / 2 and a = dof / 2. It stops at a step under 1e-12 of x, mostly
    after 2 to 5 steps. Against SciPy's ``2 * gammainccinv(dof / 2,
    alpha)`` the relative error is at most 1e-12 for dof up to 5000 and
    alpha from 1e-12 to 0.99.
    """
    # imported here: statistics and its imports add 0.5 MB to a process that
    # loads an incidence matrix before it discovers
    from statistics import NormalDist

    a = dof / 2.0
    c = 2.0 / (9.0 * dof)
    base = 1.0 - c - NormalDist().inv_cdf(alpha) * math.sqrt(c)
    x = dof * base**3 if base > 0 else 2.0 * ((1.0 - alpha) * math.gamma(a + 1.0)) ** (1.0 / a)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        q = _chi2_tail(x, dof)
        if q > alpha:
            lo = x
        else:
            hi = x
        if q == 0.0:  # below the doubles: no slope to follow
            step = (lo + hi) / 2.0 - x
        else:
            log_pdf = (a - 1.0) * math.log(x / 2.0) - x / 2.0 - math.lgamma(a) - math.log(2.0)
            step = (math.log(q) - math.log(alpha)) * math.exp(math.log(q) - log_pdf)
        if abs(step) <= 1e-12 * x:
            return x + step
        x += step
        if not lo < x < hi:
            x = (lo + hi) / 2.0
    return x


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def _check_cond_size(size: int) -> None:
    # past this many conditioning columns a stratum code outgrows 32 bits
    if size > G_SQUARED_MAX_COND_SIZE:
        raise ValueError(
            f"conditioning set of size {size} exceeds {G_SQUARED_MAX_COND_SIZE}"
        )


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
            raise ValueError(f"column {col} out of range for {k} columns")
    if x == y or x in s or y in s:
        raise ValueError("x, y, and s must be distinct")
    _check_alpha(alpha)
    _check_cond_size(len(s))
    statistic, dof = _g_squared(_bincount_tables(z.cells, x, y, sorted(s)))
    p_value = chi2_sf(statistic, dof)
    return CiTestResult(
        statistic=float(statistic[0]),
        dof=int(dof[0]),
        p_value=float(p_value[0]),
        independent=bool(p_value[0] > alpha),
    )


def _bincount_tables(cells: np.ndarray, x: int, y: int, s: Sequence[int]) -> np.ndarray:
    """The (strata, 2, 2, 1) tables of one test from one bincount of its rows.

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
    return np.bincount(flat, minlength=4 * n_strata).reshape(n_strata, 2, 2, 1)


def _g_squared(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Statistic and dof of each of T stacked tests.

    ``counts[stratum, a, b, t]`` counts the rows of the stratum with x = a
    and y = b. A stratum is live when x and y both vary in it; each live
    stratum adds 2 * sum(O * ln(O/E)), E from its margins and zero O adding
    nothing, and one degree of freedom. The four terms of a stratum are
    added in the order (0, 0), (0, 1), (1, 0), (1, 1), and the strata in
    stratum order, dead strata adding an exact 0.0. A test with zero dof
    gets statistic 0; ``chi2_sf`` gives it p-value 1, so it is independent.

    The tests lie along the last axis, so every step is an elementwise
    operation over (strata, T) arrays: the margins, the live strata and
    each stratum's four-term sum are explicit adds of whole cells, not sums
    over an axis of length 2, and dead strata are masked rather than
    gathered out. The sums keep the order above, so the statistics are bit
    for bit those of a loop over the strata (``tests/test_ci_test.py``).
    """
    tests = counts.shape[-1]
    cells = counts.reshape(len(counts), 4, tests).transpose(1, 0, 2)  # (4, strata, T)
    x_margin = cells[0::2] + cells[1::2]  # x = 0, x = 1
    y_margin = cells[:2] + cells[2:]  # y = 0, y = 1
    least = np.minimum(x_margin, y_margin)
    live = np.minimum(least[0], least[1]) > 0
    margins = (x_margin[:, None] * y_margin[None, :]).reshape(cells.shape)
    # dead strata keep E = 1 and O/E = 1, so each of their terms is 0.0
    expected = np.divide(margins, x_margin[0] + x_margin[1], out=np.ones(cells.shape), where=live)
    ratio = np.divide(cells, expected, out=np.ones(cells.shape), where=(cells > 0) & live)
    term = cells * np.log(ratio)
    terms = term[0] + term[1] + term[2] + term[3]
    # a running sum in stratum order, as a loop over the strata would add
    statistic = np.maximum((2.0 * terms).cumsum(axis=0)[-1], 0.0)
    dof = np.count_nonzero(live, axis=0)
    return statistic, dof


def _independent(statistic: np.ndarray, dof: np.ndarray, alpha: float) -> np.ndarray:
    """``chi2_sf(statistic, dof) > alpha`` elementwise, computing few p-values
    (``_cut_table``)."""
    return _cut_table(alpha)(statistic, dof)


def _cut_table(alpha: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``_independent`` at ``alpha``, computing each dof's cut once.

    The p-value falls as the statistic grows and equals alpha at the cut
    (``_chi2_cut``, within 1e-12 of SciPy's for dof up to 5000). A
    statistic more than 1e-6 (relative) away from its cut lies on the side
    that decides it: for alpha up to 0.99 such a move changes the p-value
    by at least 5e-9 of itself, over a thousand times the 3e-12 error of
    the closed-form tail (``chi2_sf``). Statistics nearer the cut get
    their p-value. A test with zero dof has the cut +inf, so it is
    independent. The cuts are kept by dof, each computed the first time a
    call sees it.
    """
    cuts = np.array([np.inf])  # by dof; nan where not yet computed

    def independent(statistic: np.ndarray, dof: np.ndarray) -> np.ndarray:
        nonlocal cuts
        if dof.size and dof.max() >= len(cuts):
            cuts = np.concatenate([cuts, np.full(dof.max() + 1 - len(cuts), np.nan)])
        cut = cuts[dof]
        new = np.isnan(cut)
        if new.any():
            fresh = np.unique(dof[new])
            cuts[fresh] = [_chi2_cut(d, alpha) for d in fresh.tolist()]
            cut = cuts[dof]
        decided = statistic < cut
        near = np.flatnonzero(np.abs(statistic - cut) <= 1e-6 * cut)
        if len(near):
            decided[near] = chi2_sf(statistic[near], dof[near]) > alpha
        return decided

    return independent


class _Packed(NamedTuple):
    """The columns of a 0/1 matrix packed into 64-bit words, shape (k,
    words) with padding bits 0, and their co-occurrence counts: ``ones[i]``
    rows have column i set and ``both[i, j]`` have columns i and j set."""

    words: np.ndarray
    ones: np.ndarray
    both: np.ndarray


def _pack(cells: np.ndarray) -> _Packed:
    """Pack the columns of ``cells`` and count them alone and in pairs."""
    packed = np.packbits(cells.T, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    words = packed.view(np.uint64)
    both = np.empty((len(words), len(words)), dtype=np.int64)
    for i, column in enumerate(words):
        both[i, i:] = both[i:, i] = _popcount(words[i:] & column)
    return _Packed(words, both.diagonal().copy(), both)


def _popcount(words: np.ndarray) -> np.ndarray:
    # a uint32 sum is about twice as fast as an int64 one on 782 words, and
    # holds the count of any column under 2**32 rows
    return np.bitwise_count(words).sum(axis=-1, dtype=np.uint32)


@functools.cache
def _subset_index(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For m columns: the subset index of each single column, the lower and
    higher column of each pair of columns, and the subset index of each
    pair, pairs in ``combinations`` order; read-only, as every call shares
    them."""
    low, high = np.array(list(combinations(range(m), 2)), dtype=np.intp).reshape(-1, 2).T
    index = (1 << np.arange(m), low, high, 1 << low | 1 << high)
    for array in index:
        array.flags.writeable = False
    return index


def _cooccurrence_tables(
    packed: _Packed, rows: int, x: np.ndarray, y: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """(2**l, 2, 2, T) tables of T tests, s of shape (T, l) with sorted rows.

    A test has the m = l + 2 columns y, x, s_0, ..., s_{l-1}, column p
    standing for bit p of a subset index u. ``counts[u, t]`` first counts
    the rows where every column of u is 1: ``rows`` for no column, ``ones``
    for one and ``both`` for two, so no packed word is read for these. A
    set of three or more is the AND of a smaller set's words with its
    highest column, popcounted. Inclusion-exclusion along each bit (the
    count at 0 minus the count at 1) then leaves the rows where exactly
    the columns of u are 1, which is ``_bincount_tables``' order of
    stratum, x and y. Padding bits are 0 in every column, and every AND
    holds a column, so none enters a count. The tests lie along the last
    axis, so each step works on whole rows of T counts.
    """
    tests, m = len(x), s.shape[1] + 2
    cols = np.empty((m, tests), dtype=np.intp)
    cols[0], cols[1], cols[2:] = y, x, s.T
    counts = np.empty((1 << m, tests), dtype=np.int64)
    counts[0] = rows
    singles, low, high, pairs = _subset_index(m)
    counts[singles] = packed.ones[cols]
    counts[pairs] = packed.both[cols[low], cols[high]]
    if m > 2:
        words = packed.words[cols]
        # before step p, ands[i] holds the ANDed words of the i-th set of
        # two or more of columns 0..p-1, keys[i] its subset index
        ands = np.empty(((1 << m - 1) - m, *words.shape[1:]), dtype=np.uint64)
        np.bitwise_and(words[0], words[1], out=ands[0])
        keys = [3]
        for p in range(2, m):
            n, last = len(keys), p + 1 == m
            grown = np.bitwise_and(ands[:n], words[p], out=None if last else ands[n : 2 * n])
            keys += [key | 1 << p for key in keys]
            counts[keys[n:]] = _popcount(grown)
            if not last:
                np.bitwise_and(words[:p], words[p], out=ands[2 * n : 2 * n + p])
                keys += [1 << q | 1 << p for q in range(p)]
    for p in range(m):
        half = counts.reshape(1 << m - p - 1, 2, tests << p)
        half[:, 0] -= half[:, 1]
    return counts.reshape(-1, 2, 2, tests)


def _masks_are_cheaper(level: int, words: int) -> bool:
    """Whether a test's co-occurrence tables over ``words`` packed words
    cost less than a bincount of its rows.

    Per test, measured on a 2-vCPU x86 VM (NumPy 2.4; 24 random columns,
    5 to 100k rows, levels 0 to 11, medians of interleaved runs): the
    tables take about 15 ns per stratum and packed word (about four ANDs
    and four popcounts of words per stratum), and a bincount about 70 us
    plus 65 ns per packed word of rows and code column; both pay the same
    G-squared cost per stratum. The tables win up to |S| = 8 with one word
    of rows, 7 with 5 words and 5 with 47 to 1563 words (3k to 100k rows).
    In units of 15 ns, 2**level * (words + 4) against 1500 + 4.5 * words *
    (level + 2) draws that line. Its constants are fitted to these
    crossovers, which the cache and the tables' fixed cost per stratum
    move, rather than to the costs above.
    """
    return (1 << level) * (words + 4) <= 1500 + 4.5 * words * (level + 2)


def _g_squared_batch(
    z: IncidenceMatrix, packed: _Packed, x: np.ndarray, y: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Statistic and dof of T valid tests that share |S|, from the columns
    of ``z`` packed by ``_pack``; each equals ``g_squared_ci_test``'s bit
    for bit.

    ``x`` and ``y`` hold T columns and ``s`` has shape (T, |S|); its rows
    need not be sorted. The tables come from the co-occurrence counts in
    ``packed`` and popcounts of ANDed columns (``_cooccurrence_tables``),
    in chunks of about ``_BATCH_WORDS`` words per stratum; at |S| = 0 every
    count is looked up, and a chunk is ``_BATCH_WORDS`` tests. At levels
    where the 2**|S| strata would cost more than a bincount of the rows,
    each test is a bincount instead.
    """
    level = s.shape[1]
    _check_cond_size(level)
    statistic = np.empty(len(x))
    dof = np.empty(len(x), dtype=np.int64)
    words = packed.words.shape[1]
    if not _masks_are_cheaper(level, words):
        for t in range(len(x)):
            tables = _bincount_tables(z.cells, x[t], y[t], np.sort(s[t]))
            (statistic[t],), (dof[t],) = _g_squared(tables)
        return statistic, dof
    s = np.sort(s, axis=1)
    step = max(1, _BATCH_WORDS // ((1 << level) * max(words, 1) if level else 1))
    for start in range(0, len(x), step):
        part = slice(start, start + step)
        tables = _cooccurrence_tables(packed, z.rows, x[part], y[part], s[part])
        statistic[part], dof[part] = _g_squared(tables)
    return statistic, dof


class _Sepsets(Mapping):
    """The separating sets of a skeleton's removed pairs, read-only.

    ``levels`` is the (k, k) int8 matrix of the level at which each pair
    was removed, -1 where it was not (a level past 127 reads 127); every
    pair removed at level 0 has the empty sepset and is read from it. The
    sepsets of the other removed pairs are the dict ``later``. Pairs are
    keyed (u, v) with u < v, and come in the order the search removed
    them: the level-0 pairs in row order, then ``later`` in its order.
    """

    __slots__ = ("levels", "later")

    def __init__(self, levels: np.ndarray, later: dict[tuple[int, int], frozenset[int]]):
        self.levels, self.later = levels, later

    def __getitem__(self, key):
        found = self.later.get(key)
        if found is not None:
            return found
        pair = _pair(key, len(self.levels))
        if pair is not None and self.levels[pair] == 0:
            return frozenset()
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        u, v = np.nonzero(np.triu(self.levels == 0))
        return chain(zip(u.tolist(), v.tolist()), self.later)

    def __len__(self) -> int:
        return np.count_nonzero(self.levels == 0) // 2 + len(self.later)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


def _pair(key, k: int) -> tuple[int, int] | None:
    """``key`` as (u, v) if it is a pair of columns with 0 <= u < v < k."""
    if not (isinstance(key, tuple) and len(key) == 2):
        return None
    u, v = key
    if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
        return None
    return (int(u), int(v)) if 0 <= u < v < k else None


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency plus the separating sets found for removed pairs.

    ``sepsets`` is a read-only mapping from each removed pair (u, v),
    u < v, to its separating set. ``skeleton_from_ci`` keeps the pairs it
    removed at level 0 in a (k, k) removal-level matrix, since their sets
    are all empty, and only the later ones in a dict (``_Sepsets``). A
    mapping passed in is copied and checked: each key must be a pair (u,
    v) with 0 <= u < v < k that is not adjacent, and its set must hold
    neither u nor v; otherwise it is a ValueError, as a key that
    ``orient_v_structures`` never looks up would silently leave its
    colliders undirected.
    """

    adjacency: np.ndarray
    sepsets: Mapping[tuple[int, int], frozenset[int]]

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not (adj == adj.T).all() or adj.diagonal().any():
            raise ValueError("adjacency must be symmetric with a false diagonal")
        object.__setattr__(self, "adjacency", adj)
        if not isinstance(self.sepsets, _Sepsets):
            later = dict(self.sepsets)
            for key, sepset in later.items():
                pair = _pair(key, len(adj))
                if pair is None:
                    raise ValueError(
                        f"sepset key {key!r} is not a pair (u, v) with 0 <= u < v < {len(adj)}"
                    )
                if adj[pair]:
                    raise ValueError(f"sepset key {key!r} names an adjacent pair")
                if pair[0] in sepset or pair[1] in sepset:
                    raise ValueError(f"the sepset of {key!r} holds one of its own pair")
            levels = np.full(adj.shape, -1, dtype=np.int8)
            object.__setattr__(self, "sepsets", _Sepsets(levels, later))

    @property
    def k(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.adjacency[i])]


def _decided(decide: BatchTest, x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``decide(x, y, s)`` as a bool array, checked to hold one result per test."""
    hit = np.asarray(decide(x, y, s))
    if hit.shape != x.shape:
        raise ValueError(f"decide returned shape {hit.shape} for tests of shape {x.shape}")
    return hit.astype(bool, copy=False)


def _subsets(nbrs: list[list[int]], u: int, v: int, level: int) -> Iterator[tuple[int, ...]]:
    """Size-level subsets of adj(u)\\{v}, then those of adj(v)\\{u} not inside
    adj(u), each in lexicographic column order, as sorted tuples."""
    pool_u, pool_v = nbrs[u].copy(), nbrs[v].copy()
    pool_u.remove(v)
    pool_v.remove(u)
    return chain(
        combinations(pool_u, level),
        filterfalse(set(pool_u).issuperset, combinations(pool_v, level)),
    )


def _candidate_table(
    sources: dict[int, Iterator[tuple[int, ...]]], playing: np.ndarray, level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next block of at most ``_BLOCK`` candidates of each playing pair,
    laid end to end in a flat (N, level) table, and each pair's start row
    and count in it.

    The blocks are read in one pass, each followed by a row of -1 that
    marks where it ends.
    """
    end = (-1,) * level
    blocks = (chain(islice(sources[p], _BLOCK), (end,)) for p in playing.tolist())
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(blocks)), np.intp)
    flat = flat.reshape(-1, level)
    ends = np.flatnonzero(flat[:, 0] < 0)
    start = np.concatenate([[0], ends[:-1] + 1])
    return flat, start, ends - start


def _neighbour_table(
    adj: np.ndarray, u: np.ndarray, v: np.ndarray, playing: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_candidate_table`` at level 1, from the adjacency matrix: candidates
    ``first`` to ``first + _BLOCK - 1`` of each playing pair (u[i], v[i]).

    A pair's level-1 candidates are adj(u)\\{v}, then adj(v)\\{u} outside
    adj(u), each ascending, as ``_subsets`` gives them. One (pairs, 2, k)
    bool mask holds row u with v cleared and row v less row u with u
    cleared, and ``np.nonzero`` reads each pair's candidates in that order.
    The masks are built for at most ``_MASK_CELLS // (2k)`` pairs at a time.
    """
    k = len(adj)
    step = max(1, _MASK_CELLS // (2 * k))
    flats, counts = [], []
    for lo in range(0, len(playing), step):
        a, b = u[playing[lo : lo + step]], v[playing[lo : lo + step]]
        mask = np.empty((len(a), 2, k), dtype=bool)
        mask[:, 0] = adj[a]
        np.greater(adj[b], mask[:, 0], out=mask[:, 1])  # adj(v) and not adj(u)
        rows = np.arange(len(a))
        mask[rows, 0, b] = mask[rows, 1, a] = False
        pair, col = np.nonzero(mask.reshape(len(a), -1))
        total = np.bincount(pair, minlength=len(a))
        # each candidate's place in its pair's list, to cut out this block
        rank = np.arange(len(pair)) - (np.cumsum(total) - total)[pair]
        flats.append(col[(rank >= first) & (rank < first + _BLOCK)] % k)
        counts.append(np.clip(total - first, 0, _BLOCK))
    count = np.concatenate(counts)
    return np.concatenate(flats).reshape(-1, 1), np.cumsum(count) - count, count


def _first_independent(
    decide: BatchTest, adj: np.ndarray, u: np.ndarray, v: np.ndarray, level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which pairs (u[i], v[i]) have an independent size-level candidate, as
    a bool mask over i, and that first candidate of each, shape (H, level)
    in ascending i.

    Wave r asks every pair still in play for its r-th candidate in one
    call of ``decide``; a pair leaves at its first independent candidate
    or when its candidates run out. The candidate table holds a block of
    at most ``_BLOCK`` candidates per pair, and the r-th wave of a block
    reads row start + r of each pair in play; the pairs still in play when
    a wave reaches the end of a block take their next block. Level 1's
    table comes from neighbour masks (``_neighbour_table``), higher
    levels' from one ``_subsets`` source per pair.
    """
    if level == 0:  # one candidate per pair, the empty set: one wave
        found = _decided(decide, u, v, np.empty((len(u), 0), np.intp))
        return found, np.empty((np.count_nonzero(found), 0), np.intp)
    deg = adj.sum(axis=1)
    # a pair has a candidate when either end has more than level neighbours
    playing = np.flatnonzero(np.maximum(deg[u], deg[v]) > level)
    if level == 1:

        def table(playing: np.ndarray, first: int):
            return _neighbour_table(adj, u, v, playing, first)

    else:
        cols = np.nonzero(adj)[1].tolist()
        ends = np.cumsum(deg).tolist()
        nbrs = [cols[a:b] for a, b in zip([0, *ends], ends)]
        sources = {
            i: _subsets(nbrs, a, b, level)
            for i, a, b in zip(playing.tolist(), u[playing].tolist(), v[playing].tolist())
        }

        def table(playing: np.ndarray, first: int):
            return _candidate_table(sources, playing, level)

    found = np.zeros(len(u), dtype=bool)
    subsets = np.empty((len(u), level), np.intp)
    first = 0
    while len(playing):
        flat, start, count = table(playing, first)
        for r in range(_BLOCK):
            live = count > r
            playing, start, count = playing[live], start[live], count[live]
            if not len(playing):
                break
            s = flat[start + r]
            hit = _decided(decide, u[playing], v[playing], s)
            found[playing[hit]] = True
            subsets[playing[hit]] = s[hit]
            playing, start, count = playing[~hit], start[~hit], count[~hit]
        first += _BLOCK
    return found, subsets[found]


def skeleton_from_ci(
    k: int, decide: BatchTest, max_cond_size: int = DEFAULT_MAX_COND_SIZE
) -> Skeleton:
    """Level-synchronized PC skeleton phase over an arbitrary CI decision.

    For growing conditioning size l, every still-adjacent pair (u, v) is
    tested against each size-l subset of adj(u)\\{v} and adj(v)\\{u},
    enumerated in lexicographic column order, until one is independent.
    Removals are committed only once a level completes, so the result does
    not depend on scan order.

    The adjacency is one (k, k) bool matrix and a level's pairs are its
    upper triangle in row order. A level runs in waves
    (``_first_independent``): wave r asks every pair still in play for its
    r-th candidate, an index slice of the level's candidate table, and all
    of those tests are decided in one call of ``decide(x, y, s)``, with x
    and y of shape (T,) and s of shape (T, l). It returns an array or list
    of shape (T,), True (or nonzero) where the pair is independent given
    s; any other shape is a ValueError. Level 0 is one wave over every
    pair, and level 1's table comes from neighbour masks of the adjacency.
    Each pair is asked the candidates a one-at-a-time search would ask, in
    the same order, so the test count of every level and the sepsets are
    the same; a level's removals are committed in pair order.

    Each removal's level is recorded in a (k, k) int8 matrix, so the pairs
    removed at level 0, whose sepsets are all empty, take no dict entry;
    only removals at level 1 and above are kept in a dict. The skeleton's
    ``sepsets`` is a read-only mapping over both (``_Sepsets``).
    """
    if max_cond_size < 0:
        raise ValueError("max_cond_size must be >= 0")
    cap = min(k - 2, max_cond_size)
    adj = ~np.eye(k, dtype=bool)
    levels = np.full((k, k), -1, dtype=np.int8)
    later: dict[tuple[int, int], frozenset[int]] = {}

    for level in range(cap + 1):
        if not (adj.sum(axis=1) > level).any():
            break
        removed = np.triu(adj)
        u, v = np.nonzero(removed)
        found, subsets = _first_independent(decide, adj, u, v, level)
        removed[removed] = found
        removed |= removed.T
        adj[removed] = False
        levels[removed] = min(level, 127)
        if level:
            pairs = zip(u[found].tolist(), v[found].tolist())
            later.update(zip(pairs, map(frozenset, subsets.tolist())))
    return Skeleton(adjacency=adj, sepsets=_Sepsets(levels, later))


def _assemble(
    points: Sequence[KnowledgePoint],
    pairs: Iterable[tuple[int, int]],
    oriented: Sequence[tuple[int, int]],
) -> Mcg:
    """Build a valid mixed graph over the adjacent ``pairs``, each in either
    order, directing ``oriented`` in order.

    Every pair starts undirected. An orientation that would close a directed
    cycle leaves its pair undirected and is logged. Each edge in ``oriented``
    must be one of ``pairs``, and no pair may appear in it in both directions.
    """
    builder = GraphBuilder(len(points), undirected=pairs)
    for u, v in oriented:
        if builder.closes_cycle(u, v):
            logger.warning(
                "downgrading %d->%d to undirected: orientation closes a cycle", u, v
            )
        else:
            builder.set_pair(u, v, "directed")
    return builder.freeze(points)


def orient_v_structures(sk: Skeleton, points: Sequence[KnowledgePoint]) -> Mcg:
    """Orient unshielded colliders u->w<-v where w is outside sepset(u, v),
    the single sepset the skeleton search found (the sepset rule).

    Opposite proposals over a single edge cancel out and leave it undirected.
    """
    k = sk.k
    if len(points) != k:
        raise ValueError(f"{len(points)} points for a {k}-node skeleton")

    # an insertion-ordered set: the order decides which orientation a cycle
    # leaves undirected
    proposed: dict[tuple[int, int], None] = {}
    # pairs removed at level 0, whose sepset is empty, are read from the
    # removal-level matrix and the others from the dict of later removals
    empty, later = sk.sepsets.levels == 0, sk.sepsets.later
    for w in range(k):
        for u, v in combinations(sk.neighbors(w), 2):  # u < v
            if sk.adjacency[u, v]:
                continue
            if not empty[u, v]:
                sepset = later.get((u, v))
                if sepset is None or w in sepset:
                    continue
            proposed.update(dict.fromkeys([(u, w), (v, w)]))

    oriented = [(u, v) for u, v in proposed if (v, u) not in proposed]
    pairs = [(u, v) for u in range(k) for v in sk.neighbors(u) if u < v]
    return _assemble(points, pairs, oriented)


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
    return _assemble(g.nodes, g.directed | g.undirected, oriented)


def cpdag_from_ci(
    k: int,
    decide: BatchTest,
    points: Sequence[KnowledgePoint],
    max_cond_size: int = DEFAULT_MAX_COND_SIZE,
) -> Mcg:
    """Full PC pipeline (skeleton, colliders, closure) over a batch CI
    decision, as ``skeleton_from_ci`` takes it."""
    sk = skeleton_from_ci(k, decide, max_cond_size=max_cond_size)
    return meek_closure(orient_v_structures(sk, points))


def discover_cpdag(
    z: IncidenceMatrix,
    alpha: float = DEFAULT_ALPHA,
    max_cond_size: int = DEFAULT_MAX_COND_SIZE,
) -> Mcg:
    """Infer the CPDAG of the incidence matrix with the G-squared test. The
    columns are packed into bit words and counted alone and in pairs once,
    and each wave of the skeleton search is one G-squared batch over them.
    ``max_cond_size`` may not exceed ``G_SQUARED_MAX_COND_SIZE``, and column
    keys that are not distinct node keys are a ParseError before any test."""
    _check_alpha(alpha)
    if max_cond_size > G_SQUARED_MAX_COND_SIZE:
        raise ValueError(f"max_cond_size {max_cond_size} exceeds {G_SQUARED_MAX_COND_SIZE}")
    try:  # an empty graph over the columns checks that they are distinct node keys
        points = Mcg(tuple(KnowledgePoint(key=key) for key in z.col_keys)).nodes
    except ValueError as e:
        raise ParseError(f"incidence column keys are not node keys: {e}") from e
    packed = _pack(z.cells)
    independent = _cut_table(alpha)

    def decide(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
        return independent(*_g_squared_batch(z, packed, x, y, s))

    return cpdag_from_ci(z.cols, decide, points, max_cond_size=max_cond_size)
