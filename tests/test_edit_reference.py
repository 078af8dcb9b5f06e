"""The GraphBuilder edit paths against the whole-graph implementations they
replaced.

``ref_assemble`` re-sorts the accepted edge list for every orientation,
``ref_meek_closure`` scans every node for every rule and pair, and
``ref_apply_relation_edits`` builds and checks a new Mcg for every edit.
On seeded random inputs the builder-based code must give the same graph
bytes, the same counts and the same warnings, and the sweep must reach
cycle downgrades, rejected edits and skipped edits.
"""

import logging
import random
from itertools import combinations

import numpy as np

import cama.discovery
from cama.discovery import Skeleton, meek_closure, orient_v_structures
from cama.graph import Mcg, serialize_graph, topological_order
from cama.learning import apply_relation_edits
from cama.model import KnowledgePoint
from cama.parsers import RelationEdit

ref_logger = logging.getLogger("reference")


def ref_assemble(points, pairs, oriented):
    accepted = []
    und = {(min(a, b), max(a, b)) for a, b in pairs}
    for u, v in oriented:
        if topological_order(len(points), accepted + [(u, v)]) is None:
            ref_logger.warning(
                "downgrading %d->%d to undirected: orientation closes a cycle", u, v
            )
        else:
            accepted.append((u, v))
    und -= {(min(u, v), max(u, v)) for u, v in accepted}
    return Mcg(nodes=tuple(points), directed=frozenset(accepted), undirected=frozenset(und))


def ref_meek_closure(g):
    k = g.k
    directed = set(g.directed)
    undirected = set(g.undirected)
    oriented = sorted(g.directed)

    def adjacent(a, b):
        return (a, b) in directed or (b, a) in directed or (min(a, b), max(a, b)) in undirected

    def orient(a, b):
        undirected.discard((min(a, b), max(a, b)))
        directed.add((a, b))
        oriented.append((a, b))

    def r1_fires(b, c):
        return any((a, b) in directed and not adjacent(a, c) for a in range(k) if a != c)

    def r2_fires(a, c):
        return any((a, b) in directed and (b, c) in directed for b in range(k))

    def r3_fires(a, b):
        linked = [
            c for c in range(k) if (min(a, c), max(a, c)) in undirected and (c, b) in directed
        ]
        return any(not adjacent(c, d) for c, d in combinations(linked, 2))

    def r4_fires(a, b):
        for c in range(k):
            if (min(a, c), max(a, c)) not in undirected or adjacent(c, b):
                continue
            for d in range(k):
                if (c, d) in directed and (d, b) in directed and adjacent(a, d):
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for fires in (r1_fires, r2_fires, r3_fires, r4_fires):
            for u, v in sorted(undirected):
                if (min(u, v), max(u, v)) not in undirected:
                    continue
                if fires(u, v):
                    orient(u, v)
                    changed = True
                elif fires(v, u):
                    orient(v, u)
                    changed = True
    return ref_assemble(g.nodes, g.directed | g.undirected, oriented)


def ref_apply_relation_edits(g, edits):
    applied = rejected = skipped = 0
    index = g.key_index()
    for edit in edits:
        ia, ib = index.get(edit.a), index.get(edit.b)
        if ia is None or ib is None or ia == ib:
            ref_logger.warning(
                "skipping edit %s %s %s: unknown or identical keys", edit.a, edit.kind, edit.b
            )
            skipped += 1
            continue
        pair = (min(ia, ib), max(ia, ib))
        directed = set(g.directed) - {(ia, ib), (ib, ia)}
        undirected = set(g.undirected) - {pair}
        if edit.kind == "prerequisite":
            directed.add((ia, ib))
        elif edit.kind == "dependent":
            undirected.add(pair)
        try:
            candidate = Mcg(nodes=g.nodes, directed=frozenset(directed), undirected=frozenset(undirected))
        except ValueError as e:
            if "contains a cycle" not in str(e):
                raise
            ref_logger.warning(
                "rejecting edit %s prerequisite %s: would close a directed cycle", edit.a, edit.b
            )
            rejected += 1
            continue
        applied += 1
        g = candidate
    return g, applied, rejected, skipped


def pts(k):
    return tuple(KnowledgePoint(f"x{i}") for i in range(k))


def random_pdag(rng, k, p_dir, p_und):
    order = list(range(k))
    rng.shuffle(order)
    directed, undirected = set(), set()
    for a, b in combinations(range(k), 2):
        r = rng.random()
        if r < p_dir:
            directed.add((order[a], order[b]))
        elif r < p_dir + p_und:
            undirected.add((order[a], order[b]))
    return Mcg(nodes=pts(k), directed=frozenset(directed), undirected=frozenset(undirected))


def random_skeleton(rng, k, p_edge):
    adj = np.zeros((k, k), dtype=bool)
    sepsets = {}
    for u, v in combinations(range(k), 2):
        if rng.random() < p_edge:
            adj[u, v] = adj[v, u] = True
        elif rng.random() < 0.9:
            others = [w for w in range(k) if w not in (u, v)]
            sepsets[(u, v)] = frozenset(rng.sample(others, rng.randint(0, min(2, len(others)))))
    return Skeleton(adjacency=adj, sepsets=sepsets)


def random_edits(rng, g, n):
    keys = [p.key for p in g.nodes] + ["unknown point"]
    kinds = ("prerequisite", "prerequisite", "dependent", "independent")
    return [RelationEdit(a=rng.choice(keys), kind=rng.choice(kinds), b=rng.choice(keys)) for _ in range(n)]


class WarningLog(logging.Handler):
    """Warning messages per logger name, in emission order."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.messages = {}

    def emit(self, record):
        self.messages.setdefault(record.name, []).append(record.getMessage())

    def take(self, name):
        return self.messages.pop(name, [])


def test_builder_paths_match_references(monkeypatch):
    log = WarningLog()
    loggers = [logging.getLogger(n) for n in ("cama.discovery", "cama.learning", "reference")]
    for lg in loggers:
        lg.addHandler(log)
    meek_downgrades = orient_downgrades = rejected = skipped = 0
    try:
        rng = random.Random(20240)
        for case in range(150):
            k = rng.randint(3, 9)

            # Meek closure of an arbitrary PDAG
            g = random_pdag(rng, k, rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.5))
            got, want = meek_closure(g), ref_meek_closure(g)
            assert serialize_graph(got) == serialize_graph(want), case
            got_log, want_log = log.take("cama.discovery"), log.take("reference")
            assert got_log == want_log, case
            meek_downgrades += len(got_log)

            # collider orientation (and its closure) of a skeleton with arbitrary sepsets
            sk = random_skeleton(rng, k, rng.uniform(0.2, 0.6))
            got = orient_v_structures(sk, pts(k))
            with monkeypatch.context() as m:
                m.setattr(cama.discovery, "_assemble", ref_assemble)
                want = orient_v_structures(sk, pts(k))
            assert serialize_graph(got) == serialize_graph(want), case
            got, want = meek_closure(got), ref_meek_closure(want)
            assert serialize_graph(got) == serialize_graph(want), case
            got_log, want_log = log.take("cama.discovery"), log.take("reference")
            assert got_log == want_log, case
            orient_downgrades += len(got_log)

            # relation edits, unknown keys included, on a random graph
            g = random_pdag(rng, k, rng.uniform(0.1, 0.4), rng.uniform(0.0, 0.3))
            edits = random_edits(rng, g, rng.randint(0, 25))
            new_g, *got_counts = apply_relation_edits(g, edits)
            ref_g, *want_counts = ref_apply_relation_edits(g, edits)
            assert serialize_graph(new_g) == serialize_graph(ref_g), case
            assert got_counts == want_counts, case
            assert log.take("cama.learning") == log.take("reference"), case
            rejected += got_counts[1]
            skipped += got_counts[2]
    finally:
        for lg in loggers:
            lg.removeHandler(log)
    assert meek_downgrades >= 20
    assert orient_downgrades >= 20
    assert rejected >= 20
    assert skipped >= 20
