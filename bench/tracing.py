"""Span recording around the program's public callables.

Spans are taken from the benchmark's side only: each traced callable is
replaced, in every ``cama`` module namespace that holds it, by a wrapper
that records one span. The client object and ``Mcg`` construction are
wrapped the same way. Spans stay in memory until the run writes them out.

A span is (name, start, end, parent). Self time is a span's duration minus
the durations of its direct children; with one thread, children nest
inside their parent, so this is the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import logging
import sys
from collections import Counter, defaultdict
from time import perf_counter

import cama.cli
import cama.discovery
import cama.graph
import cama.learning
import cama.parsers
import cama.reasoning
import cama.templates
from cama.graph import Mcg

PASS_SPAN = "bench.pass"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def run_pass(self, unit):
        index = self._open(PASS_SPAN)
        try:
            return unit()
        finally:
            self._close(index)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps([i, name, self.starts[i], self.ends[i], self.parents[i]]) + "\n"
                )


class TracedClient:
    """Chat client that records a span per call around another client.

    With ``stats`` set it also counts calls, bytes and distinct prompts per
    tag; only the outermost client of a stack does so.
    """

    def __init__(self, inner, tracer: Tracer, name: str, stats: bool = False):
        self.per_tag: Counter = Counter()
        self.prompt_bytes: Counter = Counter()
        self.response_bytes = 0
        self.keys: set[tuple[str, str]] = set()
        self.complete = tracer.wrap(inner.complete, name, self._count if stats else None)

    def _count(self, response: str, args) -> None:
        request = args[0]
        data = request.prompt.encode("utf-8")
        self.per_tag[request.tag] += 1
        self.prompt_bytes[request.tag] += len(data)
        self.response_bytes += len(response.encode("utf-8"))
        self.keys.add((request.tag, hashlib.sha256(data).hexdigest()))


class LogCounter(logging.Handler):
    """Counts the program's degradation warnings by message template."""

    KINDS = (
        ("downgrading ", "discovery.cycle_downgrades"),
        ("update call failed", "learning.update_failures"),
        ("deduplication degraded", "learning.dedup_identity"),
        ("rejecting edit", "learning.edits_rejected"),
        ("skipping edit", "learning.edits_skipped"),
        ("extraction failed", "learning.extraction_empty"),
        ("question %s failed", "reasoning.answer_failures"),
    )

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        for prefix, kind in self.KINDS:
            if str(record.msg).startswith(prefix):
                self.counts[kind] += 1
                return


# (module, attribute, span name). An entry naming the module that defines
# the callable covers every namespace that imported it; an entry naming an
# importing module covers that namespace only and comes first, so that the
# call sites there keep their own span name.
_TARGETS = (
    (cama.learning, "discover_cpdag", "learning.discover"),
    (cama.learning, "extract_all", "learning.extract"),
    (cama.learning, "deduplicate", "learning.dedup"),
    (cama.learning, "build_incidence_matrix", "learning.matrix"),
    (cama.learning, "align", "learning.align"),
    (cama.learning, "run_alignment_round", "learning.round"),
    (cama.learning, "apply_relation_edits", "learning.apply_edits"),
    (cama.learning, "run_learn_pipeline", "learning.pipeline"),
    (cama.discovery, "discover_cpdag", "discovery.discover_cpdag"),
    (cama.discovery, "cpdag_from_ci", "discovery.cpdag_from_ci"),
    (cama.discovery, "skeleton_from_ci", "discovery.skeleton"),
    (cama.discovery, "g_squared_ci_test", "discovery.ci_test"),
    (cama.discovery, "orient_v_structures", "discovery.orient"),
    (cama.discovery, "meek_closure", "discovery.meek"),
    (cama.graph, "topological_order", "graph.acyclic_check"),
    (cama.graph, "verbalize", "graph.verbalize"),
    (cama.graph, "extract_subgraph", "graph.extract_subgraph"),
    (cama.graph, "graphs_equal", "graph.graphs_equal"),
    (cama.reasoning, "answer_question", "reasoning.answer"),
    (cama.reasoning, "evaluate", "reasoning.evaluate"),
    (cama.templates, "render_template", "templates.render"),
    (cama.parsers, "parse_answer", "parsers.answer"),
    (cama.parsers, "parse_extracted_points", "parsers.extracted_points"),
    (cama.parsers, "parse_dedup", "parsers.dedup"),
    (cama.parsers, "parse_chosen_factors", "parsers.chosen_factors"),
    (cama.parsers, "parse_relation_edits", "parsers.relation_edits"),
    (cama.cli, "load_qa_records", "cli.load"),
    (cama.cli, "load_graph", "cli.load"),
)


def install(tracer: Tracer) -> None:
    """Replace every traced callable in every loaded ``cama`` namespace."""
    modules = [m for name, m in sys.modules.items() if name == "cama" or name.startswith("cama.")]
    for module, attr, span in _TARGETS:
        original = getattr(module, attr)
        on_result = _RESULT_HOOKS.get(span)
        wrapped = tracer.wrap(original, span, on_result and functools.partial(on_result, tracer))
        setattr(module, attr, wrapped)
        if original.__module__ != module.__name__:
            continue
        for other in modules:
            if other.__dict__.get(attr) is original:
                setattr(other, attr, wrapped)
    Mcg.__post_init__ = tracer.wrap(Mcg.__post_init__, "graph.mcg_validate")


def _count_removals(tracer, skeleton, args):
    tracer.counts["discovery.removals"] += len(skeleton.sepsets)


def _count_edits(tracer, result, args):
    tracer.counts["learning.edits_applied"] += result[1]


def _count_matched(tracer, outcome, args):
    tracer.counts["reasoning.matched"] += len(outcome.chosen)


_RESULT_HOOKS = {
    "discovery.skeleton": _count_removals,
    "learning.apply_edits": _count_edits,
    "reasoning.answer": _count_matched,
}


class SpanStats:
    """Per-name count, inclusive time and self time over the spans recorded
    inside measured passes; spans of set-up and checks between passes are
    left out."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.names)
        child = [0.0] * n
        in_pass = [False] * n
        for i in range(n):
            p = tracer.parents[i]
            in_pass[i] = tracer.names[i] == PASS_SPAN or (p >= 0 and in_pass[p])
            if p >= 0:
                child[p] += tracer.ends[i] - tracer.starts[i]
        self.count: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        for i, name in enumerate(tracer.names):
            if not in_pass[i]:
                continue
            duration = tracer.ends[i] - tracer.starts[i]
            self.count[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child[i]
        self.tracer = tracer

    def prefix_self(self, prefix: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def prefix_count(self, prefix: str) -> int:
        return sum(c for name, c in self.count.items() if name.startswith(prefix))

    def time_under(self, names: set[str], ancestor: str) -> float:
        """Inclusive time of spans named in ``names`` that have ``ancestor`` above them."""
        t = self.tracer
        total = 0.0
        for i, name in enumerate(t.names):
            if name not in names:
                continue
            p = t.parents[i]
            while p >= 0 and t.names[p] != ancestor:
                p = t.parents[p]
            if p >= 0:
                total += t.ends[i] - t.starts[i]
        return total
