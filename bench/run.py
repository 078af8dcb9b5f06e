#!/usr/bin/env python3
"""Benchmark of cama over its public entry points.

Run from the repository root:

    python3 bench/run.py --workload learn-replay --seed 1 --seconds 15 --trace 0

Workloads (why each exists is in BENCHMARK.json and bench/METRICS.md):

    discover-tall   discover_cpdag on dense 40-column, 50k-row matrices
    discover-wide   discover_cpdag on sparse 120-column, 3k-row matrices
    learn-replay    `cama learn` then `cama evaluate`, replaying a transcript
    evaluate-live   reasoning.evaluate through a recording HTTP client whose
                    endpoint is simulated in-process with prompt-dependent latency

A run generates its inputs from --seed, prepares them (pre-checks, and for
learn-replay the recording of the transcript), times three set-up rounds,
then repeats one pass of the workload until --seconds of pass time have been
measured. With --trace 1 it splits the seconds between untraced and traced
passes, and reports per-layer metrics from the traced ones. Every pass's
outputs are checked; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, with correct false and
no metrics when a check fails. The exit code is then non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("discover-tall", "discover-wide", "learn-replay", "evaluate-live")
# figures printed with the end-to-end metrics; not every workload has each
SUMMARY_UNITS = (("llm_calls", "calls"), ("prompt_kb", "KiB"), ("cpdag_shd", "count"), ("pass_at_1", "ratio"))
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import cama.cli\n"
    "print(time.perf_counter() - t)\n"
    "print(cama.__file__)\n"
)


class CheckFailed(Exception):
    """An output of the program is not what it must be."""


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


# --- workloads --------------------------------------------------------------
#
# Each workload offers prepare() (untimed), load() (the program's loaders,
# timed as set-up; returns its time), unit() (one measured pass), check()
# (untimed; raises CheckFailed, returns the pass's output digest) and
# summary() (end-to-end figures of one pass).


class Discover:
    """discover_cpdag over a fixed set of seeded scenario DAGs.

    A pass discovers one matrix per scenario. Scenarios and their samples
    are fixed; the run seed shuffles rows and columns (see
    inputs.write_incidence_csv).
    """

    def __init__(self, seed: int, work: Path, dags, rows: int):
        self.seed, self.work, self.dags, self.rows = seed, work, dags, rows
        self.matrices = []
        self.graphs = []
        self.first_pass = None

    def prepare(self) -> None:
        from cama.graph import serialize_graph
        from cama.oracle import oracle_cpdag, true_cpdag

        self.truth = []
        self.cells = []
        for i, dag in enumerate(self.dags):
            truth = true_cpdag(dag)
            if serialize_graph(oracle_cpdag(dag)) != serialize_graph(truth):
                raise CheckFailed(f"oracle CPDAG of scenario {i} differs from its true CPDAG")
            self.truth.append(truth)
            path = self.work / f"matrix{i}.csv"
            self.cells.append(inputs.write_incidence_csv(dag, self.rows, i, self.seed, path))

    def load(self):
        import numpy as np
        from cama.matrix import load_incidence_csv

        started = time.perf_counter()
        self.matrices = [load_incidence_csv(self.work / f"matrix{i}.csv") for i in range(len(self.cells))]
        elapsed = time.perf_counter() - started
        for z, cells in zip(self.matrices, self.cells):
            if not np.array_equal(z.cells, cells):
                raise CheckFailed("load_incidence_csv read back other cells than were written")
        return elapsed

    def unit(self) -> None:
        import cama.discovery
        from cama.errors import CamaError

        self.graphs = []
        for z in self.matrices:
            try:
                self.graphs.append(cama.discovery.discover_cpdag(z))
            except (CamaError, ValueError) as e:
                raise CheckFailed(f"discover_cpdag raised {type(e).__name__}: {e}") from e

    def check(self) -> str:
        from cama.graph import serialize_graph
        from cama.oracle import structural_hamming_distance

        out = [serialize_graph(g).encode("utf-8") for g in self.graphs]
        if self.first_pass is None:
            self.first_pass = out
            self.shd = sum(
                structural_hamming_distance(g, t) for g, t in zip(self.graphs, self.truth)
            )
        elif out != self.first_pass:
            raise CheckFailed("discover_cpdag gave other graphs on the same matrices")
        return _sha(*out)

    def summary(self) -> dict:
        # a call that raises fails the run, so a reported run has none
        return {
            "ops": len(self.dags),
            "failed_ops": 0,
            "cpdag_shd": self.shd,
        }


class LearnReplay:
    """`cama learn` then `cama evaluate`, both in replay mode, in-process.

    The transcript is recorded first, untimed, by the same two commands in
    record mode against the benchmark's fake model. ``cama.cli.build_client``
    is the one hook: it returns the recording client in record mode and, in
    replay mode, keeps the client the program built so that the run can
    check afterwards that every recorded call was consumed.
    """

    N_POINTS = 40
    N_TRAIN = 200
    N_TEST = 100
    REPS = 3
    OUTPUTS = (
        "extraction.jsonl",
        "canonical_points.json",
        "incidence.csv",
        "graph_initial.json",
        "graph_best.json",
        "alignment_report.json",
        "eval_report.json",
    )

    def __init__(self, seed: int, work: Path):
        import cama.cli

        self.seed, self.work = seed, work
        self.align_seed = str(seed % 2**31)
        self.learn_tx = work / "learn.jsonl"
        self.eval_tx = work / "eval.jsonl"
        self.tracer = None
        self.built = []
        self.proxies = []
        self.passes = 0
        self._original_build = cama.cli.build_client
        cama.cli.build_client = self._build_client

    def _build_client(self, cfg):
        from cama.client import RecordingClient

        if cfg.transcript_mode == "record":
            return RecordingClient(self.fake, cfg.transcript_path)
        client = self._original_build(cfg)
        self.built.append(client)
        if self.tracer is None:
            return client
        proxy = tracing.TracedClient(client, self.tracer, "client.replay", stats=True)
        self.proxies.append(proxy)
        return proxy

    def _cli(self, *args) -> None:
        import cama.cli

        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out):
            try:
                cama.cli.main.main(args=[str(a) for a in args], prog_name="cama", standalone_mode=False)
            except SystemExit as e:
                code = e.code
        if code:
            raise CheckFailed(f"cama {args[0]} exited with {code}: {out.getvalue()[-300:]}")

    def _steps(self, run_dir: Path, mode: str) -> None:
        self._cli("learn", self.paths["dataset"], "--mode", mode, "--transcript", self.learn_tx,
                  "--run-dir", run_dir, "--seed", self.align_seed)
        self._cli("evaluate", run_dir / "graph_best.json", self.paths["test"], "--mode", mode,
                  "--transcript", self.eval_tx, "--run-dir", run_dir, "--repetitions", self.REPS)

    def prepare(self) -> None:
        from cama.learning import AlignmentConfig

        self.paths = inputs.write_learn_corpus(
            self.seed, self.N_POINTS, self.N_TRAIN, self.N_TEST, self.work
        )
        self.fake = fake_model.FakeModelClient(inputs.expected_point_edges(self.N_POINTS))
        record_dir = self.work / "record"
        self._steps(record_dir, "record")
        self.llm_calls = self.fake.calls
        self.prompt_kb = self.fake.prompt_bytes / 1024
        self.expected = [(record_dir / name).read_bytes() for name in self.OUTPUTS]

        eval_lines = _lines(self.eval_tx)
        if _lines(self.learn_tx) + eval_lines != self.llm_calls:
            raise CheckFailed("transcript lines differ from the calls made while recording")
        eval_calls = 3 * self.N_TEST * self.REPS
        if eval_lines != eval_calls:
            raise CheckFailed(f"evaluate made {eval_lines} calls, expected {eval_calls}")
        report = json.loads((record_dir / "alignment_report.json").read_text(encoding="utf-8"))
        evaluation = json.loads((record_dir / "eval_report.json").read_text(encoding="utf-8"))
        if report["stop_reason"] == "completed":
            cfg = AlignmentConfig()  # the CLI's defaults, with m = all questions
            n = m = self.N_TRAIN
            expected = (
                n + 1 + cfg.n_e * (math.ceil(m / cfg.s_b) * (3 * cfg.s_b + 1) + 3 * m) + eval_calls
            )
            if self.llm_calls != expected:
                raise CheckFailed(f"{self.llm_calls} LLM calls, the alignment schedule implies {expected}")

        extraction = (record_dir / "extraction.jsonl").read_text(encoding="utf-8").splitlines()
        rounds = report["rounds"]
        cells = evaluation["per_question"]
        self.stop_reason = report["stop_reason"]
        self.pass_at_1 = evaluation["pass_at_1"]
        self.ops = len(cells) + len(extraction) + len(rounds) + 1
        self.failed_ops = (
            sum(1 for c in cells if c["failed"])
            + sum(1 for line in extraction if not json.loads(line)["points"])
            + sum(
                1
                for r in rounds
                if not (r["edits_applied"] or r["edits_rejected"] or r["edits_skipped"])
            )
        )
        shutil.rmtree(record_dir)

    def load(self) -> float:
        from cama.client import ScriptedChatClient
        from cama.model import load_qa_records

        started = time.perf_counter()
        load_qa_records(self.paths["dataset"])
        load_qa_records(self.paths["test"])
        ScriptedChatClient.from_file(self.learn_tx)
        ScriptedChatClient.from_file(self.eval_tx)
        return time.perf_counter() - started

    def unit(self) -> None:
        self.passes += 1
        self.built = []
        self.run_dir = self.work / f"pass{self.passes}"
        self._steps(self.run_dir, "replay")

    def check(self) -> str:
        got = [(self.run_dir / name).read_bytes() for name in self.OUTPUTS]
        for name, a, b in zip(self.OUTPUTS, got, self.expected):
            if a != b:
                raise CheckFailed(f"replayed {name} differs from the recording run")
        if len(self.built) != 2 or any(c.pending() for c in self.built):
            raise CheckFailed("replay left recorded calls unconsumed")
        shutil.rmtree(self.run_dir)
        return _sha(*got)

    def summary(self) -> dict:
        return {
            "ops": self.ops,
            "failed_ops": self.failed_ops,
            "llm_calls": self.llm_calls,
            "prompt_kb": self.prompt_kb,
            "pass_at_1": self.pass_at_1,
            "stop_reason": self.stop_reason,
        }


class EvaluateLive:
    """reasoning.evaluate through RecordingClient(HttpChatClient(simulated endpoint))."""

    N_POINTS = 80
    N_TEST = 100
    REPS = 2
    # endpoint latency: base + per prompt KiB + jitter seeded by the prompt hash
    BASE_MS, PER_KIB_MS, JITTER_MS = 5.0, 1.0, 2.0

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.tracer = None
        self.proxies = []
        self.passes = 0
        self.first = None

    def prepare(self) -> None:
        self.paths = inputs.write_eval_corpus(self.seed, self.N_POINTS, self.N_TEST, self.work)
        self.endpoint = fake_model.SimulatedEndpoint(
            inputs.expected_point_edges(self.N_POINTS), self.BASE_MS, self.PER_KIB_MS, self.JITTER_MS
        )

    def load(self) -> float:
        from cama.graph import load_graph
        from cama.model import load_qa_records

        started = time.perf_counter()
        self.graph = load_graph(self.paths["graph"])
        self.test = load_qa_records(self.paths["test"])
        return time.perf_counter() - started

    def unit(self) -> None:
        import cama.reasoning
        from cama.client import HttpChatClient, RecordingClient

        self.passes += 1
        self.transcript = self.work / f"live{self.passes}.jsonl"
        transport = self.endpoint
        if self.tracer is not None:
            transport = self.tracer.wrap(transport, "client.wait")
        client = HttpChatClient(
            api_base="http://simulated-endpoint/v1", model="simulated", transport=transport
        )
        if self.tracer is not None:
            client = tracing.TracedClient(client, self.tracer, "client.http")
        client = RecordingClient(client, self.transcript)
        if self.tracer is not None:
            client = tracing.TracedClient(client, self.tracer, "client.record", stats=True)
            self.proxies.append(client)
        before = (self.endpoint.requests, self.endpoint.prompt_bytes)
        self.report = cama.reasoning.evaluate(self.graph, self.test, client, repetitions=self.REPS)
        self.calls = self.endpoint.requests - before[0]
        self.prompt_bytes = self.endpoint.prompt_bytes - before[1]

    def check(self) -> str:
        report = self.report.to_dict()
        text = json.dumps(report, indent=2, ensure_ascii=False, sort_keys=True).encode("utf-8")
        transcript = self.transcript.read_bytes()
        expected = 3 * report["total_cells"]
        lines = transcript.count(b"\n")
        if self.calls != expected or lines != expected:
            raise CheckFailed(
                f"{self.calls} endpoint calls and {lines} transcript lines "
                f"for {report['total_cells']} cells"
            )
        self.transcript.unlink()
        if self.first is None:
            self.first = report
        return _sha(text, transcript)

    def summary(self) -> dict:
        cells = self.first["per_question"]
        return {
            "ops": len(cells),
            "failed_ops": sum(1 for c in cells if c["failed"]),
            "llm_calls": self.calls,
            "prompt_kb": self.prompt_bytes / 1024,
            "pass_at_1": self.first["pass_at_1"],
        }


def make_workload(name: str, seed: int, work: Path):
    if name == "discover-tall":
        return Discover(seed, work, inputs.tall_dags(2), rows=50_000)
    if name == "discover-wide":
        return Discover(seed, work, inputs.wide_dags(2), rows=3_000)
    if name == "learn-replay":
        return LearnReplay(seed, work)
    return EvaluateLive(seed, work)


# --- measurement ------------------------------------------------------------
#
# The shared 2-vCPU virtual machine the benchmark was sized on switches
# between a fast and a slow state every few seconds. So a run also times a
# fixed reference computation, which touches no cama code, before every
# set-up round and pass and after the last pass; its median shows how fast
# the machine was during the run. Times are not scaled by it: between the
# two states the reference slows down by about 1.8x but the program by about
# 1.4x, so scaling over-corrects and spreads the figures more, not less.

REFERENCE_REPS = 3
SETUP_ROUNDS = 3


def _reference_work(cells) -> int:
    """Fixed work in the program's two styles: text and dict handling in pure
    Python, as around prompts, and many small numpy calls, as in CI tests."""
    import numpy as np

    counts: dict[str, int] = {}
    for i in range(30_000):
        key = f"kp{i % 389:03d} idea {i % 7}"
        counts[key] = counts.get(key, 0) + len(key.split())
    text = "\n".join(f"**{k}**: {v}" for k, v in sorted(counts.items()))
    total = 0
    for j in range(500):
        table = np.bincount(cells[j % 7 :: 7] * 4 + j % 4, minlength=32)
        total += int((table.reshape(8, 4) / (table.sum() + 1.0)).argmax())
    return len(text) + total


class Clock:
    """Reference times taken through one run."""

    def __init__(self):
        import numpy as np

        self.cells = np.random.default_rng(0).integers(0, 8, size=3_000)
        self.samples: list[float] = []

    def sample(self) -> None:
        best = math.inf
        for _ in range(REFERENCE_REPS):
            started = time.perf_counter()
            _reference_work(self.cells)
            best = min(best, time.perf_counter() - started)
        self.samples.append(best)


def measure_setup(workload, clock: Clock) -> list[tuple[float, float]]:
    """SETUP_ROUNDS rounds of `import cama.cli` in a fresh interpreter and the
    program's loaders for one pass's inputs; (import_s, load_s) per round."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        clock.sample()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, where = done.stdout.splitlines()
        if Path(where).resolve().parent != (SRC / "cama").resolve():
            raise CheckFailed(f"import probe loaded cama from {where}")
        rounds.append((float(seconds), workload.load()))
    return rounds


def measure(workload, seconds: float, digests: set, clock: Clock, tracer=None) -> list[float]:
    """Run passes until their summed time reaches ``seconds``; return pass times."""
    passes: list[float] = []
    while not passes or sum(passes) < seconds:
        clock.sample()
        started = time.perf_counter()
        if tracer is None:
            workload.unit()
        else:
            tracer.run_pass(workload.unit)
        passes.append(time.perf_counter() - started)
        digests.add(workload.check())
    clock.sample()
    return passes


def check_digest_ledger(workload: str, seed: int, digest: str) -> None:
    """Outputs of one seed must not change between runs of the same code."""
    code = _sha(*(p.read_bytes() for p in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")])))
    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = f"{workload}|{seed}|{code[:16]}"
    if ledger.get(key, digest) != digest:
        raise CheckFailed(f"output digest {digest[:12]} differs from an earlier run's {ledger[key][:12]}")
    ledger[key] = digest
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def per_layer(st, tracer, logs, workload, figures, timings) -> dict:
    """Per-layer metrics of the traced passes: counts per pass, shares of
    traced pass time in percent, rates, and the set-up and tracing times."""
    passes = st.count[tracing.PASS_SPAN]
    wall = st.total[tracing.PASS_SPAN]

    def pct(t):
        return 100.0 * t / wall

    def per(c):
        return c / passes

    def rate(n, t):
        return n / t if t else 0.0

    proxies = getattr(workload, "proxies", [])
    calls = sum(sum(p.per_tag.values()) for p in proxies)
    prompt_bytes = sum(sum(p.prompt_bytes.values()) for p in proxies)
    ci_n = st.count["discovery.ci_test"]
    ci_t = st.self_time["discovery.ci_test"]
    answers = st.count["reasoning.answer"]
    client_outer = {"client.replay", "client.record"}
    applied = tracer.counts["learning.edits_applied"]
    rejected = logs["learning.edits_rejected"]
    skipped = logs["learning.edits_skipped"]
    m = {
        "discovery.ci_tests": (per(ci_n), "count"),
        "discovery.ci_tests_per_s": (rate(ci_n, ci_t), "1/s"),
        "discovery.ci_removal_ratio": (rate(tracer.counts["discovery.removals"], ci_n), "ratio"),
        "discovery.ci_pct": (pct(ci_t), "%"),
        "discovery.skeleton_self_pct": (pct(st.self_time["discovery.skeleton"]), "%"),
        "discovery.orient_pct": (pct(st.self_time["discovery.orient"]), "%"),
        "discovery.meek_pct": (pct(st.self_time["discovery.meek"]), "%"),
        "discovery.cycle_downgrades": (per(logs["discovery.cycle_downgrades"]), "count"),
        "discovery.cpdag_shd": (figures.get("cpdag_shd", 0), "count"),
        "graph.verbalize_calls": (per(st.count["graph.verbalize"]), "count"),
        "graph.verbalize_pct": (pct(st.self_time["graph.verbalize"]), "%"),
        "graph.mcg_builds": (per(st.count["graph.mcg_validate"]), "count"),
        "graph.mcg_validate_pct": (pct(st.self_time["graph.mcg_validate"]), "%"),
        "graph.acyclic_checks": (per(st.count["graph.acyclic_check"]), "count"),
        "graph.acyclic_check_pct": (pct(st.self_time["graph.acyclic_check"]), "%"),
        "graph.graphs_equal_pct": (pct(st.self_time["graph.graphs_equal"]), "%"),
        "graph.extract_subgraph_pct": (pct(st.self_time["graph.extract_subgraph"]), "%"),
        "learning.extract_pct": (pct(st.total["learning.extract"]), "%"),
        "learning.dedup_pct": (pct(st.total["learning.dedup"]), "%"),
        "learning.matrix_pct": (pct(st.total["learning.matrix"]), "%"),
        "learning.discover_pct": (pct(st.total["learning.discover"]), "%"),
        "learning.align_pct": (pct(st.total["learning.align"]), "%"),
        "learning.rounds": (per(st.count["learning.round"]), "count"),
        "learning.rounds_per_s": (rate(st.count["learning.round"], st.total["learning.round"]), "1/s"),
        "learning.apply_edits_pct": (pct(st.total["learning.apply_edits"]), "%"),
        "learning.edits_applied": (per(applied), "count"),
        "learning.edits_rejected": (per(rejected), "count"),
        "learning.edits_skipped": (per(skipped), "count"),
        "learning.edit_accept_ratio": (rate(applied, applied + rejected + skipped), "ratio"),
        "learning.extraction_empty": (per(logs["learning.extraction_empty"]), "count"),
        "learning.dedup_identity": (per(logs["learning.dedup_identity"]), "count"),
        "learning.update_failures": (per(logs["learning.update_failures"]), "count"),
        "reasoning.answers": (per(answers), "count"),
        "reasoning.answers_per_s": (rate(answers, st.total["reasoning.answer"]), "1/s"),
        "reasoning.answer_self_pct": (
            pct(st.total["reasoning.answer"] - st.time_under(client_outer, "reasoning.answer")),
            "%",
        ),
        "reasoning.answer_failures": (per(logs["reasoning.answer_failures"]), "count"),
        "reasoning.mean_matched": (rate(tracer.counts["reasoning.matched"], answers), "points"),
        "reasoning.pass_at_1": (figures.get("pass_at_1", 0.0), "ratio"),
        "client.calls": (per(calls), "count"),
        "client.prompt_kb": (per(prompt_bytes) / 1024, "KiB"),
    }
    from cama.templates import TEMPLATE_TAGS

    for tag in TEMPLATE_TAGS:
        m[f"client.calls.{tag}"] = (per(sum(p.per_tag[tag] for p in proxies)), "count")
    for tag in TEMPLATE_TAGS:
        m[f"client.prompt_kb.{tag}"] = (
            per(sum(p.prompt_bytes[tag] for p in proxies)) / 1024, "KiB")
    wait = st.total["client.wait"]
    m.update({
        "client.response_kb": (per(sum(p.response_bytes for p in proxies)) / 1024, "KiB"),
        "client.unique_prompt_ratio": (rate(sum(len(p.keys) for p in proxies), calls), "ratio"),
        "client.wait_pct": (pct(wait), "%"),
        "client.self_pct": (pct(st.self_time["client.replay"] + st.self_time["client.http"]), "%"),
        "client.record_append_pct": (pct(st.self_time["client.record"]), "%"),
        "client.wait_over_wall": (wait / wall, "ratio"),
        "templates.renders": (per(st.count["templates.render"]), "count"),
        "templates.render_pct": (pct(st.self_time["templates.render"]), "%"),
        "parsers.parses": (per(st.prefix_count("parsers.")), "count"),
        "parsers.parse_pct": (pct(st.prefix_self("parsers.")), "%"),
        "parsers.parse_errors": (
            per(sum(n for name, n in tracer.errors.items() if name.startswith("parsers."))), "count"),
        "setup.import_s": (timings["import_s"], "s"),
        "setup.load_s": (timings["load_s"], "s"),
        "cli.load_pct": (pct(st.self_time["cli.load"]), "%"),
        "pipeline.failed_ratio": (rate(figures["failed_ops"], figures["ops"]), "ratio"),
        "trace.wall_s": (timings["traced_s"], "s"),
        "trace.untraced_wall_s": (timings["wall_s"], "s"),
        "trace.overhead_s": (timings["traced_s"] - timings["wall_s"], "s"),
        "trace.spans": (per(sum(st.count.values()) - passes), "count"),
        "bench.reference_ms": (timings["reference_s"] * 1000, "ms"),
    })
    return m


def run(args) -> int:
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    problems: list[str] = []
    digests: set[str] = set()
    clock = Clock()
    setup: list[tuple[float, float]] = []
    passes: list[float] = []
    traced: list[float] = []
    # a traced run splits its seconds between untraced and traced passes
    budget = args.seconds / 2 if args.trace else args.seconds
    try:
        workload = make_workload(args.workload, args.seed, work)
        workload.prepare()
        setup = measure_setup(workload, clock)
        passes = measure(workload, budget, digests, clock)
        figures = workload.summary()
        if args.trace:
            tracer = tracing.Tracer()
            logs = tracing.LogCounter()
            logging.getLogger("cama").addHandler(logs)
            tracing.install(tracer)
            workload.tracer = tracer
            traced = measure(workload, budget, digests, clock, tracer)
            tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
        if len(digests) != 1:
            raise CheckFailed(f"passes over the same inputs gave {len(digests)} different outputs")
        (digest,) = digests
        check_digest_ledger(args.workload, args.seed, digest)
    except CheckFailed as e:
        problems.append(str(e))
    except Exception as e:  # the program raised: a failed run, reported as such
        traceback.print_exc()
        problems.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        attempted = max(1, len(passes) + len(traced))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(problems), "metrics": {}}))
        return 1

    timings = {
        "import_s": statistics.median(i for i, _ in setup),
        "load_s": statistics.median(load for _, load in setup),
        "wall_s": statistics.median(passes),
        "traced_s": statistics.median(traced) if traced else 0.0,
        "reference_s": statistics.median(clock.samples),
    }
    ok_ratio = 1.0 - figures["failed_ops"] / figures["ops"]
    end_to_end = {
        "setup_s": (statistics.median(i + load for i, load in setup), "s"),
        "wall_s": (timings["wall_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (ok_ratio, "ratio"),
    }
    report_lines = [
        f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
        + (f" untraced + {len(traced)} traced" if traced else ""),
        "  pass seconds  " + " ".join(f"{t:.3f}" for t in passes)
        + (" | traced " + " ".join(f"{t:.3f}" for t in traced) if traced else ""),
        "  set-up seconds (import + load)  " + " ".join(f"{i:.3f}+{load:.3f}" for i, load in setup),
        f"  reference ms  {timings['reference_s'] * 1000:.2f} (median of {len(clock.samples)})",
        *(f"  {name:<13} {value:.6g} {unit}" for name, (value, unit) in end_to_end.items()),
        *(
            f"  {name:<13} {figures[name]:.6g} {unit}" if name in figures else f"  {name:<13} n/a"
            for name, unit in SUMMARY_UNITS
        ),
        f"  {'failed_ratio':<13} {1.0 - ok_ratio:.6g} ratio",
        f"  output digest {digest}",
    ]
    if args.trace:
        metrics = per_layer(tracing.SpanStats(tracer), tracer, logs.counts, workload, figures, timings)
        report_lines += [f"  {name:<30} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics = end_to_end
    print("\n".join(report_lines))
    result = {
        "correct": True,
        "attempted": len(passes) + len(traced),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cama" / "__init__.py").is_file():
        print(f"no cama sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # these import cama, which is importable only once its sources are found
    global cama, fake_model, inputs, tracing
    import cama
    import fake_model
    import inputs
    import tracing

    if Path(cama.__file__).resolve().parent != (SRC / "cama").resolve():
        print(f"cama imported from {cama.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
