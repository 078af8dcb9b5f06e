"""Acceptance suite: every exit criterion with its stated tolerance.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s``
to see the lines for passing criteria too).
"""

import json
import random
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_corpus
from fake_llm import FakeLlm, update_response
from test_oracle import chain_dag, collider_dag, fork_dag

from cama.cli import main as cli_main
from cama.client import ChatRequest, HttpChatClient, RecordingClient
from cama.discovery import discover_cpdag, g_squared_ci_test, meek_closure
from cama.graph import Mcg, graphs_equal, topological_order
from cama.learning import (
    AlignmentConfig,
    align,
    run_alignment_round,
    run_learn_pipeline,
)
from cama.matrix import IncidenceMatrix
from cama.model import KnowledgePoint, QaRecord, load_qa_records, save_qa_records
from cama.oracle import (
    oracle_cpdag,
    random_true_dag,
    sample_incidence,
    structural_hamming_distance,
    true_cpdag,
)
from cama.reasoning import evaluate

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


# no criterion may reach a network: conftest's no_network refuses every request
pytestmark = pytest.mark.usefixtures("no_network")


def test_network_guard_refuses_a_default_http_client():
    # one attempt, so a client that got past the guard sleeps through no backoff
    client = HttpChatClient(api_base="http://localhost:9", model="m", max_retries=1)
    with pytest.raises(AssertionError, match="network access attempted"):
        client.complete(ChatRequest(prompt="hi", tag="p_t"))


def test_criterion_1_oracle_cpdag_recovery():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    trials, exact = 200, 0
    for _ in range(trials):
        k = int(rng.integers(3, 8))
        dag = random_true_dag(k, edge_prob=0.3, seed=0, rng=rng)
        if structural_hamming_distance(oracle_cpdag(dag), true_cpdag(dag)) == 0:
            exact += 1
    elapsed = time.monotonic() - started
    report(
        1,
        "oracle CPDAG recovery",
        exact == trials and elapsed < 10.0,
        f"{exact}/{trials} exact, {elapsed:.2f}s",
    )


def test_criterion_2_finite_sample_recovery():
    started = time.monotonic()
    structures = {
        "chain": chain_dag(flip=0.02),
        "collider": collider_dag(flip=0.02, root=0.1),
        "fork": fork_dag(flip=0.02),
    }
    counts = {}
    for name, dag in structures.items():
        expected = true_cpdag(dag)
        wins = 0
        for seed in range(50):
            z = sample_incidence(dag, 5000, seed=seed)
            g = discover_cpdag(z, alpha=0.05)
            if structural_hamming_distance(g, expected) == 0:
                wins += 1
        counts[name] = wins
    elapsed = time.monotonic() - started
    ok = all(wins >= 45 for wins in counts.values()) and elapsed < 30.0
    detail = ", ".join(f"{n}={w}/50" for n, w in counts.items())
    report(2, "finite-sample recovery", ok, f"{detail}, {elapsed:.2f}s")


def test_criterion_3_g_squared_values():
    rows = (
        [[1, 1]] * 40 + [[1, 0]] * 10 + [[0, 1]] * 10 + [[0, 0]] * 40
    )
    z = IncidenceMatrix(
        cells=np.array(rows, dtype=np.uint8),
        row_ids=tuple(map(str, range(100))),
        col_keys=("x", "y"),
    )
    skewed = g_squared_ci_test(z, 0, 1, frozenset(), alpha=0.05)
    hand_value = 38.548951404351494  # 2 * (80 ln 1.6 + 20 ln 0.4)
    skew_ok = abs(skewed.statistic - hand_value) / hand_value < 1e-6

    balanced_rows = [[1, 1]] * 25 + [[1, 0]] * 25 + [[0, 1]] * 25 + [[0, 0]] * 25
    zb = IncidenceMatrix(
        cells=np.array(balanced_rows, dtype=np.uint8),
        row_ids=tuple(map(str, range(100))),
        col_keys=("x", "y"),
    )
    balanced = g_squared_ci_test(zb, 0, 1, frozenset(), alpha=0.05)
    report(
        3,
        "G-squared correctness",
        skew_ok and balanced.statistic == 0.0,
        f"stat={skewed.statistic:.9f}, balanced={balanced.statistic}",
    )


def test_criterion_4_meek_rules():
    def pts(k):
        return tuple(KnowledgePoint(f"x{i}") for i in range(k))

    r1 = meek_closure(Mcg(nodes=pts(3), directed={(0, 1)}, undirected={(1, 2)}))
    r1_ok = r1.directed == {(0, 1), (1, 2)}

    r2 = meek_closure(
        Mcg(nodes=pts(3), directed={(0, 1), (1, 2)}, undirected={(0, 2)})
    )
    r2_ok = (0, 2) in r2.directed

    r3 = meek_closure(
        Mcg(nodes=pts(4), directed={(2, 1), (3, 1)}, undirected={(0, 1), (0, 2), (0, 3)})
    )
    r3_ok = (0, 1) in r3.directed

    r4 = meek_closure(
        Mcg(nodes=pts(4), directed={(2, 3), (3, 1)}, undirected={(0, 1), (0, 2), (0, 3)})
    )
    r4_ok = (0, 1) in r4.directed

    fixed_ok = True
    for seed in range(20):
        dag = random_true_dag(6, 0.4, seed=seed)
        once = true_cpdag(dag)  # ends with a meek closure
        twice = meek_closure(once)
        fixed_ok = fixed_ok and graphs_equal(once, twice)

    report(
        4,
        "Meek rules R1-R4 + fixed point",
        r1_ok and r2_ok and r3_ok and r4_ok and fixed_ok,
        f"R1={r1_ok} R2={r2_ok} R3={r3_ok} R4={r4_ok} fixpoint={fixed_ok}",
    )


def _fixture_corpus_12():
    pool = [
        ["alpha", "beta"],
        ["alpha", "gamma"],
        ["beta", "gamma"],
        ["alpha", "delta"],
        ["gamma", "delta"],
        ["alpha", "beta", "gamma"],
        ["delta", "epsilon"],
        ["alpha", "epsilon"],
        ["beta", "delta"],
        ["gamma", "epsilon"],
        ["alpha", "beta", "delta"],
        ["beta", "epsilon"],
    ]
    spec = [(f"e{i:02d}", 2 * i + 1, 3 * i + 2, kps) for i, kps in enumerate(pool)]
    return make_corpus(spec)


def test_criterion_5_end_to_end_determinism(tmp_path):
    corpus = _fixture_corpus_12()
    dataset_file = tmp_path / "dataset.json"
    save_qa_records(corpus, dataset_file)
    transcript = tmp_path / "transcript.jsonl"
    seed = 7

    def fresh_fake():
        return FakeLlm(
            wrong_ids={"e03", "e06", "e10"},
            update_responses=[
                update_response("**alpha** is prerequisite of **beta**.")
            ],
        )

    # record once by driving the same pipeline the CLI commands wrap
    recorder = RecordingClient(fresh_fake(), transcript)
    _, g_best, _ = run_learn_pipeline(
        load_qa_records(dataset_file),
        recorder,
        tmp_path / "record",
        granularity=3,
        alpha=0.05,
        max_cond_size=8,
        align_cfg=AlignmentConfig(seed=seed),
    )
    evaluate(g_best, load_qa_records(dataset_file), recorder, repetitions=1)

    runner = CliRunner()
    outputs = []
    for run_name in ("run1", "run2"):
        run_dir = tmp_path / run_name
        learn = runner.invoke(
            cli_main,
            ["learn", str(dataset_file), "--mode", "replay",
             "--transcript", str(transcript), "--run-dir", str(run_dir),
             "--seed", str(seed)],
        )
        assert learn.exit_code == 0, learn.output
        ev = runner.invoke(
            cli_main,
            ["evaluate", str(run_dir / "graph_best.json"), str(dataset_file),
             "--mode", "replay", "--transcript", str(transcript),
             "--run-dir", str(run_dir)],
        )
        assert ev.exit_code == 0, ev.output
        outputs.append(
            (
                (run_dir / "graph_best.json").read_bytes(),
                json.loads((run_dir / "eval_report.json").read_text()),
            )
        )

    (graph1, report1), (graph2, report2) = outputs
    graphs_identical = graph1 == graph2
    pass1_exact = (
        report1["correct_cells"] == 9
        and report1["total_cells"] == 12
        and report1["pass_at_1"] == 0.75
        and report2["pass_at_1"] == report1["pass_at_1"]
    )
    report(
        5,
        "end-to-end determinism",
        graphs_identical and pass1_exact,
        f"graph bytes equal={graphs_identical}, pass@1={report1['pass_at_1']}",
    )


def test_criterion_6_alignment_mechanics():
    # (a) early stop after exactly c_stop = 3 unchanged rounds
    corpus = make_corpus(
        [(f"a{i}", i, i + 2, ["alpha", "beta"]) for i in range(6)]
    )
    g0 = Mcg(nodes=(KnowledgePoint("alpha", "a"), KnowledgePoint("beta", "b")))
    cfg = AlignmentConfig(m=6, s_b=2, n_e=10, c_stop=3, r=7, seed=3)
    _, rep = align(g0, corpus, cfg, FakeLlm())
    early_ok = rep.stop_reason == "early_stop" and len(rep.rounds) == 3

    # (b) returned graph is the epoch argmax of full-subset precision
    llm = FakeLlm(
        answer_policy=lambda prompt: "alpha is a prerequisite for beta" in prompt,
        update_responses=[
            update_response("**alpha** is prerequisite of **beta**."),
            update_response("**alpha** is independent of **beta**."),
        ],
    )
    best, rep_b = align(
        g0,
        corpus[:2],
        AlignmentConfig(m=2, s_b=2, n_e=2, seed=0),
        llm,
    )
    precisions = [e["precision"] for e in rep_b.epoch_evals]
    argmax_ok = (
        rep_b.best_epoch == precisions.index(max(precisions)) + 1
        and rep_b.best_precision == max(precisions)
        and best.directed == {(0, 1)}
    )

    # (c) the update prompt's history never exceeds r = 7 entries
    edits = []
    for i in range(20):
        kind = "prerequisite" if i % 2 == 0 else "independent"
        edits.append(update_response(f"**alpha** is {kind} of **beta**."))
    spy = FakeLlm(update_responses=edits)
    align(
        g0,
        corpus,
        AlignmentConfig(m=6, s_b=1, n_e=3, r=7, c_stop=99, seed=1),
        spy,
    )
    history_blocks = [p.count("## Round precision") for p in spy.prompts("p_u")]
    history_ok = max(history_blocks) == 7

    report(
        6,
        "alignment mechanics",
        early_ok and argmax_ok and history_ok,
        f"early={early_ok} argmax={argmax_ok} history={history_ok}",
    )


class _FuzzLlm:
    """Minimal valid responses everywhere; random relation edits on update."""

    def __init__(self, keys, seed, edits_per_round):
        self.keys = keys
        self.rng = random.Random(seed)
        self.edits_per_round = edits_per_round

    def complete(self, request):
        tag = request.tag
        if tag == "p_t":
            return "<think>t</think><answer>plan</answer>"
        if tag == "p_m":
            return "**The chosen factors are: [].**"
        if tag == "p_a":
            return "<answer>The answer is: 0.</answer>"
        if tag == "p_u":
            lines = []
            for _ in range(self.edits_per_round):
                a, b = self.rng.sample(self.keys, 2)
                kind = self.rng.choice(["prerequisite", "dependent", "independent"])
                lines.append(f"**{a}** is {kind} of **{b}**.")
            return "<answer>[" + "\n".join(lines) + "]</answer>"
        raise AssertionError(f"unexpected tag {tag}")


def test_criterion_7_cycle_safety_fuzz():
    keys = [f"node {i}" for i in range(8)]
    g = Mcg(nodes=tuple(KnowledgePoint(k) for k in keys))
    record = QaRecord(id="fz", question="fuzz probe", answer="0")
    edits_per_round, rounds = 25, 400
    llm = _FuzzLlm(keys, seed=1234, edits_per_round=edits_per_round)
    applied = 0
    for _ in range(rounds):
        g = run_alignment_round(g, [record], deque(), llm)[0]
        applied += edits_per_round
        assert topological_order(g.k, g.directed) is not None
    report(
        7,
        "cycle safety fuzz",
        applied == 10_000,
        f"{applied} random edits, directed part stayed acyclic",
    )


def test_criterion_8_live_smoke_documented():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    smoke_file = REPO_ROOT / "live_smoke" / "questions.json"
    records = load_qa_records(smoke_file)
    documented = (
        "live_smoke/questions.json" in readme
        and "CAMA_API_KEY" in readme
        and "not" in readme.lower()
    )
    report(
        8,
        "benchmark numbers out of scope; live smoke documented",
        documented and len(records) == 5,
        f"smoke questions={len(records)}, documented={documented}",
    )
