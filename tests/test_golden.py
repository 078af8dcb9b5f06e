"""Committed digests of what discovery, the oracle and the pipeline write.

Each artifact is a SHA-256 over bytes the program writes: ``serialize_graph``
of ``discover_cpdag`` on fixed samples, and of ``true_cpdag`` and
``oracle_cpdag`` on the DAGs those samples come from; and every file of a
small recorded ``cama learn`` -> ``cama evaluate`` -> ``cama answer`` run on
the benchmark's fake model, transcripts included. The sampled input
matrices and the generated corpus are hashed too, so a change in NumPy's
sampling stream shows as an input change rather than an output change. A
change that is meant to alter an output regenerates the file with
``pytest --regenerate-golden`` and commits it with the change.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import cama.cli
from cama.client import RecordingClient
from cama.discovery import discover_cpdag
from cama.graph import serialize_graph
from cama.model import load_qa_records
from cama.oracle import TrueDag, oracle_cpdag, random_true_dag, sample_incidence, true_cpdag

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def sparse_tables(dag: TrueDag) -> TrueDag:
    """``dag``'s structure with tables like extracted incidence: a node is
    present with probability 0.4 when any parent is present, 0.05 otherwise."""
    cpts = []
    for parents in dag.parents:
        p_one = np.where(np.arange(2 ** len(parents)) > 0, 0.4, 0.05)
        cpts.append(np.column_stack([1.0 - p_one, p_one]))
    return TrueDag(names=dag.names, parents=dag.parents, cpt=tuple(cpts))


def samples():
    """(name, DAG, rows, sampling seed) of every sample the digests cover."""
    yield "dense-40x5000", random_true_dag(40, 2 / 39, seed=100), 5000, 100
    yield "sparse-120x3000", sparse_tables(random_true_dag(120, 2 / 119, seed=200)), 3000, 200
    for seed in range(5):
        yield f"recovery-{seed}-20x20000", random_true_dag(20, 2 / 19, seed), 20000, seed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def discovery_artifacts() -> dict[str, str]:
    out = {}
    for name, dag, rows, seed in samples():
        z = sample_incidence(dag, rows, seed)
        out[f"{name}/input"] = sha256(f"{z.rows}x{z.cols}\n".encode() + z.cells.tobytes())
        for kind, g in (
            ("discover_cpdag", discover_cpdag(z)),
            ("true_cpdag", true_cpdag(dag)),
            ("oracle_cpdag", oracle_cpdag(dag)),
        ):
            out[f"{name}/{kind}"] = sha256(serialize_graph(g).encode("utf-8"))
    return out


def load_bench(name: str):
    # bench/inputs.py imports fake_model by name
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pipeline_artifacts(work: Path, monkeypatch) -> dict[str, str]:
    """Record learn, evaluate and one answer in-process on the fake model.

    The corpus includes t0016 and e0016, which get the fake model's
    malformed extraction and answer replies, so the digests cover an empty
    extraction and a failed evaluation cell.
    """
    inputs, fake_model = load_bench("inputs"), load_bench("fake_model")
    paths = inputs.write_learn_corpus(1, 20, 40, 20, work)
    fake = fake_model.FakeModelClient(inputs.expected_point_edges(20))
    monkeypatch.setattr(
        cama.cli, "build_client", lambda cfg: RecordingClient(fake, cfg.transcript_path)
    )
    run_dir, answer_dir = work / "run", work / "answer"
    [question] = load_qa_records(paths["test"])[:1]
    runner = CliRunner()
    for args in (
        ["learn", paths["dataset"], "--transcript", work / "learn.jsonl", "--seed", "1"],
        ["evaluate", run_dir / "graph_best.json", paths["test"],
         "--transcript", work / "evaluate.jsonl", "--repetitions", "2"],
    ):
        result = runner.invoke(cama.cli.main, [*map(str, args), "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
    result = runner.invoke(
        cama.cli.main,
        ["answer", str(run_dir / "graph_best.json"), question.question,
         "--transcript", str(work / "answer.jsonl"), "--run-dir", str(answer_dir)],
    )
    assert result.exit_code == 0, result.output

    extraction = [
        json.loads(line)
        for line in (run_dir / "extraction.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [r["qa_id"] for r in extraction if not r["points"]] == ["t0016"]
    report = json.loads((run_dir / "eval_report.json").read_text(encoding="utf-8"))
    assert {c["qa_id"] for c in report["per_question"] if c["failed"]} == {"e0016"}

    files = {
        "corpus/dataset.json": paths["dataset"],
        "corpus/test.json": paths["test"],
        "transcript/learn.jsonl": work / "learn.jsonl",
        "transcript/evaluate.jsonl": work / "evaluate.jsonl",
        "transcript/answer.jsonl": work / "answer.jsonl",
        "answer/answer_audit.json": answer_dir / "answer_audit.json",
    }
    files.update({f"run/{p.name}": p for p in run_dir.iterdir()})
    return {f"pipeline/{name}": sha256(path.read_bytes()) for name, path in files.items()}


def test_outputs_match_committed_digests(request, tmp_path, monkeypatch):
    got = discovery_artifacts() | pipeline_artifacts(tmp_path, monkeypatch)
    if request.config.getoption("--regenerate-golden"):
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"artifacts differ from {DIGESTS.name}: {changed}"
