"""No command loads SciPy, discovery included; NumPy loads only in the
commands that compute on an incidence matrix.

Each check runs in a fresh interpreter: in this process other test modules
have already imported SciPy and NumPy. ``conftest`` imports NumPy, so a
check of NumPy builds its input files here and imports no test helper there.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from click.testing import CliRunner

from cama.cli import main
from cama.client import RecordingClient
from cama.discovery import discover_cpdag
from cama.graph import Mcg, save_graph, serialize_graph
from cama.model import KnowledgePoint, save_qa_records
from cama.oracle import random_true_dag, sample_incidence
from cama.reasoning import evaluate
from conftest import make_corpus
from fake_llm import FakeLlm

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

# runs each cama command of sys.argv[1] (a JSON list of argument lists)
# in-process and prints its return value and which of NumPy and SciPy are
# loaded after it
RUN_COMMANDS = """
    import contextlib, io, json, sys

    def loaded():
        return [name for name in ("numpy", "scipy") if name in sys.modules]

    from cama.cli import main
    steps = {"import cama.cli": loaded()}
    for args in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main.main(args=args, prog_name="cama", standalone_mode=False)
        steps[args[0]] = [code, *loaded()]
    print(json.dumps(steps))
"""


def run_fresh(code: str, *args: str) -> dict:
    """Run ``code`` with ``args`` in a new interpreter and return the JSON it prints."""
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    return json.loads(done.stdout)


def run_commands(commands: list[list]) -> dict:
    """What ``RUN_COMMANDS`` prints for ``commands`` in a new interpreter."""
    return run_fresh(RUN_COMMANDS, json.dumps([list(map(str, args)) for args in commands]))


def test_cli_import_loads_no_scipy():
    out = run_fresh(
        """
        import json, sys
        import cama.cli
        print(json.dumps({"scipy": "scipy" in sys.modules}))
        """
    )
    assert out == {"scipy": False}


def test_cli_evaluate_loads_no_scipy():
    out = run_fresh(
        """
        import json, sys
        import cama.cli  # as the `cama evaluate` command loads it
        from conftest import make_corpus
        from fake_llm import FakeLlm
        from cama.graph import Mcg
        from cama.model import KnowledgePoint
        from cama.reasoning import evaluate

        g = Mcg(
            nodes=(KnowledgePoint("alpha"), KnowledgePoint("beta")),
            directed={(0, 1)},
        )
        corpus = make_corpus([("q01", 3, 4, ["alpha", "beta"]), ("q02", 1, 2, ["alpha"])])
        report = evaluate(g, corpus, FakeLlm(wrong_ids={"q02"}))
        print(json.dumps({"pass_at_1": report.pass_at_1, "scipy": "scipy" in sys.modules}))
        """
    )
    assert out == {"pass_at_1": 0.5, "scipy": False}


def test_fresh_discovery_loads_no_scipy_and_matches_in_process():
    dag = random_true_dag(8, 0.3, seed=5)
    z = sample_incidence(dag, 3000, seed=5)
    expected = serialize_graph(discover_cpdag(z))
    out = run_fresh(
        """
        import json, sys
        from cama.discovery import discover_cpdag
        from cama.graph import serialize_graph
        from cama.oracle import random_true_dag, sample_incidence

        z = sample_incidence(random_true_dag(8, 0.3, seed=5), 3000, seed=5)
        before = "scipy" in sys.modules
        graph = serialize_graph(discover_cpdag(z))
        print(json.dumps({"before": before, "after": "scipy" in sys.modules, "graph": graph}))
        """
    )
    assert (out["before"], out["after"]) == (False, False)
    assert out["graph"] == expected


def test_reasoning_commands_load_no_numpy(tmp_path):
    g = Mcg(nodes=(KnowledgePoint("alpha"), KnowledgePoint("beta")), directed={(0, 1)})
    save_graph(g, tmp_path / "graph.json")
    corpus = make_corpus([("q01", 3, 4, ["alpha", "beta"]), ("q02", 1, 2, ["alpha"])])
    save_qa_records(corpus, tmp_path / "test.json")
    evaluate(g, corpus, RecordingClient(FakeLlm(), tmp_path / "t.jsonl"))
    commands = [
        ["--help"],
        ["evaluate", tmp_path / "graph.json", tmp_path / "test.json", "--mode", "replay",
         "--transcript", tmp_path / "t.jsonl", "--run-dir", tmp_path / "run"],
        ["export-dot", tmp_path / "graph.json"],
    ]
    steps = run_commands(commands)
    assert steps == {"import cama.cli": [], "--help": [0], "evaluate": [None], "export-dot": [None]}
    assert json.loads((tmp_path / "run" / "eval_report.json").read_text())["pass_at_1"] == 1.0
    assert (tmp_path / "graph.dot").is_file()


def test_incidence_matrix_loads_numpy_on_first_access():
    out = run_fresh(
        """
        import json, sys
        import cama
        before = "numpy" in sys.modules
        from cama import IncidenceMatrix
        import cama.matrix
        print(json.dumps({
            "before": before,
            "after": "numpy" in sys.modules,
            "same": IncidenceMatrix is cama.matrix.IncidenceMatrix,
            "exported": "IncidenceMatrix" in cama.__all__,
        }))
        """
    )
    assert out == {"before": False, "after": True, "same": True, "exported": True}


def test_fresh_synth_and_discover_match_in_process(tmp_path):
    scenario = {
        "nodes": ["a", "b", "c"],
        "parents": {"a": [], "b": ["a"], "c": ["b"]},
        "cpt": {"a": [[0.5, 0.5]], "b": [[0.9, 0.1], [0.1, 0.9]], "c": [[0.9, 0.1], [0.1, 0.9]]},
    }
    (tmp_path / "chain.json").write_text(json.dumps(scenario))

    def commands(out):
        return [
            ["synth", tmp_path / "chain.json", "--rows", "2000", "--out-dir", out],
            ["discover", out / "incidence.csv", "--out", out / "graph.json", "--run-dir", out],
        ]

    for args in commands(tmp_path / "here"):
        result = CliRunner().invoke(main, list(map(str, args)))
        assert result.exit_code == 0, result.output
    steps = run_commands(commands(tmp_path / "fresh"))
    assert steps == {
        "import cama.cli": [],
        "synth": [None, "numpy"],
        "discover": [None, "numpy"],
    }
    for name in ("incidence.csv", "true_cpdag.json", "graph.json"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
