"""SciPy loads on the first chi-square, not on import.

Each check runs in a fresh interpreter: in this process other test modules
have already imported SciPy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from cama.discovery import discover_cpdag
from cama.graph import serialize_graph
from cama.oracle import random_true_dag, sample_incidence

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    return json.loads(done.stdout)


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


def test_fresh_discovery_loads_scipy_and_matches_in_process():
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
    assert (out["before"], out["after"]) == (False, True)
    assert out["graph"] == expected
