"""Committed digests of the CPDAGs that discovery and the oracle return.

Each artifact is a SHA-256 over bytes the program writes: ``serialize_graph``
of ``discover_cpdag`` on fixed samples, and of ``true_cpdag`` and
``oracle_cpdag`` on the DAGs those samples come from. The sampled input
matrices are hashed too, so a change in NumPy's sampling stream shows as an
input change rather than an output change. A change that is meant to alter
an output regenerates the file with ``pytest --regenerate-golden`` and
commits it with the change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from cama.discovery import discover_cpdag
from cama.graph import serialize_graph
from cama.oracle import TrueDag, oracle_cpdag, random_true_dag, sample_incidence, true_cpdag

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


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


def artifacts() -> dict[str, str]:
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


def test_outputs_match_committed_digests(request):
    got = artifacts()
    if request.config.getoption("--regenerate-golden"):
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"artifacts differ from {DIGESTS.name}: {changed}"
