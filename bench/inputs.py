"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed arguments. Only generated
files reach the program; the program never sees a seed of the benchmark.
"""

from __future__ import annotations

import numpy as np

from cama.graph import Mcg, save_graph
from cama.model import KnowledgePoint, QaRecord, save_qa_records
from cama.oracle import TrueDag, random_true_dag, sample_incidence, true_cpdag

from fake_model import ALIAS_SUFFIX, question_text, solution_text

_WORDS = (
    "prime factor modular inverse binomial coefficient vieta formula triangle "
    "inequality angle bisector circle power complex root unity geometric series "
    "telescoping sum pigeonhole principle parity argument induction step "
    "generating function recurrence relation divisor count lattice point "
    "similar triangles law cosines area ratio probability expectation linearity "
    "combinatorial identity greatest common divisor quadratic residue polynomial "
    "remainder"
).split()


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, *salt]))


# --- discovery inputs -------------------------------------------------------


def tall_dags(n_dags: int) -> list[TrueDag]:
    """Dense binary DAGs over 40 columns (about two parents per node)."""
    return [random_true_dag(40, 2 / 39, seed=100 + i) for i in range(n_dags)]


def parent_driven(base: TrueDag, rng: np.random.Generator, names, active, idle) -> TrueDag:
    """``base``'s structure with sparse tables: a node is present with a
    probability drawn from ``active`` when any parent is present, and from
    ``idle`` otherwise, as with the few points each question uses."""
    cpts = []
    for parents in base.parents:
        any_parent = np.array([r > 0 for r in range(2 ** len(parents))])
        p_one = np.where(
            any_parent,
            rng.uniform(*active, size=any_parent.size),
            rng.uniform(*idle, size=any_parent.size),
        )
        cpts.append(np.column_stack([1.0 - p_one, p_one]))
    return TrueDag(names=tuple(names), parents=base.parents, cpt=tuple(cpts))


def wide_dags(n_dags: int) -> list[TrueDag]:
    """Sparse DAGs over 120 columns with about 7% ones per cell."""
    dags = []
    for i in range(n_dags):
        base = random_true_dag(120, 2 / 119, seed=200 + i)
        dags.append(parent_driven(base, rng_for(200, i), base.names, (0.25, 0.6), (0.03, 0.08)))
    return dags


def write_incidence_csv(dag: TrueDag, rows: int, scenario: int, seed: int, path) -> np.ndarray:
    """Write a fixed sample of the scenario DAG, rows and columns shuffled by
    ``seed``, in the program's CSV layout.

    The sample itself is fixed per scenario: discovery time moves by 10-20%
    between samples of one DAG, because borderline tests flip and change
    which pairs reach the larger conditioning sets, and that would swamp a
    change under test. Shuffling keeps the statistics and changes the bytes
    read and the order in which PC enumerates pairs and subsets.

    Returns the shuffled cells so the benchmark can check what the
    program's loader reads back.
    """
    z = sample_incidence(dag, rows, seed=1000 + scenario)
    rng = rng_for(seed, scenario)
    order, cols = rng.permutation(z.rows), rng.permutation(z.cols)
    cells = z.cells[order][:, cols]
    header = ",".join(["id", *(z.col_keys[c] for c in cols)])
    digits = cells.astype("U1").tolist()
    body = "\n".join(f"{z.row_ids[r]},{','.join(row)}" for r, row in zip(order, digits))
    path.write_text(f"{header}\n{body}\n", encoding="utf-8")
    return cells


# --- LLM corpora ------------------------------------------------------------


def knowledge_points(k: int, rng: np.random.Generator) -> list[KnowledgePoint]:
    points = []
    for i in range(k):
        w = rng.choice(len(_WORDS), size=7)
        key = f"kp{i:03d} {_WORDS[w[0]]} {_WORDS[w[1]]}"
        description = (
            f"Applies the {_WORDS[w[2]]} {_WORDS[w[3]]} to reduce the {_WORDS[w[4]]} "
            f"{_WORDS[w[5]]} before the {_WORDS[w[6]]} step."
        )
        points.append(KnowledgePoint(key=key, description=description))
    return points


def point_edge_probability(k: int) -> float:
    """Edge probability of the point DAG over k points: two parents per node on average."""
    return 2 / (k - 1)


def expected_point_edges(k: int) -> int:
    """Expected edge count of the point DAG over k points (k(k-1)/2 pairs)."""
    return round(k * (k - 1) / 2 * point_edge_probability(k))


def point_dag(points: list[KnowledgePoint], rng: np.random.Generator) -> TrueDag:
    """Prerequisite DAG over the points; a question uses two or three of them."""
    k = len(points)
    base = random_true_dag(k, point_edge_probability(k), seed=0, rng=rng)
    return parent_driven(base, rng, (p.key for p in points), (0.3, 0.6), (0.02, 0.06))


def questions(
    dag: TrueDag, n: int, rng: np.random.Generator, prefix: str, alias_share: float = 0.0
) -> list[QaRecord]:
    """n solved questions, each using two or three points of the DAG.

    Point sets are rows sampled from the DAG, so co-usage follows its
    structure; a share of marks spells a point by its alias.
    """
    records: list[QaRecord] = []
    while len(records) < n:
        z = sample_incidence(dag, 4 * n, seed=int(rng.integers(2**32)))
        for row in z.cells:
            used = [dag.names[j] for j in np.flatnonzero(row)]
            if not 2 <= len(used) <= 3:
                continue
            marks = [key + ALIAS_SUFFIX if rng.random() < alias_share else key for key in used]
            a, b = (int(x) for x in rng.integers(1, 1000, size=2))
            qa_id = f"{prefix}{len(records):04d}"
            records.append(
                QaRecord(
                    id=qa_id,
                    question=question_text(qa_id, a, b, marks),
                    answer=str(a + b),
                    solution=solution_text(a, b, marks),
                )
            )
            if len(records) == n:
                break
    return records


def write_test_set(dag: TrueDag, n: int, rng: np.random.Generator, path) -> None:
    """n questions asked without solutions, as at test time."""
    records = [QaRecord(id=r.id, question=r.question, answer=r.answer) for r in questions(dag, n, rng, "e")]
    save_qa_records(records, path)


def write_learn_corpus(seed: int, n_points: int, n_train: int, n_test: int, out_dir) -> dict:
    rng = rng_for(seed, 3)
    points = knowledge_points(n_points, rng)
    dag = point_dag(points, rng)
    paths = {"dataset": out_dir / "dataset.json", "test": out_dir / "test.json"}
    save_qa_records(questions(dag, n_train, rng, "t", alias_share=0.1), paths["dataset"])
    write_test_set(dag, n_test, rng, paths["test"])
    return paths


def write_eval_corpus(seed: int, n_points: int, n_test: int, out_dir) -> dict:
    """The true CPDAG of a seeded point DAG, with descriptions, and a test set."""
    rng = rng_for(seed, 4)
    points = knowledge_points(n_points, rng)
    dag = point_dag(points, rng)
    cpdag = true_cpdag(dag)
    graph = Mcg(nodes=tuple(points), directed=cpdag.directed, undirected=cpdag.undirected)
    paths = {"graph": out_dir / "graph.json", "test": out_dir / "test.json"}
    save_graph(graph, paths["graph"])
    write_test_set(dag, n_test, rng, paths["test"])
    return paths
