"""Command-line entry points wiring the learning and reasoning stages."""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import reasoning
from .config import build_client, load_config
from .errors import CamaError, ParseError
from .graph import export_dot, load_graph, save_graph
from .model import QaRecord, load_qa_records, save_qa_records, write_atomic, write_json

# the modules that compute on an incidence matrix import NumPy, so only the
# commands that use them import them, in their bodies: the reasoning
# commands start without NumPy


def _fail(error: Exception) -> None:
    line = json.dumps({"error": type(error).__name__, "message": str(error)})
    click.echo(line, err=True)
    sys.exit(1)


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (CamaError, OSError) as e:
            _fail(e)

    return wrapper


# each settings flag once, keyed by the config key it sets (``config`` names
# the file); its parameter name is the matching argument of load_config
SETTINGS = {
    "config": click.option("--config", "path", type=click.Path(), default=None,
                           help="Config file (key = value lines)."),
    "run_dir": click.option("--run-dir", type=click.Path(), default=None,
                            help="Directory for run artifacts."),
    "lambda": click.option("--lambda", "lambda", type=int, default=None,
                           help="Knowledge-point granularity per question."),
    "alpha": click.option("--alpha", type=float, default=None,
                          help="Significance level of the independence test."),
    "seed": click.option("--seed", type=int, default=None, help="Deterministic seed."),
    "repetitions": click.option("--repetitions", type=int, default=None,
                                help="Evaluation repetitions per question."),
    "transcript": click.option("--transcript", type=click.Path(), default=None,
                               help="Transcript file for record/replay."),
    "mode": click.option("--mode", type=click.Choice(["live", "record", "replay"]),
                         default=None, help="Gateway mode."),
}


def settings(*keys):
    """The settings flags of ``keys``, in that order."""
    return lambda fn: functools.reduce(lambda f, key: SETTINGS[key](f), reversed(keys), fn)


@click.group()
def main():
    """Learn a prerequisite graph from math QA corpora and answer with it."""


@main.command("build-dataset")
@click.argument("qa_file", type=click.Path(exists=True))
@settings("config", "run_dir", "mode", "transcript")
@guarded
def cmd_build_dataset(qa_file, **cfg_kwargs):
    """Generate solutions for a QA file; keep correctly answered records."""
    from . import learning

    cfg = load_config(**cfg_kwargs)
    client = build_client(cfg)
    records = load_qa_records(qa_file)
    dataset = learning.build_dataset(records, client)
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.run_dir / "dataset.json"
    save_qa_records(dataset, out)
    click.echo(f"retained {len(dataset)}/{len(records)} records -> {out}")


@main.command("learn")
@click.argument("dataset_file", type=click.Path(exists=True))
@settings("config", "run_dir", "lambda", "alpha", "seed", "mode", "transcript")
@guarded
def cmd_learn(dataset_file, **cfg_kwargs):
    """Extraction, deduplication, discovery and alignment over a dataset."""
    from . import learning

    cfg = load_config(**cfg_kwargs)
    client = build_client(cfg)
    dataset = load_qa_records(dataset_file)
    g_init, g_best, report = learning.run_learn_pipeline(
        dataset,
        client,
        cfg.run_dir,
        granularity=cfg.granularity,
        alpha=cfg.alpha,
        max_cond_size=cfg.max_cond_size,
        align_cfg=cfg.alignment,
    )
    origin = (
        f"epoch {report.best_epoch}" if report.best_epoch else "initial discovery"
    )
    click.echo(
        f"initial graph: {g_init.k} nodes, {g_init.edge_count()} edges; "
        f"best graph from {origin} "
        f"(precision {report.best_precision:.3f}, {report.stop_reason})"
    )


@main.command("discover")
@click.argument("incidence_csv", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Output graph path.")
@settings("config", "run_dir", "alpha")
@guarded
def cmd_discover(incidence_csv, out, **cfg_kwargs):
    """Causal discovery only, over an existing incidence matrix."""
    from .discovery import discover_cpdag
    from .matrix import load_incidence_csv

    cfg = load_config(**cfg_kwargs)
    z = load_incidence_csv(incidence_csv)
    g = discover_cpdag(z, alpha=cfg.alpha, max_cond_size=cfg.max_cond_size)
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    path = Path(out) if out else cfg.run_dir / "graph.json"
    save_graph(g, path)
    click.echo(
        f"{g.k} nodes, {len(g.directed)} directed and "
        f"{len(g.undirected)} undirected edges -> {path}"
    )


@main.command("answer")
@click.argument("graph_file", type=click.Path(exists=True))
@click.argument("question")
@settings("config", "run_dir", "mode", "transcript")
@guarded
def cmd_answer(graph_file, question, **cfg_kwargs):
    """Answer one question guided by a learned graph."""
    if not question.strip():
        raise ParseError("question is blank")
    cfg = load_config(**cfg_kwargs)
    client = build_client(cfg)
    g = load_graph(graph_file)
    record = QaRecord(id="cli-question", question=question)
    outcome = reasoning.answer_question(g, record, client)
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    audit = {
        "question": question,
        "trace": outcome.trace,
        "chosen": sorted(outcome.chosen),
        "subgraph_nodes": [g.nodes[i].key for i in sorted(outcome.chosen)],
        "raw_answer": outcome.raw_answer,
        "parsed_answer": outcome.parsed_answer,
        "failed": outcome.failed,
        "failure": outcome.failure,
    }
    write_json(cfg.run_dir / "answer_audit.json", audit)
    if outcome.failed:
        _fail(CamaError(f"answering failed: {outcome.failure}"))
    click.echo(outcome.parsed_answer)


@main.command("evaluate")
@click.argument("graph_file", type=click.Path(exists=True))
@click.argument("test_file", type=click.Path(exists=True))
@settings("config", "run_dir", "repetitions", "mode", "transcript")
@guarded
def cmd_evaluate(graph_file, test_file, **cfg_kwargs):
    """Pass@1 evaluation of a graph over a test corpus."""
    cfg = load_config(**cfg_kwargs)
    client = build_client(cfg)
    g = load_graph(graph_file)
    test = load_qa_records(test_file)
    report = reasoning.evaluate(g, test, client, repetitions=cfg.repetitions)
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.run_dir / "eval_report.json"
    write_json(out, report.to_dict())
    click.echo(f"{'qa_id':<20} {'rep':>3} {'correct':>7}  answer")
    for item in report.per_question:
        click.echo(
            f"{item['qa_id']:<20} {item['repetition']:>3} "
            f"{str(item['correct']):>7}  {item['parsed_answer']}"
        )
    click.echo(
        f"pass@1 = {report.correct_cells}/{report.total_cells} "
        f"= {report.pass_at_1:.4f} -> {out}"
    )


@main.command("export-dot")
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Output DOT path.")
@guarded
def cmd_export_dot(graph_file, out):
    """Write a Graphviz DOT rendering of a graph file."""
    g = load_graph(graph_file)
    path = Path(out) if out else Path(graph_file).with_suffix(".dot")
    write_atomic(path, export_dot(g))
    click.echo(str(path))


@main.command("synth")
@click.argument("scenario_file", type=click.Path(exists=True))
@click.option("--rows", type=click.IntRange(min=0), default=5000, show_default=True,
              help="Number of sampled rows.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
@guarded
def cmd_synth(scenario_file, rows, seed, out_dir):
    """Sample an incidence matrix and write the scenario's true CPDAG."""
    from .oracle import load_scenario, sample_incidence, true_cpdag

    dag = load_scenario(scenario_file)
    z = sample_incidence(dag, rows, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    z.save_csv(out / "incidence.csv")
    save_graph(true_cpdag(dag), out / "true_cpdag.json")
    click.echo(f"wrote {rows}x{dag.k} incidence.csv and true_cpdag.json to {out}")


if __name__ == "__main__":
    main()
