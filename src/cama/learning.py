"""Learning stage: dataset construction, knowledge extraction, matrix
assembly, causal discovery, and feedback-driven graph alignment.

The alignment loop answers batches of questions with the current graph,
asks the model to revise the edges it saw, and keeps whichever epoch
graph scores best on the full alignment subset.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .client import ChatClient, ask
from .config import DEFAULT_ALPHA, DEFAULT_GRANULARITY, DEFAULT_MAX_COND_SIZE, AlignmentConfig
from .discovery import discover_cpdag
from .errors import CamaError, ConfigError, EmptyDataset, ParseError, ReplyError
from .graph import GraphBuilder, Mcg, graphs_equal, save_graph, verbalize
from .matrix import IncidenceMatrix
from .model import KnowledgePoint, QaRecord, ReplacementMap, json_line, write_atomic, write_json
from .parsers import (
    RelationEdit,
    parse_answer,
    parse_dedup,
    parse_extracted_points,
    parse_relation_edits,
)
from .reasoning import ReasoningOutcome, answer_questions, judge_exact

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExtractionRecord:
    qa_id: str
    points: tuple[KnowledgePoint, ...]


@dataclass
class AlignmentReport:
    rounds: list[dict] = field(default_factory=list)
    epoch_evals: list[dict] = field(default_factory=list)
    best_epoch: int | None = None
    best_precision: float = 0.0
    stop_reason: str = "completed"
    subset_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# --- dataset construction ----------------------------------------------------


def _answer_and_solution(reply: str) -> tuple[str, str]:
    """The answer, and the ``<think>`` block (else the whole reply) as solution."""
    parsed = parse_answer(reply)
    return parsed.answer, parsed.think or reply


def build_dataset(qa: list[QaRecord], gateway: ChatClient) -> list[QaRecord]:
    """Generate a solution per question and keep records the model solved.

    A record survives only when the generated answer matches the ground
    truth exactly; failures and wrong answers are dropped and logged.
    """
    for rec in qa:
        if rec.solution is not None:
            raise ParseError(f"record {rec.id!r} already has a solution")
    questions = [{"question": rec.question} for rec in qa]
    retained: list[QaRecord] = []
    for rec, result in zip(qa, ask(gateway, "p_g", questions, _answer_and_solution)):
        # a returned error is logged, never raised again: a raise would tie
        # its traceback to this frame, which still holds the error
        if isinstance(result, CamaError):
            logger.warning("dropping %s: generation failed (%s)", rec.id, result)
            continue
        answer, solution = result
        if not judge_exact(answer, rec.answer):
            logger.info("dropping %s: predicted %r != truth %r", rec.id, answer, rec.answer)
            continue
        retained.append(dataclasses.replace(rec, solution=solution))
    if not retained:
        raise EmptyDataset("no question was answered correctly during construction")
    return retained


# --- extraction / deduplication / matrix -------------------------------------


def _format_qa_pair(rec: QaRecord) -> str:
    return f"Question:\n{rec.question}\n\nSolution:\n{rec.solution or ''}"


def extract_all(
    qs: list[QaRecord], granularity: int, gateway: ChatClient
) -> list[ExtractionRecord]:
    """One independent extraction call per pair; order preserved.

    A failed call or parse degrades to an empty point list for that record.
    """
    bindings = [
        {"question_solution_pairs": _format_qa_pair(rec), "lambda": str(granularity)}
        for rec in qs
    ]
    parse = lambda reply: parse_extracted_points(reply, granularity)
    records: list[ExtractionRecord] = []
    for rec, points in zip(qs, ask(gateway, "p_p", bindings, parse)):
        if isinstance(points, CamaError):
            logger.warning("extraction failed for %s: %s", rec.id, points)
            points = ()
        records.append(ExtractionRecord(qa_id=rec.id, points=points))
    return records


def union_points(records: list[ExtractionRecord]) -> list[KnowledgePoint]:
    """Union of all extracted points by key, first-seen description wins."""
    seen: dict[str, KnowledgePoint] = {}
    for rec in records:
        for point in rec.points:
            seen.setdefault(point.key, point)
    return list(seen.values())


def deduplicate(
    records: list[ExtractionRecord], gateway: ChatClient
) -> tuple[list[KnowledgePoint], ReplacementMap]:
    """Ask the model which points are redundant and fold them away.

    On any parse problem the dedup degrades to the identity (union kept,
    empty replacement map) so the pipeline can proceed.
    """
    pool = union_points(records)
    if not pool:
        return [], ReplacementMap()
    pool_keys = {p.key for p in pool}

    def parse(reply: str) -> ReplacementMap:
        replacements = parse_dedup(reply)
        for gone, survivor in replacements.pairs.items():
            if survivor not in pool_keys:
                raise ReplyError(f"replacement target {survivor!r} is not an extracted point")
            if gone not in pool_keys:
                logger.warning("ignoring removal of unknown point %r", gone)
        return replacements

    listing = "\n".join(f"- **{p.key}**: {p.description}" for p in pool)
    [result] = ask(gateway, "p_r", [{"list_all_knowledge_points": listing}], parse)
    if isinstance(result, CamaError):
        logger.warning("deduplication degraded to identity: %s", result)
        return pool, ReplacementMap()
    pairs = {k: v for k, v in result.pairs.items() if k in pool_keys}
    return [p for p in pool if p.key not in pairs], ReplacementMap(pairs=pairs)


def build_incidence_matrix(
    records: list[ExtractionRecord],
    canonical: list[KnowledgePoint],
    replacements: ReplacementMap,
) -> IncidenceMatrix:
    """Binary matrix: cell (i, j) is 1 iff record i used canonical point j,
    directly or through a replacement."""
    col_of = {p.key: j for j, p in enumerate(canonical)}
    cells = np.zeros((len(records), len(canonical)), dtype=np.uint8)
    for i, rec in enumerate(records):
        for point in rec.points:
            key = replacements.resolve(point.key)
            if key not in col_of:
                raise ValueError(
                    f"record {rec.qa_id!r} references {point.key!r}, which is "
                    "neither canonical nor replaced"
                )
            cells[i, col_of[key]] = 1
    return IncidenceMatrix(
        cells=cells,
        row_ids=tuple(r.qa_id for r in records),
        col_keys=tuple(p.key for p in canonical),
    )


# --- alignment ----------------------------------------------------------------


def _format_feedback_entries(answered: list[tuple[QaRecord, ReasoningOutcome]]) -> str:
    if not answered:
        return "(none)"
    return "\n\n".join(
        "## Question\n"
        f"{rec.question}\n\n"
        "## Solution\n"
        f"{rec.solution or '(not available)'}\n\n"
        "## Matched Knowledge Points\n"
        f"{outcome.view.elements or '(none)'}\n\n"
        "## Recorded Relations\n"
        f"{outcome.view.relations or '(none)'}"
        for rec, outcome in answered
    )


def _format_history(history: deque[tuple[str, float]]) -> str:
    return "\n\n".join(
        f"## Round precision {precision:.3f}\n{relations}" for relations, precision in history
    )


_EDGE_OF_EDIT = {"prerequisite": "directed", "dependent": "undirected"}


def apply_relation_edits(
    g: Mcg, edits: list[RelationEdit]
) -> tuple[Mcg, int, int, int]:
    """Apply edits in order; returns (graph, applied, rejected, skipped).

    prerequisite(A, B) replaces any edge over the pair with directed A->B,
    dependent(A, B) with an undirected edge, independent(A, B) deletes the
    pair. Unknown keys are skipped; an edit whose directed edge would
    close a cycle is rejected and leaves the graph unchanged.
    """
    applied = rejected = skipped = 0
    index = g.key_index()
    builder = GraphBuilder(g.k, g.directed, g.undirected)
    for edit in edits:
        ia, ib = index.get(edit.a), index.get(edit.b)
        if ia is None or ib is None or ia == ib:
            logger.warning(
                "skipping edit %s %s %s: unknown or identical keys",
                edit.a, edit.kind, edit.b,
            )
            skipped += 1
            continue
        if edit.kind == "prerequisite" and builder.closes_cycle(ia, ib):
            logger.warning(
                "rejecting edit %s prerequisite %s: would close a directed cycle",
                edit.a, edit.b,
            )
            rejected += 1
            continue
        builder.set_pair(ia, ib, _EDGE_OF_EDIT.get(edit.kind))
        applied += 1  # a no-op edit still counts as accepted
    return builder.freeze(g.nodes), applied, rejected, skipped


def run_alignment_round(
    g: Mcg,
    batch: list[QaRecord],
    history: deque[tuple[str, float]],
    gateway: ChatClient,
) -> tuple[Mcg, dict]:
    """Answer one batch with the current graph and apply the model's edits.

    ``history`` holds (relations text, precision) of earlier rounds, oldest
    first. Returns the (possibly) updated graph and the round's report
    fields: the batch precision measured with the input graph and the edit
    counts. A failed update call returns ``g`` itself with zero counts.
    """
    if not batch:
        raise ValueError("alignment batch is empty")
    answered = list(zip(batch, answer_questions(g, batch, gateway)))
    correct_part = [pair for pair in answered if pair[1].correct]
    incorrect_part = [pair for pair in answered if not pair[1].correct]
    precision = len(correct_part) / len(answered)

    incorrect_text = _format_feedback_entries(incorrect_part)
    history_text = _format_history(history)
    if history_text:
        incorrect_text += (
            "\n\n# Optimization History (most recent last)\n\n" + history_text
        )
    bindings = {
        "qa_correct_answer": _format_feedback_entries(correct_part),
        "qa_incorrect_answer": incorrect_text,
    }
    [edits] = ask(gateway, "p_u", [bindings], parse_relation_edits)
    applied = rejected = skipped = 0
    if isinstance(edits, CamaError):
        logger.warning("update call failed, keeping graph unchanged: %s", edits)
    else:
        g, applied, rejected, skipped = apply_relation_edits(g, edits)
    return g, {
        "precision": precision,
        "edits_applied": applied,
        "edits_rejected": rejected,
        "edits_skipped": skipped,
    }


def _subset_precision(g: Mcg, subset: list[QaRecord], gateway: ChatClient) -> float:
    outcomes = answer_questions(g, subset, gateway)
    return sum(o.correct for o in outcomes) / len(subset)


def align(
    g0: Mcg,
    dataset: list[QaRecord],
    cfg: AlignmentConfig,
    gateway: ChatClient,
) -> tuple[Mcg, AlignmentReport]:
    """Batch-iterate graph updates and return the best epoch graph.

    The alignment subset is sampled once. Every round appends the
    pre-update graph's relations text and its batch precision to the
    history, which keeps the last r rounds. The whole optimization stops
    early once the graph survives c_stop consecutive rounds unchanged; each
    epoch ends with a full-subset evaluation and the argmax epoch graph
    (earliest on ties) wins.
    """
    if not dataset:
        raise EmptyDataset("alignment requires a non-empty dataset")
    rng = random.Random(cfg.seed)
    subset = rng.sample(dataset, len(dataset) if cfg.m is None else cfg.m)
    report = AlignmentReport(subset_ids=[r.id for r in subset])

    g = g0
    best, best_precision, best_epoch = g0, 0.0, None
    history: deque[tuple[str, float]] = deque(maxlen=cfg.r)
    unchanged_streak = 0
    round_index = 0
    stopped_early = False

    for epoch in range(1, cfg.n_e + 1):
        order = list(subset)
        rng.shuffle(order)
        for start in range(0, len(order), cfg.s_b):
            batch = order[start : start + cfg.s_b]
            round_index += 1
            new_g, row = run_alignment_round(g, batch, history, gateway)
            # the round answered with g, so its verbalization is cached
            history.append((verbalize(g).relations or "(none)", row["precision"]))
            changed = not graphs_equal(new_g, g)
            unchanged_streak = 0 if changed else unchanged_streak + 1
            g = new_g
            report.rounds.append({"round": round_index, "epoch": epoch, **row, "changed": changed})
            if unchanged_streak >= cfg.c_stop:
                stopped_early = True
                break

        epoch_precision = _subset_precision(g, subset, gateway)
        report.epoch_evals.append({"epoch": epoch, "precision": epoch_precision})
        if epoch_precision > best_precision:
            best, best_precision, best_epoch = g, epoch_precision, epoch
        if stopped_early:
            break

    report.best_epoch = best_epoch
    report.best_precision = best_precision
    report.stop_reason = "early_stop" if stopped_early else "completed"
    return best, report


# --- pipeline persistence ------------------------------------------------------


def run_learn_pipeline(
    dataset: list[QaRecord],
    gateway: ChatClient,
    run_dir: str | Path,
    *,
    granularity: int = DEFAULT_GRANULARITY,
    alpha: float = DEFAULT_ALPHA,
    max_cond_size: int = DEFAULT_MAX_COND_SIZE,
    align_cfg: AlignmentConfig = AlignmentConfig(),
) -> tuple[Mcg, Mcg, AlignmentReport]:
    """Extraction through alignment, persisting every intermediate artifact."""
    # an alignment subset larger than the dataset fails before any model call
    if align_cfg.m is not None and align_cfg.m > len(dataset):
        raise ConfigError(f"alignment.m = {align_cfg.m} exceeds dataset size {len(dataset)}")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    records = extract_all(dataset, granularity, gateway)
    points = lambda rec: [{"key": p.key, "description": p.description} for p in rec.points]
    lines = (json_line({"qa_id": rec.qa_id, "points": points(rec)}) + "\n" for rec in records)
    write_atomic(run_dir / "extraction.jsonl", "".join(lines))

    canonical, replacements = deduplicate(records, gateway)
    write_json(
        run_dir / "canonical_points.json",
        {
            "points": [{"key": p.key, "description": p.description} for p in canonical],
            "replacements": dict(sorted(replacements.pairs.items())),
        },
    )

    z = build_incidence_matrix(records, canonical, replacements)
    z.save_csv(run_dir / "incidence.csv")

    g_init = discover_cpdag(z, alpha=alpha, max_cond_size=max_cond_size)
    save_graph(g_init, run_dir / "graph_initial.json")

    g_best, report = align(g_init, dataset, align_cfg, gateway)
    save_graph(g_best, run_dir / "graph_best.json")
    write_json(run_dir / "alignment_report.json", report.to_dict())
    return g_init, g_best, report
