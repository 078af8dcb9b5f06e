"""Graph-guided answering and the evaluation harness.

A question is answered in three steps: generate a reasoning trace, let
the model pick the relevant knowledge points from the verbalized graph,
then answer with the verbalized subgraph those points induce injected into
the prompt. Each step is one ``client.ask`` batch over the questions still
standing. Failures at any step produce a failed (incorrect) outcome
instead of aborting.
"""

from __future__ import annotations

import decimal
import logging
import re
from dataclasses import dataclass, field

from .client import ChatClient, ask
from .errors import CamaError, EmptyTestSet
from .graph import Mcg, Verbalization, verbalize
from .model import QaRecord
from .parsers import parse_answer, parse_chosen_factors

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReasoningOutcome:
    """One answered question. ``view`` is the verbalized subgraph induced by
    the ``chosen`` node indices, as text the answer prompt carried: it is
    ``verbalize(g, chosen)``, cut from the whole graph's cached lines, and
    equal to ``verbalize(extract_subgraph(g, chosen))``. A question that
    failed before that prompt has no ``chosen`` and ``Verbalization("", "")``."""

    qa_id: str
    trace: str
    chosen: frozenset[int]
    view: Verbalization
    raw_answer: str
    parsed_answer: str
    correct: bool
    failed: bool = False
    failure: str | None = None

    def summary(self) -> dict:
        return {
            "qa_id": self.qa_id,
            "chosen": sorted(self.chosen),
            "matched_points": len(self.chosen),
            "parsed_answer": self.parsed_answer,
            "correct": self.correct,
            "failed": self.failed,
            "failure": self.failure,
        }


@dataclass(frozen=True)
class EvalReport:
    n: int
    repetitions: int
    correct_cells: int
    total_cells: int
    pass_at_1: float
    matched_fraction: float
    mean_matched: float
    per_question: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "repetitions": self.repetitions,
            "correct_cells": self.correct_cells,
            "total_cells": self.total_cells,
            "pass_at_1": self.pass_at_1,
            "matched_stats": {
                "matched_fraction": self.matched_fraction,
                "mean_matched": self.mean_matched,
            },
            "per_question": list(self.per_question),
        }


_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?")


def _canonical_number(text: str) -> decimal.Decimal | None:
    cleaned = text.strip().replace(",", "")
    if not _NUMBER.fullmatch(cleaned):
        return None
    try:
        return decimal.Decimal(cleaned)
    except decimal.InvalidOperation:
        return None


def judge_exact(predicted: str, truth: str) -> bool:
    """Strict equality after canonicalization.

    Numeric answers compare as exact decimals (so leading zeros and
    thousands separators are forgiven); everything else compares as
    case-folded, whitespace-collapsed strings. No symbolic equivalence.
    """
    p_num, t_num = _canonical_number(predicted), _canonical_number(truth)
    if p_num is not None and t_num is not None:
        return p_num == t_num
    norm = lambda s: re.sub(r"\s+", " ", s).strip().casefold()
    return norm(predicted) == norm(truth)


def _format_question_think(question: str, trace: str) -> str:
    return f"{question}\n\n{trace}"


def answer_questions(
    g: Mcg,
    records: list[QaRecord],
    gateway: ChatClient,
) -> list[ReasoningOutcome]:
    """Run the trace / subgraph-match / answer pipeline for each question.

    Questions are independent, so each step is sent as one batch for all
    questions still standing; a question that fails a step sends no
    further calls. Outcomes come back in record order.
    """
    failures: dict[int, str] = {}

    def fail(i: int, error: CamaError) -> None:
        logger.warning("question %s failed: %s", records[i].id, error)
        failures[i] = f"{type(error).__name__}: {error}"

    def step(tag: str, bindings_by_index: dict[int, dict[str, str]], parse=str) -> dict:
        results = ask(gateway, tag, list(bindings_by_index.values()), parse)
        kept = {}
        for i, result in zip(bindings_by_index, results):
            if isinstance(result, CamaError):
                fail(i, result)
            else:
                kept[i] = result
        return kept

    traces = step("p_t", {i: {"question": q.question} for i, q in enumerate(records)})
    elements = verbalize(g).elements
    chosen: dict[int, frozenset[int]] = step(
        "p_m",
        {
            i: {
                "question_think": _format_question_think(records[i].question, trace),
                "knowledge_point_descriptions": elements,
            }
            for i, trace in traces.items()
        },
        lambda reply: frozenset(parse_chosen_factors(reply, g.k)),
    )
    views = {i: verbalize(g, c) for i, c in chosen.items()}
    raw_answers = step(
        "p_a",
        {
            i: {
                "question": records[i].question,
                "chosen_knowledge_points": view.elements,
                "knowledge_point_relations": view.relations,
            }
            for i, view in views.items()
        },
    )
    parsed = {}
    for i, raw in raw_answers.items():
        try:
            parsed[i] = parse_answer(raw).answer
        except CamaError as e:
            fail(i, e)

    return [
        ReasoningOutcome(
            qa_id=q.id,
            trace=traces.get(i, ""),
            chosen=chosen.get(i, frozenset()),
            view=views.get(i, Verbalization("", "")),
            raw_answer=raw_answers.get(i, ""),
            parsed_answer=parsed.get(i, ""),
            correct=i in parsed and bool(q.answer) and judge_exact(parsed[i], q.answer),
            failed=i in failures,
            failure=failures.get(i),
        )
        for i, q in enumerate(records)
    ]


def answer_question(g: Mcg, q: QaRecord, gateway: ChatClient) -> ReasoningOutcome:
    """Run the trace / subgraph-match / answer pipeline for one question."""
    return answer_questions(g, [q], gateway)[0]


def evaluate(
    g: Mcg,
    test: list[QaRecord],
    gateway: ChatClient,
    repetitions: int = 1,
) -> EvalReport:
    """Pass@1 over all (question, repetition) cells, plus match statistics."""
    if not test:
        raise EmptyTestSet("evaluation requested over zero questions")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    cells = [record for record in test for _ in range(repetitions)]
    outcomes = answer_questions(g, cells, gateway)
    total = len(outcomes)
    correct = sum(1 for o in outcomes if o.correct)
    matched = [len(o.chosen) for o in outcomes if o.chosen]
    per_question = tuple(
        {"repetition": i % repetitions, **o.summary()} for i, o in enumerate(outcomes)
    )
    return EvalReport(
        n=len(test),
        repetitions=repetitions,
        correct_cells=correct,
        total_cells=total,
        pass_at_1=correct / total,
        matched_fraction=len(matched) / total,
        mean_matched=sum(matched) / len(matched) if matched else 0.0,
        per_question=per_question,
    )
