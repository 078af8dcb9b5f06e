"""Every LLM step has one fallback, reached the same way whether its call
fails or its reply does not parse: the same result, the same warning and
no reference cycle."""

import gc
import logging
from collections import deque

import pytest

from conftest import make_corpus
from fake_llm import FakeLlm, update_response

from cama.errors import ReplyError, TransportError
from cama.graph import Mcg
from cama.learning import (
    ExtractionRecord,
    build_dataset,
    deduplicate,
    extract_all,
    run_alignment_round,
)
from cama.model import KnowledgePoint, QaRecord, ReplacementMap
from cama.reasoning import answer_question

POINTS = (
    KnowledgePoint("alpha", "first"),
    KnowledgePoint("beta", "second"),
    KnowledgePoint("gamma", "third"),
)
DEDUP = (
    "<answer>**Removed Knowledge Points:**\n[**beta**]\n\n"
    "**Replacement Details:**\n[**alpha** can replace **beta**]</answer>"
)
UNKNOWN_TARGET = DEDUP.replace("**alpha** can", "**made up** can")


def corpus() -> list[QaRecord]:
    return make_corpus([("q01", 1, 2, ["alpha"]), ("q02", 3, 4, ["beta", "gamma"])])


def graph() -> Mcg:
    return Mcg(nodes=POINTS, directed={(0, 1)})


class FailOnce(FakeLlm):
    """FakeLlm with a working dedup and update, except that the first
    request of ``tag`` fails: its call raises (``how="call"``), or its reply
    is ``how`` itself, which the step does not accept. ``how=None`` fails
    nothing."""

    def __init__(self, tag: str, how: str | None):
        update = update_response("**alpha** is prerequisite of **gamma**.")
        super().__init__(dedup_response=DEDUP, update_responses=[update])
        self.tag, self.how = tag, how

    def complete(self, request) -> str:
        if request.tag != self.tag or self.how is None:
            return super().complete(request)
        how, self.how = self.how, None
        if how == "call":
            raise TransportError("socket closed")
        return how


def drop_generation(client):
    bare = [QaRecord(id=r.id, question=r.question, answer=r.answer) for r in corpus()]
    return [r.id for r in build_dataset(bare, client)]


def extract_nothing(client):
    return [len(r.points) for r in extract_all(corpus(), 3, client)]


def dedup_identity(client):
    records = [ExtractionRecord("q01", POINTS[:2]), ExtractionRecord("q02", POINTS[1:])]
    return deduplicate(records, client)


def keep_graph(client):
    g = graph()
    new_g, row = run_alignment_round(g, corpus(), deque(), client)
    return new_g is g, row["edits_applied"]


def fail_question(client):
    outcome = answer_question(graph(), corpus()[0], client)
    return outcome.failed, outcome.correct, outcome.parsed_answer


# tag -> (the step that sends it, its fallback, the warning it logs)
STEPS = {
    "p_g": (drop_generation, ["q02"], "dropping %s: generation failed (%s)"),
    "p_p": (extract_nothing, [0, 2], "extraction failed for %s: %s"),
    "p_r": (dedup_identity, (list(POINTS), ReplacementMap()),
            "deduplication degraded to identity: %s"),
    "p_u": (keep_graph, (True, 0), "update call failed, keeping graph unchanged: %s"),
    "p_t": (fail_question, (True, False, ""), "question %s failed: %s"),
    "p_m": (fail_question, (True, False, ""), "question %s failed: %s"),
    "p_a": (fail_question, (True, False, ""), "question %s failed: %s"),
}
# an empty reply parses for no step but the trace, whose reply is kept whole
CASES = [pytest.param(tag, "call", id=f"{tag}-call") for tag in STEPS]
CASES += [pytest.param(tag, "", id=f"{tag}-parse") for tag in STEPS if tag != "p_t"]
CASES.append(pytest.param("p_r", UNKNOWN_TARGET, id="p_r-unknown-target"))


class _Formats(logging.Handler):
    """Keeps the format string of each record and drops the record, whose
    arguments hold the error: a kept error would keep any reference cycle
    through it reachable, and hide it from the collector."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.formats: list[str] = []

    def emit(self, record):
        self.formats.append(str(record.msg))


@pytest.fixture
def warnings_logged():
    log = logging.getLogger("cama")
    handler, level, propagate = _Formats(), log.level, log.propagate
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    log.propagate = False
    try:
        yield handler.formats
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate


@pytest.mark.parametrize("tag, how", CASES)
def test_failed_step_degrades_to_its_fallback(tag, how, warnings_logged):
    step, fallback, warning = STEPS[tag]
    assert step(FailOnce(tag, None)) != fallback
    assert warnings_logged == []
    step(FailOnce(tag, how))  # warm-up: first-use caches are not garbage
    warnings_logged.clear()
    gc.collect()
    gc.disable()
    try:
        assert step(FailOnce(tag, how)) == fallback
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert warnings_logged == [warning]


def test_unknown_dedup_target_is_a_reply_error(caplog):
    with caplog.at_level(logging.WARNING, logger="cama.learning"):
        assert dedup_identity(FailOnce("p_r", UNKNOWN_TARGET)) == STEPS["p_r"][1]
    [record] = caplog.records
    [error] = record.args
    assert isinstance(error, ReplyError)
    assert str(error) == "replacement target 'made up' is not an extracted point"
