import gc
import itertools
import json
import logging
import threading
import time
from collections import deque

import pytest

from conftest import make_corpus
from fake_llm import FakeLlm

import cama.reasoning
from cama.client import ChatRequest, HttpChatClient, RecordingClient, ScriptedChatClient
from cama.errors import EmptyTestSet, TransportError
from cama.graph import Mcg, Verbalization, extract_subgraph, graphs_equal, verbalize
from cama.learning import ExtractionRecord, deduplicate, run_alignment_round
from cama.model import KnowledgePoint, QaRecord, ReplacementMap
from cama.reasoning import answer_question, answer_questions, evaluate, judge_exact


def guided_graph() -> Mcg:
    nodes = (
        KnowledgePoint("alpha", "first concept"),
        KnowledgePoint("beta", "second concept"),
        KnowledgePoint("gamma", "third concept"),
    )
    return Mcg(nodes=nodes, directed={(0, 1)}, undirected={(1, 2)})


class TestJudgeExact:
    def test_plain_match(self):
        assert judge_exact("211", "211")

    def test_leading_zeros_forgiven(self):
        assert judge_exact("042", "42")

    def test_thousands_separators_forgiven(self):
        assert judge_exact("1,234", "1234")

    def test_decimal_trailing_zero(self):
        assert judge_exact("0.50", "0.5")

    def test_fraction_not_equivalent_to_decimal(self):
        assert not judge_exact("1/2", "0.5")

    def test_string_fallback_case_insensitive(self):
        assert judge_exact("  No Solution ", "no solution")

    def test_numeric_vs_text_differs(self):
        assert not judge_exact("42", "forty-two")

    def test_sign_handling(self):
        assert judge_exact("-7", "-7")
        assert not judge_exact("-7", "7")


class TestAnswerQuestion:
    def record(self, kps=("alpha", "beta")):
        return make_corpus([("q01", 20, 3, list(kps))])[0]

    def test_full_pipeline_correct(self, fake_llm):
        outcome = answer_question(guided_graph(), self.record(), fake_llm)
        assert outcome.correct and not outcome.failed
        assert outcome.parsed_answer == "23"
        assert outcome.chosen == {0, 1}
        assert outcome.view == verbalize(extract_subgraph(guided_graph(), {0, 1}))

    def test_subgraph_relations_injected(self, fake_llm):
        answer_question(guided_graph(), self.record(), fake_llm)
        answer_prompt = fake_llm.prompts("p_a")[0]
        assert "alpha is a prerequisite for beta" in answer_prompt
        # gamma not chosen: its undirected edge must not leak into the prompt
        assert "gamma" not in answer_prompt

    def test_empty_graph_degenerates_to_plain_prompting(self, fake_llm):
        outcome = answer_question(Mcg(nodes=()), self.record(kps=()), fake_llm)
        assert outcome.chosen == frozenset()
        prompt = fake_llm.prompts("p_a")[0]
        elements_section = prompt.split("# Elements to Consider:")[1].split("# Relationship")[0]
        relations_section = prompt.split("# Relationship(s) Among Element(s):")[1].split("# Task")[0]
        assert elements_section.strip() == ""
        assert relations_section.strip() == ""
        assert "is a prerequisite for" not in prompt

    def test_missing_answer_tag_marks_failed(self):
        class NoAnswer(FakeLlm):
            def _answer(self, prompt):
                return "I refuse to use tags."

        outcome = answer_question(guided_graph(), self.record(), NoAnswer())
        assert outcome.failed and not outcome.correct
        assert outcome.failure.startswith("ReplyError: ")
        assert outcome.raw_answer == "I refuse to use tags."

    def test_transport_failure_marks_failed(self):
        class Dead:
            def complete(self, request: ChatRequest) -> str:
                raise TransportError("socket closed")

        outcome = answer_question(guided_graph(), self.record(), Dead())
        assert outcome.failed and not outcome.correct

    def test_empty_subgraph_only_for_questions_failing_before_p_a(self, monkeypatch):
        views = []

        def counting(g, selected=None):
            if selected is not None:
                views.append(tuple(selected))
            return verbalize(g, selected)

        monkeypatch.setattr(cama.reasoning, "verbalize", counting)
        records = make_corpus([(f"q{i:02d}", i, i + 1, ["alpha"]) for i in range(4)])
        outcomes = answer_questions(guided_graph(), records, FakeLlm())
        assert not any(o.failed for o in outcomes)
        assert views == [(0,)] * 4  # one per answered question, no empty default

        class NoMatchForOdd(FakeLlm):
            def _match(self, prompt):
                if "Problem q01:" in prompt or "Problem q03:" in prompt:
                    return "no factor list here"
                return super()._match(prompt)

        views.clear()
        outcomes = answer_questions(guided_graph(), records, NoMatchForOdd())
        assert views == [(0,)] * 2  # the failed questions get no view
        assert [o.failed for o in outcomes] == [False, True, False, True]
        for o in outcomes[1::2]:
            assert o.chosen == frozenset() and o.view == Verbalization("", "")
        assert outcomes[0].view == verbalize(extract_subgraph(guided_graph(), {0}))

    def test_answering_builds_no_graph(self, monkeypatch):
        g = guided_graph()
        records = make_corpus(
            [(f"q{i:02d}", i, i + 1, ["alpha", "beta", "gamma"][: i % 3 + 1]) for i in range(6)]
        )
        built = []
        check = Mcg.__post_init__

        def counting_check(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Mcg, "__post_init__", counting_check)
        outcomes = answer_questions(g, records, FakeLlm())
        assert built == []
        assert all(o.correct for o in outcomes)
        for o in outcomes:
            assert o.view == verbalize(extract_subgraph(g, o.chosen))
        assert {len(o.chosen) for o in outcomes} == {1, 2, 3}

    def test_no_ground_truth_never_correct(self, fake_llm):
        record = QaRecord(id="adhoc", question="Problem adhoc: compute 1 + 1. [kps: alpha]")
        outcome = answer_question(guided_graph(), record, fake_llm)
        assert not outcome.correct and not outcome.failed
        assert outcome.parsed_answer == "2"


class TestHighIndexFactorCase:
    def test_factors_1_and_16_guide_to_211(self):
        """Scripted three-step run choosing elements 1 and 16 of a 20-node graph."""
        from cama.client import ChatRequest, ScriptedChatClient, TranscriptEntry, prompt_sha256
        from cama.graph import verbalize
        from cama.templates import render_template

        nodes = [KnowledgePoint(f"concept {i:02d}", f"description {i}") for i in range(20)]
        nodes[0] = KnowledgePoint("quadratic polynomial systems", "solving polynomial systems")
        nodes[15] = KnowledgePoint("modular arithmetic for integer solutions", "congruence reasoning")
        g = Mcg(nodes=tuple(nodes), directed={(15, 0)})
        record = QaRecord(id="contest-14", question="Find the least b with the required property.", answer="211")

        trace = "<think>needs congruences and quadratics</think><answer>plan</answer>"
        p_t = render_template("p_t", {"question": record.question})
        p_m = render_template(
            "p_m",
            {
                "question_think": f"{record.question}\n\n{trace}",
                "knowledge_point_descriptions": verbalize(g).elements,
            },
        )
        sub = verbalize(extract_subgraph(g, {0, 15}))
        p_a = render_template(
            "p_a",
            {
                "question": record.question,
                "chosen_knowledge_points": sub.elements,
                "knowledge_point_relations": sub.relations,
            },
        )
        entry = lambda tag, prompt, resp: TranscriptEntry(tag, prompt_sha256(prompt), resp)
        client = ScriptedChatClient(
            [
                entry("p_t", p_t, trace),
                entry("p_m", p_m, "**The chosen factors are: [1, 16].**"),
                entry("p_a", p_a, "<think>derive</think><answer>The answer is: 211.</answer>"),
            ]
        )

        outcome = answer_question(g, record, client)
        assert outcome.correct
        assert outcome.chosen == {0, 15}
        assert outcome.parsed_answer == "211"
        # prerequisite direction survives into the prompt
        assert (
            "modular arithmetic for integer solutions is a prerequisite for "
            "quadratic polynomial systems" in p_a
        )
        assert client.pending() == 0


class TestEvaluate:
    def test_half_correct(self):
        corpus = make_corpus(
            [("q01", 1, 1, ["alpha"]), ("q02", 2, 2, ["alpha"]),
             ("q03", 3, 3, ["alpha"]), ("q04", 4, 4, ["alpha"])]
        )
        llm = FakeLlm(wrong_ids={"q02", "q04"})
        report = evaluate(guided_graph(), corpus, llm, repetitions=1)
        assert report.pass_at_1 == 0.5
        assert report.correct_cells == 2 and report.total_cells == 4

    def test_all_correct(self, small_corpus, fake_llm):
        report = evaluate(guided_graph(), small_corpus, fake_llm)
        assert report.pass_at_1 == 1.0

    def test_thirty_questions_three_reps_hand_count(self):
        spec = [(f"q{i:02d}", i, 2 * i + 1, ["alpha"]) for i in range(30)]
        corpus = make_corpus(spec)
        wrong = {f"q{i:02d}" for i in range(0, 30, 5)}  # 6 wrong ids
        llm = FakeLlm(wrong_ids=wrong)
        report = evaluate(guided_graph(), corpus, llm, repetitions=3)
        # hand count: 24 correct questions x 3 reps = 72 of 90 cells
        assert report.total_cells == 90
        assert report.correct_cells == 72
        assert report.pass_at_1 == pytest.approx(72 / 90, abs=1e-12)

    def test_matched_stats(self):
        corpus = make_corpus(
            [("q01", 1, 1, ["alpha", "beta"]), ("q02", 2, 2, [])]
        )
        report = evaluate(guided_graph(), corpus, FakeLlm(), repetitions=1)
        assert report.matched_fraction == 0.5
        assert report.mean_matched == 2.0

    def test_empty_test_set(self, fake_llm):
        with pytest.raises(EmptyTestSet):
            evaluate(guided_graph(), [], fake_llm)

    def test_report_serializable(self, small_corpus, fake_llm):
        import json

        report = evaluate(guided_graph(), small_corpus, fake_llm)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["n"] == 4
        assert doc["matched_stats"]["matched_fraction"] == 1.0


def endpoint_client(refuse=lambda tag, prompt: False):
    """HttpChatClient over an in-process endpoint that answers like FakeLlm,
    except for p_m: it picks one factor from a shared draw counter, and the
    first caller of each p_m prompt is delayed, so identical prompts complete
    out of request order and get different replies. The connection drops
    on every request that ``refuse`` names."""
    fake = FakeLlm()
    lock = threading.Lock()
    seen: set[str] = set()
    draws = itertools.count()

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        tag = "p_m" if prompt.startswith("# Problem") else (
            "p_a" if prompt.startswith("# Question:") else "p_t"
        )
        if refuse(tag, prompt):
            raise TransportError("socket closed")
        if tag != "p_m":
            reply = fake.complete(ChatRequest(prompt=prompt, tag=tag))
        else:
            with lock:
                first = prompt not in seen
                seen.add(prompt)
            time.sleep(0.03 if first else 0.0)
            with lock:
                reply = f"**The chosen factors are: [{1 + next(draws) % 3}].**"
        return 200, json.dumps({"choices": [{"message": {"content": reply}}]})

    return HttpChatClient(
        api_base="http://api.test", model="m", transport=transport, sleeper=lambda s: None
    )


class TestFanOut:
    def corpus(self):
        return make_corpus([(f"q{i:02d}", i, i, ["alpha"]) for i in range(6)])

    def test_record_then_replay_with_repetitions(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorded = evaluate(
            guided_graph(), self.corpus(), RecordingClient(endpoint_client(), path),
            repetitions=2,
        )
        replay = ScriptedChatClient.from_file(path)
        replayed = evaluate(guided_graph(), self.corpus(), replay, repetitions=2)
        assert replayed == recorded
        assert replay.pending() == 0

    def test_one_failed_request_fails_only_its_cell(self):
        client = endpoint_client(lambda tag, prompt: tag == "p_a" and "Problem q03:" in prompt)
        report = evaluate(guided_graph(), self.corpus(), client, repetitions=1)
        failed = [c for c in report.per_question if c["failed"]]
        assert [c["qa_id"] for c in failed] == ["q03"]
        assert failed[0]["failure"] == "TransportError: socket closed"
        assert failed[0]["chosen"]  # the earlier steps of that cell succeeded
        assert report.total_cells - report.correct_cells == 1

    def test_failed_calls_leave_no_reference_cycles(self, caplog):
        # a failure kept with its traceback ties up the frames it passed
        # through until a full collection runs; captured log records would
        # keep such cycles reachable, so none are made
        caplog.set_level(logging.CRITICAL)
        no_match = lambda tag, prompt: tag == "p_m"
        evaluate(guided_graph(), self.corpus(), endpoint_client(no_match), repetitions=2)
        gc.collect()
        gc.disable()
        try:
            report = evaluate(
                guided_graph(), self.corpus(), endpoint_client(no_match), repetitions=2
            )
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert all(c["failed"] for c in report.per_question)

    def test_failed_single_call_leaves_no_reference_cycle(self, tmp_path, caplog):
        # a single call raises the error of the last retry straight from
        # HttpChatClient.complete
        caplog.set_level(logging.CRITICAL)
        request = ChatRequest(prompt="q01", tag="p_t")
        refuse_all = endpoint_client(lambda tag, prompt: True)
        clients = (refuse_all, RecordingClient(refuse_all, tmp_path / "t.jsonl"))

        def fail(client) -> str:
            try:
                client.complete(request)
            except TransportError as e:
                return str(e)
            return "no error"

        gc.collect()
        gc.disable()
        try:
            assert [fail(c) for c in clients] == ["socket closed"] * 2
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_refused_dedup_and_update_degrade_without_reference_cycles(self, tmp_path, caplog):
        # dedup and update are batches of one whose returned error is
        # logged, never raised again
        caplog.set_level(logging.CRITICAL)
        refuse_all = endpoint_client(lambda tag, prompt: True)
        clients = (refuse_all, RecordingClient(refuse_all, tmp_path / "t.jsonl"))
        points = (KnowledgePoint("alpha", "first"), KnowledgePoint("beta", "second"))
        records = [ExtractionRecord(qa_id="q01", points=points)]
        g = guided_graph()

        gc.collect()
        gc.disable()
        try:
            for client in clients:
                assert deduplicate(records, client) == (list(points), ReplacementMap())
                new_g, row = run_alignment_round(g, self.corpus()[:2], deque(), client)
                assert new_g is g and row["edits_applied"] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
