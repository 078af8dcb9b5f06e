import logging
import re
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from conftest import make_corpus
from fake_llm import FakeLlm, parse_marked_kps, update_response

from cama.client import ChatRequest
from cama.errors import EmptyDataset, ParseError, TransportError
from cama.graph import Mcg, extract_subgraph, graphs_equal, topological_order, verbalize
from cama.learning import (
    AlignmentConfig,
    ExtractionRecord,
    align,
    apply_relation_edits,
    build_dataset,
    build_incidence_matrix,
    deduplicate,
    extract_all,
    run_alignment_round,
    union_points,
)
from cama.model import KnowledgePoint, QaRecord, ReplacementMap
from cama.parsers import RelationEdit


def kp(key, desc="") -> KnowledgePoint:
    return KnowledgePoint(key, desc or f"about {key}")


def alignment_graph() -> Mcg:
    return Mcg(nodes=(kp("alpha"), kp("beta"), kp("gamma")))


class TestBuildDataset:
    def records(self):
        return [
            QaRecord(id=r.id, question=r.question, answer=r.answer)
            for r in make_corpus(
                [("q01", 1, 2, ["alpha"]), ("q02", 3, 4, ["beta"]), ("q03", 5, 6, ["gamma"])]
            )
        ]

    def test_correct_answer_retained_with_solution(self):
        llm = FakeLlm()
        dataset = build_dataset(self.records(), llm)
        assert len(dataset) == 3
        assert all(r.solution for r in dataset)
        assert "[kps: alpha]" in dataset[0].solution

    def test_wrong_answer_dropped(self):
        llm = FakeLlm(wrong_ids={"q02"})
        dataset = build_dataset(self.records(), llm)
        assert [r.id for r in dataset] == ["q01", "q03"]

    def test_seven_of_ten_retained(self):
        spec = [(f"q{i:02d}", i, i + 1, ["alpha"]) for i in range(10)]
        records = [
            QaRecord(id=r.id, question=r.question, answer=r.answer)
            for r in make_corpus(spec)
        ]
        llm = FakeLlm(wrong_ids={"q01", "q04", "q08"})
        assert len(build_dataset(records, llm)) == 7

    def test_all_wrong_raises_empty(self):
        llm = FakeLlm(wrong_ids={"q01", "q02", "q03"})
        with pytest.raises(EmptyDataset):
            build_dataset(self.records(), llm)

    def test_existing_solution_rejected(self):
        solved = make_corpus([("q01", 1, 2, ["alpha"])])
        with pytest.raises(ParseError, match="record 'q01' already has a solution"):
            build_dataset(solved, FakeLlm())


class TestExtractAll:
    def test_per_pair_records(self, small_corpus, fake_llm):
        records = extract_all(small_corpus, 3, fake_llm)
        assert [r.qa_id for r in records] == ["q01", "q02", "q03", "q04"]
        assert [p.key for p in records[0].points] == ["alpha", "beta"]
        assert [p.key for p in records[2].points] == ["beta", "gamma"]

    def test_truncation_at_granularity(self, fake_llm):
        corpus = make_corpus([("q01", 1, 1, ["a", "b", "c", "d", "e"])])
        records = extract_all(corpus, 3, fake_llm)
        assert len(records[0].points) == 3

    def test_empty_corpus(self, fake_llm):
        assert extract_all([], 3, fake_llm) == []

    def test_each_call_is_independent(self, small_corpus, fake_llm):
        extract_all(small_corpus, 3, fake_llm)
        prompts = fake_llm.prompts("p_p")
        assert len(prompts) == 4
        # no cross-question leakage: each prompt carries exactly its own question
        assert sum("Problem q01:" in p for p in prompts) == 1

    def test_failed_extractions_degrade_to_empty_rows(self, small_corpus, fake_llm, caplog):
        class Degrading:
            """q02's reply has no point lines; q03's request fails."""

            def complete(self, request: ChatRequest) -> str:
                if "Problem q03:" in request.prompt:
                    raise TransportError("extraction endpoint down")
                if "Problem q02:" in request.prompt:
                    return "Part 3: Final Output.\n\nnothing here"
                return fake_llm.complete(request)

        with caplog.at_level(logging.WARNING, logger="cama.learning"):
            records = extract_all(small_corpus, 3, Degrading())
        intact = extract_all(small_corpus, 3, FakeLlm())
        assert [r.qa_id for r in records] == ["q01", "q02", "q03", "q04"]
        assert records[1].points == () and records[2].points == ()
        assert records[0] == intact[0] and records[3] == intact[3]
        warned = [r.getMessage() for r in caplog.records]
        assert any("q02" in m and "no knowledge-point lines" in m for m in warned)
        assert any("q03" in m and "extraction endpoint down" in m for m in warned)

        canonical, replacements = deduplicate(records, fake_llm)
        z = build_incidence_matrix(records, canonical, replacements)
        assert z.row_ids == ("q01", "q02", "q03", "q04")
        assert not z.cells[1].any() and not z.cells[2].any()
        assert z.cells[0].any() and z.cells[3].any()


class TestDeduplicate:
    def extraction(self):
        return [
            ExtractionRecord("q01", (kp("sum notation"), kp("integer addition"))),
            ExtractionRecord("q02", (kp("integer addition"),)),
            ExtractionRecord("q03", (kp("carrying"),)),
        ]

    def test_union_deduplicates_before_call(self, fake_llm):
        records = [
            ExtractionRecord("q01", (kp("alpha"),)),
            ExtractionRecord("q02", (kp("Alpha"),)),  # same key post-normalization
        ]
        canonical, _ = deduplicate(records, fake_llm)
        assert [p.key for p in canonical] == ["alpha"]
        listing = fake_llm.prompts("p_r")[0]
        assert listing.count("**alpha**") == 1

    def test_removal_applied(self):
        llm = FakeLlm(
            dedup_response=(
                "<answer>**Removed Knowledge Points:**\n[**sum notation**]\n\n"
                "**Replacement Details:**\n"
                "[**integer addition** can replace **sum notation**]</answer>"
            )
        )
        canonical, repl = deduplicate(self.extraction(), llm)
        assert [p.key for p in canonical] == ["integer addition", "carrying"]
        assert repl.pairs == {"sum notation": "integer addition"}

    def test_six_to_four_fixture(self):
        records = [
            ExtractionRecord("q01", (kp("a"), kp("b"), kp("c"))),
            ExtractionRecord("q02", (kp("d"), kp("e"), kp("f"))),
        ]
        llm = FakeLlm(
            dedup_response=(
                "<answer>**Removed Knowledge Points:**\n[**b**, **f**]\n\n"
                "**Replacement Details:**\n"
                "[**a** can replace **b**,\n **d** can replace **f**]</answer>"
            )
        )
        canonical, repl = deduplicate(records, llm)
        assert len(canonical) == 4
        assert repl.pairs == {"b": "a", "f": "d"}

    def test_unparseable_degrades_to_identity(self):
        llm = FakeLlm(dedup_response="<answer>I decline to answer.</answer>")
        canonical, repl = deduplicate(self.extraction(), llm)
        assert [p.key for p in canonical] == [
            "sum notation", "integer addition", "carrying",
        ]
        assert repl.pairs == {}

    def test_unknown_target_degrades_to_identity(self):
        llm = FakeLlm(
            dedup_response=(
                "<answer>**Removed Knowledge Points:**\n[**carrying**]\n\n"
                "**Replacement Details:**\n"
                "[**made up point** can replace **carrying**]</answer>"
            )
        )
        canonical, repl = deduplicate(self.extraction(), llm)
        assert len(canonical) == 3 and repl.pairs == {}

    def test_empty_union_skips_call(self, fake_llm):
        canonical, repl = deduplicate([ExtractionRecord("q01", ())], fake_llm)
        assert canonical == [] and repl.pairs == {}
        assert fake_llm.prompts("p_r") == []


class TestBuildIncidenceMatrix:
    def test_direct_membership_row(self):
        records = [ExtractionRecord("q01", (kp("area"), kp("volume cylinder")))]
        canonical = [kp("area"), kp("volume cylinder"), kp("volume cone")]
        z = build_incidence_matrix(records, canonical, ReplacementMap())
        assert z.cells.tolist() == [[1, 1, 0]]
        assert z.row_ids == ("q01",)
        assert z.col_keys == ("area", "volume cylinder", "volume cone")

    def test_replacement_sets_target_column(self):
        records = [ExtractionRecord("q01", (kp("circle surface"),))]
        canonical = [kp("area")]
        z = build_incidence_matrix(
            records, canonical, ReplacementMap({"circle surface": "area"})
        )
        assert z.cells.tolist() == [[1]]

    def test_three_question_fork_matrix_hand_checked(self):
        # area appears everywhere, each volume in its own question
        records = [
            ExtractionRecord("q01", (kp("area"), kp("volume cylinder"))),
            ExtractionRecord("q02", (kp("area"), kp("volume cone"))),
            ExtractionRecord("q03", (kp("area"),)),
        ]
        canonical = [kp("area"), kp("volume cylinder"), kp("volume cone")]
        z = build_incidence_matrix(records, canonical, ReplacementMap())
        assert z.cells.tolist() == [[1, 1, 0], [1, 0, 1], [1, 0, 0]]

    def test_unknown_key_raises(self):
        records = [ExtractionRecord("q01", (kp("mystery"),))]
        with pytest.raises(ValueError, match="'mystery', which is neither canonical nor replaced"):
            build_incidence_matrix(records, [kp("area")], ReplacementMap())

    def test_column_sums_match_bruteforce_recount(self):
        rng = np.random.default_rng(3)
        pool = [kp(f"point {i}") for i in range(6)]
        removed_map = ReplacementMap({"point 5": "point 0"})
        records = []
        for i in range(40):
            chosen = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
            records.append(
                ExtractionRecord(f"q{i}", tuple(pool[j] for j in sorted(chosen)))
            )
        canonical = pool[:5]
        z = build_incidence_matrix(records, canonical, removed_map)
        for j, point in enumerate(canonical):
            expected = sum(
                1
                for rec in records
                if any(removed_map.resolve(p.key) == point.key for p in rec.points)
            )
            assert z.cells[:, j].sum() == expected


class TestApplyRelationEdits:
    def test_prerequisite_adds_directed(self):
        g, applied, rejected, skipped = apply_relation_edits(
            alignment_graph(), [RelationEdit("alpha", "prerequisite", "beta")]
        )
        assert g.directed == {(0, 1)}
        assert (applied, rejected, skipped) == (1, 0, 0)

    def test_dependent_adds_undirected(self):
        g, *_ = apply_relation_edits(
            alignment_graph(), [RelationEdit("alpha", "dependent", "gamma")]
        )
        assert g.undirected == {(0, 2)}

    def test_independent_removes(self):
        g0 = Mcg(nodes=alignment_graph().nodes, directed={(0, 1)})
        g, *_ = apply_relation_edits(g0, [RelationEdit("alpha", "independent", "beta")])
        assert g.edge_count() == 0

    def test_prerequisite_reverses_existing(self):
        g0 = Mcg(nodes=alignment_graph().nodes, directed={(1, 0)})
        g, *_ = apply_relation_edits(g0, [RelationEdit("alpha", "prerequisite", "beta")])
        assert g.directed == {(0, 1)}

    def test_cycle_edit_rejected(self):
        g0 = Mcg(nodes=alignment_graph().nodes, directed={(0, 1), (1, 2)})
        g, applied, rejected, skipped = apply_relation_edits(
            g0, [RelationEdit("gamma", "prerequisite", "alpha")]
        )
        assert graphs_equal(g, g0)
        assert rejected == 1

    def test_unknown_key_skipped(self):
        g0 = alignment_graph()
        g, applied, rejected, skipped = apply_relation_edits(
            g0, [RelationEdit("nonexistent", "prerequisite", "beta")]
        )
        assert graphs_equal(g, g0) and skipped == 1

    def test_one_graph_built_per_call(self, monkeypatch):
        built = []
        check = Mcg.__post_init__

        def counting_check(self):
            built.append(self)
            check(self)

        g0 = alignment_graph()
        edits = [
            RelationEdit("alpha", "prerequisite", "beta"),
            RelationEdit("beta", "prerequisite", "gamma"),
            RelationEdit("gamma", "prerequisite", "alpha"),
            RelationEdit("alpha", "dependent", "gamma"),
        ]
        monkeypatch.setattr(Mcg, "__post_init__", counting_check)
        g, applied, rejected, skipped = apply_relation_edits(g0, edits)
        assert (applied, rejected, skipped) == (3, 1, 0)
        assert len(built) == 1 and built[0] is g


class _FailOnUpdate:
    """Pass through to a fake for everything but p_u, which dies."""

    def __init__(self, inner):
        self.inner = inner

    def complete(self, request: ChatRequest) -> str:
        if request.tag == "p_u":
            raise TransportError("update endpoint down")
        return self.inner.complete(request)


class TestRunAlignmentRound:
    def test_all_correct_noop_update(self, small_corpus, fake_llm):
        g = alignment_graph()
        new_g, row = run_alignment_round(g, small_corpus, deque(), fake_llm)
        assert row["precision"] == 1.0
        assert graphs_equal(new_g, g)
        correct_section, incorrect_section = fake_llm.prompts("p_u")[0].split(
            "Incorrectly Answered Questions"
        )
        assert all(f"Problem {q.id}:" in correct_section for q in small_corpus)
        assert "`(none)`" in incorrect_section

    def test_feedback_carries_answer_prompt_subgraph(self, small_corpus):
        llm = FakeLlm(wrong_ids={"q02"})
        g = Mcg(nodes=alignment_graph().nodes, directed={(0, 1)}, undirected={(1, 2)})
        run_alignment_round(g, small_corpus, deque(), llm)
        update_prompt = llm.prompts("p_u")[0]
        for record, answer_prompt in zip(small_corpus, llm.prompts("p_a")):
            kps = parse_marked_kps(record.question)
            chosen = [i for i, p in enumerate(g.nodes) if p.key in kps]
            view = verbalize(extract_subgraph(g, chosen))
            entry = (
                f"## Question\n{record.question}\n\n## Solution\n{record.solution}\n\n"
                f"## Matched Knowledge Points\n{view.elements}\n\n"
                f"## Recorded Relations\n{view.relations or '(none)'}"
            )
            assert view.elements in answer_prompt
            assert entry in update_prompt

    def test_edit_creates_edge(self, small_corpus):
        llm = FakeLlm(
            update_responses=[
                update_response("**alpha** is prerequisite of **beta**.")
            ]
        )
        new_g, row = run_alignment_round(alignment_graph(), small_corpus, deque(), llm)
        assert new_g.directed == {(0, 1)}
        assert row["edits_applied"] == 1

    def test_cycle_edit_rejected_with_warning(self, small_corpus, caplog):
        g = Mcg(nodes=alignment_graph().nodes, directed={(0, 1), (1, 2)})
        llm = FakeLlm(
            update_responses=[
                update_response("**gamma** is prerequisite of **alpha**.")
            ]
        )
        import logging

        with caplog.at_level(logging.WARNING, logger="cama.learning"):
            new_g, row = run_alignment_round(g, small_corpus, deque(), llm)
        assert graphs_equal(new_g, g)
        assert row["edits_rejected"] == 1
        assert any("cycle" in rec.message for rec in caplog.records)

    def test_update_failure_returns_unchanged(self, small_corpus, fake_llm):
        g = alignment_graph()
        gateway = _FailOnUpdate(fake_llm)
        new_g, row = run_alignment_round(g, small_corpus, deque(), gateway)
        assert new_g is g
        assert row == {
            "precision": 1.0, "edits_applied": 0, "edits_rejected": 0, "edits_skipped": 0
        }

    def test_incorrect_partition_in_prompt(self, small_corpus):
        llm = FakeLlm(wrong_ids={"q02"})
        run_alignment_round(alignment_graph(), small_corpus, deque(), llm)
        update_prompt = llm.prompts("p_u")[0]
        correct_section = update_prompt.split("Incorrectly Answered Questions")[0]
        incorrect_section = update_prompt.split("Incorrectly Answered Questions")[1]
        assert "Problem q02:" in incorrect_section
        assert "Problem q02:" not in correct_section

    def test_history_rendered_in_prompt(self, small_corpus, fake_llm):
        history = deque([("(none)", 0.25)])
        run_alignment_round(alignment_graph(), small_corpus, history, fake_llm)
        prompt = fake_llm.prompts("p_u")[0]
        assert "Optimization History" in prompt
        assert "precision 0.250" in prompt

    def test_history_block_is_each_graph_verbalized(self, small_corpus, fake_llm):
        chained = Mcg(
            nodes=alignment_graph().nodes,
            directed=frozenset({(0, 1)}),
            undirected=frozenset({(1, 2)}),
        )
        history = deque([(verbalize(chained).relations, 0.5), ("(none)", 0.25)])
        run_alignment_round(alignment_graph(), small_corpus, history, fake_llm)
        block = "\n\n".join(
            f"## Round precision {precision:.3f}\n{verbalize(g).relations or '(none)'}"
            for g, precision in ((chained, 0.5), (alignment_graph(), 0.25))
        )
        assert "# Optimization History (most recent last)\n\n" + block in fake_llm.prompts("p_u")[0]


class TestAlign:
    def test_empty_updates_early_stop(self, small_corpus, fake_llm):
        cfg = AlignmentConfig(s_b=2, n_e=10, c_stop=3, seed=1)
        best, report = align(alignment_graph(), small_corpus, cfg, fake_llm)
        assert report.stop_reason == "early_stop"
        assert len(report.rounds) == 3
        assert all(not r["changed"] for r in report.rounds)

    def test_single_round_when_one_batch_one_epoch(self, small_corpus, fake_llm):
        cfg = AlignmentConfig(m=4, s_b=4, n_e=1, seed=0)
        best, report = align(alignment_graph(), small_corpus, cfg, fake_llm)
        assert len(report.rounds) == 1
        assert report.stop_reason == "completed"

    def test_argmax_epoch_graph_returned(self):
        corpus = make_corpus(
            [("q01", 1, 2, ["alpha", "beta"]), ("q02", 3, 4, ["alpha", "beta"])]
        )
        # epoch 1 adds the edge the answer policy rewards; epoch 2 removes it
        llm = FakeLlm(
            answer_policy=lambda prompt: "alpha is a prerequisite for beta" in prompt,
            update_responses=[
                update_response("**alpha** is prerequisite of **beta**."),
                update_response("**alpha** is independent of **beta**."),
            ],
        )
        g0 = Mcg(nodes=(kp("alpha"), kp("beta")))
        cfg = AlignmentConfig(m=2, s_b=2, n_e=2, seed=0)
        best, report = align(g0, corpus, cfg, llm)
        assert [e["precision"] for e in report.epoch_evals] == [1.0, 0.0]
        assert report.best_epoch == 1
        assert best.directed == {(0, 1)}

    def test_batch_partition_sizes(self, small_corpus, fake_llm):
        cfg = AlignmentConfig(m=4, s_b=3, n_e=1, seed=0)
        best, report = align(alignment_graph(), small_corpus, cfg, fake_llm)
        assert len(report.rounds) == 2  # ceil(4/3): one full batch, one remainder
        assert len(fake_llm.prompts("p_u")) == 2

    def test_history_capped_at_r(self, small_corpus):
        # graph keeps changing: alternate add/remove so no early stop
        edits = []
        for i in range(6):
            if i % 2 == 0:
                edits.append(update_response("**alpha** is prerequisite of **beta**."))
            else:
                edits.append(update_response("**alpha** is independent of **beta**."))
        llm = FakeLlm(update_responses=edits)
        cfg = AlignmentConfig(m=4, s_b=2, n_e=3, r=2, seed=5)
        align(alignment_graph(), small_corpus, cfg, llm)
        history_counts = [
            p.count("## Round precision") for p in llm.prompts("p_u")
        ]
        assert max(history_counts) <= 2
        assert history_counts[0] == 0  # first round has no history yet

    def test_empty_dataset_rejected(self, fake_llm):
        with pytest.raises(EmptyDataset):
            align(alignment_graph(), [], AlignmentConfig(), fake_llm)

    def test_oversized_subset_rejected(self, small_corpus, fake_llm):
        cfg = AlignmentConfig(m=99, s_b=5)
        with pytest.raises(ValueError):
            align(alignment_graph(), small_corpus, cfg, fake_llm)

    def test_graphs_valid_after_every_round(self, small_corpus):
        llm = FakeLlm(
            update_responses=[
                update_response("**alpha** is prerequisite of **beta**."),
                update_response("**beta** is prerequisite of **gamma**."),
                update_response("**gamma** is prerequisite of **alpha**."),  # cycle
            ]
        )
        cfg = AlignmentConfig(m=4, s_b=2, n_e=2, seed=2)
        best, report = align(alignment_graph(), small_corpus, cfg, llm)
        assert topological_order(best.k, best.directed) is not None


class TestPipelineDeterminism:
    def test_fixed_transcript_and_seed_reproduce_artifacts(self, tmp_path, small_corpus):
        from cama.client import RecordingClient, ScriptedChatClient
        from cama.learning import run_learn_pipeline

        transcript = tmp_path / "t.jsonl"
        recorder = RecordingClient(
            FakeLlm(update_responses=[
                update_response("**alpha** is prerequisite of **beta**.")
            ]),
            transcript,
        )
        cfg = AlignmentConfig(s_b=2, seed=11)
        run_learn_pipeline(
            small_corpus, recorder, tmp_path / "rec", align_cfg=cfg
        )

        artifacts = ("incidence.csv", "graph_initial.json", "graph_best.json")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            client = ScriptedChatClient.from_file(transcript)
            run_learn_pipeline(small_corpus, client, out, align_cfg=cfg)
            blobs.append([(out / f).read_bytes() for f in artifacts])
        assert blobs[0] == blobs[1]
        assert blobs[0][0] == (tmp_path / "rec" / "incidence.csv").read_bytes()


class TestExtractionArtifact:
    def test_cut_off_write_keeps_previous_file(self, tmp_path, small_corpus, fake_llm, monkeypatch):
        from cama.learning import run_learn_pipeline

        run_learn_pipeline(small_corpus, fake_llm, tmp_path)
        before = (tmp_path / "extraction.jsonl").read_bytes()
        real_open = Path.open

        class CutOff:
            """A file whose first write stores half its text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        def cut_extraction(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return CutOff(fh) if "w" in mode and "extraction.jsonl" in path.name else fh

        monkeypatch.setattr(Path, "open", cut_extraction)
        with pytest.raises(OSError, match="No space left"):
            run_learn_pipeline(small_corpus, fake_llm, tmp_path)
        assert (tmp_path / "extraction.jsonl").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestUpdateHistory:
    """The p_u prompt's history block: what align keeps of each round."""

    def test_cap(self, small_corpus, fake_llm):
        history = deque(maxlen=7)
        history.extend(("(none)", i / 10) for i in range(10))
        run_alignment_round(alignment_graph(), small_corpus, history, fake_llm)
        precisions = re.findall(r"## Round precision (\S+)", fake_llm.prompts("p_u")[0])
        assert precisions == [f"{i / 10:.3f}" for i in range(3, 10)]

    def test_entries_hold_relations_text(self, small_corpus):
        # round 1 answers with the empty graph and adds alpha -> beta, which
        # round 2 answers with; round 3's history holds both graphs
        llm = FakeLlm(update_responses=[update_response("**alpha** is prerequisite of **beta**.")])
        align(alignment_graph(), small_corpus, AlignmentConfig(m=4, s_b=2, n_e=2, seed=0), llm)
        edited = Mcg(nodes=alignment_graph().nodes, directed=frozenset({(0, 1)}))
        block = "\n\n".join(
            f"## Round precision 1.000\n{text}"
            for text in ("(none)", verbalize(edited).relations)
        )
        prompts = llm.prompts("p_u")
        assert "Optimization History" not in prompts[0]
        assert "# Optimization History (most recent last)\n\n" + block in prompts[2]

    def test_zero_capacity(self, small_corpus, fake_llm):
        cfg = AlignmentConfig(m=4, s_b=2, n_e=2, r=0, c_stop=99, seed=0)
        align(alignment_graph(), small_corpus, cfg, fake_llm)
        assert len(fake_llm.prompts("p_u")) == 4
        assert not any("Optimization History" in p for p in fake_llm.prompts("p_u"))


class TestAlignmentConfigValidation:
    def test_defaults_match_paper(self):
        cfg = AlignmentConfig()
        assert (cfg.s_b, cfg.n_e, cfg.r, cfg.c_stop) == (5, 10, 7, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(s_b=0), dict(n_e=0), dict(r=-1), dict(c_stop=0), dict(m=2, s_b=5)],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlignmentConfig(**kwargs)


class TestUnionPoints:
    def test_first_seen_description_wins(self):
        records = [
            ExtractionRecord("q01", (KnowledgePoint("a", "first"),)),
            ExtractionRecord("q02", (KnowledgePoint("a", "second"),)),
        ]
        (point,) = union_points(records)
        assert point.description == "first"
