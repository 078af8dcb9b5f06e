import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cama.errors import ReplyError
from cama.parsers import (
    RelationEdit,
    parse_answer,
    parse_chosen_factors,
    parse_dedup,
    parse_extracted_points,
    parse_relation_edits,
)


class TestParseAnswer:
    def test_case_study_shape(self):
        raw = "<think>long derivation</think><answer>The answer is: 211.</answer>"
        parsed = parse_answer(raw)
        assert parsed.answer == "211"
        assert parsed.think == "long derivation"

    def test_bare_tag_body(self):
        assert parse_answer("<answer>42</answer>").answer == "42"

    def test_no_tags(self):
        with pytest.raises(ReplyError):
            parse_answer("just text, no tags")

    def test_final_occurrence_wins(self):
        raw = "<answer>The answer is: 1. No wait. The answer is: 2.</answer>"
        assert parse_answer(raw).answer == "2"

    def test_emphasis_and_quotes_stripped(self):
        raw = '<answer>**"The answer is: 729."**</answer>'
        assert parse_answer(raw).answer == "729"

    def test_innermost_block(self):
        raw = "<answer>outer <answer>inner</answer> trailing</answer>"
        assert parse_answer(raw).answer == "inner"

    def test_last_block_wins(self):
        raw = "<answer>draft</answer> hmm <answer>final</answer>"
        assert parse_answer(raw).answer == "final"

    def test_empty_block_rejected(self):
        with pytest.raises(ReplyError):
            parse_answer("<answer>   </answer>")

    def test_decimal_answer_keeps_point(self):
        assert parse_answer("<answer>The answer is: 0.5.</answer>").answer == "0.5"

    def test_missing_think_is_none(self):
        assert parse_answer("<answer>7</answer>").think is None

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_total_over_error_type(self, raw):
        try:
            parsed = parse_answer(raw)
            assert parsed.answer
        except ReplyError:
            pass


class TestParseExtractedPoints:
    RESPONSE = (
        "Part 1: reasoning here.\n"
        "Part 2: filtering here.\n"
        "Part 3: Final Output.\n"
        "**Modular Arithmetic**: [Solving congruences].\n"
        "**Quadratic Systems**: setting up polynomial systems.\n"
    )

    def test_two_points(self):
        points = parse_extracted_points(self.RESPONSE, 3)
        assert [p.key for p in points] == ["modular arithmetic", "quadratic systems"]
        assert points[0].description == "Solving congruences"

    def test_truncated_to_granularity(self):
        lines = "\n".join(f"**point {i}**: d{i}." for i in range(5))
        points = parse_extracted_points(lines, 3)
        assert [p.key for p in points] == ["point 0", "point 1", "point 2"]

    def test_empty_body(self):
        with pytest.raises(ReplyError):
            parse_extracted_points("nothing to see", 3)

    def test_scans_after_last_part3_marker(self):
        raw = (
            "**Early Mention**: from part one.\n"
            "Part 3: Final Output.\n"
            "**Real Point**: the actual output.\n"
        )
        points = parse_extracted_points(raw, 3)
        assert [p.key for p in points] == ["real point"]

    def test_duplicate_keys_first_wins(self):
        raw = "**A point**: first.\n**a  point**: second.\n"
        points = parse_extracted_points(raw, 3)
        assert len(points) == 1
        assert points[0].description == "first."

    @settings(max_examples=150)
    @given(st.text(max_size=200), st.integers(1, 5))
    def test_total(self, raw, lam):
        try:
            points = parse_extracted_points(raw, lam)
            assert 1 <= len(points) <= lam
        except ReplyError:
            pass


class TestParseDedup:
    def test_single_replacement(self):
        raw = (
            "<answer>**Removed Knowledge Points:**\n[**Old A**]\n\n"
            "**Replacement Details:**\n[**New B** can replace **Old A**]</answer>"
        )
        assert parse_dedup(raw).pairs == {"old a": "new b"}

    def test_target_also_removed_rejected(self):
        raw = (
            "<answer>**Removed Knowledge Points:**\n[**A**, **B**]\n\n"
            "**Replacement Details:**\n[**B** can replace **A**]</answer>"
        )
        with pytest.raises(ReplyError):
            parse_dedup(raw)

    def test_empty_removed_list(self):
        raw = (
            "<answer>**Removed Knowledge Points:**\n[]\n\n"
            "**Replacement Details:**\n[]</answer>"
        )
        assert parse_dedup(raw).pairs == {}

    def test_chain_collapsed(self):
        raw = (
            "<answer>**Removed Knowledge Points:**\n[**A**, **B**]\n\n"
            "**Replacement Details:**\n"
            "[**B** can replace **A**,\n **C** can replace **B**]</answer>"
        )
        assert parse_dedup(raw).pairs == {"a": "c", "b": "c"}

    def test_cycle_rejected(self):
        raw = (
            "<answer>**Removed Knowledge Points:**\n[**A**, **B**]\n\n"
            "**Replacement Details:**\n"
            "[**B** can replace **A**,\n **A** can replace **B**]</answer>"
        )
        with pytest.raises(ReplyError):
            parse_dedup(raw)

    def test_removed_without_replacement_rejected(self):
        raw = (
            "<answer>**Removed Knowledge Points:**\n[**A**]\n\n"
            "**Replacement Details:**\n[]</answer>"
        )
        with pytest.raises(ReplyError):
            parse_dedup(raw)

    def test_missing_section_rejected(self):
        with pytest.raises(ReplyError):
            parse_dedup("<answer>nothing structured</answer>")

    @settings(max_examples=150)
    @given(st.text(max_size=300))
    def test_total(self, raw):
        try:
            parse_dedup(raw)
        except ReplyError:
            pass


class TestParseChosenFactors:
    def test_case_study_indices(self):
        raw = "**The chosen factors are: [1, 16].**"
        assert parse_chosen_factors(raw, 20) == {0, 15}

    def test_empty_brackets(self):
        assert parse_chosen_factors("The chosen factors are: [ ].", 5) == set()

    def test_out_of_range_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="cama.parsers"):
            chosen = parse_chosen_factors("The chosen factors are: [3, 99].", 5)
        assert chosen == {2}
        assert any("out-of-range" in rec.message for rec in caplog.records)

    def test_missing_anchor(self):
        with pytest.raises(ReplyError):
            parse_chosen_factors("factors: [1, 2]", 5)

    def test_duplicates_collapse(self):
        assert parse_chosen_factors("The chosen factors are: [2, 2, 2].", 5) == {1}

    def test_last_anchor_wins(self):
        raw = (
            "The chosen factors are: [1].\n"
            "On reflection: The chosen factors are: [2, 3]."
        )
        assert parse_chosen_factors(raw, 5) == {1, 2}

    @settings(max_examples=150)
    @given(st.text(max_size=200), st.integers(1, 30))
    def test_total(self, raw, max_index):
        try:
            chosen = parse_chosen_factors(raw, max_index)
            assert all(0 <= i < max_index for i in chosen)
        except ReplyError:
            pass


class TestParseRelationEdits:
    def test_single_statement(self):
        edits = parse_relation_edits(
            "<answer>[**X** is prerequisite of **Y**.]</answer>"
        )
        assert edits == [RelationEdit(a="x", kind="prerequisite", b="y")]

    def test_unknown_kind_skipped(self, caplog):
        with caplog.at_level(logging.WARNING, logger="cama.parsers"):
            edits = parse_relation_edits("<answer>[**X** is friends of **Y**.]</answer>")
        assert edits == []
        assert any("unknown kind" in rec.message for rec in caplog.records)

    def test_mixed_multiline_ordered(self):
        raw = (
            "<answer>[**a** is prerequisite of **b**.\n"
            "**c** is friends of **d**.\n"
            "**e** is independent of **f**.\n"
            "**g** is dependent of **h**.]</answer>"
        )
        edits = parse_relation_edits(raw)
        assert [(e.a, e.kind, e.b) for e in edits] == [
            ("a", "prerequisite", "b"),
            ("e", "independent", "f"),
            ("g", "dependent", "h"),
        ]

    def test_empty_block(self):
        with pytest.raises(ReplyError):
            parse_relation_edits("<answer>[]</answer>")

    def test_keys_normalized(self):
        edits = parse_relation_edits(
            "<answer>[** Modular  Arithmetic ** is prerequisite of **CRT**.]</answer>"
        )
        assert edits[0].a == "modular arithmetic"
        assert edits[0].b == "crt"

    @settings(max_examples=150)
    @given(st.text(max_size=300))
    def test_total(self, raw):
        try:
            parse_relation_edits(raw)
        except ReplyError:
            pass


class TestRenderEchoRoundTrip:
    """A synthetic response built from a known structure parses back to it."""

    def test_answer(self):
        assert parse_answer("<answer>The answer is: 211.</answer>").answer == "211"

    def test_extracted_points(self):
        from cama.model import KnowledgePoint

        points = (
            KnowledgePoint("alpha", "first concept"),
            KnowledgePoint("beta", "second concept"),
        )
        body = "Part 3: Final Output.\n" + "\n".join(
            f"**{p.key}**: {p.description}" for p in points
        )
        assert parse_extracted_points(body, 3) == points

    def test_chosen_factors(self):
        chosen = {0, 4, 15}
        rendered = (
            "**The chosen factors are: "
            f"[{', '.join(str(i + 1) for i in sorted(chosen))}].**"
        )
        assert parse_chosen_factors(rendered, 20) == chosen

    def test_relation_edits(self):
        edits = [
            RelationEdit("alpha", "prerequisite", "beta"),
            RelationEdit("beta", "dependent", "gamma"),
            RelationEdit("alpha", "independent", "gamma"),
        ]
        rendered = "<answer>[" + "\n".join(
            f"**{e.a}** is {e.kind} of **{e.b}**." for e in edits
        ) + "]</answer>"
        assert parse_relation_edits(rendered) == edits

    def test_dedup(self):
        removed = ("old one", "old two")
        pairs = {"old one": "new one", "old two": "new two"}
        rendered = (
            "<answer>**Removed Knowledge Points:**\n["
            + ", ".join(f"**{r}**" for r in removed)
            + "]\n\n**Replacement Details:**\n["
            + ",\n ".join(f"**{v}** can replace **{k}**" for k, v in pairs.items())
            + "]</answer>"
        )
        result = parse_dedup(rendered)
        assert tuple(result.pairs) == removed
        assert result.pairs == pairs


def dedup_reply(removed: str, replacements: str) -> str:
    return (
        f"<answer>**Removed Knowledge Points:**\n[{removed}]\n\n"
        f"**Replacement Details:**\n[{replacements}]</answer>"
    )


# one row per ReplyError raise site in cama.parsers, with its message
REPLY_FAILURES = [
    (parse_answer, "no tags at all", "response contains no <answer> block"),
    (parse_answer, "<answer> . </answer>", "answer block is empty"),
    (
        lambda raw: parse_extracted_points(raw, 3),
        "Part 3: Final Output.\nnone",
        "no knowledge-point lines found in response",
    ),
    (parse_dedup, "<answer>[**A**]</answer>", "missing 'Removed Knowledge Points' section"),
    (
        parse_dedup,
        dedup_reply("**A**", "**B** can replace **A**, **C** can replace **A**"),
        "'a' has conflicting replacements ('b' vs 'c')",
    ),
    (
        parse_dedup,
        dedup_reply("**A**", "**B** can replace **A**, **C** can replace **D**"),
        "replacement given for 'd', which is not in the removed list",
    ),
    (parse_dedup, dedup_reply("**A**", ""), "removed point 'a' has no replacement"),
    (
        parse_dedup,
        dedup_reply("**A**, **B**", "**B** can replace **A**, **A** can replace **B**"),
        "replacement cycle through 'a'",
    ),
    (
        parse_dedup,
        dedup_reply("**A**, **B**", "**B** can replace **A**"),
        "removed point 'b' (reached from 'a') has no replacement",
    ),
    (
        lambda raw: parse_chosen_factors(raw, 5),
        "factors: [1]",
        "response lacks the chosen-factors anchor phrase",
    ),
    (parse_relation_edits, "<answer> [ ] </answer>", "relation-edit answer block is empty"),
]


@pytest.mark.parametrize("parse, raw, message", REPLY_FAILURES)
def test_reply_failures_raise_reply_error(parse, raw, message):
    with pytest.raises(ReplyError, match=f"^{re.escape(message)}$"):
        parse(raw)


@settings(max_examples=100)
@given(st.binary(max_size=300))
def test_parsers_survive_arbitrary_bytes(data):
    text = data.decode("utf-8", errors="replace")
    for fn in (
        lambda: parse_answer(text),
        lambda: parse_extracted_points(text, 3),
        lambda: parse_dedup(text),
        lambda: parse_chosen_factors(text, 10),
        lambda: parse_relation_edits(text),
    ):
        try:
            fn()
        except ReplyError:
            pass
