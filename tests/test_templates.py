import pytest
from hypothesis import given
from hypothesis import strategies as st

from cama.templates import PLACEHOLDERS, TEMPLATE_TAGS, render_template


class TestRenderTemplate:
    def test_question_substituted(self):
        prompt = render_template("p_t", {"question": "What is 2+2?"})
        assert "What is 2+2?" in prompt
        assert "{question}" not in prompt
        assert "identify the key concepts or elements" in prompt

    def test_missing_binding(self):
        with pytest.raises(ValueError, match=r"missing binding for placeholder \{lambda\}"):
            render_template("p_p", {"question_solution_pairs": "..."})

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="no template registered for tag 'p_z'"):
            render_template("p_z", {})

    def test_deterministic(self):
        bindings = {"question": "Q", "chosen_knowledge_points": "E",
                    "knowledge_point_relations": "R"}
        assert render_template("p_a", bindings) == render_template("p_a", bindings)

    def test_extraction_template_keeps_literal_braces(self):
        prompt = render_template(
            "p_p", {"question_solution_pairs": "pair", "lambda": "3"}
        )
        # LaTeX double-braces in the template body survive substitution
        assert "{{x^2 + y^2}}" in prompt
        assert "up to 3 distinct" in prompt

    def test_lambda_substituted_everywhere(self):
        prompt = render_template(
            "p_p", {"question_solution_pairs": "pair", "lambda": "5"}
        )
        assert "{lambda}" not in prompt
        assert prompt.count("up to 5") == 2

    def test_braces_in_binding_not_reexpanded(self):
        prompt = render_template("p_t", {"question": "literal {question} text"})
        assert prompt.count("literal {question} text") == 1

    def test_all_tags_render(self):
        filler = {name: "x" for tag in TEMPLATE_TAGS for name in PLACEHOLDERS[tag]}
        for tag in TEMPLATE_TAGS:
            rendered = render_template(tag, filler)
            for name in PLACEHOLDERS[tag]:
                assert f"{{{name}}}" not in rendered

    def test_update_template_anchors(self):
        prompt = render_template(
            "p_u", {"qa_correct_answer": "GOOD", "qa_incorrect_answer": "BAD"}
        )
        assert "Correctly Answered Questions" in prompt
        assert "prerequisite/dependent/independent" in prompt

    def test_match_template_anchor(self):
        prompt = render_template(
            "p_m", {"question_think": "q", "knowledge_point_descriptions": "list"}
        )
        assert "The chosen factors are:" in prompt

    def test_answer_template_anchor(self):
        prompt = render_template(
            "p_a",
            {"question": "q", "chosen_knowledge_points": "e",
             "knowledge_point_relations": "r"},
        )
        assert "Elements to Consider" in prompt
        assert '**"The answer is: ___."**' in prompt

    @given(st.text(min_size=1, max_size=40), st.text(min_size=1, max_size=40))
    def test_injective_in_question(self, q1, q2):
        p1 = render_template("p_g", {"question": q1})
        p2 = render_template("p_g", {"question": q2})
        assert (p1 == p2) == (q1 == q2)
