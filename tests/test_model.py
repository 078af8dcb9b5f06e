import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cama.errors import ParseError
from cama.model import (
    KnowledgePoint,
    QaRecord,
    ReplacementMap,
    load_qa_records,
    normalize_key,
)


class TestNormalizeKey:
    def test_lowercase_and_collapse(self):
        assert normalize_key("  Modular   Arithmetic ") == "modular arithmetic"

    def test_tabs_and_newlines_collapse(self):
        assert normalize_key("a\t b\n c") == "a b c"

    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        assert normalize_key(normalize_key(text)) == normalize_key(text)


class TestKnowledgePoint:
    def test_key_normalized_on_construction(self):
        p = KnowledgePoint("  Pythagorean  Theorem ", " right triangles ")
        assert p.key == "pythagorean theorem"
        assert p.description == "right triangles"

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            KnowledgePoint("   ")


class TestQaRecord:
    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            QaRecord(id="a", question="  ", answer="1")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            QaRecord(id=" ", question="q", answer="1")


class TestLoadQaRecords:
    def load(self, tmp_path, *entries):
        path = tmp_path / "qa.json"
        path.write_text(json.dumps(list(entries)), encoding="utf-8")
        return load_qa_records(path)

    def test_numbers_are_written_out(self, tmp_path):
        (rec,) = self.load(tmp_path, {"id": 7, "question": 12, "answer": 42})
        assert rec == QaRecord(id="7", question="12", answer="42")

    def test_null_question_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"QA entry 1 .*question"):
            self.load(
                tmp_path,
                {"id": "a", "question": "q", "answer": "1"},
                {"id": "b", "question": None, "answer": "1"},
            )

    def test_null_id_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"QA entry 0 .*id"):
            self.load(tmp_path, {"id": None, "question": "q", "answer": "1"})

    def test_null_answer_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"QA entry 0 .*answer"):
            self.load(tmp_path, {"id": "a", "question": "q", "answer": None})

    def test_boolean_answer_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"QA entry 0 .*answer"):
            self.load(tmp_path, {"id": "a", "question": "q", "answer": True})

    def test_non_string_solution_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"QA entry 0 .*solution"):
            self.load(tmp_path, {"id": "a", "question": "q", "answer": "1", "solution": ["x"]})

    def test_null_solution_accepted(self, tmp_path):
        (rec,) = self.load(tmp_path, {"id": "a", "question": "q", "answer": "1", "solution": None})
        assert rec.solution is None


class TestReplacementMap:
    def test_resolve_removed_and_surviving(self):
        m = ReplacementMap({"Old Point": "new point"})
        assert m.resolve("old point") == "new point"
        assert m.resolve("unrelated") == "unrelated"
        assert "old point" in m.pairs

    def test_target_also_removed_rejected(self):
        with pytest.raises(ValueError):
            ReplacementMap({"a": "b", "b": "c"})

    def test_self_replacement_rejected(self):
        with pytest.raises(ValueError):
            ReplacementMap({"a": "A"})
