import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cama.errors import ParseError
from cama.graph import Mcg, save_graph
from cama.matrix import IncidenceMatrix
from cama.model import (
    KnowledgePoint,
    QaRecord,
    ReplacementMap,
    load_qa_records,
    normalize_key,
    read_json,
    write_atomic,
    write_json,
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


class TestReadJson:
    def test_malformed_text_positioned_error(self):
        with pytest.raises(ParseError, match=r"invalid doc: Expecting value \(position 6\)"):
            read_json('{"a": ', "doc")

    def test_repeated_key_rejected_at_any_depth(self):
        assert read_json('[{"a": 1}, {"a": 2}]', "doc") == [{"a": 1}, {"a": 2}]
        with pytest.raises(ParseError, match="invalid doc: repeated key 'a'"):
            read_json('[{"b": {"a": 1, "c": 2, "a": 1}}]', "doc")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constants_rejected(self, constant):
        with pytest.raises(ParseError, match=f"invalid doc: {constant} is not a JSON number"):
            read_json(f'{{"a": [1, {constant}]}}', "doc")

    def test_byte_order_mark_rejected_as_json_loads_does(self):
        message = r"^invalid doc: Unexpected UTF-8 BOM .*\(position 0\)$"
        for data in ('\ufeff{"a": 1}', '\ufeff{"a": 1}'.encode()):
            with pytest.raises(ParseError, match=message):
                read_json(data, "doc")

    def test_lone_surrogate_escape_rejected(self):
        # a pair decodes to one character; an escaped backslash starts no escape
        assert read_json(r'["\ud83d\ude00", "\\ud800"]', "doc") == ["\U0001f600", "\\ud800"]
        for text in (r'{"q": "\ud800x"}', r'["\uDFFF"]', r'{"\ud83d": 1}', r'["\ude00\ud83d"]'):
            with pytest.raises(ParseError, match=r"^invalid doc: an escape decodes to the lone"):
                read_json(text.encode(), "doc")

    def test_bytes_must_be_utf8(self):
        assert read_json('{"k": "é"}'.encode(), "doc") == {"k": "é"}
        with pytest.raises(ParseError, match="not UTF-8") as err:
            read_json(b'{"k": "\xff"}', "doc")
        assert err.value.position == 7


class TestLoadQaRecords:
    def load(self, tmp_path, *entries):
        return self.load_text(tmp_path, json.dumps(list(entries)))

    def load_text(self, tmp_path, text):
        path = tmp_path / "qa.json"
        path.write_text(text, encoding="utf-8")
        return load_qa_records(path)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"id": "a", "question": "q", "answer": NaN}',
            '{"id": Infinity, "question": "q", "answer": "1"}',
            '{"id": "a", "question": -Infinity, "answer": "1"}',
            '{"id": "a", "question": "q", "answer": 1e400}',
            '{"id": "a", "question": "q", "answer": "1", "answer": "2"}',
        ],
        ids=["nan", "infinity", "minus-infinity", "overflow", "repeated-key"],
    )
    def test_non_finite_number_or_repeated_key_rejected(self, tmp_path, entry):
        with pytest.raises(ParseError, match="answer|id|question"):
            self.load_text(tmp_path, f"[{entry}]")

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


# each artifact writer, given a string it writes into its document
WRITERS = {
    "write_json": lambda path, text: write_json(path, {"k": text}),
    "save_graph": lambda path, text: save_graph(Mcg(nodes=(KnowledgePoint(text),)), path),
    "save_csv": lambda path, text: IncidenceMatrix(
        cells=[[1]], row_ids=(text,), col_keys=("a",)
    ).save_csv(path),
}


class TestWriteAtomic:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_the_old_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        WRITERS[writer](path, "old")
        old = path.read_bytes()
        # a lone surrogate has no UTF-8 form: the encoder stops the write
        with pytest.raises(UnicodeEncodeError):
            WRITERS[writer](path, "new \ud800")
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupt_before_the_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact"
        write_atomic(path, "old")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, "new")
        assert path.read_text(encoding="utf-8") == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_new_file_written(self, tmp_path):
        write_atomic(tmp_path / "artifact", "é\n")
        assert (tmp_path / "artifact").read_bytes() == "é\n".encode()
        assert len(list(tmp_path.iterdir())) == 1
