"""Core value types: knowledge points, QA records, replacement maps; and
the JSON document format that every loader and writer shares."""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError

_WS = re.compile(r"\s+")


def normalize_key(text: str) -> str:
    """Canonical form of a knowledge-point label: lowercase, single-spaced.

    Idempotent, so labels echoed back by an LLM re-normalize to the same key.
    """
    return _WS.sub(" ", text).strip().lower()


@dataclass(frozen=True)
class KnowledgePoint:
    """A named mathematical concept: short label plus free-text description."""

    key: str
    description: str = ""

    def __post_init__(self):
        normalized = normalize_key(self.key)
        if not normalized:
            raise ValueError(f"knowledge point key {self.key!r} is empty after normalization")
        if not isinstance(self.description, str):
            kind = type(self.description).__name__
            raise TypeError(f"knowledge point description must be a string, not {kind}")
        object.__setattr__(self, "key", normalized)
        object.__setattr__(self, "description", self.description.strip())


@dataclass(frozen=True)
class QaRecord:
    """One question with its ground-truth answer and optional worked solution.

    ``answer`` may be empty only for ad-hoc questions that are never judged;
    corpus loaders reject empty answers.
    """

    id: str
    question: str
    answer: str = ""
    solution: str | None = None

    def __post_init__(self):
        if not self.id.strip():
            raise ValueError("record id is empty")
        if not self.question.strip():
            raise ValueError(f"record {self.id!r} has an empty question")


@dataclass(frozen=True)
class ReplacementMap:
    """Maps removed knowledge-point keys to the surviving key replacing them.

    Targets are never themselves removed, so a single lookup resolves
    every removed key.
    """

    pairs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        clean = {normalize_key(k): normalize_key(v) for k, v in self.pairs.items()}
        removed = set(clean)
        for src, dst in clean.items():
            if dst in removed:
                raise ValueError(
                    f"replacement target {dst!r} is itself removed (via {src!r})"
                )
            if src == dst:
                raise ValueError(f"{src!r} cannot replace itself")
        object.__setattr__(self, "pairs", clean)

    def resolve(self, key: str) -> str:
        """Surviving key for ``key``: itself unless it was removed."""
        return self.pairs.get(normalize_key(key), normalize_key(key))


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in doc if keys.count(key) > 1)
        raise ValueError(f"repeated key {repeated!r}")
    return doc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# one decoder for every document: json.loads given these hooks would build
# a new decoder on each call, which costs more than the parse of a short line
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_constant=_refuse_constant)


def read_json(data: str | bytes, what: str):
    """Parse one input document as standard JSON (RFC 8259) in UTF-8.

    A key repeated within one object and the constants NaN, Infinity and
    -Infinity are refused, where ``json.loads`` alone would keep the last
    value or load a non-finite float. So is a ``\\u`` escape of a surrogate
    that no escape next to it pairs with: it decodes to a lone surrogate,
    which no UTF-8 text holds and no writer can encode. Every failure is a
    ParseError naming ``what``.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
        if "\\u" in text:  # only an escape decodes to a lone surrogate
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid {what}: not UTF-8 text", position=e.start) from e
    except UnicodeEncodeError as e:
        lone = f"U+{ord(e.object[e.start]):04X}"
        raise ParseError(f"invalid {what}: an escape decodes to the lone surrogate {lone}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid {what}: {e.msg}", position=e.pos) from e
    except ValueError as e:
        raise ParseError(f"invalid {what}: {e}") from e


def read_text(path: str | Path, what: str, newline: str | None = None) -> str:
    """The text of input file ``path``, read as UTF-8 with ``open``'s
    ``newline`` (universal newlines by default). Other bytes are a
    ParseError naming ``what``, as in ``read_json``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid {what}: not UTF-8 text", position=e.start) from e


def json_list(value, what: str) -> list:
    """A JSON array as read by ``read_json``: a string or an object would
    iterate as one, so anything else is a TypeError naming ``what``."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


def json_text(doc) -> str:
    """The artifact format: indented, sorted keys, UTF-8 text, final newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temporary file in the
    same directory, then ``os.replace``: a write that fails or is cut off
    leaves the old file, or none, and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, doc) -> None:
    write_atomic(path, json_text(doc))


def json_line(doc) -> str:
    """The one-line format of a JSONL record, without its newline."""
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def _text(value, field: str) -> str:
    """A QA text field: a string, or a finite number written out; null is refused."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{field} must be a string or a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{field} must be a finite number, got {value}")
    return str(value)


def load_qa_records(path: str | Path) -> list[QaRecord]:
    """Load a QA corpus from a JSON list of records.

    Enforces corpus invariants: unique ids, non-empty answers, id, question
    and answer given as text or a number, solution as text or null.
    """
    data = read_json(Path(path).read_bytes(), f"QA file {path}")
    if not isinstance(data, list):
        raise ParseError(f"QA file {path} must contain a JSON list")
    records = []
    seen = set()
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise ParseError(f"QA entry {i} is not an object")
        try:
            rec = QaRecord(
                id=_text(item["id"], "id"),
                question=_text(item["question"], "question"),
                answer=_text(item.get("answer", ""), "answer"),
                solution=item.get("solution"),
            )
            if rec.solution is not None and not isinstance(rec.solution, str):
                raise ValueError("solution must be a string or null")
        except (KeyError, ValueError) as e:
            raise ParseError(f"QA entry {i} is invalid: {e}") from e
        if not rec.answer.strip():
            raise ParseError(f"QA entry {rec.id!r} has an empty answer")
        if rec.id in seen:
            raise ParseError(f"duplicate QA record id {rec.id!r}")
        seen.add(rec.id)
        records.append(rec)
    return records


def save_qa_records(records: list[QaRecord], path: str | Path) -> None:
    data = [
        {"id": r.id, "question": r.question, "answer": r.answer, "solution": r.solution}
        for r in records
    ]
    write_json(path, data)
