"""Strict parsers for every response format the prompt templates elicit.

All parsers are total over ``ReplyError``: arbitrary input either parses
or raises it, never crashes. Recoverable irregularities (unknown relation
kinds, out-of-range indices) are dropped and logged instead of failing the
call.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Literal

from .errors import ReplyError
from .model import KnowledgePoint, ReplacementMap, normalize_key

logger = logging.getLogger(__name__)

# innermost <answer> block: body may not contain another answer tag
_ANSWER_BLOCK = re.compile(
    r"<answer>((?:(?!</?answer>).)*)</answer>", re.DOTALL | re.IGNORECASE
)
_THINK_BLOCK = re.compile(
    r"<think>((?:(?!</?think>).)*)</think>", re.DOTALL | re.IGNORECASE
)
_ANSWER_ANCHOR = re.compile(r"the answer is\s*:", re.IGNORECASE)
_POINT_LINE = re.compile(r"^\s*(?:[-*]\s*|\d+\.\s*)?\*\*(.+?)\*\*\s*:\s*(.+?)\s*$")
_PART3 = re.compile(r"part\s*3|final output", re.IGNORECASE)
_REMOVED_HEADER = re.compile(r"\*\*Removed Knowledge Points:?\*\*:?", re.IGNORECASE)
_REPLACEMENT_HEADER = re.compile(r"\*\*Replacement Details:?\*\*:?", re.IGNORECASE)
_BOLD_NAME = re.compile(r"\*\*(.+?)\*\*")
_REPLACE_STMT = re.compile(r"\*\*(.+?)\*\*\s+can replace\s+\*\*(.+?)\*\*", re.IGNORECASE)
_FACTORS_ANCHOR = re.compile(r"the chosen factors are\s*:", re.IGNORECASE)
_RELATION_LINE = re.compile(
    r"\*\*(.+?)\*\*\s+is\s+([a-zA-Z/]+)\s+(?:of|for)\s+\*\*(.+?)\*\*", re.IGNORECASE
)

RelationKind = Literal["prerequisite", "dependent", "independent"]
RELATION_KINDS: tuple[RelationKind, ...] = ("prerequisite", "dependent", "independent")


@dataclass(frozen=True)
class ParsedAnswer:
    answer: str
    think: str | None = None


@dataclass(frozen=True)
class RelationEdit:
    a: str
    kind: RelationKind
    b: str


def _strip_decorations(text: str) -> str:
    """Peel whitespace, markdown emphasis and a trailing period, to a fixed point.

    Emphasis markers may be unbalanced: the answer anchor can split an
    emphasized span like **The answer is: 211.** down the middle.
    """
    prev = None
    while prev != text:
        prev = text
        text = text.strip()
        while text.endswith("."):
            text = text[:-1].rstrip()
        text = text.strip("*_").strip('"').strip()
    return text


def parse_answer(raw: str) -> ParsedAnswer:
    """Extract the final answer (and optional reasoning) from a completion.

    The innermost <answer> block wins; within it, text after the final
    "The answer is:" marker is used when present, stripped of emphasis,
    trailing period and whitespace.
    """
    blocks = _ANSWER_BLOCK.findall(raw)
    if not blocks:
        raise ReplyError("response contains no <answer> block")
    body = blocks[-1]
    anchors = list(_ANSWER_ANCHOR.finditer(body))
    candidate = body[anchors[-1].end():] if anchors else body
    answer = _strip_decorations(candidate)
    if not answer:
        raise ReplyError("answer block is empty")
    think_match = _THINK_BLOCK.search(raw)
    think = think_match.group(1).strip() if think_match else None
    return ParsedAnswer(answer=answer, think=think)


def parse_extracted_points(raw: str, granularity: int) -> tuple[KnowledgePoint, ...]:
    """Collect up to ``granularity`` knowledge-point lines from a response.

    Only the final-output part is scanned when a Part 3 marker is present.
    Lines look like ``**name**: description``; names are normalized and
    repeats keep the first description.
    """
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    markers = list(_PART3.finditer(raw))
    scope = raw[markers[-1].end():] if markers else raw
    points: list[KnowledgePoint] = []
    seen: set[str] = set()
    for line in scope.splitlines():
        m = _POINT_LINE.match(line)
        if not m:
            continue
        key = normalize_key(m.group(1))
        if not key or key in seen:
            continue
        description = m.group(2).strip()
        if description.startswith("[") and description.endswith("]"):
            description = description[1:-1].strip()
        elif description.startswith("[") and description.endswith("]."):
            description = description[1:-2].strip()
        seen.add(key)
        points.append(KnowledgePoint(key=key, description=description))
        if len(points) == granularity:
            break
    if not points:
        raise ReplyError("no knowledge-point lines found in response")
    return tuple(points)


def parse_dedup(raw: str) -> ReplacementMap:
    """Parse removed points and replacement statements from a dedup response.

    Replacement chains are collapsed transitively, cycles are rejected,
    and every removed point must resolve to a surviving replacement, so
    the map's keys are the removed points in the order listed.
    """
    blocks = _ANSWER_BLOCK.findall(raw)
    body = blocks[-1] if blocks else raw

    removed_m = _REMOVED_HEADER.search(body)
    if removed_m is None:
        raise ReplyError("missing 'Removed Knowledge Points' section")
    repl_m = _REPLACEMENT_HEADER.search(body)
    removed_section = body[removed_m.end(): repl_m.start() if repl_m else len(body)]
    removed = []
    seen: set[str] = set()
    for name in _BOLD_NAME.findall(removed_section):
        key = normalize_key(name)
        if key and key not in seen:
            seen.add(key)
            removed.append(key)

    raw_pairs: dict[str, str] = {}
    if repl_m is not None:
        for survivor, gone in _REPLACE_STMT.findall(body[repl_m.end():]):
            gone_key, survivor_key = normalize_key(gone), normalize_key(survivor)
            if not gone_key or not survivor_key:
                continue
            if gone_key in raw_pairs and raw_pairs[gone_key] != survivor_key:
                raise ReplyError(
                    f"{gone_key!r} has conflicting replacements "
                    f"({raw_pairs[gone_key]!r} vs {survivor_key!r})"
                )
            raw_pairs[gone_key] = survivor_key

    removed_set = set(removed)
    for gone_key in raw_pairs:
        if gone_key not in removed_set:
            raise ReplyError(
                f"replacement given for {gone_key!r}, which is not in the removed list"
            )

    resolved: dict[str, str] = {}
    for start in removed:
        if start not in raw_pairs:
            raise ReplyError(f"removed point {start!r} has no replacement")
        target = raw_pairs[start]
        hops = {start}
        while target in removed_set:
            if target in hops:
                raise ReplyError(f"replacement cycle through {target!r}")
            hops.add(target)
            if target not in raw_pairs:
                raise ReplyError(
                    f"removed point {target!r} (reached from {start!r}) has no replacement"
                )
            target = raw_pairs[target]
        resolved[start] = target

    # every target survives and differs from its removed key, so the map is valid
    return ReplacementMap(pairs=resolved)


def parse_chosen_factors(raw: str, max_index: int) -> set[int]:
    """Parse the 1-based factor indices after the chosen-factors anchor.

    Returns 0-based indices; duplicates collapse and out-of-range entries
    are dropped with a warning.
    """
    anchors = list(_FACTORS_ANCHOR.finditer(raw))
    if not anchors:
        raise ReplyError("response lacks the chosen-factors anchor phrase")
    tail = raw[anchors[-1].end():]
    bracket = re.search(r"\[([^\]]*)\]", tail)
    scope = bracket.group(1) if bracket else (tail.splitlines() or [""])[0]
    chosen: set[int] = set()
    for token in re.findall(r"\d+", scope):
        index = int(token) - 1
        if 0 <= index < max_index:
            chosen.add(index)
        else:
            logger.warning(
                "dropping out-of-range factor index %s (valid range 1..%d)",
                token,
                max_index,
            )
    return chosen


def parse_relation_edits(raw: str) -> list[RelationEdit]:
    """Parse relation-edit statements from an update response.

    Lines of the form ``**A** is <kind> of **B**.`` inside the answer
    block; statements with unknown kinds are skipped with a warning.
    """
    blocks = _ANSWER_BLOCK.findall(raw)
    body = blocks[-1] if blocks else raw
    stripped = body.strip().strip("[]").strip()
    if not stripped:
        raise ReplyError("relation-edit answer block is empty")
    edits: list[RelationEdit] = []
    for a, kind, b in _RELATION_LINE.findall(body):
        kind_norm = kind.strip().lower()
        key_a, key_b = normalize_key(a), normalize_key(b)
        if kind_norm not in RELATION_KINDS:
            logger.warning("skipping relation with unknown kind %r", kind)
            continue
        if not key_a or not key_b:
            logger.warning("skipping relation with empty key")
            continue
        edits.append(RelationEdit(a=key_a, kind=kind_norm, b=key_b))
    return edits
