"""Deterministic stand-in for the remote model, owned by the benchmark.

Every reply is a pure function of the prompt text. The template is told
apart by its fixed wording, so the same function serves the in-process
client used for recording and the simulated HTTP endpoint, which sees only
the request payload. Pseudo-random choices are drawn from the prompt's
SHA-256, so they do not depend on call order.

Questions carry their knowledge points in a marker that the fake reads back:
``Problem q0001: compute 3 + 4. [kps: kp001 prime factorisation; ...]``.
A key ending in ``ALIAS_SUFFIX`` is a redundant spelling of the key before
it, which the deduplication reply folds away.

A small share of extraction, answer and update replies is malformed on
purpose, so that each of the program's degradation paths is reached. The
extraction and answer replies to every ``MALFORMED_EVERY``-th question (by
the number in its id) are malformed, so their count is the same for every
seed; update replies are malformed with a share drawn from the prompt hash.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time

ALIAS_SUFFIX = " variant"

# questions whose number is MALFORMED_OFFSET modulo MALFORMED_EVERY get a
# malformed extraction and answer reply (3% of them)
MALFORMED_EVERY = 33
MALFORMED_OFFSET = 16
MALFORMED_UPDATE = 0.02

_SUM = re.compile(r"compute (-?\d+) \+ (-?\d+)")
_QUESTION = re.compile(r"Problem [a-z]+(\d+):")
_KPS = re.compile(r"\[kps:\s*([^\]]*)\]")
_ELEMENT = re.compile(r"^\*\*(\d+)\.\*\* ([^:\n]+?)(?::|$)", re.MULTILINE)
_LISTED = re.compile(r"^- \*\*(.+?)\*\*:", re.MULTILINE)
_DIRECTED = re.compile(r"^\*\*\d+\.\*\* (.+?) is a prerequisite for (.+?)\. If ", re.MULTILINE)
_UNDIRECTED = re.compile(r"^\*\*\d+\.\*\* (.+?) and (.+?) are associated, but", re.MULTILINE)

# (tag, phrase that only that template contains), checked in order
_TEMPLATE_MARKERS = (
    ("p_p", "# What is a Knowledge Point?"),
    ("p_r", "You are given a list of knowledge points"),
    ("p_u", "# Input Data"),
    ("p_m", "# List of Factors"),
    ("p_a", "# Elements to Consider:"),
    ("p_t", "identify the key concepts or elements required"),
)


def question_text(qa_id: str, a: int, b: int, kps: list[str]) -> str:
    return f"Problem {qa_id}: compute {a} + {b}. [kps: {'; '.join(kps)}]"


def solution_text(a: int, b: int, kps: list[str]) -> str:
    return f"Add {a} and {b} directly. [kps: {'; '.join(kps)}]"


def template_tag(prompt: str) -> str:
    for tag, marker in _TEMPLATE_MARKERS:
        if marker in prompt:
            return tag
    raise ValueError(f"prompt matches no known template: {prompt[:80]!r}")


def _marked(prompt: str) -> list[str]:
    m = _KPS.search(prompt)
    if not m:
        return []
    return [part.strip() for part in m.group(1).split(";") if part.strip()]


def _wanted(prompt: str) -> set[str]:
    """Marked keys plus the key each alias stands for."""
    keys = set(_marked(prompt))
    keys |= {k[: -len(ALIAS_SUFFIX)] for k in keys if k.endswith(ALIAS_SUFFIX)}
    return keys


def _malformed(prompt: str) -> bool:
    """Whether the question in the prompt is one that gets a malformed reply."""
    m = _QUESTION.search(prompt)
    return bool(m) and int(m.group(1)) % MALFORMED_EVERY == MALFORMED_OFFSET


def _sum(prompt: str) -> int:
    m = _SUM.search(prompt)
    if not m:
        raise ValueError(f"no arithmetic problem in prompt: {prompt[:80]!r}")
    return int(m.group(1)) + int(m.group(2))


class _Draws:
    """Uniform draws in [0, 1) and a Random, all seeded by the prompt hash."""

    def __init__(self, prompt: str):
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        self.u = [int.from_bytes(digest[i : i + 4], "big") / 2**32 for i in range(0, 16, 4)]
        self.rng = random.Random(int.from_bytes(digest[16:], "big"))


def _extract(prompt: str, draws: _Draws) -> str:
    head = "Part 1: read the solution.\n\nPart 2: keep what the solution uses.\n\nPart 3: Final Output.\n\n"
    if _malformed(prompt):
        return head + "(the solution names no reusable idea)"
    lines = [f"**{kp}**: How {kp} is applied in this kind of solution." for kp in _marked(prompt)]
    return head + "\n".join(lines)


def _dedup(prompt: str, draws: _Draws) -> str:
    listed = set(_LISTED.findall(prompt))
    pairs = sorted(
        (key[: -len(ALIAS_SUFFIX)], key)
        for key in listed
        if key.endswith(ALIAS_SUFFIX) and key[: -len(ALIAS_SUFFIX)] in listed
    )
    removed = ", ".join(f"**{alias}**" for _, alias in pairs)
    details = ",\n ".join(f"**{base}** can replace **{alias}**" for base, alias in pairs)
    return (
        "<think>aliases name the same idea</think>\n<answer>\n"
        f"**Removed Knowledge Points:**\n[{removed}]\n\n"
        f"**Replacement Details:**\n[{details}]\n</answer>"
    )


def _trace(prompt: str, draws: _Draws) -> str:
    kps = _marked(prompt)
    return f"<think>Key concepts: {'; '.join(kps)}.</think><answer>plan over {len(kps)} concepts</answer>"


def _match(prompt: str, draws: _Draws) -> str:
    wanted = _wanted(prompt)
    elements = _ELEMENT.findall(prompt)
    chosen = [number for number, key in elements if key.strip() in wanted]
    if elements and draws.u[0] < 0.10:
        chosen.append(draws.rng.choice(elements)[0])
    if draws.u[1] < 0.05:
        chosen.append(str(len(elements) + 3))  # out of range: the parser drops it
    return f"**The chosen factors are: [{', '.join(chosen)}].**"


def _answer(prompt: str, draws: _Draws) -> str:
    if _malformed(prompt):
        return "<think>lost track of the elements</think> The answer is unclear."
    elements_part = prompt.split("# Elements to Consider:", 1)[1]
    given = {key.strip() for _, key in _ELEMENT.findall(elements_part.split("# Relationship(s)", 1)[0])}
    wanted = _wanted(prompt)
    coverage = len(wanted & given) / len(wanted) if wanted else 0.0
    has_relations = bool(_DIRECTED.search(elements_part) or _UNDIRECTED.search(elements_part))
    p_correct = 0.5 + 0.3 * coverage + (0.1 if has_relations else 0.0)
    total = _sum(prompt) + (0 if draws.u[1] < p_correct else 1)
    return f"<think>combine the elements</think><answer>**The answer is: {total}.**</answer>"


def _quads(prompt: str) -> list[tuple[list[str], str]]:
    """(matched keys, relations text) of every feedback entry in a p_u prompt."""
    body = prompt.split("# Optimization History", 1)[0]
    out = []
    for chunk in body.split("## Matched Knowledge Points\n")[1:]:
        elements, _, rest = chunk.partition("## Recorded Relations\n")
        relations = rest.split("\n\n## Question", 1)[0]
        out.append(([key.strip() for _, key in _ELEMENT.findall(elements)], relations))
    return out


def _latest_history(prompt: str) -> str:
    if "# Optimization History" not in prompt:
        return ""
    return prompt.split("# Optimization History", 1)[1].split("## Round precision")[-1]


def _pair_states(quads) -> dict[frozenset, str]:
    """Edge state ("directed", "undirected" or "absent") of every pair of
    keys matched together, as the feedback entries record it."""
    states = {}
    for keys, relations in quads:
        directed = {frozenset(p) for p in _DIRECTED.findall(relations)}
        undirected = {frozenset(p) for p in _UNDIRECTED.findall(relations)}
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                pair = frozenset((a, b))
                states[pair] = (
                    "directed" if pair in directed else "undirected" if pair in undirected else "absent"
                )
    return states


def _update(prompt: str, draws: _Draws, edge_target: int) -> str:
    """Seeded edits among matched keys.

    The last edit always changes the graph, so only a malformed reply leaves
    a round unchanged and alignment almost never stops early. Further edits
    hold the edge count near ``edge_target``, the expected edge count of the
    DAG the corpus was drawn from, so the graph's size, and with it the cost
    of a round, stays at the size of the knowledge structure whatever the
    seed. A share of edits closes a directed cycle or names an unknown key,
    so every edit outcome is reached.
    """
    if draws.u[0] < MALFORMED_UPDATE:
        return "<think>nothing to add</think><answer>\n[]\n</answer>"
    rng = draws.rng
    latest = _latest_history(prompt)
    edges = len(_DIRECTED.findall(latest)) + len(_UNDIRECTED.findall(latest))
    states = _pair_states(_quads(prompt))
    pairs = sorted(states, key=sorted)
    statements = []
    change = None
    if pairs:
        grow = edges < edge_target
        present = [p for p in pairs if states[p] != "absent"]
        absent = [p for p in pairs if states[p] == "absent"]
        # an addition while the graph is small, a removal once it is large
        wanted = absent if grow else present
        change_pair = rng.choice(wanted or pairs)
        a, b = sorted(change_pair)
        state = states[change_pair]
        change = (a, {"directed": "independent", "undirected": "independent", "absent": "dependent"}[state], b)
        for _ in range(rng.randint(1, 3)):
            if not wanted:
                break
            pair = rng.choice(wanted)
            if pair == change_pair:
                continue
            x, y = rng.sample(sorted(pair), 2)
            if not grow:
                kind = "independent"
            elif rng.random() < 0.6:
                kind = "prerequisite"
            else:
                kind = "dependent"
            statements.append((x, kind, y))
    # an edit that closes a directed cycle along a recorded path u -> v -> w
    succ: dict[str, list[str]] = {}
    for u, v in _DIRECTED.findall(latest):
        succ.setdefault(u, []).append(v)
    paths = [(u, v, w) for u, vs in sorted(succ.items()) for v in vs for w in succ.get(v, ())]
    if paths and draws.u[1] < 0.5:
        u, _, w = rng.choice(paths)
        statements.append((w, "prerequisite", u))
    if draws.u[2] < 0.3 and pairs:
        statements.append(("kp999 unheard of idea", "dependent", sorted(rng.choice(pairs))[0]))
    # the guaranteed change goes last, over a pair no other edit touched
    if change is not None:
        statements = [s for s in statements if {s[0], s[2]} != {change[0], change[2]}]
        statements.append(change)
    if not statements:
        statements.append(("kp999 unheard of idea", "independent", "kp998 another unknown"))
    body = "\n ".join(f"**{x}** is {kind} of **{y}**." for x, kind, y in statements)
    return f"<think>revise the recorded relations</think><answer>\n[{body}]\n</answer>"


_HANDLERS = {
    "p_p": _extract,
    "p_r": _dedup,
    "p_t": _trace,
    "p_m": _match,
    "p_a": _answer,
}


def respond(prompt: str, edge_target: int, draws: _Draws | None = None) -> str:
    """The fake model's reply to a rendered prompt; ``edge_target`` steers
    the update policy (see ``_update``)."""
    tag = template_tag(prompt)
    draws = draws or _Draws(prompt)
    if tag == "p_u":
        return _update(prompt, draws, edge_target)
    return _HANDLERS[tag](prompt, draws)


class FakeModelClient:
    """In-process chat client that answers with ``respond``."""

    def __init__(self, edge_target: int):
        self.edge_target = edge_target
        self.calls = 0
        self.prompt_bytes = 0

    def complete(self, request) -> str:
        self.calls += 1
        self.prompt_bytes += len(request.prompt.encode("utf-8"))
        return respond(request.prompt, self.edge_target)


class SimulatedEndpoint:
    """Transport for ``HttpChatClient``: answers in-process after a delay.

    The delay is a fixed base plus a per-KiB term plus jitter seeded by the
    prompt hash, so it depends on the prompt only and never on call order.
    """

    def __init__(self, edge_target: int, base_ms: float, per_kib_ms: float, jitter_ms: float):
        self.edge_target = edge_target
        self.base_ms = base_ms
        self.per_kib_ms = per_kib_ms
        self.jitter_ms = jitter_ms
        self.requests = 0
        self.prompt_bytes = 0

    def __call__(self, url: str, headers: dict, payload: dict, timeout: float):
        prompt = payload["messages"][0]["content"]
        size = len(prompt.encode("utf-8"))
        self.requests += 1
        self.prompt_bytes += size
        draws = _Draws(prompt)
        reply = respond(prompt, self.edge_target, draws)
        delay_ms = self.base_ms + self.per_kib_ms * size / 1024 + self.jitter_ms * draws.u[3]
        time.sleep(delay_ms / 1000)
        body = {"choices": [{"message": {"role": "assistant", "content": reply}}]}
        return 200, json.dumps(body)
