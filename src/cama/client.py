"""Chat-completion clients: remote HTTP, scripted replay, and recording.

The scripted client replays a transcript keyed by (tag, prompt hash), so
every LLM-dependent pipeline stage can run deterministically offline.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence, TypeVar

from .errors import CamaError, ParseError, ScriptMismatch, TransportError
from .model import json_line, read_json, read_text
from .templates import TEMPLATE_TAGS, render_template

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.6
DEFAULT_MAX_RETRIES = 3
# at least alignment.s_b, so each answer step of an alignment round is one wave
DEFAULT_IN_FLIGHT_LIMIT = 16

R = TypeVar("R")


@dataclass(frozen=True)
class ChatRequest:
    prompt: str
    tag: str

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt is empty")
        if self.tag not in TEMPLATE_TAGS:
            raise ValueError(f"unknown request tag {self.tag!r}")


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ChatClient(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


def _settle(fn: Callable[..., R], arg) -> R | CamaError:
    try:
        return fn(arg)
    except CamaError as e:
        # the traceback holds the frames the error passed through, whose
        # locals can hold the error again: a cycle only a full collection frees
        return e.with_traceback(None)


def complete_all(client: ChatClient, requests: Sequence[ChatRequest]) -> list[str | CamaError]:
    """Complete independent requests; results come back in request order.

    A request that fails yields its ``CamaError`` in place of the response
    and does not stop the others. A client with its own ``complete_all``
    decides how the batch is sent; any other client is called one request
    at a time, in order.
    """
    batch = getattr(client, "complete_all", None)
    if batch is not None:
        return batch(requests)
    return [_settle(client.complete, r) for r in requests]


def ask(
    client: ChatClient,
    tag: str,
    bindings: Sequence[dict[str, str]],
    parse: Callable[[str], R] = str,
) -> list[R | CamaError]:
    """Render template ``tag`` with each bindings dict, complete the prompts as
    one batch through ``complete_all`` and return, per dict in order,
    ``parse(reply)`` or the ``CamaError`` of the failed call or parse. The
    default ``parse``, ``str``, keeps the reply as it is."""
    replies = complete_all(client, [ChatRequest(render_template(tag, b), tag) for b in bindings])
    return [r if isinstance(r, CamaError) else _settle(parse, r) for r in replies]


# --- transcript ------------------------------------------------------------


class TranscriptEntry(NamedTuple):
    tag: str
    prompt_sha256: str
    response: str


def load_transcript(path: str | Path) -> list[TranscriptEntry]:
    entries = []
    # only a newline ends a line: splitlines() would also split a response
    # at the U+2028 or U+0085 that a JSON line may hold unescaped
    for lineno, line in enumerate(read_text(path, "transcript").split("\n"), start=1):
        if not line.strip():
            continue
        doc = read_json(line, f"transcript line {lineno}")
        try:
            tag, sha, response = doc["tag"], doc["prompt_sha256"], doc["response"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"bad transcript line {lineno}: {e}") from e
        if not (isinstance(tag, str) and isinstance(sha, str) and isinstance(response, str)):
            raise ParseError(
                f"bad transcript line {lineno}: tag, prompt_sha256 and response must be strings"
            )
        entries.append(TranscriptEntry(tag, sha, response))
    return entries


def transcript_line(entry: TranscriptEntry) -> str:
    return json_line(
        {"tag": entry.tag, "prompt_sha256": entry.prompt_sha256, "response": entry.response}
    )


# --- scripted client --------------------------------------------------------


class ScriptedChatClient:
    """Replays transcript entries matched by (tag, prompt hash).

    Entries with the same key are consumed in recording order. A batch is
    replayed one request at a time in request order, which is the order a
    recording client writes it in, so identical prompts in one batch get
    their recorded responses back in the same positions.
    """

    def __init__(self, entries: Iterable[TranscriptEntry]):
        self._queues: dict[tuple[str, str], deque[str]] = {}
        self._count = 0
        for e in entries:
            self._queues.setdefault((e.tag, e.prompt_sha256), deque()).append(e.response)
            self._count += 1

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatClient":
        return cls(load_transcript(path))

    def complete(self, request: ChatRequest) -> str:
        digest = prompt_sha256(request.prompt)
        queue = self._queues.get((request.tag, digest))
        if not queue:
            available = sorted(
                h for (t, h), q in self._queues.items() if t == request.tag and q
            )
            raise ScriptMismatch(
                f"no scripted response for tag {request.tag!r} with prompt hash "
                f"{digest}; remaining hashes for this tag: {available[:5]}"
            )
        self._count -= 1
        return queue.popleft()

    def pending(self) -> int:
        """Entries not yet consumed; useful for asserting full coverage."""
        return self._count


class RecordingClient:
    """Wraps another client and appends every exchange to a transcript file.

    A batch goes to the inner client whole; its successful exchanges are
    then written from the caller's thread in request order.
    """

    def __init__(self, inner: ChatClient, path: str | Path):
        self._inner = inner
        self._path = Path(path)

    def complete(self, request: ChatRequest) -> str:
        response = self._inner.complete(request)
        self._append([(request, response)])
        return response

    def complete_all(self, requests: Sequence[ChatRequest]) -> list[str | CamaError]:
        results = complete_all(self._inner, requests)
        self._append(
            [(req, res) for req, res in zip(requests, results) if isinstance(res, str)]
        )
        return results

    def _append(self, exchanges: list[tuple[ChatRequest, str]]) -> None:
        with self._path.open("a", encoding="utf-8") as fh:
            for request, response in exchanges:
                entry = TranscriptEntry(
                    tag=request.tag,
                    prompt_sha256=prompt_sha256(request.prompt),
                    response=response,
                )
                fh.write(transcript_line(entry) + "\n")


# --- remote client ----------------------------------------------------------

# transport(url, headers, payload, timeout) -> (status_code, body_text)
Transport = Callable[[str, dict, dict, float], tuple[int, str]]


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float):
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as e:
        raise TransportError(f"request failed: {e}") from e
    return resp.status_code, resp.text


@dataclass
class HttpChatClient:
    """Chat-completion client for an OpenAI-style HTTP endpoint.

    Every request is sent at ``temperature``. Transient failures
    (connection errors, 429, 5xx) are retried with jittered exponential
    backoff, up to ``max_retries`` attempts in all. A batch runs on up to
    ``in_flight_limit`` threads at once.
    """

    api_base: str
    model: str
    api_key: str = ""
    timeout: float = 120.0
    in_flight_limit: int = DEFAULT_IN_FLIGHT_LIMIT
    temperature: float = DEFAULT_TEMPERATURE
    max_retries: int = DEFAULT_MAX_RETRIES
    transport: Transport = _requests_transport
    sleeper: Callable[[float], None] = time.sleep
    _jitter: random.Random = field(default_factory=lambda: random.Random())

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if self.in_flight_limit < 1:
            raise ValueError("in_flight_limit must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def complete_all(self, requests: Sequence[ChatRequest]) -> list[str | CamaError]:
        if not requests:
            return []
        workers = min(self.in_flight_limit, len(requests))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(functools.partial(_settle, self.complete), requests))

    def complete(self, request: ChatRequest) -> str:
        url = self.api_base.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": self.temperature,
        }
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                delay = (2 ** (attempt - 1)) * (1.0 + self._jitter.random() * 0.25)
                self.sleeper(delay)
            try:
                status, body = self.transport(url, headers, payload, self.timeout)
            except TransportError as e:
                last_error = e
                logger.warning("attempt %d/%d failed: %s", attempt + 1, self.max_retries, e)
                continue
            if status == 429:
                last_error = TransportError(f"rate limited (attempt {attempt + 1})")
                logger.warning("attempt %d/%d rate limited", attempt + 1, self.max_retries)
                continue
            if status >= 500:
                last_error = TransportError(f"server error {status}")
                logger.warning(
                    "attempt %d/%d got status %d", attempt + 1, self.max_retries, status
                )
                continue
            if status != 200:
                raise TransportError(f"endpoint returned status {status}: {body[:200]}")
            return self._extract_content(body)
        assert last_error is not None
        try:
            raise last_error
        finally:
            # the error's traceback holds this frame: a cycle if kept here
            last_error = None

    @staticmethod
    def _extract_content(body: str) -> str:
        try:
            content = read_json(body, "JSON")["choices"][0]["message"]["content"]
        except (ParseError, KeyError, IndexError, TypeError) as e:
            raise TransportError(f"malformed completion response: {e}") from e
        if not isinstance(content, str):
            raise TransportError("completion content is not text")
        return content
