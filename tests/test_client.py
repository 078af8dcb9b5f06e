import dataclasses
import json
import threading
import time

import pytest

from cama.client import (
    ChatRequest,
    HttpChatClient,
    RecordingClient,
    ScriptedChatClient,
    TranscriptEntry,
    ask,
    complete_all,
    load_transcript,
    prompt_sha256,
    transcript_line,
)
from cama.config import Config
from cama.errors import ParseError, ScriptMismatch, TransportError
from cama.learning import AlignmentConfig


def ok_body(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


def entry(tag: str, prompt: str, response: str) -> TranscriptEntry:
    return TranscriptEntry(tag=tag, prompt_sha256=prompt_sha256(prompt), response=response)


class TestChatRequest:
    def test_fields_are_prompt_and_tag(self):
        assert [f.name for f in dataclasses.fields(ChatRequest)] == ["prompt", "tag"]
        req = ChatRequest(prompt="hi", tag="p_t")
        assert (req.prompt, req.tag) == ("hi", "p_t")

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(prompt="", tag="p_t")

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(prompt="hi", tag="p_zz")


class TestScriptedClient:
    def test_replays_in_order(self):
        client = ScriptedChatClient(
            [entry("p_t", "prompt", "first"), entry("p_t", "prompt", "second")]
        )
        req = ChatRequest(prompt="prompt", tag="p_t")
        assert client.complete(req) == "first"
        assert client.complete(req) == "second"
        assert client.pending() == 0

    def test_mismatch_includes_hashes(self):
        client = ScriptedChatClient([entry("p_t", "known", "X")])
        with pytest.raises(ScriptMismatch) as err:
            client.complete(ChatRequest(prompt="unknown", tag="p_t"))
        message = str(err.value)
        assert prompt_sha256("unknown") in message
        assert prompt_sha256("known") in message

    def test_tag_must_match(self):
        client = ScriptedChatClient([entry("p_t", "prompt", "X")])
        with pytest.raises(ScriptMismatch):
            client.complete(ChatRequest(prompt="prompt", tag="p_a"))

    def test_exhausted_queue_mismatch(self):
        client = ScriptedChatClient([entry("p_t", "prompt", "only")])
        req = ChatRequest(prompt="prompt", tag="p_t")
        client.complete(req)
        with pytest.raises(ScriptMismatch):
            client.complete(req)


class TestTranscriptFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        entries = [entry("p_t", "a", "ra"), entry("p_a", "b", "rb")]
        path.write_text("\n".join(transcript_line(e) for e in entries) + "\n")
        assert load_transcript(path) == entries

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"tag": "p_t"}\n')
        with pytest.raises(ParseError):
            load_transcript(path)

    @pytest.mark.parametrize("field", ["tag", "prompt_sha256", "response"])
    @pytest.mark.parametrize("value", [5, None, ["text"]], ids=["int", "null", "list"])
    def test_non_string_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "t.jsonl"
        doc = json.loads(transcript_line(entry("p_t", "a", "ra")))
        path.write_text(transcript_line(entry("p_t", "b", "rb")) + "\n"
                        + json.dumps({**doc, field: value}) + "\n")
        with pytest.raises(ParseError, match="bad transcript line 2: .* must be strings"):
            load_transcript(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            transcript_line(entry("p_t", "a", "ra")) + "\n"
            + '{"tag": "p_t", "prompt_sha256": "x", "response": "a", "response": "b"}\n'
        )
        message = "^invalid transcript line 2: repeated key 'response'$"
        with pytest.raises(ParseError, match=message):
            load_transcript(path)

    def test_line_separators_inside_a_response_round_trip(self, tmp_path):
        # a JSON line keeps U+0085, U+2028 and U+2029 unescaped
        path = tmp_path / "t.jsonl"
        entries = [entry("p_t", "a", "x\u2028y\u2029z\x85w"), entry("p_a", "b", "rb")]
        path.write_text(
            "\n".join(transcript_line(e) for e in entries) + "\n", encoding="utf-8"
        )
        assert load_transcript(path) == entries

    def test_recording_appends(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        inner = ScriptedChatClient([entry("p_t", "q", "resp")])
        recorder = RecordingClient(inner, path)
        assert recorder.complete(ChatRequest(prompt="q", tag="p_t")) == "resp"
        loaded = load_transcript(path)
        assert loaded == [entry("p_t", "q", "resp")]


class TestHttpClient:
    def client(self, transport, **kwargs):
        return HttpChatClient(
            api_base="http://api.test/v1",
            model="test-model",
            api_key="k",
            transport=transport,
            sleeper=lambda s: None,
            **kwargs,
        )

    def test_success_first_try(self):
        seen = {}

        def transport(url, headers, payload, timeout):
            seen.update(url=url, payload=payload, headers=headers)
            return 200, ok_body("pong")

        out = self.client(transport).complete(ChatRequest(prompt="ping", tag="p_t"))
        assert out == "pong"
        assert seen["url"] == "http://api.test/v1/chat/completions"
        assert seen["payload"]["messages"] == [{"role": "user", "content": "ping"}]
        assert seen["payload"]["temperature"] == 0.6
        assert seen["headers"]["Authorization"] == "Bearer k"

    def test_gateway_temperature_in_payload(self):
        seen = {}

        def transport(url, headers, payload, timeout):
            seen.update(payload=payload)
            return 200, ok_body("pong")

        client = self.client(transport, temperature=0.0)
        client.complete(ChatRequest(prompt="ping", tag="p_t"))
        assert seen["payload"] == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "ping"}],
            "temperature": 0.0,
        }

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            self.client(lambda *args: (200, ok_body("x")), temperature=-0.1)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 1e999])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            self.client(lambda *args: (200, ok_body("x")), temperature=temperature)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_in_flight_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="in_flight_limit must be >= 1"):
            self.client(lambda *args: (200, ok_body("x")), in_flight_limit=limit)

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_max_retries_below_one_rejected(self, attempts):
        with pytest.raises(ValueError, match="max_retries must be >= 1"):
            self.client(lambda *args: (200, ok_body("x")), max_retries=attempts)

    def test_two_failures_then_success(self):
        calls = {"n": 0}

        def flaky(url, headers, payload, timeout):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransportError("connection reset")
            return 200, ok_body("recovered")

        out = self.client(flaky, max_retries=3).complete(ChatRequest(prompt="q", tag="p_t"))
        assert out == "recovered"
        assert calls["n"] == 3

    def test_retry_budget_exhausted(self):
        calls = {"n": 0}

        def always_down(url, headers, payload, timeout):
            calls["n"] += 1
            raise TransportError("down")

        with pytest.raises(TransportError):
            self.client(always_down, max_retries=3).complete(
                ChatRequest(prompt="q", tag="p_t")
            )
        assert calls["n"] == 3

    def test_rate_limited_after_retries(self):
        calls = {"n": 0}

        def throttled(url, headers, payload, timeout):
            calls["n"] += 1
            return 429, "slow down"

        with pytest.raises(TransportError, match=r"rate limited \(attempt 2\)"):
            self.client(throttled, max_retries=2).complete(
                ChatRequest(prompt="q", tag="p_t")
            )
        assert calls["n"] == 2

    def test_server_errors_retried(self):
        calls = {"n": 0}

        def eventually(url, headers, payload, timeout):
            calls["n"] += 1
            return (500, "oops") if calls["n"] == 1 else (200, ok_body("ok"))

        assert self.client(eventually).complete(ChatRequest(prompt="q", tag="p_t")) == "ok"

    def test_client_error_not_retried(self):
        calls = {"n": 0}

        def bad_request(url, headers, payload, timeout):
            calls["n"] += 1
            return 400, "bad"

        with pytest.raises(TransportError):
            self.client(bad_request).complete(ChatRequest(prompt="q", tag="p_t"))
        assert calls["n"] == 1

    def test_backoff_schedule_jittered(self):
        delays = []

        def always_down(url, headers, payload, timeout):
            raise TransportError("down")

        client = HttpChatClient(
            api_base="http://api.test",
            model="m",
            transport=always_down,
            sleeper=delays.append,
        )
        with pytest.raises(TransportError):
            client.complete(ChatRequest(prompt="q", tag="p_t"))
        assert len(delays) == 2
        assert 1.0 <= delays[0] <= 1.25
        assert 2.0 <= delays[1] <= 2.5

    def test_malformed_body_is_transport_error(self):
        def weird(url, headers, payload, timeout):
            return 200, '{"nope": true}'

        with pytest.raises(TransportError):
            self.client(weird).complete(ChatRequest(prompt="q", tag="p_t"))

    # a lone surrogate has no UTF-8 form, so no transcript or artifact could hold it
    @pytest.mark.parametrize(
        "body",
        [
            '{"choices": [{"message": {"content": "a\\ud800b"}}]}',
            '{"choices": [{"message": {"content": "a"}}], "choices": []}',
            '{"choices": [{"message": {"content": NaN}}]}',
            "not json",
        ],
    )
    def test_body_read_json_refuses_is_transport_error(self, body):
        client = self.client(lambda url, headers, payload, timeout: (200, body))
        with pytest.raises(TransportError, match="^malformed completion response: invalid JSON"):
            client.complete(ChatRequest(prompt="q", tag="p_t"))


class TestCompleteAll:
    LIMIT = 3

    def staggered(self):
        """Client whose transport answers later requests sooner, refuses
        req-4, and records the peak number of calls in flight at once."""
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def transport(url, headers, payload, timeout):
            prompt = payload["messages"][0]["content"]
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.002 * (10 - int(prompt.split("-")[1])))
            with lock:
                state["now"] -= 1
            if prompt == "req-4":
                return 400, "bad"
            return 200, ok_body(f"resp-{prompt}")

        client = HttpChatClient(
            api_base="http://api.test", model="m", transport=transport,
            sleeper=lambda s: None, in_flight_limit=self.LIMIT,
        )
        return client, state

    def requests(self):
        return [ChatRequest(prompt=f"req-{i}", tag="p_t") for i in range(8)]

    def test_http_results_in_request_order_within_limit(self):
        client, state = self.staggered()
        results = complete_all(client, self.requests())
        assert results[:4] + results[5:] == [
            f"resp-req-{i}" for i in range(8) if i != 4
        ]
        assert isinstance(results[4], TransportError)
        assert 1 < state["peak"] <= self.LIMIT

    def test_recording_writes_request_order(self, tmp_path):
        client, state = self.staggered()
        path = tmp_path / "rec.jsonl"
        complete_all(RecordingClient(client, path), self.requests())
        assert load_transcript(path) == [
            entry("p_t", f"req-{i}", f"resp-req-{i}") for i in range(8) if i != 4
        ]
        assert state["peak"] > 1

    def test_recording_keeps_the_batch_around_a_lone_surrogate_reply(self, tmp_path):
        def transport(url, headers, payload, timeout):
            prompt = payload["messages"][0]["content"]
            if prompt == "req-1":
                return 200, '{"choices": [{"message": {"content": "\\ud800"}}]}'
            return 200, ok_body(f"resp-{prompt}")

        client = HttpChatClient(api_base="http://api.test", model="m", transport=transport)
        path = tmp_path / "rec.jsonl"
        results = complete_all(RecordingClient(client, path), self.requests()[:3])
        assert results[::2] == ["resp-req-0", "resp-req-2"]
        assert isinstance(results[1], TransportError)
        assert load_transcript(path) == [entry("p_t", f"req-{i}", f"resp-req-{i}") for i in (0, 2)]

    def test_plain_client_called_in_order(self):
        scripted = ScriptedChatClient(
            [entry("p_t", "same", "first"), entry("p_t", "same", "second")]
        )
        requests = [ChatRequest(prompt="same", tag="p_t")] * 3
        first, second, missing = complete_all(scripted, requests)
        assert (first, second) == ("first", "second")
        assert isinstance(missing, ScriptMismatch)
        assert missing.__traceback__ is None

    def test_empty_batch(self):
        client, state = self.staggered()
        assert complete_all(client, []) == []
        assert state["peak"] == 0

    def test_default_limit_sends_an_alignment_batch_in_one_wave(self):
        """Each answer step of an alignment round asks s_b questions; with the
        default limit they are all in flight together, so the step costs one
        round trip. The barrier breaks if any of them waits for a free worker."""
        s_b = AlignmentConfig().s_b
        assert Config().in_flight_limit >= s_b
        together = threading.Barrier(s_b, timeout=5)

        def transport(url, headers, payload, timeout):
            together.wait()
            return 200, ok_body("done")

        client = HttpChatClient(api_base="http://api.test", model="m", transport=transport)
        bindings = [{"question": f"q{i}"} for i in range(s_b)]
        assert ask(client, "p_t", bindings) == ["done"] * s_b
