import sys
from pathlib import Path

import numpy as np
import pytest
import requests

sys.path.insert(0, str(Path(__file__).parent))

from fake_llm import FakeLlm, question_text  # noqa: E402

from cama.model import KnowledgePoint, QaRecord  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--regenerate-golden",
        action="store_true",
        help="rewrite tests/golden/digests.json from the current outputs",
    )


def one_at_a_time(independent):
    """The batch decision PC takes, asking the scalar ``independent(u, v,
    s)``, s a frozenset, one test at a time."""

    def decide(x, y, s):
        tests = zip(x.tolist(), y.tolist(), s.tolist())
        return np.array([independent(u, v, frozenset(c)) for u, v, c in tests], dtype=bool)

    return decide


@pytest.fixture
def no_network(monkeypatch):
    """Refuse every request sent through ``requests``. An HttpChatClient
    bound its default transport when the class was defined, so replacing
    the transport function would not reach a client built later."""

    def refuse(self, method, url, *args, **kwargs):
        raise AssertionError(f"network access attempted: {url}")

    monkeypatch.setattr(requests.Session, "request", refuse)


@pytest.fixture
def fake_llm():
    return FakeLlm()


def make_corpus(spec: list[tuple[str, int, int, list[str]]]) -> list[QaRecord]:
    """Build fixture records from (id, a, b, kps) tuples; answer is a+b."""
    return [
        QaRecord(
            id=qa_id,
            question=question_text(qa_id, a, b, kps),
            answer=str(a + b),
            solution=f"Add {a} and {b} directly. [kps: {'; '.join(kps)}]",
        )
        for qa_id, a, b, kps in spec
    ]


@pytest.fixture
def small_corpus() -> list[QaRecord]:
    """Four solved questions over three knowledge points."""
    return make_corpus(
        [
            ("q01", 3, 4, ["alpha", "beta"]),
            ("q02", 10, 5, ["alpha"]),
            ("q03", 2, 2, ["beta", "gamma"]),
            ("q04", 7, 1, ["alpha", "gamma"]),
        ]
    )


def geometry_points() -> tuple[KnowledgePoint, KnowledgePoint, KnowledgePoint]:
    return (
        KnowledgePoint("Area of a circle", "area enclosed by a circle"),
        KnowledgePoint("Volume of a cylinder", "capacity of a cylinder"),
        KnowledgePoint("Volume of a cone", "capacity of a cone"),
    )
