"""cama: learn a causal prerequisite graph over mathematical knowledge
points from QA corpora and use task-relevant subgraphs to guide answering."""

from .graph import (
    Mcg,
    deserialize_graph,
    export_dot,
    extract_subgraph,
    graphs_equal,
    serialize_graph,
    verbalize,
)
from .model import KnowledgePoint, QaRecord, ReplacementMap, normalize_key

__all__ = [
    "IncidenceMatrix",
    "KnowledgePoint",
    "Mcg",
    "QaRecord",
    "ReplacementMap",
    "deserialize_graph",
    "export_dot",
    "extract_subgraph",
    "graphs_equal",
    "normalize_key",
    "serialize_graph",
    "verbalize",
]


def __getattr__(name: str):
    # the matrix module imports NumPy, which importing cama must not
    if name == "IncidenceMatrix":
        from .matrix import IncidenceMatrix

        return IncidenceMatrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
