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
from .matrix import IncidenceMatrix

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
