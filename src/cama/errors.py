"""Exception hierarchy shared by all cama modules."""


class CamaError(Exception):
    """Base class for every error raised by this package."""


# --- graph / model ---------------------------------------------------------

class CycleError(CamaError):
    """The directed part of a graph contains a cycle."""


class ParseError(CamaError):
    """Malformed serialized input.

    ``position`` is the byte/character offset when known, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


# --- incidence matrix / CI testing -----------------------------------------

class ColumnOutOfRange(CamaError):
    """A column index does not exist in the incidence matrix."""


class StratumOverflow(CamaError):
    """Conditioning set too large to stratify."""


class UnknownKey(CamaError):
    """An extraction record references a key that is neither canonical
    nor covered by the replacement map."""


# --- LLM gateway ------------------------------------------------------------

class MissingBinding(CamaError):
    """A template placeholder was left unbound."""

    def __init__(self, name: str):
        super().__init__(f"missing binding for placeholder {{{name}}}")
        self.name = name


class UnknownTag(CamaError):
    """No template registered under this tag."""


class TransportError(CamaError):
    """The remote completion endpoint could not be reached or answered
    with a non-retryable error."""


class RateLimited(TransportError):
    """The endpoint kept rate-limiting past the retry budget."""


class ScriptMismatch(CamaError):
    """The scripted client has no transcript entry for this request."""


class MissingAnswerTag(CamaError):
    """The response carries no usable <answer> block."""


class NoPointsFound(CamaError):
    """No knowledge-point lines could be parsed from the response."""


class MalformedDedup(CamaError):
    """The deduplication response violates the replacement-map contract."""


class CyclicReplacement(CamaError):
    """Replacement statements form a cycle."""


class MissingAnchor(CamaError):
    """The chosen-factors anchor phrase is absent from the response."""


class NoEditsFound(CamaError):
    """The relation-edit answer block is empty or missing."""


# --- pipelines / CLI --------------------------------------------------------

class EmptyDataset(CamaError):
    """No usable question records survived dataset construction."""


class EmptyTestSet(CamaError):
    """Evaluation was requested over zero questions."""


class ConfigError(CamaError):
    """Invalid or incomplete runtime configuration."""
