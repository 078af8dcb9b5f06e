"""Exception hierarchy shared by all cama modules.

Each class marks a condition a caller catches by name or a user sees as a
distinct name; broken invariants and bad arguments raise ``ValueError``.
"""


class CamaError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CamaError):
    """Malformed serialized input.

    ``position`` is the byte/character offset when known, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class ConfigError(CamaError):
    """Invalid or incomplete runtime configuration."""


# --- LLM gateway ------------------------------------------------------------

class TransportError(CamaError):
    """The remote completion endpoint could not be reached, kept failing
    past the retry budget, or answered with a non-retryable error."""


class ScriptMismatch(CamaError):
    """The scripted client has no transcript entry for this request."""


class ReplyError(CamaError):
    """A model reply does not have the shape its prompt asks for."""


# --- pipelines --------------------------------------------------------------

class EmptyDataset(CamaError):
    """No usable question records survived dataset construction."""


class EmptyTestSet(CamaError):
    """Evaluation was requested over zero questions."""
