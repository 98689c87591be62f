"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ProvPurposeError`, so callers
(the CLI in particular) can distinguish domain errors from genuine bugs.
"""

from __future__ import annotations


class ProvPurposeError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(ProvPurposeError):
    """A document (graph, policy, request, purpose graph) is malformed."""


class UnknownVertexError(ProvPurposeError):
    """An edge or lookup referenced a vertex id that is not in the graph."""


class UnknownPurposeError(ProvPurposeError):
    """A purpose name is not a member of the purpose graph."""


class EmptyPurposeSetError(ProvPurposeError):
    """An operation that needs at least one member received an empty set."""


class MissingHierarchyLineError(ProvPurposeError):
    """An operation needs a purpose graph with a hierarchy line, and this one has none."""


class TypeMismatchError(ProvPurposeError):
    """A binary predicate compared values of incompatible types."""


class SearchLimitError(ProvPurposeError):
    """A partition search drew more candidates than its step budget allows."""


class _PositionedSyntaxError(ProvPurposeError):
    """A text does not follow its grammar; `position` is where, when known."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PatternSyntaxError(_PositionedSyntaxError):
    """A path pattern or target string does not follow the grammar."""


class FidaSyntaxError(_PositionedSyntaxError):
    """A merge expression does not follow the expression grammar."""


class UnboundNameError(ProvPurposeError):
    """A merge expression referenced a set name with no binding."""


class ConfigurationError(ProvPurposeError):
    """An operation is missing context it needs (e.g. ranks for precedence)."""


class StageError(ProvPurposeError):
    """Wraps an error raised inside a decision pipeline stage.

    The failing stage is named so callers can tell where a decision fell over.
    """

    def __init__(self, stage: str, cause: Exception) -> None:
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: {cause}")
