"""Exception hierarchy shared across the toolchain."""

from __future__ import annotations


class AbmsError(Exception):
    """Base class for all errors raised by this package."""


class EvalError(AbmsError):
    """An expression could not be evaluated (bad reference, bad operand,
    division by zero).  ``path`` names the model element whose site failed,
    once the compiled site has tagged it."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.message = message
        self.path = path


class ExprTypeError(AbmsError):
    """An expression failed static type checking."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class EngineError(AbmsError):
    """A simulation run could not be built or completed."""


class FileFormatError(EngineError):
    """An input file (point list, road map) is malformed."""
