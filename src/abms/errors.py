"""Exception hierarchy shared across the toolchain."""

from __future__ import annotations


class AbmsError(Exception):
    """Base class for all errors raised by this package."""


class EvalError(AbmsError):
    """An expression could not be evaluated (bad reference, bad operand,
    division by zero).  ``site`` is the expression the failing compiled site
    was compiled from; the validator's report maps it to its model path."""

    def __init__(self, message: str, site: object = None):
        super().__init__(message)
        self.message = message
        self.site = site


class ExprTypeError(AbmsError):
    """An expression failed static type checking."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class EngineError(AbmsError):
    """A simulation run could not be built or completed."""


class InvalidModelError(EngineError):
    """A model failed validation; ``report`` holds its diagnostics."""

    def __init__(self, report):
        super().__init__("model failed validation: " + "; ".join(str(d) for d in report.errors()[:3]))
        self.report = report


class FileFormatError(EngineError):
    """An input file (point list, road map) is malformed."""
