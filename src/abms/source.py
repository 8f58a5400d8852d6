"""Source locations attached to parsed model elements."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class SourceSpan:
    """Half-open region of a source file, 1-based lines and columns.

    Treat a span as immutable: it is hashed by value.  It is not declared
    frozen because a frozen dataclass sets each field through
    ``object.__setattr__``, which triples the cost of the parser's commonest
    allocation."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.start_line, self.start_col) > (self.end_line, self.end_col):
            raise ValueError("span start must not come after its end")

    def label(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"
