"""Source locations: a token's, a parse error's, and each agent and entity
type's, whose order in the text is the order the engine creates them in."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Half-open region of a source file, 1-based lines and columns."""

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
