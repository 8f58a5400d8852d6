"""Tokenizer for the modeling language.

Total over arbitrary input: unknown characters and unterminated strings
become error tokens for the parser to report, never exceptions.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..source import SourceSpan

KEYWORDS = frozenset(
    """
    model environment grid width height wrap cartesian graph from
    agent entity create fixed random at gis osm edges node edge
    attr integer real boolean identifier text
    capability mobility random_walk step disease state_machine flow_control
    streams auto stream capacity qlearning alpha gamma epsilon plans bins
    reward external adaptation
    machine initial state transition guard abort to
    plan phase green duration
    probabilistic deterministic conditional custom all_of any_of rate
    transmission proximity contact probability infectious condition sources
    passive immunity mortality
    every_timeunit specific_timeunit when_condition leaving_compartment
    states introduce arbitrary eligible aperiodic periodic
    output every series concern members
    count sum where is and or not true false
    """.split()
)

# One match per token, whitespace and comments skipped as its prefix; as ``.``
# or ``\Z`` always matches after the skip, the skip never backtracks.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
      (?P<real>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<badstring>"(?:\\.|[^"\\\n])*)
    | (?P<punct>\.\.|==|!=|<=|>=|[{}(),.=<>+\-*/])
    | (?P<error>.)
    | (?P<eof>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# In a string, backslash-n and backslash-t stand for a newline and a tab; any
# other escaped character stands for itself.
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


class Token(NamedTuple):
    type: str  # kw | ident | int | real | string | punct | error | eof
    value: object  # parsed value (str for idents/kw/punct, numbers for literals)
    text: str
    line: int
    col: int
    end_line: int
    end_col: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.col, self.end_line, self.end_col)

    def describe(self) -> str:
        if self.type == "eof":
            return "end of input"
        if self.type in ("kw", "punct"):
            return f"'{self.text}'"
        if self.type == "ident":
            return f"identifier '{self.text}'"
        return str(self.value) if self.type == "error" else self.type


def tokenize(text: str) -> list[Token]:
    """Tokens for ``text``, always ending with a single eof token; only ``\\n`` ends a line."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, start) + 1
        start_line, start_col = line, start - line_start + 1
        raw = m[kind]
        value: object = raw
        if kind == "ident":
            kind = "kw" if raw in KEYWORDS else "ident"
        elif kind == "int":
            value = int(raw)
        elif kind == "real":
            value = float(raw)
        elif kind == "string":
            value = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), raw[1:-1])
        elif kind == "badstring":
            kind, value = "error", "unterminated string"
        elif kind == "error":
            value = f"unexpected character {raw!r}"
        if "\n" in raw:  # only a string spans lines, by a backslash-newline
            line += raw.count("\n")
            line_start = text.rfind("\n", start, end) + 1
        tokens.append(Token(kind, value, raw, start_line, start_col, line, end - line_start + 1))
        if kind == "eof":  # a match that reaches the end is followed by one more, empty, at \Z
            break
        pos = end
    return tokens
