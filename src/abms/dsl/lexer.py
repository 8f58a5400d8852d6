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

# One match per token or newline, whitespace and comments skipped as its
# prefix; as ``\n``, ``.`` or ``\Z`` always matches after the skip, the skip
# never backtracks.  A newline is a match of its own, so the loop counts lines
# there and no token searches its prefix for them.
_TOKEN_RE = re.compile(
    r"""
    (?:[^\S\n]+|\#[^\n]*)*
    (?:
      (?P<nl>\n)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>\.\.|==|!=|<=|>=|[{}(),.=<>+\-*/])
    | (?P<real>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<badstring>"(?:\\.|[^"\\\n])*)
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
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        raw = m[kind]
        end = m.end()
        start_col = end - len(raw) - line_start + 1
        if kind == "ident" or kind == "punct":  # the commonest tokens: value is text, one line
            if kind == "ident" and raw in KEYWORDS:
                kind = "kw"
            append(new(Token, (kind, raw, raw, line, start_col, line, end - line_start + 1)))
            continue
        start_line = line
        value: object = raw
        if kind == "int":
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
            line_start = text.rfind("\n", 0, end) + 1
        append(Token(kind, value, raw, start_line, start_col, line, end - line_start + 1))
        if kind == "eof":  # a match that reaches the end is followed by one more, empty, at \Z
            break
    return tokens
