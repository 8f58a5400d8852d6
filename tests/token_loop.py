"""The token loop that ``abms.dsl.lexer.tokenize`` replaced, kept as a test
oracle: the lexer must give exactly the tokens this loop gives, every field
of every token, on any text.

It matches whitespace and comments as tokens of their own and counts the
newlines of every match, one loop turn per match, exactly as the lexer once did.
"""

from __future__ import annotations

import re

from abms.dsl.lexer import _ESCAPE_RE, _ESCAPES, KEYWORDS, Token

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[\s]+)
    | (?P<comment>\#[^\n]*)
    | (?P<real>\d+\.\d+)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<badstring>"(?:\\.|[^"\\\n])*)
    | (?P<punct>\.\.|==|!=|<=|>=|[{}(),.=<>+\-*/])
    | (?P<error>.)
    | (?P<eof>\Z)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Tokens for ``text``, always ending with a single eof token."""
    tokens: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind, raw = m.lastgroup, m.group()
        start_line, start_col = line, col
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        if kind in ("ws", "comment"):
            continue
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
        tokens.append(Token(kind, value, raw, start_line, start_col, line, col))
    return tokens
