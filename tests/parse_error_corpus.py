"""Pinned parser diagnostics: seeded mutations of model texts and the full
error list the parser reports for each, in ``fixtures/golden/parse_errors.json``.

The texts are both fixtures, ``format_model(random_text_model(seed))`` and
the inline models of the digest corpus.  Each case drops, inserts or copies a
token, copies a whole line (which is how duplicate declarations arise), or
cuts the text short.  ``tests/test_parse_errors.py`` compares a fresh parse of
every case against the pinned file.  Running this module rewrites the file; do
that only for an intended change to the parser's diagnostics, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/parse_error_corpus.py
"""

from __future__ import annotations

import random
import sys

from abms.dsl import format_model, parse
from abms.dsl.lexer import tokenize

from digest_corpus import FIXTURES, INLINE_CARTESIAN, INLINE_GRAPH, INLINE_GRID_CUSTOM, write_cases
from randmodels import random_text_model

PINNED = FIXTURES / "golden" / "parse_errors.json"
SEED = 18
GENERATED_SEEDS = range(4)
CASES_PER_TEXT = 36
MUTATIONS = ("drop", "insert", "copy", "copy line", "cut")
# Tokens to insert: punctuation, block and clause keywords, plain values, an
# unknown character and an unterminated string (the lexer's two error tokens).
INSERTS = (
    "{", "}", "(", ")", ",", "..", "=", "-", "*", "model", "agent", "attr", "state",
    "transition", "phase", "series", "duration", "x", "3", "0.5", '"s"', "@", '"open',
)


def texts() -> list[tuple[str, str]]:
    """(name, source text) for every text the corpus mutates."""
    found = [(name, (FIXTURES / f"{name}.abms").read_text(encoding="utf-8")) for name in ("measles", "traffic")]
    found += [(f"generated_{seed}", format_model(random_text_model(seed))) for seed in GENERATED_SEEDS]
    found += [
        ("inline_cartesian", INLINE_CARTESIAN),
        ("inline_graph", INLINE_GRAPH),
        ("inline_grid_custom", INLINE_GRID_CUSTOM),
    ]
    return found


def lines_of(text: str) -> list[str]:
    """The lines of ``text``, each with its ending newline.  Unlike
    ``str.splitlines``, only "\\n" ends a line, as in the lexer's line count."""
    *ended, last = text.split("\n")
    return [line + "\n" for line in ended] + ([last] if last else [])


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """One seeded mutation of ``text``: (mutated text, what was done)."""
    lines = lines_of(text)
    line_starts = [0]
    for line in lines:
        line_starts.append(line_starts[-1] + len(line))
    tokens = tokenize(text)[:-1]
    tok = rng.choice(tokens)
    at = line_starts[tok.line - 1] + tok.col - 1
    where = f"at {tok.line}:{tok.col}"
    kind = rng.choice(MUTATIONS)
    if kind == "drop":
        end = line_starts[tok.end_line - 1] + tok.end_col - 1
        return text[:at] + text[end:], f"drop {tok.text!r} {where}"
    if kind == "insert":
        new = rng.choice(INSERTS)
        return text[:at] + new + " " + text[at:], f"insert {new!r} {where}"
    if kind == "copy":
        new = rng.choice(tokens).text
        return text[:at] + new + " " + text[at:], f"copy {new!r} {where}"
    if kind == "copy line":
        line_end = line_starts[tok.line]
        return text[:line_end] + lines[tok.line - 1] + text[line_end:], f"copy line {tok.line}"
    return text[:at], f"cut {where}"


def error_list(text: str) -> list[list]:
    """Every error the parser reports for ``text``: [span, expected, found, message]."""
    return [
        [[e.span.start_line, e.span.start_col, e.span.end_line, e.span.end_col], list(e.expected), e.found, e.message]
        for e in parse(text).errors
    ]


def cases() -> list[tuple[str, str]]:
    """(case name, mutated text) for every pinned case, in a fixed order."""
    rng = random.Random(SEED)
    found = []
    for name, text in texts():
        for i in range(CASES_PER_TEXT):
            mutated, what = mutate(text, rng)
            found.append((f"{name}/{i:02d} {what}", mutated))
    return found


def main() -> int:
    pinned = [(name, error_list(text)) for name, text in cases()]
    write_cases(PINNED, pinned)
    print(f"wrote the error lists of {len(pinned)} cases to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
