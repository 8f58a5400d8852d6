"""Pinned validator output: seeded mutations of model texts that still parse,
and for each the full ``validate`` report, in
``fixtures/golden/validate_diagnostics.json``.

The texts are those of the parse-error corpus plus ``INLINE_PROBE``, which
adds a guarded machine with ``abort`` clauses, ``at (x, y)`` placement and a
learning reward.  Each case swaps an identifier (for another identifier of
the text, ``tick``, ``stopped`` or an unknown name), swaps a number for one
of ``NUMBERS``, replaces a number with an identifier or ``true``, swaps a
keyword, or drops a line; a mutation whose text no longer parses is drawn
again.  ``tests/test_validate_diagnostics.py`` compares a fresh validation of
every case against the pinned file.  Running this module rewrites the file;
do that only for an intended change to the validator's diagnostics, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/validate_corpus.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
import typing

from abms import expr as ex
from abms import metamodel as mm
from abms.dsl import parse
from abms.dsl.lexer import tokenize

from digest_corpus import FIXTURES, write_cases
from parse_error_corpus import lines_of
from parse_error_corpus import texts as parse_error_texts

PINNED = FIXTURES / "golden" / "validate_diagnostics.json"
SEED = 1
CASES_PER_TEXT = 40
MAX_DRAWS = 200
MUTATIONS = ("identifier", "number", "number to name", "keyword", "drop line")
NAMES = ("tick", "stopped", "nope")
NUMBERS = ("0", "1", "3", "0.0", "0.5", "1.5", "2.0", "250")
KEYWORDS = (
    "and", "or", "not", "true", "false", "integer", "real", "boolean", "text", "identifier",
    "probabilistic", "deterministic", "conditional", "proximity", "contact", "arbitrary", "eligible",
    "aperiodic", "periodic", "every_timeunit", "leaving_compartment", "random", "wrap",
)

INLINE_PROBE = """
model validate_probe {
  environment cartesian 0..20 0..20
  agent Walker {
    create fixed 6 at (2, 3) (4.5, 6)
    attr speed real = 1.5
    attr risk real = 0.1
    capability mobility random_walk step speed
    capability state_machine life
  }
  agent Signal {
    create fixed 2 random
    capability flow_control streams auto
    capability qlearning alpha 0.1 gamma 0.9 epsilon 0.2 plans Cycle bins 1 2 reward 0 - stopped
  }
  machine life {
    initial young
    state young
    state old
    state Dead
    transition young old deterministic 5 guard count(Walker where life is old) < 3 abort risk to Dead
    transition old young probabilistic rate 0.2 guard tick > 2 abort 0.5 to Dead
  }
  plan Cycle {
    phase p1 green s0 duration 3
    phase p2 green s1 duration 2
  }
  output probe every 1 to "probe.csv" {
    series old count(Walker where life is old)
  }
  concern aging {
    members life Walker
  }
}
"""


def texts() -> list[tuple[str, str]]:
    """(name, source text) for every text the corpus mutates."""
    return parse_error_texts() + [("inline_probe", INLINE_PROBE)]


def _replace(text: str, tok, new: str) -> str:
    lines = lines_of(text)
    at = sum(len(line) for line in lines[: tok.line - 1]) + tok.col - 1
    return text[:at] + new + text[at + len(tok.text):]


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """One seeded mutation of ``text``: (mutated text, what was done)."""
    tokens = tokenize(text)[:-1]
    idents = sorted({t.text for t in tokens if t.type == "ident"})
    kind = rng.choice(MUTATIONS)
    if kind == "drop line":
        lines = lines_of(text)
        i = rng.randrange(len(lines))
        return "".join(lines[:i] + lines[i + 1:]), f"drop line {i + 1}"
    wanted = {"identifier": ("ident",), "keyword": ("kw",)}.get(kind, ("int", "real"))
    tok = rng.choice([t for t in tokens if t.type in wanted])
    if kind == "identifier":
        new = rng.choice(idents + list(NAMES))
    elif kind == "number":
        new = rng.choice(NUMBERS)
    elif kind == "number to name":
        new = rng.choice(idents + ["true"])
    else:
        new = rng.choice(KEYWORDS)
    return _replace(text, tok, new), f"{tok.text!r} -> {new!r} at {tok.line}:{tok.col}"


def outcome(model: mm.Model) -> dict:
    """What is pinned per case: the report, one line per diagnostic."""
    return {"report": [str(d) for d in mm.validate(model)]}


def expression_trees(obj) -> typing.Iterator:
    """Every expression tree held anywhere in ``obj``'s dataclass fields, lists,
    tuples and dict values; the walk does not descend into a tree it yields."""
    if isinstance(obj, typing.get_args(ex.Expr)):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from expression_trees(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from expression_trees(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from expression_trees(item)


def cases() -> list[tuple[str, mm.Model]]:
    """(case name, parsed model) for every pinned case, in a fixed order."""
    rng = random.Random(SEED)
    found = []
    for name, text in texts():
        for i in range(CASES_PER_TEXT):
            for _ in range(MAX_DRAWS):
                mutated, what = mutate(text, rng)
                result = parse(mutated)
                if mutated != text and result.ok():
                    break
            else:
                raise RuntimeError(f"{name}/{i:02d}: no parseable mutation in {MAX_DRAWS} draws")
            found.append((f"{name}/{i:02d} {what}", result.model))
    return found


def main() -> int:
    pinned = [(name, outcome(model)) for name, model in cases()]
    write_cases(PINNED, pinned)
    print(f"wrote the reports of {len(pinned)} cases to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
