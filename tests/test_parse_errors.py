"""Pinned parser diagnostics: the full error list of every mutated text must
match fixtures/golden/parse_errors.json (see parse_error_corpus.py)."""

import ast
import json
import random
import re

from parse_error_corpus import PINNED, cases, error_list, mutate

CASES = cases()


def _pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_pinned_file_covers_the_corpus():
    names = [name for name, _ in CASES]
    assert len(set(names)) == len(names)
    assert sorted(_pinned()) == sorted(names)


def test_corpus_reaches_every_block_duplicate_check():
    messages = {error[3].split("'")[0] for errors in _pinned().values() for error in errors}
    for message in (
        "duplicate attribute name ",
        "duplicate duration for compartment ",
        "duplicate state name ",
        "duplicate phase name ",
        "duplicate series label ",
    ):
        assert message in messages


def test_error_lists_match_pinned():
    pinned = _pinned()
    for name, text in CASES:
        got = error_list(text)
        assert got == pinned[name], f"first differing case: {name}\n got: {got}\nwant: {pinned[name]}"


def test_mutations_land_on_their_token_past_other_line_breaks():
    """Token lines end at "\\n" only; a form feed, a NEL and a line
    separator, at which ``str.splitlines`` also breaks, move no mutation."""
    text = "a\x0cb\x85c\nd\u2028e f\n"
    lines = text.split("\n")
    starts = [0, len(lines[0]) + 1]
    kinds = set()
    for seed in range(80):
        mutated, what = mutate(text, random.Random(seed))
        if (copied := re.fullmatch(r"copy line (\d+)", what)) is not None:
            n = int(copied[1])
            assert mutated.split("\n") == lines[:n] + [lines[n - 1]] + lines[n:], what
            kinds.add("copy line")
            continue
        kind, token, line, col = re.fullmatch(r"(\w+) ?(.*) at (\d+):(\d+)", what).groups()
        at = starts[int(line) - 1] + int(col) - 1
        expected = {
            "cut": lambda: text[:at],
            "drop": lambda: text[:at] + text[at + len(ast.literal_eval(token)):],
            "insert": lambda: text[:at] + ast.literal_eval(token) + " " + text[at:],
            "copy": lambda: text[:at] + ast.literal_eval(token) + " " + text[at:],
        }[kind]()
        assert mutated == expected, what
        kinds.add(kind)
    assert kinds == {"drop", "insert", "copy", "copy line", "cut"}
