"""Pinned parser diagnostics: the full error list of every mutated text must
match fixtures/golden/parse_errors.json (see parse_error_corpus.py)."""

import json

from parse_error_corpus import PINNED, cases, error_list

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
