"""Pinned emitter output: the NetLogo text and generation report of every
corpus model must match fixtures/golden/netlogo.json (see netlogo_corpus.py)."""

import json

from abms import codegen
from abms import metamodel as mm

from netlogo_corpus import PINNED, corpus, outcome

CASES = corpus()


def _pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_pinned_file_covers_the_corpus():
    names = [name for name, _ in CASES]
    assert len(set(names)) == len(names)
    assert sorted(_pinned()) == sorted(names)


def test_outputs_match_pinned():
    pinned = _pinned()
    for name, model in CASES:
        got = outcome(model)
        assert got == pinned[name], f"first differing case: {name}\n got: {got}\nwant: {pinned[name]}"


def test_every_case_passes_check_structure():
    """The contract: every validating model generates well-formed NetLogo."""
    failing = [
        name for name, model in CASES if mm.validate(model).ok() and not codegen.check_structure(*codegen.generate(model))
    ]
    assert not failing, f"{len(failing)} cases fail check_structure, the first: {failing[0]}"
