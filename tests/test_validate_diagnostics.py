"""Pinned validator output: the report of every mutated model must match
fixtures/golden/validate_diagnostics.json (see validate_corpus.py)."""

import json
import re

from abms import expr as ex
from abms import metamodel as mm
from abms.dsl import parse_model
from abms.dsl.lexer import tokenize

from validate_corpus import PINNED, _replace, cases, expression_trees, outcome, texts

CASES = cases()
SITE_LABELS = (
    "default", r"position \d+", "mobility step", "reward", "guard", "rate", "duration",
    "condition", "probability", "distance", "eligibility", "series",
)
EXTERNAL = """
model with_external {
  environment grid width 3 height 3
  agent A {
    create fixed 1 random
    capability external "lib.nls" warmup
  }
}
"""


def _pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_pinned_file_covers_the_corpus():
    names = [name for name, _ in CASES]
    assert len(set(names)) == len(names)
    assert sorted(_pinned()) == sorted(names)


def test_corpus_reaches_every_expression_site():
    messages = [line.split(": ", 2)[2] for result in _pinned().values() for line in result["report"]]
    for label in SITE_LABELS:
        assert any(re.match(rf"{label}(: | must be )", m) for m in messages), label


def test_outcomes_match_pinned():
    pinned = _pinned()
    for name, model in CASES:
        got = outcome(model)
        assert got == pinned[name], f"first differing case: {name}\n got: {got}\nwant: {pinned[name]}"


def test_validate_types_every_expression(monkeypatch):
    """Every expression tree of every corpus text reaches ex.infer_type during
    validate, and the report names the site of each."""
    typed: set[int] = set()
    infer_type = ex.infer_type

    def recording(expr, env):
        typed.add(id(expr))
        return infer_type(expr, env)

    monkeypatch.setattr(ex, "infer_type", recording)
    for name, text in texts() + [("external", EXTERNAL)]:
        model = parse_model(text)
        typed.clear()
        report = mm.validate(model)
        untyped = [t for t in expression_trees(model) if id(t) not in typed]
        assert not untyped, f"{name}: never typed: {untyped}"
        unnamed = [t for t in expression_trees(model) if id(t) not in report.sites]
        assert not unnamed, f"{name}: no site path: {unnamed}"


def test_a_replacement_lands_on_its_token_past_a_form_feed():
    """Token lines end at "\\n" only, so a form feed, at which
    ``str.splitlines`` also breaks, must not move the replacement."""
    text = "a\x0cb\nc d"
    token = tokenize(text)[-2]
    assert (token.text, token.line, token.col) == ("d", 2, 3)
    assert _replace(text, token, "X") == "a\x0cb\nc X"
