"""Pinned emitter output: for every model of the corpus, the sha256 of the
NetLogo text ``codegen.generate`` writes and of its generation report, in
``fixtures/golden/netlogo.json``.

The models are those of the digest corpus (both fixtures among them), every
case of the validator corpus that validates, and ``INLINE_COMPOSITE``, which
uses the grammar no other corpus text reaches: ``and``, ``not`` and both
composite trigger kinds.  ``tests/test_netlogo_corpus.py`` compares a fresh
generation of every case against the pinned file.  Running this module
rewrites the file; do that only for an intended change to the emitter's
output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/netlogo_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import sys

from abms import codegen
from abms import metamodel as mm
from abms.dsl import parse_model

from digest_corpus import FIXTURES, corpus as digest_models, write_cases
from validate_corpus import cases as validate_cases

PINNED = FIXTURES / "golden" / "netlogo.json"

# Every walker leaves ``a`` at tick 4 (the guard holds from tick 2, both
# parts of all_of from tick 4) and enters ``c`` one tick later.
INLINE_COMPOSITE = """
model inline_composite {
  environment grid width 6 height 6
  agent Walker {
    create fixed 8 random
    attr ready boolean = true
    capability state_machine stage
  }
  machine stage {
    initial a
    state a
    state b
    state c
    transition a b custom all_of(deterministic 2, conditional tick >= 4) guard not (ready and tick < 2) or false
    transition b c custom any_of(conditional tick > 100, deterministic 1)
  }
}
"""


def corpus() -> list[tuple[str, mm.Model]]:
    """(case name, validating model) for every pinned case, in a fixed order."""
    found = [(name, model) for name, model, _ in digest_models()]
    found += [(name, model) for name, model in validate_cases() if mm.validate(model).ok()]
    found.append(("inline_composite", parse_model(INLINE_COMPOSITE)))
    return found


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(model: mm.Model) -> dict:
    """What is pinned per case: the digests of the NetLogo text and of the report."""
    source, report = codegen.generate(model)
    return {"nlogo": _sha256(source), "report": _sha256(json.dumps(report.to_dict()))}


def main() -> int:
    pinned = [(name, outcome(model)) for name, model in corpus()]
    write_cases(PINNED, pinned)
    print(f"wrote the NetLogo and report digests of {len(pinned)} cases to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
