"""The cross-version determinism lock: models whose per-tick ``World.digest()``
streams are pinned in ``fixtures/golden/digests.json``.

Each stream holds the digest after ``build_world`` and after each of
``TICKS`` ticks at seed ``SEED``.  ``tests/test_digest_lock.py`` compares a
fresh run against the pinned file.  Running this module rewrites the file;
do that only for an intended behaviour change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/digest_corpus.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from abms import engine
from abms.dsl import parse_model

from randmodels import random_text_model

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PINNED = FIXTURES / "golden" / "digests.json"
SEED = 42
TICKS = 60
GENERATED_SEEDS = range(10)

INLINE_CARTESIAN = """
model inline_cartesian {
  environment cartesian 0..30 0..30
  agent Person {
    create fixed 80 random
    attr frailty real = 0.05
    capability mobility random_walk step 1.5
    capability disease flu
    capability state_machine mood
  }
  entity Well {
    create fixed 3 at (5, 5) (15, 15) (25, 25)
  }
  machine mood {
    initial calm
    state calm
    state busy
    transition calm busy probabilistic rate 0.2
    transition busy calm deterministic 3 guard tick < 40
  }
  disease flu model SEIR {
    transmission proximity 2 probability 0.3 sources Well
    duration E deterministic 2
    duration I probabilistic rate 0.15
    immunity duration deterministic 10
    mortality I rate frailty every_timeunit
  }
  introduce flu deterministic 4 arbitrary periodic 20
  output seir every 1 to "seir.csv" {
    series exposed count(Person where flu is E)
    series infected count(Person where flu is I)
  }
}
"""

INLINE_GRAPH = """
model inline_graph {
  environment graph from edges {
    node a 0 0
    node b 100 0
    node c 200 0
    node d 100 100
    node e 100 -100
    node f 200 100
    edge a b 100
    edge b c 120
    edge b d 90
    edge b e 110
    edge c f 80
    edge d f 130
  }
  agent Car {
    create fixed 25 random
    capability mobility random_walk step 30
  }
  agent Light {
    create fixed 5 random
    capability flow_control stream west edge a b capacity 2 stream east edge b c capacity 3 stream north edge b d
    capability qlearning alpha 0.2 gamma 0.8 epsilon 0.2 plans Even Long bins 1 3 reward 0 - stopped
  }
  agent Timer {
    create fixed 2 random
    capability flow_control streams auto
    capability state_machine Auto
  }
  plan Even {
    phase p1 green west east duration 4
    phase p2 green north duration 4
  }
  plan Long {
    phase p1 green west east duration 8
    phase p2 green north duration 2
  }
  plan Auto {
    phase x green s0 s1 duration 3
    phase y green s2 duration 2
  }
  output flow every 5 to "flow.csv" {
    series stopped sum(Light, stopped)
    series cars count(Car)
  }
}
"""

INLINE_GRID_CUSTOM = """
model inline_grid_custom {
  environment grid width 15 height 15
  agent Host {
    create fixed 60 random
    attr age integer = 3
    capability mobility random_walk step 1
    capability disease pox
  }
  disease pox model custom {
    states S A B Z
    initial S
    transmission contact probability 0.6 to A infectious A B
    transition A B deterministic 3
    transition B Z probabilistic rate 0.3
    transition Z S deterministic 5
    mortality B rate 0.1 leaving_compartment
    mortality A rate 0.5 specific_timeunit 7
    mortality Z rate 0.2 when_condition tick > 30
  }
  introduce pox probabilistic 0.2 eligible age >= 3 periodic 15
}
"""


def corpus() -> list[tuple[str, object, Path]]:
    """(name, model, base directory) for every pinned stream."""
    models = [
        ("fixture_measles", parse_model((FIXTURES / "measles.abms").read_text(encoding="utf-8")), FIXTURES),
        ("fixture_traffic", parse_model((FIXTURES / "traffic.abms").read_text(encoding="utf-8")), FIXTURES),
    ]
    models += [(f"generated_{seed}", random_text_model(seed), FIXTURES) for seed in GENERATED_SEEDS]
    for text in (INLINE_CARTESIAN, INLINE_GRAPH, INLINE_GRID_CUSTOM):
        model = parse_model(text)
        models.append((model.name, model, FIXTURES))
    return models


def digest_stream(model, base_dir: Path) -> list[str]:
    world = engine.build_world(model, engine.RunConfig(seed=SEED, max_ticks=TICKS, base_dir=base_dir))
    stream = [world.digest()]
    for _ in range(TICKS):
        engine.tick(world)
        stream.append(world.digest())
    return stream


def main() -> int:
    pinned = {name: digest_stream(model, base) for name, model, base in corpus()}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} streams of {TICKS + 1} digests to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
