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

# Vehicles carry a disease on a graph, so transmission scans the source list
# and measures from edge and queue positions; vehicles and signal controllers
# die, leaving queues and intersections; a death rule tests a plan's phase.
INLINE_GRAPH_DISEASE = """
model inline_graph_disease {
  environment graph from edges {
    node a 0 0
    node b 100 0
    node c 200 0
    node d 100 100
    node e 100 -100
    edge a b 100
    edge b c 100
    edge b d 100
    edge b e 100
    edge c d 140
  }
  agent Car {
    create fixed 40 random
    capability mobility random_walk step 25
    capability disease flu
  }
  agent Light {
    create fixed 4 random
    attr waited integer
    capability flow_control streams auto
    capability state_machine Cycle
    capability disease blight
  }
  plan Cycle {
    phase p1 green s0 duration 3
    phase p2 green s1 s2 duration 2
  }
  disease flu model SIR {
    transmission proximity 60 probability 0.2
    duration I probabilistic rate 0.1
    mortality I rate 0.05 every_timeunit
  }
  disease blight model SIR {
    transmission contact probability 0.5
    duration I deterministic 30
    mortality I rate 0.2 when_condition Cycle is p2
  }
  introduce flu deterministic 6 arbitrary aperiodic
  introduce blight deterministic 2 arbitrary aperiodic
  output o every 1 to "o.csv" {
    series lights count(Light)
    series red count(Light where Cycle is p1)
    series waited sum(Light, waited)
  }
}
"""

# Villagers read boolean and text attributes from a point file; attributes
# without a default start at zero; a guard counts an entity population.
INLINE_POINTS = """
model inline_points {
  environment cartesian 0..20 0..20
  agent Villager {
    create gis "villagers.points"
    attr vaccinated boolean
    attr clan text
    attr visits integer
    capability mobility random_walk step 1
    capability disease pox
    capability state_machine chores
  }
  entity Well {
    create fixed 3 at (5, 5) (10, 10) (15, 15)
    attr depth real
  }
  machine chores {
    initial home
    state home
    state fetching
    transition home fetching probabilistic rate 0.3 guard count(Well where depth == 0.0) > 2 and clan == "north"
    transition fetching home deterministic 2 guard visits == 0
  }
  disease pox model SIR {
    transmission proximity 4 probability 0.35
    duration I deterministic 5
  }
  introduce pox deterministic 2 eligible not vaccinated and clan != "east" aperiodic
}
"""


# Dead as a machine state: cars' machines abort into it and stay there while
# the cars drive on, stones' machines start there, and a plan phase named
# Dead is an ordinary phase of the signal cycle.
INLINE_DEAD_MACHINES = """
model inline_dead_machines {
  environment graph from edges {
    node a 0 0
    node b 100 0
    node c 200 0
    node d 100 100
    edge a b 100
    edge b c 100
    edge b d 100
    edge c d 140
  }
  agent Car {
    create fixed 12 random
    capability mobility random_walk step 30
    capability state_machine life
  }
  agent Stone {
    create fixed 3 random
    capability state_machine inert
  }
  agent Light {
    create fixed 2 random
    capability flow_control streams auto
    capability state_machine Blink
  }
  machine life {
    initial young
    state young
    state old
    state Dead
    transition young old probabilistic rate 0.3 abort 0.2 to Dead
    transition old young deterministic 3
  }
  machine inert {
    initial Dead
    state Dead
    state awake
  }
  plan Blink {
    phase go green s0 duration 2
    phase Dead green s1 duration 3
  }
  output o every 1 to "o.csv" {
    series dead count(Car where life is Dead)
    series red count(Light where Blink is Dead)
  }
}
"""

# A signal controller that names a declared machine before its plan runs
# both: the machine steps once a tick and the plan cycles its phases, and
# the cars queue at the light while it is red.
INLINE_MACHINE_THEN_PLAN = """
model inline_machine_then_plan {
  environment graph from edges {
    node a 0 0
    node b 100 0
    node c 200 0
    node d 100 100
    edge a b 100
    edge b c 100
    edge b d 100
  }
  agent Car {
    create fixed 10 random
    capability mobility random_walk step 40
  }
  agent Light {
    create fixed 1 random
    capability flow_control streams auto
    capability state_machine M
    capability state_machine P
  }
  machine M {
    initial m1
    state m1
    state m2
    transition m1 m2 deterministic 2
    transition m2 m1 deterministic 2
  }
  plan P {
    phase p1 green s0 duration 2
    phase p2 green s1 duration 3
  }
  output o every 1 to "o.csv" {
    series p1 count(Light where P is p1)
    series m1 count(Light where M is m1)
  }
}
"""

# The edges of a signal cycle: a fixed plan of one phase, which cycles back
# into itself; a plan whose every phase lasts one tick, so the phase changes
# on each tick; and learners choosing among plans whose cycles last 1, 3 and
# 6 ticks, so they pick a new plan at different ticks.
INLINE_PLAN_EDGES = """
model inline_plan_edges {
  environment graph from edges {
    node a 0 0
    node b 100 0
    node c 200 0
    node d 100 100
    node e 200 100
    edge a b 100
    edge b c 100
    edge b d 100
    edge c e 100
    edge d e 100
  }
  agent Car {
    create fixed 14 random
    capability mobility random_walk step 35
  }
  agent Solo {
    create fixed 1 random
    capability flow_control streams auto
    capability state_machine One
  }
  agent Flicker {
    create fixed 2 random
    capability flow_control streams auto
    capability state_machine Flick
  }
  agent Chooser {
    create fixed 3 random
    capability flow_control streams auto
    capability qlearning alpha 0.3 gamma 0.7 epsilon 0.4 plans Short Mid Long bins 1 2
  }
  plan One {
    phase only green s0 duration 3
  }
  plan Flick {
    phase a green s0 duration 1
    phase b green s1 duration 1
    phase c green s0 s1 duration 1
  }
  plan Short {
    phase all green s0 s1 s2 duration 1
  }
  plan Mid {
    phase p1 green s0 duration 1
    phase p2 green s1 s2 duration 2
  }
  plan Long {
    phase p1 green s0 duration 2
    phase p2 green s1 duration 2
    phase p3 green s2 duration 2
  }
  output o every 1 to "o.csv" {
    series only count(Solo where One is only)
    series flick_b count(Flicker where Flick is b)
    series stopped sum(Chooser, stopped)
  }
}
"""


# A transmission radius computed per susceptible agent in a cartesian space:
# walkers scan within 2, elders, who stay put, within 3.5.
INLINE_CARTESIAN_COMPUTED = """
model inline_cartesian_computed {
  environment cartesian 0..24 0..24
  agent Walker {
    create fixed 90 random
    attr frailty real = 0.1
    capability mobility random_walk step 1
    capability disease flu
  }
  agent Elder {
    create fixed 20 random
    attr frailty real = 0.25
    capability disease flu
  }
  disease flu model SIR {
    transmission proximity 1 + frailty * 10 probability 0.2
    duration I deterministic 4
    immunity duration deterministic 8
  }
  introduce flu deterministic 3 arbitrary periodic 20
  output o every 1 to "o.csv" {
    series infected count(Walker where flu is I) + count(Elder where flu is I)
  }
}
"""

# A literal radius on a 5 x 5 wrapped grid: the 13 cells within 2 of a cell
# reach across both seams, and offsets 2 and -2 land on neighbouring cells.
INLINE_WRAPPED_SEAM = """
model inline_wrapped_seam {
  environment grid width 5 height 5 wrap
  agent Host {
    create fixed 30 random
    capability mobility random_walk step 1
    capability disease cold
  }
  disease cold model SIR {
    transmission proximity 2 probability 0.05
    duration I deterministic 3
    immunity duration deterministic 6
  }
  introduce cold deterministic 1 arbitrary periodic 12
  output o every 1 to "o.csv" {
    series infected count(Host where cold is I)
  }
}
"""

# Contact on a bounded grid: a rat is reached only from its own cell, by an
# infectious rat or by one of two nests.
INLINE_CONTACT = """
model inline_contact {
  environment grid width 8 height 8
  agent Rat {
    create fixed 50 random
    capability mobility random_walk step 1
    capability disease plague
  }
  entity Nest {
    create fixed 2 at (0, 0) (7, 3)
  }
  disease plague model SEIR {
    transmission contact probability 0.4 sources Nest
    duration E deterministic 2
    duration I probabilistic rate 0.25
    immunity duration deterministic 9
    mortality I rate 0.05 every_timeunit
  }
  introduce plague deterministic 2 arbitrary periodic 25
  output o every 1 to "o.csv" {
    series infected count(Rat where plague is I)
  }
}
"""


def corpus() -> list[tuple[str, object, Path]]:
    """(name, model, base directory) for every pinned stream."""
    models = [
        ("fixture_measles", parse_model((FIXTURES / "measles.abms").read_text(encoding="utf-8")), FIXTURES),
        ("fixture_traffic", parse_model((FIXTURES / "traffic.abms").read_text(encoding="utf-8")), FIXTURES),
    ]
    models += [(f"generated_{seed}", random_text_model(seed), FIXTURES) for seed in GENERATED_SEEDS]
    for text in (
        INLINE_CARTESIAN, INLINE_GRAPH, INLINE_GRID_CUSTOM, INLINE_GRAPH_DISEASE, INLINE_POINTS, INLINE_DEAD_MACHINES,
        INLINE_MACHINE_THEN_PLAN, INLINE_PLAN_EDGES, INLINE_CARTESIAN_COMPUTED, INLINE_WRAPPED_SEAM, INLINE_CONTACT,
    ):
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


def write_cases(path: Path, pinned: list[tuple[str, object]]) -> None:
    """Write ``pinned`` to ``path`` as a JSON object of one case a line, and
    print each case the rewrite adds, drops or changes."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    new = dict(pinned)
    for name in old:
        if name not in new:
            print(f"dropped {name}")
    for name, result in pinned:
        if name not in old:
            print(f"added {name}")
        elif old[name] != result:
            print(f"changed {name}")
    body = ",\n".join(f"{json.dumps(name)}: {json.dumps(result)}" for name, result in pinned)
    path.write_text("{\n" + body + "\n}\n", encoding="utf-8")


def main() -> int:
    pinned = {name: digest_stream(model, base) for name, model, base in corpus()}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pinned)} streams of {TICKS + 1} digests to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
