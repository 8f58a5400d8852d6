"""Seeded workload generator for the benchmark.

``generate(name, seed, dest)`` writes every input file of one workload into
``dest`` and returns the models it wrote: the simulated model, named after
the workload, and the front-end corpus, which is the same for every workload
at one seed.  The same seed always gives the same bytes; the program under
test only ever sees these files.

Run directly to inspect the inputs:

    python3 bench/workloads.py sir_grid 42 /tmp/sir_grid
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

WORKLOADS = ("sir_grid", "sir_cart", "traffic_grid")

# Ticks per simulated run.  Chosen so one run takes two to three seconds on a
# 2-core machine: long enough to dwarf interpreter start-up, short enough that
# a measurement window holds several runs.  The models' immunity durations and
# introduction periods are scaled to these runs, so waning immunity and
# periodic re-introduction both happen within them.
TICKS = {"sir_grid": 20, "sir_cart": 12, "traffic_grid": 500}
FIXTURE_TICKS = 500
CORPUS_MODELS = 3
CORPUS_UNITS = 20  # about 40 lines each, so about 800 lines per model


def generate(name: str, seed: int, dest: str | Path) -> list[Path]:
    """Write the inputs of workload ``name`` for ``seed`` under ``dest``.

    Returns the models written: the simulated model first, then the corpus.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    root = Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    model = root / f"{name}.abms"
    if name == "sir_grid":
        _write(root / "natives.points", _grid_points(rng, 1000, 100, 100))
        _write(model, SIR_GRID)
    elif name == "sir_cart":
        _write(model, SIR_CART)
    else:
        _write(root / "lattice.osm", osm_lattice(rng, 10, 10))
        _write(model, TRAFFIC_GRID)
    return [model, *generate_corpus(seed, root)]


def generate_corpus(seed: int, root: Path) -> list[Path]:
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"frontend_corpus:{seed}")
    paths = [root / f"corpus{index}.abms" for index in range(CORPUS_MODELS)]
    for index, path in enumerate(paths):
        _write(path, corpus_model(rng, path.stem, index))
    return paths


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Simulation models


SIR_GRID = """\
model sir_grid {
  environment grid width 100 height 100 wrap
  agent Native {
    create gis "natives.points"
    capability mobility random_walk step 1
    capability disease measles
  }
  agent Immigrant {
    create fixed 1000 random
    capability mobility random_walk step 1
    capability disease measles
  }
  disease measles model SIR {
    transmission proximity 2 probability 0.3
    duration I probabilistic rate 0.08
    immunity duration deterministic 5
    mortality I rate 0.02 leaving_compartment
  }
  introduce measles deterministic 20 arbitrary periodic 10
  output sir every 1 to "sir.csv" {
    series susceptible count(Native where measles is S) + count(Immigrant where measles is S)
    series infected count(Native where measles is I) + count(Immigrant where measles is I)
    series recovered count(Native where measles is R) + count(Immigrant where measles is R)
  }
}
"""

SIR_CART = """\
model sir_cart {
  environment cartesian 0.0..200.0 0.0..200.0
  agent Resident {
    create fixed 4000 random
    capability mobility random_walk step 0.8
    capability disease flu
  }
  disease flu model SEIR {
    transmission proximity 1 probability 0.2
    duration E deterministic 3
    duration I probabilistic rate 0.25
    immunity duration deterministic 3
    mortality I rate 0.01 every_timeunit
  }
  introduce flu deterministic 10 arbitrary periodic 4
  output seir every 1 to "seir.csv" {
    series susceptible count(Resident where flu is S)
    series exposed count(Resident where flu is E)
    series infected count(Resident where flu is I)
    series recovered count(Resident where flu is R)
  }
}
"""

TRAFFIC_GRID = """\
model traffic_grid {
  environment graph from osm "lattice.osm"
  agent Vehicle {
    create fixed 2000 random
    capability mobility random_walk step 40
  }
  agent Controller {
    create osm "lattice.osm"
    capability flow_control streams auto
    capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans MainGreen CrossGreen bins 2 5
  }
  plan MainGreen {
    phase main green s0 s1 duration 12
    phase cross green s2 s3 duration 6
  }
  plan CrossGreen {
    phase main green s0 s1 duration 6
    phase cross green s2 s3 duration 12
  }
  output flow every 5 to "flow.csv" {
    series stopped sum(Controller, stopped)
    series moving count(Vehicle)
  }
}
"""


def _grid_points(rng: random.Random, count: int, width: int, height: int) -> str:
    lines = ["# native settlement points, one agent per line"]
    for _ in range(count):
        lines.append(f"{rng.randrange(width)}.0,{rng.randrange(height)}.0")
    return "\n".join(lines) + "\n"


def osm_lattice(rng: random.Random, rows: int, cols: int) -> str:
    """An OSM-XML street lattice with about 111 m between neighbouring nodes.

    Node positions are jittered by the seed, so edge lengths (and with them
    vehicle travel times) differ between seeds.
    """
    spacing = 0.001  # degrees of latitude, about 111 m
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="bench lattice">']
    for r in range(rows):
        for c in range(cols):
            lat = -30.0 + r * spacing + rng.uniform(-0.1, 0.1) * spacing
            lon = -51.0 + c * spacing + rng.uniform(-0.1, 0.1) * spacing
            lines.append(f'  <node id="{_node_id(r, c, cols)}" lat="{lat:.7f}" lon="{lon:.7f}"/>')
    way = 1000
    streets = [[(r, c) for c in range(cols)] for r in range(rows)]
    streets += [[(r, c) for r in range(rows)] for c in range(cols)]
    for street in streets:
        lines.append(f'  <way id="{way}">')
        lines.extend(f'    <nd ref="{_node_id(r, c, cols)}"/>' for r, c in street)
        lines.append('    <tag k="highway" v="residential"/>')
        lines.append("  </way>")
        way += 1
    lines.append("</osm>")
    return "\n".join(lines) + "\n"


def _node_id(r: int, c: int, cols: int) -> int:
    return 1 + r * cols + c


# ---------------------------------------------------------------------------
# Front-end corpus


_KINDS = ("SIR", "SEIR", "PSIR", "custom")


def _rate(rng: random.Random) -> str:
    return f"{rng.randint(1, 90) / 100}"


def _trigger(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return f"probabilistic rate {_rate(rng)}"
    return f"deterministic {rng.randint(1, 12)}"


def corpus_model(rng: random.Random, name: str, index: int) -> str:
    """A valid model in canonical form, built from repeated units.

    Each unit adds an entity, an agent, a guarded machine, a disease of one of
    the four kinds, an introduction, an output with nested aggregates and a
    concern.  Every third model sits on a graph with signal plans and
    learning controllers, so plans and flow control are covered too.
    """
    graph = index % 3 == 2
    units = range(CORPUS_UNITS)
    out = [f"model {name} {{"]
    if graph:
        out.append("  environment graph from edges {")
        size = 4
        for r in range(size):
            for c in range(size):
                out.append(f"    node n{r}_{c} {r * 100}.0 {c * 100}.0")
        for r in range(size):
            for c in range(size):
                if c + 1 < size:
                    out.append(f"    edge n{r}_{c} n{r}_{c + 1} {rng.randint(80, 120)}.0")
                if r + 1 < size:
                    out.append(f"    edge n{r}_{c} n{r + 1}_{c} {rng.randint(80, 120)}.0")
        out.append("  }")
    elif index % 3 == 1:
        out.append("  environment cartesian 0.0..50.0 0.0..50.0")
    else:
        out.append(f"  environment grid width {rng.randint(20, 60)} height {rng.randint(20, 60)} wrap")
    for i in units:
        out += [
            f"  entity Well{i} {{",
            f"    create fixed {rng.randint(1, 6)} random",
            f"    attr level real = {rng.randint(1, 20) / 10}",
            "  }",
        ]
    for i in units:
        out += [
            f"  agent Person{i} {{",
            f"    create fixed {rng.randint(5, 50)} random",
            f"    capability mobility random_walk step {rng.randint(1, 3)}",
            f"    capability disease d{i}",
            f"    capability state_machine mood{i}",
            f"    attr age integer = {rng.randint(0, 9)}",
            f"    attr weight real = age * {rng.randint(2, 9)}.5 + 1.0",
            "  }",
        ]
    if graph:
        out += [
            "  agent Controller {",
            f"    create fixed {rng.randint(4, 12)} random",
            "    capability flow_control streams auto",
            f"    capability qlearning alpha 0.{rng.randint(1, 9)} gamma 0.9 epsilon 0.1 plans Even Odd bins 2 5",
            "  }",
        ]
    for i in units:
        out += [
            f"  machine mood{i} {{",
            "    initial calm",
            "    state calm",
            "    state busy",
            "    state tired",
            f"    transition calm busy {_trigger(rng)} guard age > {rng.randint(0, 5)} and tick < {rng.randint(10, 90)}",
            f"    transition busy tired {_trigger(rng)} guard count(Person{i} where age > {rng.randint(0, 5)}) > {rng.randint(1, 9)}",
            f"    transition tired calm {_trigger(rng)} abort {_rate(rng)} to busy",
            "  }",
        ]
    if graph:
        for plan, (a, b) in (("Even", (rng.randint(5, 15), rng.randint(5, 15))), ("Odd", (rng.randint(5, 15), rng.randint(5, 15)))):
            out += [
                f"  plan {plan} {{",
                f"    phase main green s0 s2 duration {a}",
                f"    phase cross green s1 s3 duration {b}",
                "  }",
            ]
    for i in units:
        out += _disease(rng, f"d{i}", _KINDS[i % len(_KINDS)], f"Well{i}")
    for i in units:
        if rng.random() < 0.5:
            out.append(f"  introduce d{i} deterministic {rng.randint(1, 5)} arbitrary periodic {rng.randint(5, 40)}")
        else:
            out.append(f"  introduce d{i} probabilistic {_rate(rng)} eligible age >= {rng.randint(0, 4)} aperiodic")
    for i in units:
        out += [
            f'  output o{i} every {rng.randint(1, 5)} to "o{i}.csv" {{',
            f"    series total count(Person{i})",
            f"    series heavy count(Person{i} where weight > {rng.randint(5, 40)}.0 and age < count(Well{i}) + {rng.randint(1, 9)})",
            f"    series level sum(Well{i}, level) / (count(Well{i}) + 1)",
            f"    series aged sum(Person{i} where age > {rng.randint(0, 8)}, weight) - tick",
            "  }",
        ]
    for i in units:
        out += [f"  concern c{i} {{", f"    members d{i} Person{i} mood{i}", "  }"]
    out.append("}")
    return "\n".join(out) + "\n"


def _disease(rng: random.Random, name: str, kind: str, well: str) -> list[str]:
    out = [f"  disease {name} model {kind} {{"]
    if kind == "custom":
        out += ["    states S I R", "    initial S"]
    proximity = f"proximity {rng.randint(1, 3)}" if rng.random() < 0.7 else "contact"
    transmission = f"    transmission {proximity} probability {_rate(rng)}"
    if kind == "custom":
        transmission += " to I infectious I"
    transmission += f" condition level > {rng.randint(0, 9) / 10} sources {well}"
    out.append(transmission)
    if kind == "SEIR":
        out.append(f"    duration E {_trigger(rng)}")
    if kind == "custom":
        out.append(f"    transition I R {_trigger(rng)}")
    else:
        out.append(f"    duration I {_trigger(rng)}")
    if kind == "PSIR":
        out.append(f"    passive duration {_trigger(rng)}")
    out.append(f"    immunity duration {_trigger(rng)}")
    out.append(f"    mortality I rate {_rate(rng)} every_timeunit")
    out.append(f"    mortality I rate {_rate(rng)} specific_timeunit {rng.randint(1, 50)}")
    out.append(f"    mortality I rate {_rate(rng)} when_condition tick > {rng.randint(5, 50)}")
    out.append(f"    mortality I rate {_rate(rng)} leaving_compartment")
    out.append("  }")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: workloads.py WORKLOAD SEED DEST")
    print(generate(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
