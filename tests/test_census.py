"""The census the engine keeps from tick to tick, per (agent type, machine or
disease) state tallies and each disease's source index, against the oracle
in ``census_oracle``, which works both out afresh from the rosters."""

import json

import pytest

from abms import engine
from abms import expr as ex
from abms import statemachine as sm
from abms.dsl import parse_model
from abms.errors import EvalError

from census_oracle import assert_sources, assert_tallies, count_by_roster
from contexts import MapContext
from digest_corpus import INLINE_PLAN_EDGES, PINNED, SEED, TICKS, corpus

CORPUS = corpus()

# The shapes of the benchmark's SIR workloads: a large epidemic on a wrapped
# grid, whose filing changes during the run, and rare sources in a cartesian
# space, sampled every tick.
SIR_GRID = """
model sir_grid {
  environment grid width 100 height 100 wrap
  agent Native {
    create fixed 1000 random
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
  }
}
"""

SIR_CART = """
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
    series exposed count(Resident where flu is E)
    series infected count(Resident where flu is I)
  }
}
"""

# A stated radius at or beyond the stencil's bound, on a cartesian space and
# on a wrapped grid: each scan measures the list, so no cell is filed, while
# walking sources enter, move and die.
FAR_CART = """
model far_cart {
  environment cartesian 0.0..200.0 0.0..200.0
  agent Walker {
    create fixed 300 random
    capability mobility random_walk step 1
    capability disease flu
  }
  disease flu model SIR {
    transmission proximity 100 probability 0.002
    duration I probabilistic rate 0.1
    mortality I rate 0.02 every_timeunit
  }
  introduce flu deterministic 3 arbitrary periodic 10
}
"""

FAR_GRID = (FAR_CART.replace("far_cart", "far_grid").replace("proximity 100", "proximity 80")
            .replace("cartesian 0.0..200.0 0.0..200.0", "grid width 200 height 200 wrap"))

# Every source dies in its first tick as one, and none recovers.
DYING_SOURCES = """
model dying {
  environment grid width 10 height 10 wrap
  agent A {
    create fixed 30 random
    capability mobility random_walk step 1
    capability disease d
  }
  disease d model SIR {
    transmission proximity 2 probability 0.5
    duration I deterministic 50
    mortality I rate 1 every_timeunit
  }
  introduce d deterministic 3 arbitrary periodic 2
}
"""


def run_checked(monkeypatch, model, seed, ticks, base_dir):
    """Tick a world of ``model``, checking the tallies after building and
    after every tick, and each kept index once phase 2 has filed it; returns
    the world and, per tick, whether each disease was filed by exposure."""
    world = engine.build_world(model, engine.RunConfig(seed=seed, max_ticks=ticks, base_dir=base_dir))
    assert_tallies(world)
    filings, index_sources = [], engine._index_sources

    def checked(world):
        index_sources(world)
        assert_sources(world)
        filings.append({name: index.exposed for name, index in world.sources.items()})

    monkeypatch.setattr(engine, "_index_sources", checked)
    for _ in range(ticks):
        engine.tick(world)
        assert_tallies(world)
    return world, filings


@pytest.mark.parametrize("name,model,base_dir", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_digest_corpus_keeps_its_census(monkeypatch, name, model, base_dir):
    world, filings = run_checked(monkeypatch, model, SEED, TICKS, base_dir)
    assert len(filings) == TICKS
    assert world.digest() == json.loads(PINNED.read_text(encoding="utf-8"))[name][-1]  # the checks change nothing


@pytest.mark.parametrize("seed", [1, 5, 42])
@pytest.mark.parametrize("text,ticks", [(SIR_GRID, 20), (SIR_CART, 12)], ids=["sir_grid", "sir_cart"])
def test_sir_workload_shapes_keep_their_census(monkeypatch, tmp_path, text, ticks, seed):
    world, filings = run_checked(monkeypatch, parse_model(text), seed, ticks, tmp_path)
    assert len(filings) == ticks and sum(world.ever_infected.values()) > 0
    assert sum(world.dead.values()) > 0  # sources that died were unfiled


def test_sir_grid_shape_is_filed_afresh_when_its_filing_changes(monkeypatch, tmp_path):
    """Between ticks the epidemic grows past the point where filing by
    exposure pays, so the kept index is filed afresh by cell, and checked."""
    _, filings = run_checked(monkeypatch, parse_model(SIR_GRID), 42, 20, tmp_path)
    exposed = [f["measles"] for f in filings]
    assert exposed[0] and not exposed[-1]


@pytest.mark.parametrize("text", [FAR_CART, FAR_GRID], ids=["cartesian", "wrapped grid"])
def test_a_radius_beyond_the_stencil_files_no_cell(monkeypatch, tmp_path, text):
    unfiled, tick = [], engine.tick

    def checked(world):
        tick(world)
        unfiled.append(world.sources["flu"].cells is None)

    monkeypatch.setattr(engine, "tick", checked)
    world, _ = run_checked(monkeypatch, parse_model(text), 3, 25, tmp_path)
    assert unfiled == [True] * 25
    assert world.ever_infected["flu"] > 100 and world.dead["Walker"] > 0 and world.sources["flu"].items


def test_the_oracle_catches_a_dead_source_left_filed(monkeypatch, tmp_path):
    monkeypatch.setattr(engine.SourceIndex, "remove", lambda index, item: None)
    with pytest.raises(AssertionError):
        run_checked(monkeypatch, parse_model(DYING_SOURCES), 7, 10, tmp_path)


def test_a_direct_force_state_keeps_the_tally(tmp_path):
    world = engine.build_world(parse_model(SIR_CART), engine.RunConfig(seed=3, base_dir=tmp_path))
    states = ("S", "E", "I", "R", sm.DEAD_STATE)
    before = [world.state_count("Resident", "flu", s) for s in states]
    susceptible = [a for a in world.by_type["Resident"] if a.diseases["flu"].current == "S"]
    for agent, state in zip(susceptible, ["E", "I", "I", "R", sm.DEAD_STATE]):
        sm.force_state(agent.diseases["flu"], state)
    assert_tallies(world)
    after = [world.state_count("Resident", "flu", s) for s in states]
    assert [a - b for a, b in zip(after, before)] == [-5, 1, 2, 1, 1]


class TestFallback:
    """``count(T where m is S)`` for an ``m`` no tally counts, such as a
    signal plan's phase, scans the roster, as every count once did."""

    def test_plan_phases_are_counted_by_scan_every_tick(self, tmp_path):
        model = parse_model(INLINE_PLAN_EDGES)
        world = engine.build_world(model, engine.RunConfig(seed=SEED, base_dir=tmp_path))
        plans = set()
        for _ in range(40):
            engine.tick(world)
            _, only, flick_b, _ = world.output_rows["o"][-1]
            assert (only, flick_b) == (count_by_roster(world, "Solo", "One", "only"),
                                       count_by_roster(world, "Flicker", "Flick", "b"))
            for type_name, plan, phases in (("Solo", "One", ["only"]), ("Flicker", "Flick", ["a", "b", "c"])):
                assert (type_name, plan) not in world.tallies
                for phase in phases:
                    assert world.state_count(type_name, plan, phase) == count_by_roster(world, type_name, plan, phase)
            plans.update(agent.controller.plan.name for agent in world.learners)
        assert len(plans) > 1  # the learners switched plans

    @staticmethod
    def contexts():
        members = [MapContext(states={"m": s}) for s in "SISRS"]
        return MapContext(populations={"A": members, "B": [*members, MapContext(states={"n": "S"})], "E": []})

    @pytest.mark.parametrize("type_name,state", [("A", "S"), ("A", "I"), ("A", "X"), ("E", "S")])
    def test_map_context_counts_as_the_roster_scan(self, type_name, state):
        ctx = self.contexts()
        assert ctx.state_count(type_name, "m", state) == count_by_roster(ctx, type_name, "m", state)
        aggregate = ex.Aggregate("count", type_name, ex.StateTest("m", state), None)
        assert ex.evaluate(aggregate, ctx) == count_by_roster(ctx, type_name, "m", state)

    @pytest.mark.parametrize("type_name", ["Z", "B"], ids=["unknown population", "member without the machine"])
    def test_map_context_fails_as_the_roster_scan(self, type_name):
        ctx = self.contexts()
        with pytest.raises(EvalError) as expected:
            count_by_roster(ctx, type_name, "m", "S")
        for count in (lambda: ctx.state_count(type_name, "m", "S"),
                      lambda: ex.evaluate(ex.Aggregate("count", type_name, ex.StateTest("m", "S"), None), ctx)):
            with pytest.raises(EvalError) as got:
                count()
            assert got.value.message == expected.value.message

    def test_nested_state_counts_keep_their_value(self, tmp_path):
        has_s = MapContext(states={"m": "S"})
        outer = [MapContext(populations={"B": roster}) for roster in ([has_s], [MapContext(states={"m": "I"})], [has_s])]
        nested = ex.Aggregate("count", "A", ex.Binary(">", ex.Aggregate("count", "B", ex.StateTest("m", "S"), None),
                                                      ex.lit(0)), None)
        assert ex.evaluate(nested, MapContext(populations={"A": outer})) == 2
        world = engine.build_world(parse_model(SIR_GRID), engine.RunConfig(seed=5, base_dir=tmp_path))
        native = ex.Aggregate("count", "Native", ex.Binary(
            ">", ex.Aggregate("count", "Immigrant", ex.StateTest("measles", "I"), None), ex.lit(0)), None)
        value = ex.compile(native)
        for _ in range(5):
            infected = count_by_roster(world, "Immigrant", "measles", "I")
            assert value(world) == (len(world.by_type["Native"]) if infected else 0)
            engine.tick(world)
