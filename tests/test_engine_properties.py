"""Whole-run properties: invariants that must hold on live engine runs, not
just at unit level."""

import gc
import re
import weakref
from pathlib import Path

import pytest

from abms import engine
from abms import metamodel as mm
from abms import traffic as tf
from abms.dsl import parse_model
from abms.errors import AbmsError

from randmodels import random_text_model
from validate_corpus import cases as validate_cases

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def cfg(tmp_path, **kw):
    base = dict(seed=11, max_ticks=30, out_dir=tmp_path, base_dir=tmp_path)
    base.update(kw)
    return engine.RunConfig(**base)


class TestValidatedModelsAlwaysRun:
    def test_generated_models_run_without_resolution_failures(self, tmp_path):
        # A model that passes validation must never fail to resolve at run time.
        ran = 0
        for seed in range(40):
            model = random_text_model(seed)
            if not mm.validate(model).ok():
                continue
            world = engine.build_world(model, cfg(tmp_path, seed=seed))
            for _ in range(15):
                engine.tick(world)
            ran += 1
        assert ran >= 30  # the generator overwhelmingly produces valid models


class TestValidatedCorpusRuns:
    def test_every_validating_case_runs_or_names_its_tick(self, tmp_path):
        """The contract on every validating case of the pinned validate
        corpus: it runs 30 ticks, or fails with an AbmsError naming the tick
        (a build_world failure counts as tick 0)."""
        ran = 0
        for name, model in validate_cases():
            if not mm.validate(model).ok():
                continue
            try:
                engine.run(model, cfg(tmp_path, max_ticks=30, base_dir=FIXTURES))
            except AbmsError as err:
                assert re.match(r"tick \d+: ", str(err)), f"{name}: {err}"
            else:
                ran += 1
        assert ran >= 150  # most mutations leave a model that runs


class TestDiseaseInvariantsOnRuns:
    def seir_world(self, tmp_path, immunity="", mortality=""):
        model = parse_model(
            f"""
model m {{
  environment grid width 12 height 12 wrap
  agent A {{
    create fixed 50 random
    capability mobility random_walk step 1
    capability disease d
  }}
  disease d model SEIR {{
    transmission proximity 2 probability 0.5
    duration E deterministic 3
    duration I probabilistic rate 0.2
{immunity}
{mortality}
  }}
  introduce d deterministic 5 arbitrary aperiodic
}}
"""
        )
        return engine.build_world(model, cfg(tmp_path, seed=17))

    ORDER = {"P": 0, "S": 1, "E": 2, "I": 3, "R": 4, "Dead": 5}

    def test_seir_history_follows_compartment_order(self, tmp_path):
        world = self.seir_world(tmp_path)
        history = {aid: [a.diseases["d"].current] for aid, a in world.agents.items()}
        for _ in range(80):
            engine.tick(world)
            for aid, agent in world.agents.items():
                current = agent.diseases["d"].current
                if history[aid][-1] != current:
                    history[aid].append(current)
        for aid, path in history.items():
            ranks = [self.ORDER[c] for c in path]
            assert ranks == sorted(ranks), f"agent {aid} walked {path}"

    def test_monotone_recovered_with_permanent_immunity(self, tmp_path):
        world = self.seir_world(tmp_path)
        previous = 0
        for _ in range(80):
            engine.tick(world)
            recovered = sum(1 for a in world.agents.values() if a.diseases["d"].current == "R")
            assert recovered >= previous
            previous = recovered
        assert previous > 0  # the epidemic actually progressed

    def test_susceptibility_gate(self, tmp_path):
        # Nobody leaves S except by infection, and nobody outside S is
        # (re)infected: with permanent immunity every agent enters I at most once.
        world = self.seir_world(tmp_path)
        seen_infected: dict[int, int] = {}
        for _ in range(80):
            engine.tick(world)
            for aid, agent in world.agents.items():
                if agent.diseases["d"].current == "I":
                    seen_infected[aid] = seen_infected.get(aid, 0)
            for aid, agent in world.agents.items():
                inst = agent.diseases["d"]
                if inst.current == "E" and aid in seen_infected:
                    pytest.fail(f"recovered agent {aid} was re-exposed")
        assert world.ever_infected["d"] <= 50

    def test_engine_level_geometric_duration(self, tmp_path):
        # Mean infectious period over 10000 agent episodes vs 1/rate.
        model = parse_model(
            """
model m {
  environment grid width 120 height 120 wrap
  agent A {
    create fixed 10000 random
    capability disease d
  }
  disease d model SIR {
    transmission contact probability 0
    duration I probabilistic rate 0.5
  }
  introduce d probabilistic 1.0 arbitrary aperiodic
}
"""
        )
        world = engine.build_world(model, cfg(tmp_path, seed=23))
        assert world.ever_infected["d"] == 10000
        entered: dict[int, int] = {aid: 0 for aid in world.agents}
        durations: list[int] = []
        for _ in range(40):
            engine.tick(world)
            for aid, agent in world.agents.items():
                if aid in entered and agent.diseases["d"].current == "R":
                    durations.append(world.tick - entered.pop(aid))
        assert len(durations) >= 10_000 * 0.99
        mean = sum(durations) / len(durations)
        assert abs(mean - 2.0) / 2.0 < 0.03

    def test_psir_passive_agents_not_introducible(self, tmp_path):
        model = parse_model(
            """
model m {
  environment grid width 10 height 10
  agent A {
    create fixed 20 random
    capability disease d
  }
  disease d model PSIR {
    transmission contact probability 0
    duration I deterministic 4
    passive duration deterministic 6
  }
  introduce d deterministic 20 arbitrary periodic 1
}
"""
        )
        world = engine.build_world(model, cfg(tmp_path))
        # All agents start in P, so the introduction finds an empty pool.
        assert world.ever_infected.get("d", 0) == 0
        for _ in range(5):
            engine.tick(world)
        assert world.ever_infected.get("d", 0) == 0
        assert all(a.diseases["d"].current == "P" for a in world.agents.values())
        engine.tick(world)  # tick 6: passive immunity elapses, P -> S
        assert all(a.diseases["d"].current == "S" for a in world.agents.values())
        engine.tick(world)  # now the periodic introduction can bite
        assert world.ever_infected["d"] == 20

    def test_entity_borne_contamination(self, tmp_path):
        model = parse_model(
            """
model m {
  environment grid width 9 height 9
  entity Well {
    create fixed 2 at (1, 1) (7, 7)
    attr level real = 0.0
  }
  agent A {
    create fixed 4 at (1, 1) (7, 7) (1, 1) (7, 7)
    capability disease d
  }
  disease d model SIR {
    transmission contact probability 1 condition level > 0.5 sources Well
    duration I deterministic 50
  }
}
"""
        )
        world = engine.build_world(model, cfg(tmp_path))
        wells = {e.position: e for e in world.entities.values()}
        wells[(1, 1)].attrs["level"] = 0.9  # only one well is contaminated
        for _ in range(3):
            engine.tick(world)
        states = {aid: a.diseases["d"].current for aid, a in world.agents.items()}
        for aid, agent in world.agents.items():
            expected = "I" if agent.position == (1, 1) else "S"
            assert states[aid] == expected

    def test_two_diseases_progress_independently(self, tmp_path):
        model = parse_model(
            """
model m {
  environment grid width 8 height 8
  agent A {
    create fixed 10 random
    capability disease flu
    capability disease pox
  }
  disease flu model SIR {
    transmission contact probability 0
    duration I deterministic 2
  }
  disease pox model SIR {
    transmission contact probability 0
    duration I deterministic 9
  }
  introduce flu deterministic 10 arbitrary aperiodic
  introduce pox deterministic 10 arbitrary aperiodic
}
"""
        )
        world = engine.build_world(model, cfg(tmp_path))
        for _ in range(3):
            engine.tick(world)
        for agent in world.agents.values():
            assert agent.diseases["flu"].current == "R"
            assert agent.diseases["pox"].current == "I"


class TestGenericMachinesOnAgents:
    def test_machine_steps_and_state_tests_work(self, tmp_path):
        model = parse_model(
            """
model m {
  environment grid width 6 height 6
  agent A {
    create fixed 12 random
    capability state_machine mood
  }
  machine mood {
    initial calm
    state calm
    state busy
    transition calm busy deterministic 4
    transition busy calm deterministic 2
  }
  output o every 1 to "o.csv" {
    series busy count(A where mood is busy)
  }
}
"""
        )
        result = engine.run(model, cfg(tmp_path, max_ticks=7))
        busy = [row[1] for row in result.tables["o"].rows]
        # all agents flip to busy at tick 4 and back to calm at tick 6
        assert busy == [0, 0, 0, 0, 12, 12, 0, 0]


class TestInlineEdgeGraphs:
    MODEL = """
model m {
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
  }
  agent Car {
    create fixed 6 random
    capability mobility random_walk step 50
  }
  agent Light {
    create fixed 0 random
    capability flow_control stream main edge a b capacity 1
    capability state_machine Only
  }
  plan Only {
    phase hold green main duration 3
  }
}
"""

    def test_vehicles_circulate_on_inline_graph(self, tmp_path):
        model = parse_model(self.MODEL)
        assert mm.validate(model).ok(), [str(d) for d in mm.validate(model)]
        world = engine.build_world(model, cfg(tmp_path, seed=3))
        for _ in range(40):
            engine.tick(world)
            cars = [a for a in world.agents.values() if a.type_name == "Car"]
            assert len(cars) == 6
            for car in cars:
                assert isinstance(car.position, (engine.EdgePos, engine.QueuePos, engine.NodePos))

    def test_queue_capacity_blocks_arrivals(self, tmp_path):
        """A light with no plan holds its one stream, from a, red at b.  The
        queue there admits one car, and each car that reaches b from a later
        waits at the end of its edge, still in transit, retrying every tick."""
        text = self.MODEL.replace("create fixed 0 random", "create fixed 1 random").replace("    capability state_machine Only\n", "")
        world = engine.build_world(parse_model(text), cfg(tmp_path, seed=3))
        [light] = [a for a in world.agents.values() if a.type_name == "Light"]
        assert light.position == engine.NodePos("b") and light.controller.plan is None
        cars = [a for a in world.agents.values() if a.type_name == "Car"]
        queue = world.edge_queues["b", "a"]
        for _ in range(200):  # every car ends up at b from a: b's other neighbours lead back to b
            engine.tick(world)
            blocked = [c for c in cars if isinstance(c.position, engine.EdgePos) and c.position.remaining == 0]
            if len(blocked) == 5:
                break
        assert len(queue) == 1 and len(blocked) == 5
        arrivals = world.arrivals
        for _ in range(3):
            engine.tick(world)
            assert len(queue) == 1 and world.queues["b", "a"] is queue
            assert all((c.position.source, c.position.remaining, c.position.total) == ("a", 0, 2) for c in blocked)
            assert sorted(world.vehicles, key=lambda v: v.id) == blocked
            assert world.arrivals == arrivals

    @pytest.mark.parametrize("plan", ["    capability state_machine Far\n", ""], ids=["far plan", "no plan"])
    def test_red_declared_streams_gate_only_their_own_queues(self, tmp_path, plan):
        """A light on b declares a stream from a and one on c-d.  Its plan's only
        phase greens the c-d stream, which does not touch b, and without a plan
        every stream is red; either way the queue from a is never served, while
        the queue from c, which has no stream, serves one car every tick."""
        text = f"""
model m {{
  environment graph from edges {{
    node a 0 0
    node b 100 0
    node c 200 0
    node d 300 0
    edge a b 100
    edge b c 100
    edge c d 100
  }}
  agent Car {{
    create fixed 6 random
    capability mobility random_walk step 100
  }}
  agent Light {{
    create fixed 1 random
    capability flow_control stream west edge a b stream far edge c d
{plan}  }}
  plan Far {{
    phase only green far duration 1
  }}
}}
"""
        model = parse_model(text)
        assert mm.validate(model).ok(), [str(d) for d in mm.validate(model)]
        world = engine.build_world(model, cfg(tmp_path, seed=4))
        [light] = [a for a in world.agents.values() if a.type_name == "Light"]
        assert light.position == engine.NodePos("b")
        ctrl, west, east = light.controller, world.edge_queues["b", "a"], world.edge_queues["b", "c"]
        assert ctrl.streams == {"a": "west"} and ctrl.red == {"a": west} and ctrl.red["a"] is west
        for _ in range(60):  # an edge takes one tick, so a car is due at b when it is on an edge to b
            due = {frm: sum(1 for v in world.vehicles if (v.position.source, v.position.target) == (frm, "b"))
                   for frm in "ac"}
            before = len(west), len(east)
            engine.tick(world)
            assert len(west) == before[0] + due["a"]
            assert len(east) == max(before[1] + due["c"] - 1, 0)
            assert engine.controller_stopped(ctrl) == len(west)
        assert len(west) == 6 and ("b", "c") in world.queues  # the queue from c served cars, and b keeps them all


class TestResolvedOncePerRun:
    """The model is resolved once per run: name lookups do not grow with the
    number of ticks, and a controller counts its own phase, so the run builds
    no plan machine."""

    LOOKUPS = [
        (mm.Model, "agent_type"),
        (mm.Model, "disease"),
        (mm.Model, "plan"),
        (mm.AgentTypeSpec, "capability"),
        (tf, "plan_to_machine"),
    ]

    def count_lookups(self, monkeypatch, tmp_path, fixture, ticks):
        model = parse_model((FIXTURES / f"{fixture}.abms").read_text())
        counts = {name: 0 for _, name in self.LOOKUPS}
        for owner, name in self.LOOKUPS:
            def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)
        engine.run(model, cfg(tmp_path / str(ticks), seed=42, max_ticks=ticks, base_dir=FIXTURES))
        monkeypatch.undo()
        assert counts["plan_to_machine"] == 0
        return counts

    @pytest.mark.parametrize("fixture", ["measles", "traffic"])
    def test_lookups_do_not_scale_with_ticks(self, monkeypatch, tmp_path, fixture):
        short = self.count_lookups(monkeypatch, tmp_path, fixture, 10)
        assert self.count_lookups(monkeypatch, tmp_path, fixture, 60) == short


class TestContextsOncePerInstance:
    """Each agent and entity is its own evaluation context, made when it is
    created; the tick builds none per use."""

    def test_instances_are_the_contexts(self):
        assert engine.AgentContext is engine.AgentInstance
        assert engine.EntityContext is engine.EntityInstance

    def count_contexts(self, monkeypatch, tmp_path, fixture, ticks):
        model = parse_model((FIXTURES / f"{fixture}.abms").read_text())
        counts = {"AgentContext": 0, "EntityContext": 0}
        for name in counts:
            cls = getattr(engine, name)

            def counting(self, *args, _original=cls.__init__, _name=name, **kwargs):
                counts[_name] += 1
                _original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        world = engine.build_world(model, cfg(tmp_path, seed=42, base_dir=FIXTURES))
        for _ in range(ticks):
            engine.tick(world)
        monkeypatch.undo()
        assert counts == {"AgentContext": sum(world.created.values()), "EntityContext": len(world.entities)}
        return counts

    @pytest.mark.parametrize("fixture", ["measles", "traffic"])
    def test_contexts_do_not_grow_with_ticks(self, monkeypatch, tmp_path, fixture):
        built = self.count_contexts(monkeypatch, tmp_path, fixture, 0)
        assert built["AgentContext"] > 0
        assert self.count_contexts(monkeypatch, tmp_path, fixture, 50) == built

    @pytest.mark.parametrize("fixture", ["measles", "traffic"])
    def test_dropped_world_is_freed_without_the_cycle_collector(self, tmp_path, fixture):
        """The world, an agent and one of its machine instances: a tally
        holds counts, not agents, so no instance refers back to its agent."""
        model = parse_model((FIXTURES / f"{fixture}.abms").read_text())
        world = engine.build_world(model, cfg(tmp_path, seed=42, base_dir=FIXTURES))
        engine.tick(world)
        agent = next((a for a in world.agents.values() if a.diseases or a.machines), None)
        instances = [*agent.diseases.values(), *agent.machines.values()] if agent is not None else []
        assert fixture == "traffic" or instances
        freed = [weakref.ref(x) for x in (world, agent, *instances[:1]) if x is not None]
        del agent, instances
        gc.disable()
        try:
            del world
            assert [ref() for ref in freed] == [None] * len(freed)
        finally:
            gc.enable()


class TestMortalityOnAnyCompartment:
    def test_leaving_rule_kills_only_on_exit(self, tmp_path):
        model = parse_model(
            """
model m {
  environment grid width 8 height 8
  agent A {
    create fixed 10 random
    capability disease d
  }
  disease d model SIR {
    transmission contact probability 0
    duration I deterministic 5
    mortality I rate 1.0 leaving_compartment
  }
  introduce d deterministic 10 arbitrary aperiodic
}
"""
        )
        world = engine.build_world(model, cfg(tmp_path))
        for _ in range(4):
            engine.tick(world)
            assert len(world.agents) == 10  # the rule applies on leaving I, not per tick
        engine.tick(world)
        assert len(world.agents) == 0
        assert world.deaths_by_disease["d"] == 10


    def test_susceptible_compartment_mortality_applies(self, tmp_path):
        model = parse_model(
            """
model m {
  environment grid width 8 height 8
  agent A {
    create fixed 10 random
    capability disease d
  }
  disease d model SIR {
    transmission contact probability 0
    duration I deterministic 3
    mortality S rate 1.0 specific_timeunit 2
  }
}
"""
        )
        world = engine.build_world(model, cfg(tmp_path))
        engine.tick(world)
        assert len(world.agents) == 10
        engine.tick(world)
        assert len(world.agents) == 0
        assert world.deaths_by_disease["d"] == 10
