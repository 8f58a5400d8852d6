"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import functools
import random
import re
import time
from pathlib import Path

from abms import codegen
from abms import disease as dz
from abms import engine
from abms import expr as ex
from abms import metamodel as mm
from abms import statemachine as sm
from abms import traffic as tf
from abms.dsl import format_model, parse, parse_model

from contexts import MapContext
from randmodels import random_disease_model, random_text_model
from test_traffic import learn_policy, value_iteration

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")
            return result

        return wrapper

    return decorate


def fixture_model(name: str) -> mm.Model:
    return parse_model((FIXTURES / name).read_text(), name)


@criterion(1, "feature fixtures validate, run 500 ticks fast, and match golden CSVs")
def test_criterion_1_feature_fixtures(tmp_path):
    cases = [
        ("measles.abms", "out.csv", "measles_seed42_500.csv"),
        ("traffic.abms", "traffic.csv", "traffic_seed42_500.csv"),
    ]
    for fixture, csv_name, golden in cases:
        model = fixture_model(fixture)
        report = mm.validate(model)
        assert report.ok() and not report.diagnostics, f"{fixture}: {[str(d) for d in report]}"
        out_dir = tmp_path / fixture
        started = time.monotonic()
        engine.run(
            model,
            engine.RunConfig(seed=42, max_ticks=500, out_dir=out_dir, base_dir=FIXTURES),
        )
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"{fixture} took {elapsed:.1f}s"
        produced = (out_dir / csv_name).read_bytes()
        assert produced == (GOLDEN / golden).read_bytes(), f"{fixture} CSV deviates from golden"


@criterion(2, "compartment counts plus cumulative dead equal the population every tick")
def test_criterion_2_conservation(tmp_path):
    violations = 0
    for seed in range(50):
        model = random_disease_model(seed)
        assert mm.validate(model).ok(), f"generated model {seed} invalid"
        world = engine.build_world(
            model, engine.RunConfig(seed=1000 + seed, max_ticks=40, out_dir=tmp_path)
        )
        created_total = sum(world.created.values())
        for _ in range(40):
            engine.tick(world)
            per_type: dict[str, int] = {}
            compartments = 0
            for agent in world.agents.values():
                per_type[agent.type_name] = per_type.get(agent.type_name, 0) + 1
                compartments += sum(1 for _ in agent.diseases.values())
            alive = len(world.agents)
            dead = sum(world.dead.values())
            if alive + dead != created_total:
                violations += 1
            for type_name, n in world.created.items():
                if per_type.get(type_name, 0) + world.dead.get(type_name, 0) != n:
                    violations += 1
            by_compartment: dict[str, int] = {}
            for agent in world.agents.values():
                inst = agent.diseases.get("bug")
                if inst is not None:
                    by_compartment[inst.current] = by_compartment.get(inst.current, 0) + 1
            carried = sum(by_compartment.values()) + world.deaths_by_disease.get("bug", 0)
            if carried != created_total:
                violations += 1
    assert violations == 0


@criterion(3, "compartment graphs match the published layouts; illegal custom edges rejected")
def test_criterion_3_compartment_graphs():
    def edges(spec):
        return {(t.source, t.target) for t in spec.transitions}

    assert edges(dz.compartment_graph(dz.SIR)) == {("S", "I"), ("I", "R")}
    assert edges(dz.compartment_graph(dz.SEIR)) == {("S", "E"), ("E", "I"), ("I", "R")}
    assert edges(dz.compartment_graph(dz.PSIR)) == {("P", "S"), ("S", "I"), ("I", "R")}
    assert edges(dz.compartment_graph(dz.SIR, temporary_immunity=True)) == {
        ("S", "I"), ("I", "R"), ("R", "S"),
    }
    assert ("I", sm.DEAD_STATE) in edges(dz.compartment_graph(dz.SEIR, mortal_compartments=["I"]))

    # SEIR transmission jumping straight into I is an illegal edge.
    bad = parse_model(
        """
model bad {
  environment grid width 5 height 5
  agent A {
    create fixed 5 random
    capability disease d
  }
  disease d model SEIR {
    transmission contact probability 0.5 to I
    duration E deterministic 2
    duration I deterministic 2
  }
}
"""
    )
    report = mm.validate(bad)
    assert any("transition violates compartmental model" in d.message for d in report)
    # Custom model with a transition into an undeclared compartment.
    custom = parse_model(
        """
model bad2 {
  environment grid width 5 height 5
  agent A {
    create fixed 5 random
    capability disease d
  }
  disease d model custom {
    states S A
    initial S
    transmission contact probability 0.5 to A
    transition A Z deterministic 2
  }
}
"""
    )
    assert any("not declared" in d.message for d in mm.validate(custom))


@criterion(4, "probabilistic dwell within 3 percent of 1/rate; deterministic dwell exact")
def test_criterion_4_duration_statistics():
    def machine_for(trigger):
        return sm.StateMachineSpec(
            "m", ["I", "R"], "I", [sm.Transition("I", "R", trigger)]
        )

    def episode(spec, rng):
        inst = sm.instantiate(sm.compile_machine(spec))
        steps = 0
        while True:
            steps += 1
            if sm.step(inst, MapContext(), rng):
                return steps

    rng = random.Random(4242)
    for rate in (0.5, 0.1, 0.02):
        spec = machine_for(sm.ProbabilisticTrigger(ex.lit(rate)))
        n = 10_000
        mean = sum(episode(spec, rng) for _ in range(n)) / n
        expected = 1.0 / rate
        assert abs(mean - expected) / expected < 0.03, f"rate {rate}: mean {mean}"
    for d in (1, 5, 20):
        spec = machine_for(sm.DeterministicTrigger(ex.lit(d)))
        assert all(episode(spec, rng) == d for _ in range(100))


def _mortality_model(clause: str, attrs: str = "") -> mm.Model:
    return parse_model(
        f"""
model m {{
  environment grid width 12 height 12 wrap
  agent A {{
    create fixed 30 random
    capability disease d
{attrs}
  }}
  disease d model SIR {{
    transmission contact probability 0
    duration I deterministic 5
    {clause}
  }}
  introduce d deterministic 30 arbitrary aperiodic
}}
"""
    )


def _drive(model: mm.Model, tmp_path, ticks: int):
    world = engine.build_world(model, engine.RunConfig(seed=9, max_ticks=ticks, out_dir=tmp_path))
    history = []
    for _ in range(ticks):
        engine.tick(world)
        recovered = sum(
            1 for a in world.agents.values() if a.diseases["d"].current == "R"
        )
        history.append(
            {
                "tick": world.tick,
                "alive": len(world.agents),
                "recovered": recovered,
                "deaths": world.deaths_by_disease.get("d", 0),
            }
        )
    return history


@criterion(5, "each death-rate circumstance forces its analytic outcome")
def test_criterion_5_mortality_circumstances(tmp_path):
    # Dying on leaving the compartment: nobody ever reaches R.
    history = _drive(_mortality_model("mortality I rate 1.0 leaving_compartment"), tmp_path / "a", 10)
    by_tick = {h["tick"]: h for h in history}
    assert all(h["recovered"] == 0 for h in history)
    assert history[-1]["deaths"] == 30 and history[-1]["alive"] == 0
    assert by_tick[4]["alive"] == 30 and by_tick[5]["alive"] == 0  # duration 5 elapses at tick 5

    # Dying every timeunit with certainty: all dead after one tick in I.
    history = _drive(_mortality_model("mortality I rate 1.0 every_timeunit"), tmp_path / "b", 4)
    by_tick = {h["tick"]: h for h in history}
    assert by_tick[1]["deaths"] == 30 and by_tick[1]["alive"] == 0
    assert all(h["recovered"] == 0 for h in history)

    # Dying at one specific timeunit: alive until tick 3, all dead at tick 3.
    history = _drive(_mortality_model("mortality I rate 1.0 specific_timeunit 3"), tmp_path / "c", 6)
    by_tick = {h["tick"]: h for h in history}
    assert by_tick[1]["alive"] == 30 and by_tick[2]["alive"] == 30
    assert by_tick[3]["deaths"] == 30 and by_tick[3]["alive"] == 0
    assert all(h["recovered"] == 0 for h in history)

    # Guarded death whose condition never holds: nobody dies, everyone recovers.
    model = _mortality_model(
        "mortality I rate 1.0 when_condition energy <= 0",
        attrs="    attr energy integer = 5",
    )
    history = _drive(model, tmp_path / "d", 8)
    assert history[-1]["deaths"] == 0
    assert history[-1]["recovered"] == 30


@criterion(6, "introduction quantity, periodicity, and eligibility behave as specified")
def test_criterion_6_introduction_semantics(tmp_path):
    # Deterministic quantity: exactly min(n, susceptible pool).
    for n, population, expected in ((4, 30, 4), (25, 10, 10), (0, 10, 0)):
        model = parse_model(
            f"""
model m {{
  environment grid width 10 height 10
  agent A {{
    create fixed {population} random
    capability disease d
  }}
  disease d model SIR {{
    transmission contact probability 0
    duration I deterministic 3
  }}
  introduce d deterministic {n} arbitrary aperiodic
}}
"""
        )
        world = engine.build_world(model, engine.RunConfig(seed=3, max_ticks=1, out_dir=tmp_path))
        assert world.ever_infected.get("d", 0) == expected

    # Probabilistic quantity: total over 1000 trials inside the binomial 99% CI.
    pool = [(i, MapContext()) for i in range(200)]
    spec = dz.DiseaseIntroductionSpec(
        disease="d", quantity_kind="probabilistic", probability=0.3
    )
    rng = random.Random(77)
    trials = 1000
    total = sum(len(dz.introduce(pool, spec, None, 0, rng)) for _ in range(trials))
    n_draws = trials * len(pool)
    mean = n_draws * 0.3
    half_width = 2.576 * (n_draws * 0.3 * 0.7) ** 0.5
    assert mean - half_width <= total <= mean + half_width

    # Periodicity: infections appear exactly at ticks that are multiples of k.
    k = 7
    model = parse_model(
        f"""
model m {{
  environment grid width 10 height 10
  agent A {{
    create fixed 60 random
    capability disease d
  }}
  disease d model SIR {{
    transmission contact probability 0
    duration I deterministic 1000
  }}
  introduce d deterministic 2 arbitrary periodic {k}
}}
"""
    )
    world = engine.build_world(model, engine.RunConfig(seed=5, max_ticks=30, out_dir=tmp_path))
    last = world.ever_infected.get("d", 0)
    assert last == 2  # fired at tick 0
    for _ in range(30):
        engine.tick(world)
        now = world.ever_infected.get("d", 0)
        if world.tick % k == 0:
            assert now == last + 2, f"tick {world.tick} should fire"
        else:
            assert now == last, f"tick {world.tick} should not fire"
        last = now

    # Eligibility: an ineligible agent is never infected, checked every tick.
    model = parse_model(
        """
model m {
  environment grid width 10 height 10
  agent A {
    create fixed 40 random
    capability disease d
    attr age integer = tick
  }
  disease d model SIR {
    transmission contact probability 0
    duration I deterministic 1000
  }
  introduce d deterministic 3 eligible age >= 1 periodic 1
}
"""
    )
    world = engine.build_world(model, engine.RunConfig(seed=6, max_ticks=25, out_dir=tmp_path))
    # ages are 0 at build time except none; bump a known subset to eligible
    ids = sorted(world.agents)
    for aid in ids[:10]:
        world.agents[aid].attrs["age"] = 1
    assert world.ever_infected.get("d", 0) == 0  # nobody eligible at build
    for _ in range(25):
        engine.tick(world)
        for aid, agent in world.agents.items():
            if agent.attrs["age"] < 1:
                assert agent.diseases["d"].current == "S", f"ineligible agent {aid} infected"


@criterion(7, "learned greedy policy equals value iteration; update arithmetic exact")
def test_criterion_7_qlearning_oracle():
    optimal = value_iteration(0.9)
    for seed in (1, 2, 3):
        assert learn_policy(seed, updates=10_000) == optimal, f"seed {seed}"
    table: tf.QTable = {}
    spec = tf.QLearningSpec(0.5, 0.9, 0.0, ["a", "b"], [])
    tf.q_update(table, (0,), "a", 1.0, (1,), spec)
    assert abs(table[(0,), "a"] - 0.5) < 1e-12
    table[(1,), "b"] = 2.0
    tf.q_update(table, (0,), "a", 0.0, (1,), spec)
    # 0.5 + 0.5 * (0 + 0.9 * 2.0 - 0.5) = 1.15
    assert abs(table[(0,), "a"] - 1.15) < 1e-12


@criterion(8, "parse-format-parse is identity on fixtures and 1000 generated models; parser total on noise")
def test_criterion_8_parser_round_trip():
    for name in ("measles.abms", "traffic.abms"):
        text = (FIXTURES / name).read_text()
        first = parse_model(text, name)
        assert parse_model(format_model(first)) == first
    for seed in range(1000):
        model = random_text_model(seed)
        text = format_model(model)
        parsed = parse_model(text)
        assert parse_model(format_model(parsed)) == parsed, f"seed {seed}"
    rng = random.Random(808)
    alphabet = (
        'model environment agent disease {}()"\n\t ._,=<>+-*/'
        "abcdefghijklmnopqrstuvwxyz0123456789#\\\x00\xe9☃"
    )
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        parse(text)  # must never raise
    # Long texts nested far past the parser's depth bound: any run of these
    # openers starts an expression, a chain of operators nests it to the left,
    # and noise follows.
    openers = ["(", "not ", "- (", "count(A where ", "sum(A, ", "1 + (", "x < ("]
    links = ["1 + ", "x * ", "a and ", "b or ", "2 - ", "y / "]
    noise = [")", "1", "x", " + ", " and ", " < ", ",", "\n", "#", '"', "}"]
    too_deep = 0
    for _ in range(300):
        body = rng.choices(openers, k=rng.randrange(0, 400)) + rng.choices(links, k=rng.randrange(0, 400))
        body += rng.choices(noise, k=rng.randrange(0, 100))
        text = f'model m {{ environment grid width 5 height 5 output o every 1 to "o.csv" {{ series s {"".join(body)} }} }}'
        result = parse(text)  # must never raise
        too_deep += any("levels deep" in error.message for error in result.errors)
    assert too_deep >= 100  # the bound is reached, not only approached


@criterion(9, "identical seeds give identical per-tick digests; a new seed diverges")
def test_criterion_9_determinism(tmp_path):
    for fixture in ("measles.abms", "traffic.abms"):
        model = fixture_model(fixture)

        def digests(seed):
            world = engine.build_world(
                model, engine.RunConfig(seed=seed, max_ticks=60, out_dir=tmp_path, base_dir=FIXTURES)
            )
            out = [world.digest()]
            for _ in range(60):
                engine.tick(world)
                out.append(world.digest())
            return out

        assert digests(42) == digests(42), fixture
        assert digests(42) != digests(43), fixture


@criterion(10, "codegen deterministic; structure check catches 20 mutations; golden stable")
def test_criterion_10_codegen():
    model = fixture_model("measles.abms")
    source, report = codegen.generate(model)
    again, _ = codegen.generate(model)
    assert source == again
    assert source == (GOLDEN / "measles.nlogo").read_text()
    traffic_source, traffic_report = codegen.generate(fixture_model("traffic.abms"))
    assert codegen.check_structure(source, report)
    assert codegen.check_structure(traffic_source, traffic_report)

    mutants = []
    procedures = report.all_procedures()
    for name in procedures[:12]:
        mutants.append(
            re.sub(rf"^to(-report)? {re.escape(name)}\b", r"to\1 zz-gone", source, count=1, flags=re.M)
        )
    for i in range(4):
        lines = source.splitlines()
        position = (i + 1) * len(lines) // 6
        lines.insert(position, "[")
        mutants.append("\n".join(lines))
    for i in range(4):
        lines = source.splitlines()
        position = (i + 1) * len(lines) // 6
        lines.insert(position, ")")
        mutants.append("\n".join(lines))
    assert len(mutants) == 20
    for i, mutant in enumerate(mutants):
        assert not codegen.check_structure(mutant, report), f"mutation {i} slipped through"
