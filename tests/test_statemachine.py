import random

import pytest

from abms import disease as dz
from abms import expr as ex
from abms import statemachine as sm

from contexts import MapContext


def two_state(trigger, guard=None, abortion=None):
    return sm.StateMachineSpec(
        name="m",
        states=["a", "b"],
        initial="a",
        transitions=[sm.Transition("a", "b", trigger, guard, abortion)],
    )


def sir_spec(**kw):
    return dz.DiseaseModelSpec(
        name="d",
        kind=kw.pop("kind", dz.SIR),
        transmission=dz.TransmissionSpec(dz.CONTACT, None, ex.lit(0.5)),
        progressions=[dz.ProgressionSpec("I", sm.ProbabilisticTrigger(ex.lit(0.1)))],
        **kw,
    )


# Every bound to 300, and each power of two to 2**70 with its neighbours.
BOUNDS = [*range(1, 301), *(2**k + d for k in range(1, 71) for d in (-1, 0, 1))]


class CountingRandom(random.Random):
    """Counts draws, overriding both ``random`` and ``getrandbits`` as the
    benchmark's tracing generator does."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


class TestBelow:
    @pytest.mark.parametrize("seed", range(10))
    def test_draws_what_randrange_draws(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in BOUNDS:
            assert sm.below(ours.getrandbits, n) == theirs.randrange(n)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", range(10))
    def test_a_counting_generator_counts_the_same_draws(self, seed):
        ours, theirs = CountingRandom(seed), CountingRandom(seed)
        for n in BOUNDS:
            assert sm.below(ours.getrandbits, n) == theirs.randrange(n)
            assert ours.draws == theirs.draws
        assert ours.getstate() == theirs.getstate()
        assert ours.draws > len(BOUNDS)  # a value at or above the bound is drawn again


class TestInstantiate:
    def test_a_tally_counts_what_each_instance_enters(self):
        machine = sm.compile_machine(dz.build_machine(sir_spec()))
        tally = {}
        a, b = sm.instantiate(machine, tally), sm.instantiate(machine, tally)
        sm.force_state(a, "I")
        assert tally == {"S": 1, "I": 1}
        sm.force_state(a, "R")
        sm.force_state(b, "R")
        assert tally == {"S": 0, "I": 0, "R": 2}

    def test_an_instance_without_a_tally_steps_and_enters(self):
        inst = sm.instantiate(sm.compile_machine(two_state(sm.DeterministicTrigger(ex.lit(1)))))
        assert inst.tally is None
        sm.force_state(inst, sm.step(inst, MapContext(), random.Random(0)))
        assert (inst.current, inst.dwell, inst.tally) == ("b", 0, None)

    def test_a_tally_changes_neither_repr_nor_equality(self):
        machine = sm.compile_machine(two_state(sm.DeterministicTrigger(ex.lit(1))))
        counted, plain = sm.instantiate(machine, {}), sm.instantiate(machine)
        assert counted == plain and repr(counted) == repr(plain)
        assert repr(plain) == f"MachineInstance(machine={machine!r}, current='a', dwell=0)"

    def test_sir_starts_susceptible(self):
        inst = sm.instantiate(sm.compile_machine(dz.build_machine(sir_spec())))
        assert inst.current == "S"
        assert inst.dwell == 0

    def test_plan_machine_starts_at_first_phase(self):
        spec = two_state(sm.DeterministicTrigger(ex.lit(5)))
        inst = sm.instantiate(sm.compile_machine(spec))
        assert inst.current == "a"

    def test_psir_starts_passive(self):
        spec = sir_spec(kind=dz.PSIR, passive_immunity=sm.DeterministicTrigger(ex.lit(3)))
        inst = sm.instantiate(sm.compile_machine(dz.build_machine(spec)))
        assert inst.current == "P"


class TestStep:
    def test_deterministic_fires_on_exact_dwell(self):
        inst = sm.instantiate(sm.compile_machine(two_state(sm.DeterministicTrigger(ex.lit(3)))))
        rng = random.Random(0)
        events = [sm.step(inst, MapContext(), rng) for _ in range(3)]
        assert events == [None, None, "b"]
        assert inst.current == "a" and inst.dwell == 3  # step enters nothing

    def test_probabilistic_certainty_fires_first_step(self):
        inst = sm.instantiate(sm.compile_machine(two_state(sm.ProbabilisticTrigger(ex.lit(1.0)))))
        assert sm.step(inst, MapContext(), random.Random(1)) == "b"

    def test_abortion_certain(self):
        spec = sm.StateMachineSpec(
            name="d",
            states=["I", "R", sm.DEAD_STATE],
            initial="I",
            transitions=[
                sm.Transition(
                    "I", "R",
                    sm.DeterministicTrigger(ex.lit(2)),
                    abortion=sm.Abortion(ex.lit(1.0), sm.DEAD_STATE),
                )
            ],
        )
        inst = sm.instantiate(sm.compile_machine(spec))
        rng = random.Random(2)
        assert sm.step(inst, MapContext(), rng) is None
        assert sm.step(inst, MapContext(), rng) == sm.DEAD_STATE
        assert inst.current == "I" and inst.dwell == 2  # step enters nothing
        sm.force_state(inst, sm.DEAD_STATE)
        assert inst.current == sm.DEAD_STATE and inst.dwell == 0

    def test_dead_is_absorbing(self):
        # No transition leaves Dead (validation rejects one), so a step there
        # fires nothing and only counts the dwell; the engine does not step a
        # declared machine in Dead at all (tests/test_engine.py).
        spec = two_state(sm.DeterministicTrigger(ex.lit(1)))
        spec.states.append(sm.DEAD_STATE)
        spec.transitions[0].target = sm.DEAD_STATE
        inst = sm.instantiate(sm.compile_machine(spec))
        sm.force_state(inst, sm.step(inst, MapContext(), random.Random(0)))
        assert inst.current == sm.DEAD_STATE and inst.dwell == 0
        assert sm.step(inst, MapContext(), random.Random(0)) is None
        assert inst.current == sm.DEAD_STATE and inst.dwell == 1

    def test_conditional_trigger(self):
        trigger = sm.ConditionalTrigger(ex.Binary(">", ex.AttrRef(None, "energy"), ex.lit(4)))
        inst = sm.instantiate(sm.compile_machine(two_state(trigger)))
        rng = random.Random(0)
        assert sm.step(inst, MapContext({"energy": 3}), rng) is None
        assert sm.step(inst, MapContext({"energy": 5}), rng) == "b"

    def test_guard_blocks_transition(self):
        spec = two_state(sm.DeterministicTrigger(ex.lit(1)), guard=ex.lit(False))
        inst = sm.instantiate(sm.compile_machine(spec))
        for _ in range(5):
            assert sm.step(inst, MapContext(), random.Random(0)) is None
        assert inst.current == "a" and inst.dwell == 5

    def test_composite_all_of_waits_for_both(self):
        trigger = sm.CompositeTrigger(
            "all_of",
            [
                sm.DeterministicTrigger(ex.lit(2)),
                sm.ConditionalTrigger(ex.AttrRef(None, "go")),
            ],
        )
        inst = sm.instantiate(sm.compile_machine(two_state(trigger)))
        rng = random.Random(0)
        assert sm.step(inst, MapContext({"go": True}), rng) is None  # dwell 1 < 2
        assert sm.step(inst, MapContext({"go": False}), rng) is None
        assert sm.step(inst, MapContext({"go": True}), rng) == "b"

    def test_composite_any_of(self):
        trigger = sm.CompositeTrigger(
            "any_of",
            [sm.DeterministicTrigger(ex.lit(99)), sm.ConditionalTrigger(ex.AttrRef(None, "go"))],
        )
        inst = sm.instantiate(sm.compile_machine(two_state(trigger)))
        assert sm.step(inst, MapContext({"go": True}), random.Random(0)) == "b"

    def test_declaration_order_priority(self):
        spec = sm.StateMachineSpec(
            name="m",
            states=["a", "b", "c"],
            initial="a",
            transitions=[
                sm.Transition("a", "b", sm.DeterministicTrigger(ex.lit(1))),
                sm.Transition("a", "c", sm.DeterministicTrigger(ex.lit(1))),
            ],
        )
        inst = sm.instantiate(sm.compile_machine(spec))
        assert sm.step(inst, MapContext(), random.Random(0)) == "b"

    def test_determinism_same_seed_same_events(self):
        def run(seed):
            spec = two_state(sm.ProbabilisticTrigger(ex.lit(0.3)))
            inst = sm.instantiate(sm.compile_machine(spec))
            rng = random.Random(seed)
            out = []
            while not out or not out[-1]:
                out.append(sm.step(inst, MapContext(), rng))
            return out

        assert run(7) == run(7)
        assert len(run(7)) >= 1

    def test_single_current_state_always(self):
        spec = sm.StateMachineSpec(
            name="m",
            states=["a", "b", "c"],
            initial="a",
            transitions=[
                sm.Transition("a", "b", sm.ProbabilisticTrigger(ex.lit(0.4))),
                sm.Transition("b", "c", sm.ProbabilisticTrigger(ex.lit(0.4))),
                sm.Transition("c", "a", sm.DeterministicTrigger(ex.lit(2))),
            ],
        )
        inst = sm.instantiate(sm.compile_machine(spec))
        rng = random.Random(11)
        for _ in range(500):
            if (state := sm.step(inst, MapContext(), rng)) is not None:
                sm.force_state(inst, state)
            assert inst.current in spec.states
            assert sum(inst.current == s for s in spec.states) == 1


def episode_length(trigger, rng) -> int:
    steps, fires = 1, sm.compile_trigger(trigger)
    while not fires(steps, MapContext(), rng):
        steps += 1
    return steps


class TestExpectedDwell:
    def test_monte_carlo_matches_inverse_rate(self):
        # Empirical mean dwell of the per-tick Bernoulli trigger vs 1/rate.
        rng = random.Random(20240)
        trigger = sm.ProbabilisticTrigger(ex.lit(0.1))
        n = 100_000
        mean = sum(episode_length(trigger, rng) for _ in range(n)) / n
        expected = 1 / 0.1
        assert abs(mean - expected) / expected < 0.02
