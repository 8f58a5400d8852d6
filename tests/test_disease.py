import random

import pytest

from abms import disease as dz
from abms import expr as ex
from abms import statemachine as sm
from abms.errors import EvalError

from contexts import MapContext

# Compartment graph edge sets for the three standard layouts.
SIR_EDGES = {("S", "I"), ("I", "R")}
SEIR_EDGES = {("S", "E"), ("E", "I"), ("I", "R")}
PSIR_EDGES = {("P", "S"), ("S", "I"), ("I", "R")}


def edges_of(spec: sm.StateMachineSpec) -> set[tuple[str, str]]:
    return {(t.source, t.target) for t in spec.transitions}


class TestCompartmentGraph:
    @pytest.mark.parametrize(
        "kind,expected",
        [(dz.SIR, SIR_EDGES), (dz.SEIR, SEIR_EDGES), (dz.PSIR, PSIR_EDGES)],
    )
    def test_base_edges(self, kind, expected):
        assert edges_of(dz.compartment_graph(kind)) == expected

    @pytest.mark.parametrize("kind", [dz.SIR, dz.SEIR, dz.PSIR])
    def test_finite_immunity_adds_return_edge(self, kind):
        skeleton = dz.compartment_graph(kind, temporary_immunity=True)
        assert ("R", "S") in edges_of(skeleton)

    def test_mortality_edges_to_dead(self):
        skeleton = dz.compartment_graph(dz.SIR, mortal_compartments=["I"])
        assert ("I", sm.DEAD_STATE) in edges_of(skeleton)
        assert sm.DEAD_STATE in skeleton.states

    def test_initial_states(self):
        assert dz.compartment_graph(dz.SIR).initial == "S"
        assert dz.compartment_graph(dz.SEIR).initial == "S"
        assert dz.compartment_graph(dz.PSIR).initial == "P"

    def test_custom_edges_pass_through(self):
        skeleton = dz.compartment_graph(
            dz.CUSTOM, custom_states=["S", "X"], custom_transitions=[("S", "X")]
        )
        assert edges_of(skeleton) == {("S", "X")}


def make_spec(kind=dz.SIR, **kw):
    defaults = dict(
        transmission=dz.TransmissionSpec(dz.PROXIMITY, ex.lit(2.0), ex.lit(0.5)),
        progressions=[dz.ProgressionSpec("I", sm.ProbabilisticTrigger(ex.lit(0.1)))],
    )
    if kind == dz.SEIR:
        defaults["progressions"] = [
            dz.ProgressionSpec("E", sm.DeterministicTrigger(ex.lit(3))),
            dz.ProgressionSpec("I", sm.ProbabilisticTrigger(ex.lit(0.1))),
        ]
    if kind == dz.PSIR:
        defaults["passive_immunity"] = sm.DeterministicTrigger(ex.lit(5))
    defaults.update(kw)
    return dz.DiseaseModelSpec(name="d", kind=kind, **defaults)


class TestBuildMachine:
    def test_seir_infection_enters_exposed(self):
        spec = make_spec(dz.SEIR)
        assert dz.infection_target(spec) == "E"
        machine = dz.build_machine(spec)
        assert not [t for t in machine.transitions if t.source == "S"]  # the engine applies infections directly

    def test_leaving_mortality_becomes_abortion(self):
        spec = make_spec(
            mortality=[dz.MortalitySpec("I", ex.lit(0.25), dz.LEAVING_COMPARTMENT)]
        )
        machine = dz.build_machine(spec)
        progression = next(t for t in machine.transitions if t.source == "I" and t.target == "R")
        assert progression.abortion is not None
        assert progression.abortion.abort_to == sm.DEAD_STATE

    def test_recovered_immunity_edge(self):
        spec = make_spec(recovered_immunity=sm.DeterministicTrigger(ex.lit(30)))
        assert ("R", "S") in edges_of(dz.build_machine(spec))
        spec = make_spec()
        assert ("R", "S") not in edges_of(dz.build_machine(spec))


def cand(i, state, attrs=None, entity_type=None):
    if entity_type is not None:
        return dz.Candidate(i, True, entity_type, MapContext(attrs or {}), None)
    return dz.Candidate(i, False, "Agt", MapContext(attrs or {}), state)


class TestAttemptTransmission:
    def spec(self, probability=1.0, condition=None, sources=()):
        return dz.compile_transmission(dz.TransmissionSpec(
            dz.PROXIMITY, ex.lit(2.0), ex.lit(probability), condition=condition, sources=list(sources)
        ))

    def test_zero_probability_never_infects(self):
        candidates = [cand(1, "I"), cand(2, "I")]
        assert not dz.attempt_transmission(MapContext(), candidates, self.spec(0.0), ["I"], random.Random(0))

    def test_zero_probability_draws_nothing(self):
        rng = random.Random(3)
        dz.attempt_transmission(MapContext(), [cand(1, "I")], self.spec(0.0), ["I"], rng)
        assert rng.random() == random.Random(3).random()

    @pytest.mark.parametrize("probability", [1.5, -0.1, float("nan")])
    def test_out_of_range_probability_is_rejected(self, probability):
        with pytest.raises(EvalError, match=r"outside \[0, 1\]"):
            dz.attempt_transmission(MapContext(), [], self.spec(probability), ["I"], random.Random(0))

    def test_certain_probability_with_infectious_neighbor(self):
        assert dz.attempt_transmission(MapContext(), [cand(1, "I")], self.spec(1.0), ["I"], random.Random(0))

    def test_non_infectious_neighbors_ignored(self):
        candidates = [cand(1, "R"), cand(2, "S"), cand(3, "E")]
        assert not dz.attempt_transmission(MapContext(), candidates, self.spec(1.0), ["I"], random.Random(0))

    def test_infectious_state_set_is_respected(self):
        candidates = [cand(1, "E")]
        assert dz.attempt_transmission(MapContext(), candidates, self.spec(1.0), ["E", "I"], random.Random(0))

    def test_entity_sources_with_condition(self):
        spec = self.spec(1.0, condition=ex.Binary(">", ex.AttrRef(None, "level"), ex.lit(1.0)), sources=["Well"])
        dirty = [cand(1, None, {"level": 2.0}, entity_type="Well")]
        clean = [cand(1, None, {"level": 0.5}, entity_type="Well")]
        other = [cand(1, None, {"level": 9.9}, entity_type="Fountain")]
        assert dz.attempt_transmission(MapContext(), dirty, spec, ["I"], random.Random(0))
        assert not dz.attempt_transmission(MapContext(), clean, spec, ["I"], random.Random(0))
        assert not dz.attempt_transmission(MapContext(), other, spec, ["I"], random.Random(0))

    def test_declared_sources_keep_the_condition_to_themselves(self):
        """With ``sources``, the condition is read on those entities only: an
        infectious agent, which has no ``level``, infects without it."""
        spec = self.spec(1.0, condition=ex.Binary(">", ex.AttrRef(None, "level"), ex.lit(1.0)), sources=["Well"])
        assert dz.attempt_transmission(MapContext(), [cand(1, "I")], spec, ["I"], random.Random(0))
        clean = [cand(1, None, {"level": 0.5}, entity_type="Well"), cand(2, "R")]
        assert not dz.attempt_transmission(MapContext(), clean, spec, ["I"], random.Random(0))

    def test_condition_applies_to_agent_sources_too(self):
        spec = self.spec(1.0, condition=ex.AttrRef(None, "shedding"))
        hot = [cand(1, "I", {"shedding": True})]
        cold = [cand(1, "I", {"shedding": False})]
        assert dz.attempt_transmission(MapContext(), hot, spec, ["I"], random.Random(0))
        assert not dz.attempt_transmission(MapContext(), cold, spec, ["I"], random.Random(0))

    def test_candidates_tried_in_the_order_given(self):
        tried = []

        class Recording(MapContext):
            def attribute(self, owner, name):
                tried.append(self._attrs["id"])
                return super().attribute(owner, name)

        spec = self.spec(1.0, condition=ex.Binary(">", ex.AttrRef(None, "id"), ex.lit(5)))
        candidates = [dz.Candidate(i, False, "Agt", Recording({"id": i}), "I") for i in (1, 9, 4)]
        assert dz.attempt_transmission(MapContext(), candidates, spec, ["I"], random.Random(0))
        assert tried == [1, 9]  # id 1 fails the condition, id 9 infects, id 4 is never tried


class TestIntroduce:
    def pool(self, n):
        return [MapContext({"age": i}) for i in range(n)]

    @staticmethod
    def ages(chosen):
        return [ctx.attribute(None, "age") for ctx in chosen]

    def spec(self, **kw):
        base = dict(disease="d", quantity_kind="deterministic", count=5)
        base.update(kw)
        return dz.DiseaseIntroductionSpec(**base)

    def test_deterministic_exact_count(self):
        chosen = dz.introduce(self.pool(100), self.spec(), None, random.Random(1))
        assert len(chosen) == 5
        assert len(set(map(id, chosen))) == 5
        # In pool order, and the members a sample of the ids draws.
        assert self.ages(chosen) == sorted(random.Random(1).sample(range(100), 5))

    def test_deterministic_clamps_to_pool(self):
        pool = self.pool(3)
        assert dz.introduce(pool, self.spec(), None, random.Random(1)) == pool

    def test_probabilistic_certainty_takes_all(self):
        spec = self.spec(quantity_kind="probabilistic", probability=1.0, count=None)
        pool = self.pool(40)
        assert dz.introduce(pool, spec, None, random.Random(1)) == pool

    def test_aperiodic_fires_only_at_zero(self):
        assert not dz.introduction_due(self.spec(), 1)
        assert dz.introduction_due(self.spec(), 0)
        assert dz.introduce(self.pool(10), self.spec(), None, random.Random(1)) != []

    def test_periodic_fires_on_multiples(self):
        spec = self.spec(periodicity="periodic", interval=4)
        for tick in range(12):
            assert dz.introduction_due(spec, tick) == (tick % 4 == 0)

    def test_eligible_filters_pool(self):
        spec = self.spec(
            count=100,
            selection="eligible",
            eligibility=ex.Binary(">=", ex.AttrRef(None, "age"), ex.lit(7)),
        )
        chosen = dz.introduce(self.pool(10), spec, ex.compile_condition(spec.eligibility), random.Random(1))
        assert self.ages(chosen) == [7, 8, 9]


def compiled(rules):
    return [dz.compile_mortality(rule) for rule in rules]


class TestEvaluateMortality:
    @pytest.mark.parametrize("rate", [1.5, float("nan")])
    def test_out_of_range_rate_is_rejected(self, rate):
        rules = [dz.MortalitySpec("I", ex.lit(rate), dz.EVERY_TIMEUNIT)]
        with pytest.raises(EvalError, match=r"outside \[0, 1\]"):
            dz.evaluate_mortality(compiled(rules), MapContext(), 1, random.Random(0))

    def test_zero_rate_never_dies(self):
        rules = [dz.MortalitySpec("I", ex.lit(0.0), dz.EVERY_TIMEUNIT)]
        rng = random.Random(0)
        assert not any(
            dz.evaluate_mortality(compiled(rules), MapContext(), t, rng) for t in range(200)
        )

    def test_guard_not_met_blocks_death(self):
        rules = [
            dz.MortalitySpec(
                "I",
                ex.lit(1.0),
                dz.WHEN_CONDITION,
                condition=ex.Binary("<=", ex.AttrRef(None, "energy"), ex.lit(0)),
            )
        ]
        alive = MapContext({"energy": 5})
        exhausted = MapContext({"energy": 0})
        assert not dz.evaluate_mortality(compiled(rules), alive, 1, random.Random(0))
        assert dz.evaluate_mortality(compiled(rules), exhausted, 1, random.Random(0))

    def test_specific_timeunit_only_that_tick(self):
        rules = [dz.MortalitySpec("I", ex.lit(1.0), dz.SPECIFIC_TIMEUNIT, at_tick=7)]
        rng = random.Random(0)
        hits = [dz.evaluate_mortality(compiled(rules), MapContext(), t, rng) for t in range(10)]
        assert hits == [t == 7 for t in range(10)]


class TestValidateDisease:
    def collect(self, spec):
        out = []
        dz.validate_disease(spec, lambda sev, path, msg: out.append((sev, path, msg)), "disease:d")
        return out

    def test_valid_sir_no_diagnostics(self):
        assert self.collect(make_spec()) == []

    def test_missing_duration(self):
        spec = make_spec(progressions=[])
        assert any("missing duration" in msg for _, _, msg in self.collect(spec))

    def test_duration_on_wrong_compartment(self):
        spec = make_spec(progressions=[
            dz.ProgressionSpec("I", sm.ProbabilisticTrigger(ex.lit(0.1))),
            dz.ProgressionSpec("S", sm.DeterministicTrigger(ex.lit(2))),
        ])
        assert any("takes no duration" in msg for _, _, msg in self.collect(spec))

    def test_psir_requires_passive_duration(self):
        spec = make_spec(dz.PSIR, passive_immunity=None)
        assert any("passive immunity" in msg for _, _, msg in self.collect(spec))

    def test_contact_with_distance_rejected(self):
        spec = make_spec(transmission=dz.TransmissionSpec(dz.CONTACT, ex.lit(2.0), ex.lit(0.5)))
        assert any("distance zero" in msg for _, _, msg in self.collect(spec))

    def test_custom_unreachable_state(self):
        spec = dz.DiseaseModelSpec(
            name="d",
            kind=dz.CUSTOM,
            transmission=dz.TransmissionSpec(dz.CONTACT, None, ex.lit(0.5), target="A"),
            custom_states=["S", "A", "Z"],
            custom_initial="S",
            custom_transitions=[dz.CustomTransitionSpec("A", "A", sm.DeterministicTrigger(ex.lit(1)))],
        )
        assert any("unreachable" in msg for _, _, msg in self.collect(spec))

    def test_custom_cannot_leave_susceptible_by_itself(self):
        spec = dz.DiseaseModelSpec(
            name="d",
            kind=dz.CUSTOM,
            transmission=dz.TransmissionSpec(dz.CONTACT, None, ex.lit(0.5), target="A"),
            custom_states=["S", "A"],
            custom_initial="S",
            custom_transitions=[dz.CustomTransitionSpec("S", "A", sm.DeterministicTrigger(ex.lit(1)))],
        )
        assert any("leave the susceptible compartment" in msg for _, _, msg in self.collect(spec))

    def test_custom_dead_is_reserved(self):
        spec = dz.DiseaseModelSpec(
            name="d",
            kind=dz.CUSTOM,
            transmission=dz.TransmissionSpec(dz.CONTACT, None, ex.lit(1.0), target=sm.DEAD_STATE),
            custom_states=["S", sm.DEAD_STATE],
            custom_initial="S",
        )
        assert self.collect(spec) == [
            ("error", "disease:d", "'Dead' is the reserved death state, not a compartment")
        ]

    def test_duplicate_leaving_rule(self):
        spec = make_spec(mortality=[
            dz.MortalitySpec("I", ex.lit(0.1), dz.LEAVING_COMPARTMENT),
            dz.MortalitySpec("I", ex.lit(0.2), dz.LEAVING_COMPARTMENT),
        ])
        assert any("duplicate leaving_compartment" in msg for _, _, msg in self.collect(spec))
