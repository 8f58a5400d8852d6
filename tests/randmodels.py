"""Seeded random model builders shared by fuzz and conservation tests."""

from __future__ import annotations

import random

from abms import disease as dz
from abms import expr as ex
from abms import metamodel as mm
from abms import statemachine as sm


def _rate(rng: random.Random) -> ex.Expr:
    return ex.lit(round(rng.uniform(0.01, 0.9), 3))


def _duration_trigger(rng: random.Random) -> sm.Trigger:
    if rng.random() < 0.5:
        return sm.ProbabilisticTrigger(_rate(rng))
    return sm.DeterministicTrigger(ex.lit(rng.randint(1, 12)))


def random_disease(rng: random.Random, name: str) -> dz.DiseaseModelSpec:
    kind = rng.choice([dz.SIR, dz.SEIR, dz.PSIR])
    interaction = rng.choice([dz.PROXIMITY, dz.CONTACT])
    transmission = dz.TransmissionSpec(
        interaction=interaction,
        distance=ex.lit(float(rng.randint(1, 4))) if interaction == dz.PROXIMITY else None,
        probability=_rate(rng),
    )
    progressions = [dz.ProgressionSpec("I", _duration_trigger(rng))]
    if kind == dz.SEIR:
        progressions.insert(0, dz.ProgressionSpec("E", _duration_trigger(rng)))
    mortality: list[dz.MortalitySpec] = []
    if rng.random() < 0.6:
        evaluation = rng.choice(dz.MORTALITY_EVALUATIONS)
        rule = dz.MortalitySpec("I", _rate(rng), evaluation)
        if evaluation == dz.SPECIFIC_TIMEUNIT:
            rule.at_tick = rng.randint(0, 30)
        elif evaluation == dz.WHEN_CONDITION:
            rule.condition = ex.Binary(">", ex.AttrRef(None, "tick"), ex.lit(rng.randint(0, 20)))
        mortality.append(rule)
    return dz.DiseaseModelSpec(
        name=name,
        kind=kind,
        transmission=transmission,
        progressions=progressions,
        mortality=mortality,
        passive_immunity=_duration_trigger(rng) if kind == dz.PSIR else None,
        recovered_immunity=_duration_trigger(rng) if rng.random() < 0.5 else None,
    )


def random_introduction(rng: random.Random, disease: str, with_attr: str | None) -> dz.DiseaseIntroductionSpec:
    spec = dz.DiseaseIntroductionSpec(disease=disease, quantity_kind="deterministic")
    if rng.random() < 0.5:
        spec.quantity_kind = "probabilistic"
        spec.probability = round(rng.uniform(0.05, 0.9), 3)
    else:
        spec.count = rng.randint(0, 8)
    if with_attr is not None and rng.random() < 0.4:
        spec.selection = "eligible"
        spec.eligibility = ex.Binary(">=", ex.AttrRef(None, with_attr), ex.lit(0))
    if rng.random() < 0.5:
        spec.periodicity = "periodic"
        spec.interval = rng.randint(1, 20)
    return spec


def random_disease_model(seed: int) -> mm.Model:
    """A valid single-disease model on a small wrapped grid."""
    rng = random.Random(seed)
    model = mm.Model(name=f"generated_{seed}")
    size = rng.randint(8, 20)
    model.environment = mm.EnvironmentSpec(mm.GridTopology(size, size, wrap=True))
    disease = random_disease(rng, "bug")
    model.diseases.append(disease)
    n_types = rng.randint(1, 2)
    attr = "age" if rng.random() < 0.7 else None
    for i in range(n_types):
        agent = mm.AgentTypeSpec(
            name=f"Kind{i}",
            creation=mm.FixedCountStrategy(rng.randint(5, 40)),
        )
        if attr is not None:
            agent.attributes.append(mm.AttributeSpec(attr, ex.INTEGER, ex.lit(rng.randint(0, 9))))
        if rng.random() < 0.8:
            agent.capabilities.append(mm.CapabilityRef("mobility", step=ex.lit(1)))
        agent.capabilities.append(mm.CapabilityRef("disease", target="bug"))
        model.agent_types.append(agent)
    model.introductions.append(random_introduction(rng, "bug", attr))
    model.outputs.append(
        mm.OutputDatasetSpec(
            name="counts",
            interval=rng.randint(1, 5),
            path="counts.csv",
            series=[
                mm.SeriesSpec(
                    "infected",
                    ex.Aggregate("count", "Kind0", ex.StateTest("bug", "I"), None),
                )
            ],
        )
    )
    return model


def random_text_model(seed: int) -> mm.Model:
    """A broader model (machines, plans, entities, concerns) for round-trip fuzz."""
    rng = random.Random(seed)
    model = random_disease_model(seed)
    model.name = f"fuzz_{seed}"
    if rng.random() < 0.5:
        entity = mm.EntityTypeSpec(
            name="Well",
            creation=mm.FixedCountStrategy(rng.randint(0, 5)),
            attributes=[mm.AttributeSpec("level", ex.REAL, ex.lit(round(rng.uniform(0, 2), 2)))],
        )
        model.entity_types.append(entity)
    if rng.random() < 0.6:
        machine = sm.StateMachineSpec(
            name="moods",
            states=["calm", "busy"],
            initial="calm",
            transitions=[
                sm.Transition("calm", "busy", sm.ProbabilisticTrigger(_rate(rng))),
                sm.Transition(
                    "busy",
                    "calm",
                    sm.DeterministicTrigger(ex.lit(rng.randint(1, 9))),
                    guard=ex.Binary("<", ex.AttrRef(None, "tick"), ex.lit(rng.randint(5, 50))),
                ),
            ],
        )
        model.machines.append(machine)
        model.agent_types[0].capabilities.append(mm.CapabilityRef("state_machine", target="moods"))
    if rng.random() < 0.4:
        model.concerns.append(mm.ConcernSpec("epidemic", ["bug", "Kind0"]))
    if rng.random() < 0.3:
        model.outputs.append(
            mm.OutputDatasetSpec(
                name="extra",
                interval=2,
                path="extra.csv",
                series=[
                    mm.SeriesSpec(
                        "load",
                        ex.Binary(
                            "/",
                            ex.Aggregate("count", "Kind0", None, None),
                            ex.lit(2),
                        ),
                    ),
                    mm.SeriesSpec("ticky", ex.AttrRef(None, "tick")),
                ],
            )
        )
    return model
