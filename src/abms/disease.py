"""Spread-of-disease capability: compartmental models over state machines.

A disease is a state machine whose states are compartments.  Standard layouts
(SIR, SEIR, PSIR) fix the compartment graph; ``custom`` models declare their
own states and progression transitions.  Transmission moves susceptible
agents into the entry infection compartment, progression walks the chain with
duration triggers, mortality redirects agents to the absorbing Dead
pseudo-state, and introductions are applied by the simulation controller.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Sequence

from . import expr as ex
from . import statemachine as sm

SIR = "SIR"
SEIR = "SEIR"
PSIR = "PSIR"
CUSTOM = "custom"
KINDS = (SIR, SEIR, PSIR, CUSTOM)

PROXIMITY = "proximity"
CONTACT = "contact"

EVERY_TIMEUNIT = "every_timeunit"
SPECIFIC_TIMEUNIT = "specific_timeunit"
WHEN_CONDITION = "when_condition"
LEAVING_COMPARTMENT = "leaving_compartment"
MORTALITY_EVALUATIONS = (EVERY_TIMEUNIT, SPECIFIC_TIMEUNIT, WHEN_CONDITION, LEAVING_COMPARTMENT)

_STANDARD_CHAIN = {
    SIR: ["S", "I", "R"],
    SEIR: ["S", "E", "I", "R"],
    PSIR: ["P", "S", "I", "R"],
}


@dataclass
class TransmissionSpec:
    """How a disease passes between a susceptible agent and nearby sources."""

    interaction: str  # "proximity" | "contact"
    distance: ex.Expr | None  # required for proximity; contact means distance 0
    probability: ex.Expr
    target: str | None = None  # entry infection compartment; None = model default
    infectious: list[str] | None = None  # None = default {I}
    condition: ex.Expr | None = None  # contamination condition, checked on the source
    sources: list[str] = field(default_factory=list)  # entity types that can infect


@dataclass
class ProgressionSpec:
    """Duration trigger for one compartment's outgoing progression."""

    compartment: str
    trigger: sm.Trigger


@dataclass
class MortalitySpec:
    compartment: str
    rate: ex.Expr
    evaluation: str  # one of MORTALITY_EVALUATIONS
    at_tick: int | None = None  # specific_timeunit
    condition: ex.Expr | None = None  # when_condition


@dataclass
class CustomTransitionSpec:
    source: str
    target: str
    trigger: sm.Trigger


@dataclass
class DiseaseModelSpec:
    name: str
    kind: str  # SIR | SEIR | PSIR | custom
    transmission: TransmissionSpec | None
    progressions: list[ProgressionSpec] = field(default_factory=list)
    mortality: list[MortalitySpec] = field(default_factory=list)
    passive_immunity: sm.Trigger | None = None  # P duration (PSIR)
    recovered_immunity: sm.Trigger | None = None  # R duration; None = permanent
    custom_states: list[str] = field(default_factory=list)
    custom_initial: str | None = None
    custom_transitions: list[CustomTransitionSpec] = field(default_factory=list)


@dataclass
class DiseaseIntroductionSpec:
    disease: str
    quantity_kind: str  # "deterministic" | "probabilistic"
    count: int | None = None
    probability: float | None = None
    selection: str = "arbitrary"  # "arbitrary" | "eligible"
    eligibility: ex.Expr | None = None
    periodicity: str = "aperiodic"  # "aperiodic" | "periodic"
    interval: int | None = None


# ---------------------------------------------------------------------------
# Compartment graphs


def compartments_of(spec: DiseaseModelSpec) -> list[str]:
    """The compartments of ``spec``; none for a kind it does not know, which validation reports."""
    if spec.kind == CUSTOM:
        return list(spec.custom_states)
    return list(_STANDARD_CHAIN.get(spec.kind, ()))


def entry_compartment(spec: DiseaseModelSpec) -> str:
    """Where a fresh instance starts: S, P for PSIR, or the custom initial."""
    if spec.kind == PSIR:
        return "P"
    if spec.kind == CUSTOM:
        return spec.custom_initial or (spec.custom_states[0] if spec.custom_states else "S")
    return "S"


def susceptible_compartment(spec: DiseaseModelSpec) -> str:
    """The compartment from which infection departs (pool for introductions)."""
    if spec.kind == CUSTOM:
        return entry_compartment(spec)
    return "S"


def infection_target(spec: DiseaseModelSpec) -> str:
    """Compartment entered on infection: declared target or the model default."""
    if spec.transmission is not None and spec.transmission.target is not None:
        return spec.transmission.target
    if spec.kind == SEIR:
        return "E"
    if spec.kind == CUSTOM:
        raise ValueError("custom disease models must declare a transmission target")
    return "I"


def infectious_states(spec: DiseaseModelSpec) -> list[str]:
    if spec.transmission is not None and spec.transmission.infectious:
        return list(spec.transmission.infectious)
    return ["I"]


def compartment_graph(
    kind: str,
    custom_states: Sequence[str] | None = None,
    custom_transitions: Sequence[tuple[str, str]] | None = None,
    temporary_immunity: bool = False,
    mortal_compartments: Sequence[str] = (),
) -> sm.StateMachineSpec:
    """Structural skeleton: compartments plus allowed edges, triggers unbound.

    Standard layouts chain S->I->R (SIR), S->E->I->R (SEIR), and P->S->I->R
    (PSIR); finite recovered immunity adds R->S.  Compartments named by a
    mortality rule additionally get an edge to the Dead pseudo-state.
    """
    if kind == CUSTOM:
        states = list(custom_states or [])
        edges = [(s, t) for s, t in (custom_transitions or [])]
        initial = states[0] if states else "S"
    else:
        states = list(_STANDARD_CHAIN[kind])
        edges = [(states[i], states[i + 1]) for i in range(len(states) - 1)]
        if temporary_immunity:
            edges.append(("R", "S"))
        initial = states[0]
    transitions = [sm.Transition(s, t, trigger=None) for s, t in edges]
    mortal = [c for c in states if c in set(mortal_compartments)]
    if mortal:
        states = states + [sm.DEAD_STATE]
        transitions += [sm.Transition(c, sm.DEAD_STATE, trigger=None) for c in mortal]
    return sm.StateMachineSpec(name=f"{kind}-skeleton", states=states, initial=initial, transitions=transitions)


def build_machine(spec: DiseaseModelSpec) -> sm.StateMachineSpec:
    """Executable machine for a validated disease model.

    Progression edges carry the declared duration triggers; a
    leaving-compartment mortality rule becomes an abortion clause on that
    compartment's progression.  Infection is no edge: the engine applies it
    directly.  Deaths evaluated per tick are handled by
    :func:`evaluate_mortality`, not by machine transitions.
    """
    durations = {p.compartment: p.trigger for p in spec.progressions}
    leaving = {m.compartment: m for m in spec.mortality if m.evaluation == LEAVING_COMPARTMENT}
    transitions: list[sm.Transition] = []

    def progression(source: str, target: str, trigger: sm.Trigger) -> sm.Transition:
        abortion = None
        rule = leaving.get(source)
        if rule is not None:
            abortion = sm.Abortion(probability=rule.rate, abort_to=sm.DEAD_STATE)
        return sm.Transition(source, target, trigger=trigger, abortion=abortion)

    if spec.kind == CUSTOM:
        states = list(spec.custom_states)
        initial = entry_compartment(spec)
        for tr in spec.custom_transitions:
            transitions.append(progression(tr.source, tr.target, tr.trigger))
    else:
        chain = list(_STANDARD_CHAIN[spec.kind])
        states = list(chain)
        initial = entry_compartment(spec)
        if spec.kind == PSIR and spec.passive_immunity is not None:
            transitions.append(progression("P", "S", spec.passive_immunity))
        after = {chain[i]: chain[i + 1] for i in range(len(chain) - 1)}
        for comp, trigger in durations.items():
            transitions.append(progression(comp, after[comp], trigger))
        if spec.recovered_immunity is not None:
            transitions.append(progression("R", "S", spec.recovered_immunity))
    if spec.mortality:
        states.append(sm.DEAD_STATE)
    return sm.StateMachineSpec(name=spec.name, states=states, initial=initial, transitions=transitions)


# ---------------------------------------------------------------------------
# Runtime decision functions (pure; the engine supplies views and the PRNG)


@dataclass
class Candidate:
    """One potential infection source near a susceptible agent."""

    id: int
    is_entity: bool
    type_name: str
    source: ex.Context  # the agent or entity itself
    disease_state: str | None  # agents: current compartment for this disease


@dataclass(frozen=True)
class Transmission:
    """A transmission compiled for one run by :func:`compile_transmission`."""

    sources: frozenset[str]  # entity types that can infect
    probability: Callable[[ex.Context], float | int]  # on the susceptible side
    condition: Callable[[ex.Context], bool] | None  # on the source


def compile_transmission(spec: TransmissionSpec) -> Transmission:
    condition = None if spec.condition is None else ex.compile_condition(spec.condition)
    return Transmission(frozenset(spec.sources), ex.compile_number(spec.probability, *sm.RATE), condition)


def attempt_transmission(
    susceptible_ctx: ex.Context,
    candidates: Sequence[Candidate],
    spec: Transmission,
    infectious: Collection[str],
    rng: random.Random,
) -> bool:
    """One independent Bernoulli trial per qualifying source, in the order
    given (the engine passes them in ascending id order); returns True on the
    first success (at most one infection per tick).

    Agents qualify when their disease instance is in an infectious state;
    entities when their type is a declared source.  The contamination
    condition, when present, is checked against the source's own context:
    on the entity sources when ``sources`` are declared, else on the agents.
    The probability must lie in [0, 1]; probability 0 draws nothing.
    """
    probability = spec.probability(susceptible_ctx)
    if probability == 0:
        return False
    for cand in candidates:
        if cand.is_entity:
            if cand.type_name not in spec.sources:
                continue
        elif cand.disease_state not in infectious:
            continue
        if spec.condition is not None and (cand.is_entity or not spec.sources) and not spec.condition(cand.source):
            continue
        if rng.random() < probability:
            return True
    return False


def introduction_due(spec: DiseaseIntroductionSpec, tick: int) -> bool:
    if spec.periodicity == "periodic":
        return tick % int(spec.interval or 1) == 0
    return tick == 0


def introduce(
    pool: Sequence[ex.Context],
    spec: DiseaseIntroductionSpec,
    eligible: Callable[[ex.Context], bool] | None,
    rng: random.Random,
) -> list[ex.Context]:
    """The agents of ``pool`` a due introduction infects, in pool order.

    The pool must contain only susceptible agents, ascending by id.  The
    compiled eligibility criterion, if any, filters the pool first; a
    deterministic quantity samples without replacement (clamped to the pool
    size) and a probabilistic quantity draws one Bernoulli per pool member.
    """
    chosen = [ctx for ctx in pool if eligible is None or eligible(ctx)]
    if spec.quantity_kind == "deterministic":
        n = min(int(spec.count or 0), len(chosen))
        return [chosen[i] for i in sorted(rng.sample(range(len(chosen)), n))]  # a sample draws by size and n alone
    p = float(spec.probability or 0.0)
    return [ctx for ctx in chosen if rng.random() < p]


def compile_mortality(rule: MortalitySpec) -> Callable[[ex.Context, int, random.Random], bool]:
    """Compile a per-tick rule into ``dies(ctx, tick, rng)``: whether it kills
    this tick, drawing once when it applies."""
    rate = ex.compile_number(rule.rate, *sm.RATE)
    condition = ex.compile_condition(rule.condition) if rule.evaluation == WHEN_CONDITION else None

    def dies(ctx: ex.Context, tick: int, rng: random.Random) -> bool:
        if (rule.evaluation == SPECIFIC_TIMEUNIT and tick != rule.at_tick) or (condition is not None and not condition(ctx)):
            return False
        p = rate(ctx)
        return rng.random() < p
    return dies


def evaluate_mortality(rules: Iterable[Callable], ctx: ex.Context, tick: int, rng: random.Random) -> bool:
    """Whether the agent dies this tick under the given per-tick rules
    (every_timeunit, specific_timeunit, when_condition), each compiled by
    :func:`compile_mortality`.  Leaving-compartment rules are not evaluated
    here: :func:`build_machine` turns them into transition abortions.  Rules
    are checked in declaration order, each applicable rule draws once, and
    the first death wins.
    """
    return any(dies(ctx, tick, rng) for dies in rules)


# ---------------------------------------------------------------------------
# Structural validation (called from the whole-model validator)


def validate_disease(spec: DiseaseModelSpec, add: Callable[[str, str, str], None], path: str) -> None:
    """Emit structural diagnostics for one disease model via ``add(severity, path, message)``."""
    if spec.kind not in KINDS:
        add("error", path, f"unknown compartmental model '{spec.kind}'")
        return
    comps = compartments_of(spec)
    if spec.kind == CUSTOM:
        _validate_custom(spec, add, path, comps)
    else:
        _validate_standard(spec, add, path, comps)
    _validate_transmission(spec, add, path, comps)
    _validate_mortality(spec, add, path, comps)


def _validate_standard(spec: DiseaseModelSpec, add, path: str, comps: list[str]) -> None:
    chain = _STANDARD_CHAIN[spec.kind]
    # Compartments from the infection entry up to (excluding) R carry exactly
    # one duration each; S exits via transmission, P via passive immunity,
    # and R via the optional immunity duration.
    entry = "E" if spec.kind == SEIR else "I"
    required = chain[chain.index(entry):chain.index("R")]
    seen: set[str] = set()
    for prog in spec.progressions:
        if prog.compartment in seen:
            add("error", f"{path}.duration:{prog.compartment}", "duplicate duration for this compartment")
        seen.add(prog.compartment)
        if prog.compartment not in required:
            add("error", f"{path}.duration:{prog.compartment}",
                f"compartment '{prog.compartment}' takes no duration in a {spec.kind} model")
    for comp in required:
        if comp not in seen:
            add("error", f"{path}.duration:{comp}", f"missing duration for compartment '{comp}'")
    if spec.kind == PSIR and spec.passive_immunity is None:
        add("error", path, "PSIR models require a passive immunity duration for P")
    if spec.kind != PSIR and spec.passive_immunity is not None:
        add("error", path, f"passive immunity duration is only valid for PSIR, not {spec.kind}")
    if spec.custom_states or spec.custom_transitions or spec.custom_initial:
        add("error", path, f"custom states and transitions are not valid in a {spec.kind} model")


def _validate_custom(spec: DiseaseModelSpec, add, path: str, comps: list[str]) -> None:
    if not comps:
        add("error", path, "custom disease models must declare states")
        return
    if len(set(comps)) != len(comps):
        add("error", path, "duplicate compartment names")
    if sm.DEAD_STATE in comps:
        add("error", path, f"'{sm.DEAD_STATE}' is the reserved death state, not a compartment")
    if spec.custom_initial is not None and spec.custom_initial not in comps:
        add("error", path, f"initial compartment '{spec.custom_initial}' is not declared")
    if spec.transmission is not None and spec.transmission.target is None:
        add("error", f"{path}.transmission", "custom disease models must declare a transmission target")
    entry_state = entry_compartment(spec)
    for i, tr in enumerate(spec.custom_transitions):
        for end in (tr.source, tr.target):
            if end not in comps:
                add("error", f"{path}.transition[{i}]", f"compartment '{end}' is not declared")
        if tr.source == entry_state:
            add("error", f"{path}.transition[{i}]",
                "declared transitions cannot leave the susceptible compartment; only infection does")
    # Reachability from the entry compartment over declared + transmission edges.
    edges: dict[str, list[str]] = {c: [] for c in comps}
    for tr in spec.custom_transitions:
        if tr.source in edges and tr.target in comps:
            edges[tr.source].append(tr.target)
    entry = entry_compartment(spec)
    if spec.transmission is not None and spec.transmission.target in comps and entry in edges:
        edges[entry].append(spec.transmission.target)
    reached = {entry} if entry in comps else set()
    frontier = [entry] if entry in comps else []
    while frontier:
        for nxt in edges.get(frontier.pop(), []):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    for comp in comps:
        if comp not in reached:
            add("error", path, f"compartment '{comp}' is unreachable from '{entry}'")
    if spec.progressions:
        add("error", path, "custom models declare transitions, not per-compartment durations")


def _validate_transmission(spec: DiseaseModelSpec, add, path: str, comps: list[str]) -> None:
    t = spec.transmission
    tpath = f"{path}.transmission"
    if t is None:
        add("error", path, "disease model declares no transmission")
        return
    if t.interaction == PROXIMITY:
        d = ex.literal_number(t.distance) if t.distance is not None else None
        if t.distance is None:
            add("error", tpath, "proximity interaction requires a distance")
        elif d is not None and d <= 0:
            add("error", tpath, "proximity distance must be positive")
    elif t.interaction == CONTACT:
        if t.distance is not None and ex.literal_number(t.distance) not in (None, 0, 0.0):
            add("error", tpath, "contact interaction means distance zero")
    else:
        add("error", tpath, f"unknown interaction '{t.interaction}'")
    p = ex.literal_number(t.probability)
    if p is not None and not 0.0 <= p <= 1.0:
        add("error", tpath, f"transmission probability {p} outside [0, 1]")
    if t.target is not None:
        if spec.kind == SEIR and t.target != "E":
            add("error", tpath, "transition violates compartmental model: SEIR infections enter E")
        elif spec.kind in (SIR, PSIR) and t.target != "I":
            add("error", tpath, f"transition violates compartmental model: {spec.kind} infections enter I")
        elif spec.kind == CUSTOM and t.target not in comps:
            add("error", tpath, f"transmission target '{t.target}' is not declared")
    if t.infectious is not None:
        if not t.infectious:
            add("error", tpath, "infectious state set must not be empty")
        for state in t.infectious or []:
            if state not in comps:
                add("error", tpath, f"infectious state '{state}' is not a compartment")


def _validate_mortality(spec: DiseaseModelSpec, add, path: str, comps: list[str]) -> None:
    leaving_seen: set[str] = set()
    for i, rule in enumerate(spec.mortality):
        mpath = f"{path}.mortality[{i}]"
        if rule.compartment not in comps:
            add("error", mpath, f"compartment '{rule.compartment}' is not declared")
        if rule.evaluation not in MORTALITY_EVALUATIONS:
            add("error", mpath, f"unknown death rate evaluation '{rule.evaluation}'")
        rate = ex.literal_number(rule.rate)
        if rate is not None and not 0.0 <= rate <= 1.0:
            add("error", mpath, f"death rate {rate} outside [0, 1]")
        if rule.evaluation == SPECIFIC_TIMEUNIT and (rule.at_tick is None or rule.at_tick < 0):
            add("error", mpath, "specific_timeunit requires a tick >= 0")
        if rule.evaluation == WHEN_CONDITION and rule.condition is None:
            add("error", mpath, "when_condition requires a condition expression")
        if rule.evaluation == LEAVING_COMPARTMENT:
            if rule.compartment in leaving_seen:
                add("error", mpath, "duplicate leaving_compartment rule for this compartment")
            leaving_seen.add(rule.compartment)
