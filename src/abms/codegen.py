"""NetLogo source emitter.

Transforms a validated model into NetLogo procedure text plus a generation
report mapping every model element to the procedures it produced.  Output is
a pure function of the model: same model, same bytes.  Generated code is
verified structurally (:func:`check_structure` and golden files); semantic
fidelity is anchored by the native engine, which implements the same
behavior.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from . import disease as dz
from . import expr as ex
from . import metamodel as mm
from . import statemachine as sm
from . import traffic as tf


@dataclass
class GenerationReport:
    """Element path -> emitted procedure names, plus breeds and unsupported notes."""

    procedures: dict[str, list[str]] = field(default_factory=dict)
    breeds: dict[str, tuple[str, str]] = field(default_factory=dict)
    unsupported: list[tuple[str, str]] = field(default_factory=list)

    def all_procedures(self) -> list[str]:
        out: list[str] = []
        for names in self.procedures.values():
            out.extend(names)
        return out

    def to_dict(self) -> dict:
        return {
            "procedures": self.procedures,
            "breeds": {k: list(v) for k, v in self.breeds.items()},
            "unsupported": [list(u) for u in self.unsupported],
        }


def _nl_name(name: str) -> str:
    return name.lower().replace("_", "-")


def _breed_names(type_name: str) -> tuple[str, str]:
    base = _nl_name(type_name)
    return (f"{base}s", f"one-{base}")


def _nl_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _nl_expr(expr_: ex.Expr) -> str:
    """NetLogo rendition of an expression (reporter context)."""
    if isinstance(expr_, ex.Literal):
        if expr_.kind in (ex.TEXT, ex.IDENTIFIER):
            return '"' + str(expr_.value).replace('"', '\\"') + '"'
        return _nl_number(expr_.value)
    if isinstance(expr_, ex.AttrRef):
        if expr_.owner is None and expr_.name == "tick":
            return "ticks"
        if expr_.owner is None and expr_.name == "stopped":
            return "stopped-here"
        return _nl_name(expr_.name)
    if isinstance(expr_, ex.StateTest):
        return f'{_nl_name(expr_.machine)}-state = "{expr_.state}"'
    if isinstance(expr_, ex.Aggregate):
        plural, _ = _breed_names(expr_.population)
        agentset = plural
        if expr_.predicate is not None:
            agentset = f"{plural} with [{_nl_expr(expr_.predicate)}]"
        if expr_.func == "count":
            return f"count {agentset}"
        return f"sum [{_nl_expr(expr_.value)}] of ({agentset})"
    if isinstance(expr_, ex.Unary):
        if expr_.op == "not":
            return f"not ({_nl_expr(expr_.operand)})"
        return f"(- {_nl_expr(expr_.operand)})"
    if isinstance(expr_, ex.Binary):
        op = {"==": "=", "and": "and", "or": "or"}.get(expr_.op, expr_.op)
        return f"({_nl_expr(expr_.left)} {op} {_nl_expr(expr_.right)})"
    raise TypeError(f"cannot emit {type(expr_).__name__}")


class _Emitter:
    """The source lines and the report: :meth:`proc` emits each procedure
    and reports it under its element path, the only writer of procedures."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.report = GenerationReport()

    def raw(self, text: str = "") -> None:
        self.lines.append(text)

    def proc(self, name: str, body: list[str], path: str, reporter: bool = False) -> None:
        self.raw(("to-report " if reporter else "to ") + name)
        for line in body:
            self.raw("  " + line if line else "")
        self.raw("end")
        self.raw()
        self.report.procedures.setdefault(path, []).append(name)

    def text(self) -> str:
        return "\n".join(self.lines).rstrip("\n") + "\n"


def generate(model: mm.Model) -> tuple[str, GenerationReport]:
    """Emit NetLogo source text and the generation report for ``model``."""
    e = _Emitter()
    e.raw(f"; NetLogo source generated from model '{model.name}'")
    e.raw("; sections: globals, breeds, setup, go, capability procedures, outputs")
    e.raw()
    _emit_globals(e, model)
    _emit_breeds(e, model)
    _emit_setup(e, model)
    _emit_go(e, model)
    for agent in model.agent_types:
        _emit_agent_procs(e, model, agent)
    for spec in model.diseases:
        _emit_disease_procs(e, model, spec)
    for i, intro in enumerate(model.introductions):
        _emit_introduction(e, model, intro, i)
    for machine in model.machines:
        name = _nl_name(machine.name)
        e.proc(f"step-machine-{name}", _step_body(name, machine), f"machine:{machine.name}")
    for plan in model.plans:
        _emit_plan(e, plan)
    for output in model.outputs:
        _emit_output(e, model, output)
    for concern in model.concerns:
        e.report.procedures.setdefault(f"concern:{concern.name}", [])
    return e.text(), e.report


def _emit_globals(e: _Emitter, model: mm.Model) -> None:
    names = ["sim-max-ticks"]
    for spec in model.diseases:
        names.append(f"{_nl_name(spec.name)}-deaths")
        names.append(f"{_nl_name(spec.name)}-ever-infected")
    for output in model.outputs:
        names.append(f"output-{_nl_name(output.name)}-file")
    e.raw("globals [")
    for name in names:
        e.raw(f"  {name}")
    e.raw("]")
    e.raw()


def _own_vars(spec: mm.AgentTypeSpec | mm.EntityTypeSpec) -> list[str]:
    out = [_nl_name(a.name) for a in spec.attributes]
    for cap in getattr(spec, "capabilities", ()):
        if cap.kind in ("disease", "state_machine"):
            out += [f"{_nl_name(cap.target)}-state", f"{_nl_name(cap.target)}-dwell"]
        elif cap.kind == "flow_control":
            out += ["phase-index", "phase-clock", "green-streams"]
        elif cap.kind == "reinforcement_learning":
            out += ["q-table", "q-prev-state", "q-prev-action", "q-reward-acc"]
    return out


def _emit_breeds(e: _Emitter, model: mm.Model) -> None:
    types = [*model.agent_types, *model.entity_types]
    for spec in types:
        plural, singular = e.report.breeds[spec.name] = _breed_names(spec.name)
        e.raw(f"breed [{plural} {singular}]")
    e.raw()
    for spec in types:
        own = _own_vars(spec)
        if own:
            e.raw(f"{e.report.breeds[spec.name][0]}-own [ {' '.join(own)} ]")
    e.raw()


def _emit_setup(e: _Emitter, model: mm.Model) -> None:
    body = ["clear-all"]
    topo = model.environment.topology
    if isinstance(topo, mm.GridTopology):
        body.append(f"resize-world 0 {topo.width - 1} 0 {topo.height - 1}")
        if not topo.wrap:
            body.append("; wrapping off: configure world topology to box in the interface")
    elif isinstance(topo, mm.CartesianTopology):
        body.append(f"; cartesian space x in {topo.x_min:g}..{topo.x_max:g}, y in {topo.y_min:g}..{topo.y_max:g}")
    elif isinstance(topo, mm.GraphTopology):
        body.append("setup-road-network")
    for spec in model.diseases:
        body.append(f"set {_nl_name(spec.name)}-deaths 0")
        body.append(f"set {_nl_name(spec.name)}-ever-infected 0")
    for spec in mm.creation_order(model):
        body.append(f"setup-{_nl_name(spec.name)}s")
    for i, intro in enumerate(model.introductions):
        body.append(f"introduce-{_nl_name(intro.disease)}-{i}")
    if model.outputs:
        body.append("setup-outputs")
    body.append("reset-ticks")
    e.proc("setup", body, "model")
    if isinstance(topo, mm.GraphTopology):
        source = topo.source
        origin = source.path if isinstance(source, mm.OsmGraphStrategy) else "inline edge list"
        e.proc(
            "setup-road-network",
            [f"; build road graph nodes and links from {origin}",
             "; nodes become stationary junction turtles, links carry a length attribute"],
            "environment",
        )


def _emit_go(e: _Emitter, model: mm.Model) -> None:
    vehicles = model.graph_topology() is not None and any(a.capability("mobility") for a in model.agent_types)
    body = ["if ticks >= sim-max-ticks [ stop ]"]
    for i, intro in enumerate(model.introductions):
        if intro.periodicity == "periodic":
            body.append(f"if ticks mod {intro.interval} = 0 [ introduce-{_nl_name(intro.disease)}-{i} ]")
    for agent in model.agent_types:
        plural, _ = _breed_names(agent.name)
        if agent.capability("mobility") is not None:
            body.append(f"ask {plural} [ move-{_nl_name(agent.name)} ]")
        if agent.capability("flow_control") is not None:
            body.append(f"ask {plural} [ advance-plan-{_nl_name(agent.name)} ]")
        for machine in model.machines_of(agent):
            body.append(f"ask {plural} [ step-machine-{_nl_name(machine.name)} ]")
    for spec in model.diseases:
        body.append(f"disease-phase-{_nl_name(spec.name)}")
    if vehicles:
        body.append("vehicle-phase")
    for agent in model.agent_types:
        if agent.capability("reinforcement_learning") is not None:
            plural, _ = _breed_names(agent.name)
            body.append(f"ask {plural} [ learning-step-{_nl_name(agent.name)} ]")
    if model.outputs:
        body.append("sample-outputs")
    body.append("tick")
    e.proc("go", body, "model")
    if vehicles:
        e.proc(
            "vehicle-phase",
            ["; advance vehicles along links, enqueue at junctions,",
             "; then serve one vehicle per green stream"],
            "environment",
        )


def _emit_agent_procs(e: _Emitter, model: mm.Model, agent: mm.AgentTypeSpec) -> None:
    path = f"agent:{agent.name}"
    plural, _ = _breed_names(agent.name)
    name = _nl_name(agent.name)
    creation = agent.creation
    init: list[str] = []
    for attr in agent.attributes:
        if attr.default is not None:
            init.append(f"set {_nl_name(attr.name)} {_nl_expr(attr.default)}")
    starts = [(d, dz.entry_compartment(model.disease(d))) for d in agent.disease_names()]
    for target, initial in starts + [(m.name, m.initial) for m in model.machines_of(agent)]:
        init += [f'set {_nl_name(target)}-state "{initial}"', f"set {_nl_name(target)}-dwell 0"]
    body: list[str] = []
    if isinstance(creation, mm.FixedCountStrategy):
        body.append(f"create-{plural} {creation.count} [")
        if creation.placement is None:
            body.append("  setxy random-xcor random-ycor")
        else:
            spots = " ".join(f"({_nl_expr(x)}, {_nl_expr(y)})" for x, y in creation.placement)
            body.append(f"  ; place cycling through fixed positions {spots}")
        body.extend("  " + line for line in init)
        body.append("]")
    elif isinstance(creation, mm.GisPointsStrategy):
        body.append(f'file-open "{creation.path}"')
        body.append("while [not file-at-end?] [")
        body.append("  let row file-read-line")
        body.append(f"  create-{plural} 1 [")
        body.append("    ; parse x,y[,attr=value...] from row and setxy accordingly")
        body.extend("    " + line for line in init)
        body.append("  ]")
        body.append("]")
        body.append("file-close")
    else:  # OSM: validation rules out inline edge lists for populations
        body.append("; one controller per junction with degree >= 3")
        body.append(f"create-{plural} count-intersections [")
        body.extend("  " + line for line in init)
        body.append("]")
    e.proc(f"setup-{name}s", body, path)
    # A reporter the types share is emitted, and reported, with the first type that needs it.
    if agent is next((a for a in model.agent_types if isinstance(a.creation, mm.OsmGraphStrategy)), None):
        e.proc(
            "count-intersections",
            ["; junction nodes of the road network with degree >= 3",
             "report 0"],
            path,
            reporter=True,
        )
    mobility = agent.capability("mobility")
    if mobility is not None:
        step = _nl_expr(mobility.step)
        if model.graph_topology() is not None:
            move = [f"; traverse the current link at {step} length units per tick;",
                    "; queue at the junction and cross only on green (see vehicle-phase)"]
        else:
            move = ["; random walk: 8 neighbors plus stay, equal odds",
                    "let pick random 9",
                    "if pick < 8 [",
                    "  set heading pick * 45",
                    f"  fd {step}",
                    "]"]
        e.proc(f"move-{name}", move, path)
    learning = agent.capability("reinforcement_learning")
    if agent.capability("flow_control") is not None:
        plan = model.plan_of(agent)
        active = "q-prev-action" if learning is not None else f'"{plan.name if plan is not None else ""}"'
        e.proc(
            f"advance-plan-{name}",
            [f"let active-plan {active}",
             "set phase-clock phase-clock + 1",
             "; move to the next phase once the current duration elapses",
             "; and recolor this junction's incoming streams"],
            path,
        )
    if agent is next((a for a in model.agent_types if a.capability("flow_control") is not None), None):
        e.proc(
            "stopped-here",
            ["; vehicles queued on this controller's red streams",
             "report 0"],
            path,
            reporter=True,
        )
    if learning is not None:
        q = learning.qlearning
        reward = _nl_expr(q.reward) if q.reward is not None else "(- stopped-here)"
        e.proc(
            f"learning-step-{name}",
            [f"set q-reward-acc q-reward-acc + {reward}",
             "; on cycle completion: q-update with "
             f"alpha {_nl_number(q.alpha)} gamma {_nl_number(q.gamma)}, then",
             f"; epsilon-greedy ({_nl_number(q.epsilon)}) selection over {' '.join(q.plans)}"],
            path,
        )
        e.proc(
            f"q-update-{name}",
            ["; Q(s,a) <- Q(s,a) + alpha * (r + gamma * max Q(s',a') - Q(s,a))",
             "; q-table is a list of [state action value] triples"],
            path,
        )
        e.proc(
            f"q-select-{name}",
            ["; epsilon-greedy over the configured plans; ties to first declared",
             "report q-prev-action"],
            path,
            reporter=True,
        )
    for i, cap in enumerate(agent.capabilities):
        if cap.kind == "external":
            e.raw(f"; external capability: {cap.target} (include manually from {cap.library})")
            e.raw()
            e.report.unsupported.append((f"{path}.capability[{i}]", f"external capability {cap.target}"))


def _emit_disease_procs(e: _Emitter, model: mm.Model, spec: dz.DiseaseModelSpec) -> None:
    path = f"disease:{spec.name}"
    name = _nl_name(spec.name)
    carrier_set = _carrier_set(model, spec.name)
    susceptible = dz.susceptible_compartment(spec)
    t = spec.transmission
    phase_body = [
        f'ask {carrier_set} with [{name}-state = "{susceptible}"] [ attempt-{name}-infection ]',
        f'ask {carrier_set} with [{name}-state != "{susceptible}"] [ progress-{name} ]',
        f"apply-{name}-deaths",
        f"ask {carrier_set} [ recolor-{name} ]",
    ]
    e.proc(f"disease-phase-{name}", phase_body, path)
    radius = _nl_expr(t.distance) if t.interaction == dz.PROXIMITY else "0"
    infectious = dz.infectious_states(spec)
    states_list = " ".join(f'"{s}"' for s in infectious)
    target = dz.infection_target(spec)
    body = [
        f"let sources (other turtles in-radius {radius}) with [",
        f"  member? {name}-state (list {states_list})",
        "]",
        "ask sources [",
        f"  if [{name}-state] of myself = \"{susceptible}\" and random-float 1.0 < {_nl_expr(t.probability)} [",
        f"    ask myself [ become-{name}-infected ]",
        "  ]",
        "]",
    ]
    e.proc(f"attempt-{name}-infection", body, path)
    e.proc(
        f"become-{name}-infected",
        [f'set {name}-state "{target}"',
         f"set {name}-dwell 0",
         f"set {name}-ever-infected {name}-ever-infected + 1"],
        path,
    )
    progress_body = _step_body(name, dz.build_machine(spec))
    for rule in spec.mortality:
        if rule.evaluation == dz.LEAVING_COMPARTMENT:
            continue
        guard = _mortality_guard(rule)
        progress_body.append(
            f'if {name}-state = "{rule.compartment}" and {guard} '
            f"and random-float 1.0 < {_nl_expr(rule.rate)} "
            f'[ set {name}-state "Dead" ]'
        )
    e.proc(f"progress-{name}", progress_body, path)
    e.proc(
        f"apply-{name}-deaths",
        [f'let victims {carrier_set} with [{name}-state = "Dead"]',
         f"set {name}-deaths {name}-deaths + count victims",
         "ask victims [ die ]"],
        path,
    )
    color_lines = []
    palette = {"S": "blue", "E": "yellow", "I": "red", "R": "green", "P": "gray"}
    for comp in dz.compartments_of(spec):
        color = palette.get(comp, "white")
        color_lines.append(f'if {name}-state = "{comp}" [ set color {color} ]')
    e.proc(f"recolor-{name}", color_lines, path)


def _trigger_condition(trigger: sm.Trigger, dwell_var: str) -> str:
    if isinstance(trigger, sm.ProbabilisticTrigger):
        return f"random-float 1.0 < {_nl_expr(trigger.rate)}"
    if isinstance(trigger, sm.DeterministicTrigger):
        return f"{dwell_var} >= {_nl_expr(trigger.ticks)}"
    if isinstance(trigger, sm.ConditionalTrigger):
        return _nl_expr(trigger.condition)
    if isinstance(trigger, sm.CompositeTrigger):
        joiner = " and " if trigger.mode == "all_of" else " or "
        return "(" + joiner.join(_trigger_condition(p, dwell_var) for p in trigger.parts) + ")"
    return "false"


def _mortality_guard(rule: dz.MortalitySpec) -> str:
    if rule.evaluation == dz.SPECIFIC_TIMEUNIT:
        return f"ticks = {rule.at_tick}"
    if rule.evaluation == dz.WHEN_CONDITION:
        return _nl_expr(rule.condition)
    return "true"


def _emit_introduction(e: _Emitter, model: mm.Model, intro: dz.DiseaseIntroductionSpec, index: int) -> None:
    spec = model.disease(intro.disease)
    name = _nl_name(intro.disease)
    susceptible = dz.susceptible_compartment(spec)
    target = dz.infection_target(spec)
    body = [f'let pool {_carrier_set(model, intro.disease)} with [{name}-state = "{susceptible}"]']
    if intro.selection == "eligible":
        body.append(f"set pool pool with [{_nl_expr(intro.eligibility)}]")
    if intro.quantity_kind == "deterministic":
        body.append(f"ask n-of (min (list {intro.count} count pool)) pool [")
    else:
        body.append(f"ask pool with [random-float 1.0 < {_nl_number(intro.probability)}] [")
    body.append(f'  set {name}-state "{target}"')
    body.append(f"  set {name}-dwell 0")
    body.append(f"  set {name}-ever-infected {name}-ever-infected + 1")
    body.append("]")
    e.proc(f"introduce-{name}-{index}", body, f"introduce[{index}]")


def _step_body(name: str, machine: sm.StateMachineSpec) -> list[str]:
    """The dwell increment, then one line per timed transition of ``machine``
    whose state is kept in ``<name>-state``."""
    body = [f"set {name}-dwell {name}-dwell + 1"]
    for tr in machine.transitions:
        condition = _trigger_condition(tr.trigger, f"{name}-dwell")
        if tr.guard is not None:
            condition = f"({_nl_expr(tr.guard)}) and {condition}"
        action = f'set {name}-state "{tr.target}" set {name}-dwell 0'
        if tr.abortion is not None:
            action = (
                f"ifelse random-float 1.0 < {_nl_expr(tr.abortion.probability)} "
                f'[ set {name}-state "{tr.abortion.abort_to}" ] [ {action} ]'
            )
        body.append(f'if {name}-state = "{tr.source}" and {condition} [ {action} ]')
    return body


def _carrier_set(model: mm.Model, disease: str) -> str:
    """The NetLogo agentset of every breed that carries ``disease``."""
    breeds = [_breed_names(a.name)[0] for a in model.carriers(disease)]
    return "(turtle-set " + " ".join(breeds) + ")" if breeds else "no-turtles"


def _emit_plan(e: _Emitter, plan: tf.PlanSpec) -> None:
    name = _nl_name(plan.name)
    body = [f"; {len(plan.phases)} phases, cycle length {plan.cycle_length()} ticks"]
    for i, phase in enumerate(plan.phases):
        streams = " ".join(phase.green)
        body.append(f"; phase {i} '{phase.name}': green {streams} for {phase.duration} ticks")
    body.append("set phase-clock phase-clock + 1")
    e.proc(f"cycle-plan-{name}", body, f"plan:{plan.name}")


def _emit_output(e: _Emitter, model: mm.Model, output: mm.OutputDatasetSpec) -> None:
    path = f"output:{output.name}"
    name = _nl_name(output.name)
    labels = ",".join(["tick"] + [s.label for s in output.series])
    setup_body = [
        f'set output-{name}-file "{output.path}"',
        f"carefully [ file-delete output-{name}-file ] []",
        f"file-open output-{name}-file",
        f'file-print "{labels}"',
        "file-close",
    ]
    e.proc(f"setup-output-{name}", setup_body, path)
    sample_body = [
        f"if ticks mod {output.interval} != 0 [ stop ]",
        f"file-open output-{name}-file",
        "file-print (word ticks",
    ]
    for series in output.series:
        sample_body.append(f'  "," {_nl_expr(series.value)}')
    sample_body.append(")")
    sample_body.append("file-close")
    e.proc(f"sample-output-{name}", sample_body, path)
    if output is model.outputs[0]:
        e.proc("setup-outputs", [f"setup-output-{_nl_name(o.name)}" for o in model.outputs], "model-outputs")
        e.proc("sample-outputs", [f"sample-output-{_nl_name(o.name)}" for o in model.outputs], "model-outputs")


# A string runs to its closing quote or the end of its line; a backslash
# escapes the character after it.  A comment runs from ';' to the line end.
_STRING_OR_COMMENT = re.compile(r'"(?:[^"\\\n]|\\.)*["\\]?|;.*')


def check_structure(source: str, report: GenerationReport) -> bool:
    """True iff every reported procedure and breed appears exactly once and
    brackets and parentheses balance (comments and strings ignored)."""
    stripped = _STRING_OR_COMMENT.sub("", source)
    lines = map(str.split, stripped.split("\n"))
    defined = Counter(words[1] for words in lines if len(words) >= 2 and words[0] in ("to", "to-report"))
    if any(defined[name] != 1 for name in report.all_procedures()):
        return False
    for plural, singular in report.breeds.values():
        if stripped.count(f"breed [{plural} {singular}]") != 1:
            return False
    depth = {"[": 0, "(": 0}
    pair = {"]": "[", ")": "("}
    for ch in stripped:
        if ch in depth:
            depth[ch] += 1
        elif ch in pair:
            depth[pair[ch]] -= 1
            if depth[pair[ch]] < 0:
                return False
    return depth["["] == 0 and depth["("] == 0
