"""Canonical text for a model: deterministic, 2-space indented, reparseable.

``parse(format_model(m))`` reproduces ``m`` structurally, and formatting
already-canonical text is a fixed point.  Only agent and entity types carry a
source span (tokens and parse errors aside), and equality ignores it.
Agent and entity types keep their declaration order among each other, since
the engine creates them in that order (:func:`metamodel.creation_order`);
the other declarations keep their in-category order.  Categories are emitted
in a fixed sequence: environment, types, machines, plans, diseases,
introductions, outputs, concerns.
"""

from __future__ import annotations

import contextlib
from decimal import Decimal
from typing import Iterator

from .. import disease as dz
from .. import expr as ex
from .. import metamodel as mm
from .. import statemachine as sm
from .. import traffic as tf


def format_number(value: float | int) -> str:
    """A real keeps the digits of its shortest ``repr``, written out without
    an exponent, so it reads back as the same float."""
    if isinstance(value, int):
        return str(value)
    text = repr(float(value))
    if "e" in text:
        text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
    return text


def _escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def format_expr(expr: ex.Expr, parent_prec: int = 0) -> str:
    text, prec = _expr(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(expr: ex.Expr) -> tuple[str, int]:
    if isinstance(expr, ex.Literal):
        if expr.kind == ex.BOOLEAN:
            return ("true" if expr.value else "false", ex.PREC_ATOM)
        if expr.kind in (ex.TEXT, ex.IDENTIFIER):
            return (_escape(str(expr.value)), ex.PREC_ATOM)
        return (format_number(expr.value), ex.PREC_ATOM)  # type: ignore[arg-type]
    if isinstance(expr, ex.AttrRef):
        name = expr.name if expr.owner is None else f"{expr.owner}.{expr.name}"
        return (name, ex.PREC_ATOM)
    if isinstance(expr, ex.StateTest):
        return (f"{expr.machine} is {expr.state}", ex.PRECEDENCE["is"])
    if isinstance(expr, ex.Aggregate):
        inner = expr.population
        if expr.predicate is not None:
            inner += f" where {format_expr(expr.predicate)}"
        if expr.func == "sum":
            inner += f", {format_expr(expr.value)}"
        return (f"{expr.func}({inner})", ex.PREC_ATOM)
    if isinstance(expr, ex.Unary):
        if expr.op == "not":
            return (f"not {format_expr(expr.operand, ex.PREC_NOT)}", ex.PREC_NOT)
        return (f"-{format_expr(expr.operand, ex.PREC_NEG)}", ex.PREC_NEG)
    if isinstance(expr, ex.Binary):
        prec = ex.PRECEDENCE[expr.op]
        # A comparison does not chain, so one on its left keeps its parentheses.
        left = format_expr(expr.left, prec + 1 if prec == ex.PREC_CMP else prec)
        right = format_expr(expr.right, prec + 1)
        return (f"{left} {expr.op} {right}", prec)
    raise TypeError(f"cannot format {type(expr).__name__}")


def _strategy(strategy: mm.CreationalStrategy) -> str:
    if isinstance(strategy, mm.FixedCountStrategy):
        if strategy.placement is None:
            return f"fixed {strategy.count} random"
        spots = " ".join(f"({format_expr(x)}, {format_expr(y)})" for x, y in strategy.placement)
        return f"fixed {strategy.count} at {spots}"
    if isinstance(strategy, mm.GisPointsStrategy):
        return f"gis {_escape(strategy.path)}"
    if isinstance(strategy, mm.OsmGraphStrategy):
        return f"osm {_escape(strategy.path)}"
    if isinstance(strategy, mm.InlineEdgeListStrategy):
        lines = ["edges {"]
        for node in strategy.nodes:
            lines.append(f"  node {node.name} {format_number(node.x)} {format_number(node.y)}")
        for edge in strategy.edges:
            lines.append(f"  edge {edge.source} {edge.target} {format_number(edge.length)}")
        lines.append("}")
        return "\n".join(lines)
    raise TypeError(f"cannot format {type(strategy).__name__}")


def _trigger(trigger: sm.Trigger) -> str:
    if isinstance(trigger, sm.ProbabilisticTrigger):
        return f"probabilistic rate {format_expr(trigger.rate)}"
    if isinstance(trigger, sm.DeterministicTrigger):
        return f"deterministic {format_expr(trigger.ticks)}"
    if isinstance(trigger, sm.ConditionalTrigger):
        return f"conditional {format_expr(trigger.condition)}"
    if isinstance(trigger, sm.CompositeTrigger):
        parts = ", ".join(_trigger(p) for p in trigger.parts)
        return f"custom {trigger.mode}({parts})"
    raise TypeError(f"cannot format {type(trigger).__name__}")


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
            return
        for part in text.split("\n"):
            self.lines.append("  " * self.depth + part if part else "")

    @contextlib.contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.line(header + " {")
        self.depth += 1
        yield
        self.depth -= 1
        self.line("}")


def _environment(w: _Writer, env: mm.EnvironmentSpec) -> None:
    topo = env.topology
    if isinstance(topo, mm.GridTopology):
        text = f"environment grid width {topo.width} height {topo.height}"
        if topo.wrap:
            text += " wrap"
        w.line(text)
    elif isinstance(topo, mm.CartesianTopology):
        w.line(
            "environment cartesian "
            f"{format_number(topo.x_min)}..{format_number(topo.x_max)} "
            f"{format_number(topo.y_min)}..{format_number(topo.y_max)}"
        )
    else:
        w.line(f"environment graph from {_strategy(topo.source)}")


def _capability(w: _Writer, cap: mm.CapabilityRef) -> None:
    if cap.kind == "mobility":
        w.line(f"capability mobility random_walk step {format_expr(cap.step)}")
    elif cap.kind == "disease":
        w.line(f"capability disease {cap.target}")
    elif cap.kind == "state_machine":
        w.line(f"capability state_machine {cap.target}")
    elif cap.kind == "flow_control":
        if cap.streams is None:
            w.line("capability flow_control streams auto")
        else:
            parts = []
            for stream in cap.streams:
                text = f"stream {stream.stream_id} edge {stream.edge[0]} {stream.edge[1]}"
                if stream.capacity is not None:
                    text += f" capacity {stream.capacity}"
                parts.append(text)
            w.line("capability flow_control " + " ".join(parts))
    elif cap.kind == "reinforcement_learning":
        q = cap.qlearning
        text = (
            f"capability qlearning alpha {format_number(q.alpha)} gamma {format_number(q.gamma)} "
            f"epsilon {format_number(q.epsilon)} plans {' '.join(q.plans)}"
        )
        if q.bins:
            text += " bins " + " ".join(str(b) for b in q.bins)
        if q.reward is not None:
            text += f" reward {format_expr(q.reward)}"
        w.line(text)
    elif cap.kind == "external":
        w.line(f"capability external {_escape(cap.library or '')} {cap.target}")
    else:
        w.line(f"capability {cap.kind}")


def _attribute(w: _Writer, attr: mm.AttributeSpec) -> None:
    text = f"attr {attr.name} {attr.kind}"
    if attr.default is not None:
        text += f" = {format_expr(attr.default)}"
    w.line(text)


def _agent(w: _Writer, spec: mm.AgentTypeSpec) -> None:
    with w.block(f"agent {spec.name}"):
        w.line(f"create {_strategy(spec.creation)}")
        for cap in spec.capabilities:
            _capability(w, cap)
        for attr in spec.attributes:
            _attribute(w, attr)


def _entity(w: _Writer, spec: mm.EntityTypeSpec) -> None:
    with w.block(f"entity {spec.name}"):
        w.line(f"create {_strategy(spec.creation)}")
        for attr in spec.attributes:
            _attribute(w, attr)


def _machine(w: _Writer, spec: sm.StateMachineSpec) -> None:
    with w.block(f"machine {spec.name}"):
        w.line(f"initial {spec.initial}")
        for state in spec.states:
            w.line(f"state {state}")
        for tr in spec.transitions:
            text = f"transition {tr.source} {tr.target} {_trigger(tr.trigger)}"
            if tr.guard is not None:
                text += f" guard {format_expr(tr.guard)}"
            if tr.abortion is not None:
                text += f" abort {format_expr(tr.abortion.probability)} to {tr.abortion.abort_to}"
            w.line(text)


def _plan(w: _Writer, spec: tf.PlanSpec) -> None:
    with w.block(f"plan {spec.name}"):
        for phase in spec.phases:
            w.line(f"phase {phase.name} green {' '.join(phase.green)} duration {phase.duration}")


def _disease(w: _Writer, spec: dz.DiseaseModelSpec) -> None:
    with w.block(f"disease {spec.name} model {spec.kind}"):
        if spec.kind == dz.CUSTOM:
            if spec.custom_states:
                w.line("states " + " ".join(spec.custom_states))
            if spec.custom_initial is not None:
                w.line(f"initial {spec.custom_initial}")
        t = spec.transmission
        if t is not None:
            if t.interaction == dz.PROXIMITY:
                text = f"transmission proximity {format_expr(t.distance)}"
            else:
                text = "transmission contact"
            text += f" probability {format_expr(t.probability)}"
            if t.target is not None:
                text += f" to {t.target}"
            if t.infectious is not None:
                text += " infectious " + " ".join(t.infectious)
            if t.condition is not None:
                text += f" condition {format_expr(t.condition)}"
            if t.sources:
                text += " sources " + " ".join(t.sources)
            w.line(text)
        for prog in spec.progressions:
            w.line(f"duration {prog.compartment} {_trigger(prog.trigger)}")
        for tr in spec.custom_transitions:
            w.line(f"transition {tr.source} {tr.target} {_trigger(tr.trigger)}")
        if spec.passive_immunity is not None:
            w.line(f"passive duration {_trigger(spec.passive_immunity)}")
        if spec.recovered_immunity is not None:
            w.line(f"immunity duration {_trigger(spec.recovered_immunity)}")
        for rule in spec.mortality:
            text = f"mortality {rule.compartment} rate {format_expr(rule.rate)} {rule.evaluation}"
            if rule.evaluation == dz.SPECIFIC_TIMEUNIT:
                text += f" {rule.at_tick}"
            elif rule.evaluation == dz.WHEN_CONDITION:
                text += f" {format_expr(rule.condition)}"
            w.line(text)


def _introduction(w: _Writer, spec: dz.DiseaseIntroductionSpec) -> None:
    if spec.quantity_kind == "deterministic":
        quantity = f"deterministic {spec.count}"
    else:
        quantity = f"probabilistic {format_number(spec.probability)}"
    if spec.selection == "eligible":
        selection = f"eligible {format_expr(spec.eligibility)}"
    else:
        selection = "arbitrary"
    if spec.periodicity == "periodic":
        periodicity = f"periodic {spec.interval}"
    else:
        periodicity = "aperiodic"
    w.line(f"introduce {spec.disease} {quantity} {selection} {periodicity}")


def _output(w: _Writer, spec: mm.OutputDatasetSpec) -> None:
    with w.block(f"output {spec.name} every {spec.interval} to {_escape(spec.path)}"):
        for series in spec.series:
            w.line(f"series {series.label} {format_expr(series.value)}")


def _concern(w: _Writer, spec: mm.ConcernSpec) -> None:
    with w.block(f"concern {spec.name}"):
        if spec.members:
            w.line("members " + " ".join(spec.members))


def format_model(model: mm.Model) -> str:
    """Canonical source text for ``model`` (ends with a newline)."""
    w = _Writer()
    with w.block(f"model {model.name}"):
        if model.environment is not None:
            _environment(w, model.environment)
        for spec in mm.creation_order(model):
            (_entity if isinstance(spec, mm.EntityTypeSpec) else _agent)(w, spec)
        for machine in model.machines:
            _machine(w, machine)
        for plan in model.plans:
            _plan(w, plan)
        for spec in model.diseases:
            _disease(w, spec)
        for intro in model.introductions:
            _introduction(w, intro)
        for output in model.outputs:
            _output(w, output)
        for concern in model.concerns:
            _concern(w, concern)
    return "\n".join(w.lines) + "\n"
