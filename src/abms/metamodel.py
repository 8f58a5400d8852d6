"""Semantic model of a simulation and whole-model validation.

The model is plain data: agent and entity types with attributes and creational
strategies, one environment, capability specifications (state machines,
plans, diseases), introduction rules, outputs, and concerns.  Capability
specializations are variant payloads rather than inheritance so that every
reference is explicit and checkable.

:func:`validate` turns every structural invariant into an ordered, repeatable
list of diagnostics; a model with an empty report is safe to hand to the
engine or the code generator.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field

from . import disease as dz
from . import expr as ex
from . import statemachine as sm
from . import traffic as tf
from .errors import EvalError, ExprTypeError
from .source import SourceSpan

CAPABILITY_KINDS = (
    "mobility",
    "state_machine",
    "flow_control",
    "reinforcement_learning",
    "disease",
    "external",
)

ATTRIBUTE_KINDS = ex.KINDS

# The most instances a model's ``create fixed N`` strategies may make between
# them: a larger total is rejected by the validator rather than left to
# exhaust memory while the world is built.
MAX_CREATION_COUNT = 1_000_000


@dataclass
class AttributeSpec:
    name: str
    kind: str
    default: ex.Expr | None = None


@dataclass
class GridTopology:
    width: int
    height: int
    wrap: bool = False


@dataclass
class CartesianTopology:
    x_min: float
    x_max: float
    y_min: float
    y_max: float


@dataclass
class GraphTopology:
    source: "CreationalStrategy"


@dataclass
class EnvironmentSpec:
    topology: "GridTopology | CartesianTopology | GraphTopology"


@dataclass
class FixedCountStrategy:
    """Create ``count`` instances, placed randomly or at the given positions
    (cycled when there are more instances than positions)."""

    count: int
    placement: list[tuple[ex.Expr, ex.Expr]] | None = None  # None = random


@dataclass
class GisPointsStrategy:
    """One instance per line of a point file (``x,y[,attr=value...]``)."""

    path: str


@dataclass
class OsmGraphStrategy:
    """As an environment source: build the road graph from the file.  As an
    agent strategy: one controller per intersection node (degree >= 3)."""

    path: str


@dataclass
class InlineNode:
    name: str
    x: float = 0.0
    y: float = 0.0


@dataclass
class InlineEdge:
    source: str
    target: str
    length: float


@dataclass
class InlineEdgeListStrategy:
    nodes: list[InlineNode] = field(default_factory=list)
    edges: list[InlineEdge] = field(default_factory=list)


CreationalStrategy = (
    FixedCountStrategy | GisPointsStrategy | OsmGraphStrategy | InlineEdgeListStrategy
)


@dataclass
class CapabilityRef:
    """One capability attached to an agent type.

    ``target`` names the disease, machine or plan it runs, or an external
    capability's entry point.  The other fields belong to one kind each: the
    mobility step, the external library's file name, the flow-control stream
    declarations and the learning configuration.
    """

    kind: str
    target: str | None = None
    step: ex.Expr | None = None  # mobility
    library: str | None = None  # external
    streams: list[tf.StreamSpec] | None = None  # flow_control; None = auto
    qlearning: tf.QLearningSpec | None = None


@dataclass
class EntityTypeSpec:
    name: str
    creation: CreationalStrategy
    attributes: list[AttributeSpec] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass
class AgentTypeSpec:
    name: str
    creation: CreationalStrategy
    attributes: list[AttributeSpec] = field(default_factory=list)
    capabilities: list[CapabilityRef] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def capability(self, kind: str) -> CapabilityRef | None:
        for cap in self.capabilities:
            if cap.kind == kind:
                return cap
        return None

    def disease_names(self) -> list[str]:
        return [c.target for c in self.capabilities if c.kind == "disease" and c.target]


@dataclass
class SeriesSpec:
    label: str
    value: ex.Expr


@dataclass
class OutputDatasetSpec:
    name: str
    interval: int
    path: str
    series: list[SeriesSpec] = field(default_factory=list)


@dataclass
class ConcernSpec:
    name: str
    members: list[str] = field(default_factory=list)


@dataclass
class Model:
    name: str
    environment: EnvironmentSpec | None = None
    agent_types: list[AgentTypeSpec] = field(default_factory=list)
    entity_types: list[EntityTypeSpec] = field(default_factory=list)
    machines: list[sm.StateMachineSpec] = field(default_factory=list)
    plans: list[tf.PlanSpec] = field(default_factory=list)
    diseases: list[dz.DiseaseModelSpec] = field(default_factory=list)
    introductions: list[dz.DiseaseIntroductionSpec] = field(default_factory=list)
    outputs: list[OutputDatasetSpec] = field(default_factory=list)
    concerns: list[ConcernSpec] = field(default_factory=list)

    def agent_type(self, name: str) -> AgentTypeSpec | None:
        return next((a for a in self.agent_types if a.name == name), None)

    def entity_type(self, name: str) -> EntityTypeSpec | None:
        return next((e for e in self.entity_types if e.name == name), None)

    def disease(self, name: str) -> dz.DiseaseModelSpec | None:
        return next((d for d in self.diseases if d.name == name), None)

    def machine(self, name: str) -> sm.StateMachineSpec | None:
        return next((m for m in self.machines if m.name == name), None)

    def plan(self, name: str) -> tf.PlanSpec | None:
        return next((p for p in self.plans if p.name == name), None)

    def carriers(self, disease_name: str) -> list[AgentTypeSpec]:
        """Agent types that attach the named disease."""
        return [a for a in self.agent_types if disease_name in a.disease_names()]

    # What a ``state_machine`` capability runs, for the validator, the engine
    # and the emitter alike: each declared machine it names, once, and at
    # most one plan (validation rejects a repeat and a second plan).
    def machines_of(self, agent: AgentTypeSpec) -> list[sm.StateMachineSpec]:
        """Declared machines the agent type runs, in the order it names them."""
        names = dict.fromkeys(c.target for c in agent.capabilities if c.kind == "state_machine")
        return [m for name in names if (m := self.machine(name)) is not None]

    def plan_of(self, agent: AgentTypeSpec) -> tf.PlanSpec | None:
        """The signal plan the agent type runs: the first plan it names."""
        plans = (self.plan(c.target) for c in agent.capabilities if c.kind == "state_machine")
        return next((p for p in plans if p is not None), None)

    def graph_topology(self) -> GraphTopology | None:
        if self.environment is not None and isinstance(self.environment.topology, GraphTopology):
            return self.environment.topology
        return None


def place(topo: GridTopology | CartesianTopology, x: float, y: float) -> tuple:
    """Where an instance placed at the finite point (x, y) sits: the nearest
    cell of a grid (modulo its size when wrapped), or the point itself in a
    cartesian space.  An EvalError names a position outside the environment."""
    if isinstance(topo, GridTopology):
        cx, cy = round(x), round(y)
        if topo.wrap:
            cx, cy = cx % topo.width, cy % topo.height
        if not (0 <= cx < topo.width and 0 <= cy < topo.height):
            raise EvalError(f"position ({x:g}, {y:g}) outside the {topo.width}x{topo.height} grid")
        return (cx, cy)
    if not (topo.x_min <= x <= topo.x_max and topo.y_min <= y <= topo.y_max):
        raise EvalError(f"position ({x:g}, {y:g}) outside the cartesian bounds")
    return (float(x), float(y))


def creation_order(model: Model) -> list[AgentTypeSpec | EntityTypeSpec]:
    """Agent and entity types in declaration order, the order the engine
    creates them in; types without a source span follow, entities first."""
    types = [*model.entity_types, *model.agent_types]
    spanned = sorted((t for t in types if t.span is not None), key=lambda t: (t.span.start_line, t.span.start_col))
    return spanned + [t for t in types if t.span is None]


# ---------------------------------------------------------------------------
# Diagnostics


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


@dataclass
class ValidationReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # id of each expression tree -> the first site path it was typed at; valid while the model lives
    sites: dict[int, str] = field(default_factory=dict, compare=False, repr=False)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def ok(self) -> bool:
        return not self.errors()

    def __iter__(self):
        return iter(self.diagnostics)


class _Collector:
    def __init__(self) -> None:
        self.seen: set[Diagnostic] = set()
        self.sites: dict[int, str] = {}

    def __call__(self, severity: str, path: str, message: str) -> None:
        self.seen.add(Diagnostic(severity, path, message))

    def report(self) -> ValidationReport:
        ordered = sorted(self.seen, key=lambda d: (d.path, d.severity, d.message))
        return ValidationReport(ordered, self.sites)


# ---------------------------------------------------------------------------
# Type environments


def _machine_scope(model: Model, agent: AgentTypeSpec) -> dict[str, frozenset]:
    """State-test targets visible on an agent type: its diseases, machines and
    plan.  They share one name space; where an invalid model reuses a name,
    diseases win over machines and machines over the plan, the order
    ``AgentInstance.machine_state`` reads them in."""
    plan = model.plan_of(agent)
    scope = {plan.name: frozenset(ph.name for ph in plan.phases)} if plan is not None else {}
    scope.update((m.name, frozenset(m.states)) for m in model.machines_of(agent))
    for name in agent.disease_names():
        if (spec := model.disease(name)) is not None:
            scope[name] = frozenset(dz.compartments_of(spec)) | {sm.DEAD_STATE}
    return scope


def type_environments(model: Model) -> dict[tuple[str | None, bool], ex.TypeEnv]:
    """TypeEnv per evaluation site, keyed by agent/entity type name (None for
    the world) and by whether aggregates are allowed there.

    Population maps are shared so aggregates may nest.
    """
    populations: dict[str, ex.TypeEnv] = {}
    for agent in model.agent_types:
        builtins = {"tick": ex.INTEGER}
        if agent.capability("flow_control") is not None:
            builtins["stopped"] = ex.INTEGER
        populations[agent.name] = ex.TypeEnv(
            attributes={a.name: a.kind for a in agent.attributes},
            owner=agent.name,
            machines=_machine_scope(model, agent),
            populations=populations,
            builtins=builtins,
        )
    for entity in model.entity_types:
        populations[entity.name] = ex.TypeEnv(
            attributes={a.name: a.kind for a in entity.attributes},
            owner=entity.name,
            populations=populations,
            builtins={"tick": ex.INTEGER},
        )
    world = ex.TypeEnv(populations=populations, builtins={"tick": ex.INTEGER})
    envs: dict[tuple[str | None, bool], ex.TypeEnv] = {}
    for name, env in [*populations.items(), (None, world)]:
        envs[name, True] = env
        envs[name, False] = dataclasses.replace(env, allow_aggregates=False)
    return envs


# ---------------------------------------------------------------------------
# Validation


def validate(model: Model) -> ValidationReport:
    """Check every model invariant; empty report means the model is sound.

    Diagnostics are data, not failures: the same model always yields the same
    report, ordered by element path.
    """
    add = _Collector()
    _check_names(model, add)
    _check_environment(model, add)
    envs = type_environments(model)
    for entity in model.entity_types:
        _check_entity(model, entity, envs, add)
    users: dict[str, list[str]] = {}  # machine name -> the agent types that run it
    for agent in model.agent_types:
        _check_agent(model, agent, envs, add)
        for machine in model.machines_of(agent):
            users.setdefault(machine.name, []).append(agent.name)
    _check_creation_total(model, add)
    for machine in model.machines:
        _check_machine(machine, users.get(machine.name, []), envs, add)
    for plan in model.plans:
        tf.validate_plan(plan, add, f"plan:{plan.name}")
    for spec in model.diseases:
        _check_disease(model, spec, envs, add)
    for i, intro in enumerate(model.introductions):
        _check_introduction(model, intro, envs, add, f"introduce[{i}]")
    for output in model.outputs:
        _check_output(model, output, envs, add)
    _check_concerns(model, add)
    return add.report()


def _check_names(model: Model, add: _Collector) -> None:
    # Ignoring case: the NetLogo emitter lower-cases every name.
    # Diseases, machines and plans share one group: ``X is s`` and NetLogo's
    # ``<x>-state`` name any of them.  A duplicate is called by its own kind.
    def unique(group: list[tuple[str, str]], what: str | None = None) -> None:
        seen: set[str] = set()
        for kind, name in group:
            if name.lower() in seen:
                add("error", f"{kind}:{name}", f"duplicate {what or kind} name '{name}'")
            seen.add(name.lower())

    unique([("agent", a.name) for a in model.agent_types] + [("entity", e.name) for e in model.entity_types], "type")
    unique(
        [("disease", d.name) for d in model.diseases]
        + [("machine", m.name) for m in model.machines]
        + [("plan", p.name) for p in model.plans]
    )
    unique([("output", o.name) for o in model.outputs])
    unique([("concern", c.name) for c in model.concerns])


def _check_environment(model: Model, add: _Collector) -> None:
    if model.environment is None:
        add("error", "environment", "model declares no environment")
        return
    topo = model.environment.topology
    if isinstance(topo, GridTopology):
        if topo.width < 1 or topo.height < 1:
            add("error", "environment", "grid dimensions must be at least 1x1")
    elif isinstance(topo, CartesianTopology):
        if not all(math.isfinite(v) for v in (topo.x_min, topo.x_max, topo.y_min, topo.y_max)):
            add("error", "environment", "cartesian bounds must be finite")
        elif topo.x_min >= topo.x_max or topo.y_min >= topo.y_max:
            add("error", "environment", "cartesian bounds require min < max on both axes")
    elif isinstance(topo, GraphTopology):
        if not isinstance(topo.source, (OsmGraphStrategy, InlineEdgeListStrategy)):
            add("error", "environment", "graph environments require an OSM or inline edge list source")
        else:
            _check_strategy_common(topo.source, add, "environment")
        if isinstance(topo.source, InlineEdgeListStrategy):
            for e in topo.source.edges:
                if e.length <= 0:
                    add("error", "environment", f"edge {e.source}-{e.target} must have positive length")
                elif not math.isfinite(e.length):
                    add("error", "environment", f"edge {e.source}-{e.target} length must be finite")
            for n in topo.source.nodes:
                if not (math.isfinite(n.x) and math.isfinite(n.y)):
                    add("error", "environment", f"node '{n.name}' coordinates must be finite")
            for name, count in Counter(n.name for n in topo.source.nodes).items():
                if count > 1:
                    add("error", "environment", f"duplicate node '{name}'")
    else:
        add("error", "environment", f"unknown topology {type(topo).__name__}")


def _check_strategy_common(strategy: CreationalStrategy, add: _Collector, path: str) -> None:
    if isinstance(strategy, (GisPointsStrategy, OsmGraphStrategy)) and not strategy.path:
        add("error", path, "file path must not be empty")
    if isinstance(strategy, FixedCountStrategy):
        if strategy.count < 0:
            add("error", path, "creation count must be non-negative")


def _check_creation_total(model: Model, add: _Collector) -> None:
    """Report the first type, in creation order, whose ``create fixed N``
    takes the model's total past MAX_CREATION_COUNT."""
    total = 0
    for spec in creation_order(model):
        if isinstance(spec.creation, FixedCountStrategy) and spec.creation.count > 0:
            total += spec.creation.count
            if total > MAX_CREATION_COUNT:
                kind = "agent" if isinstance(spec, AgentTypeSpec) else "entity"
                add("error", f"{kind}:{spec.name}", f"fixed creation counts must total at most {MAX_CREATION_COUNT}")
                return


def _check_creation(model: Model, strategy: CreationalStrategy, envs, add: _Collector, path: str, *, agent: bool) -> None:
    _check_strategy_common(strategy, add, path)
    if isinstance(strategy, InlineEdgeListStrategy):
        add("error", path, "inline edge lists describe environments, not populations")
    if isinstance(strategy, OsmGraphStrategy):
        if not agent:
            add("error", path, "OSM-based creation applies to agent types only")
        else:
            graph = model.graph_topology()
            if graph is None or not isinstance(graph.source, OsmGraphStrategy):
                add("error", path, "OSM-based creation requires a graph environment loaded from OSM")
            elif graph.source.path != strategy.path:
                add("error", path, "OSM-based creation must reference the environment's OSM file")
    explicit = isinstance(strategy, FixedCountStrategy) and strategy.placement is not None
    graph = model.graph_topology()
    if (explicit or isinstance(strategy, GisPointsStrategy)) and graph is not None:
        add("error", path, "explicit positions require a grid or cartesian environment")
    elif (
        isinstance(strategy, FixedCountStrategy) and strategy.count > 0
        and graph is not None and isinstance(graph.source, InlineEdgeListStrategy)
        and not (graph.source.nodes or graph.source.edges)
    ):
        add("error", path, "cannot place agents on an empty graph")
    if explicit:
        env = envs[None, False]
        topo = model.environment.topology if model.environment is not None else None
        # Literal points are placed as the engine would; a grid without cells is reported elsewhere.
        placeable = isinstance(topo, CartesianTopology) or (isinstance(topo, GridTopology) and min(topo.width, topo.height) >= 1)
        for j, (x_expr, y_expr) in enumerate(strategy.placement):
            for coord in (x_expr, y_expr):
                kind = _infer(coord, env, add, path, f"position {j}")
                if kind is not None and kind not in ex.NUMERIC:
                    add("error", path, f"position {j} must be numeric")
            point = (ex.literal_number(x_expr), ex.literal_number(y_expr))
            if placeable and all(v is not None and math.isfinite(v) for v in point):
                try:
                    place(topo, *point)
                except EvalError as err:
                    add("error", path, err.message)


def _check_attributes(owner_path: str, owner_name: str, attributes: list[AttributeSpec], machines, add: _Collector) -> None:
    seen: set[str] = set()
    for i, attr in enumerate(attributes):
        path = f"{owner_path}.attr:{attr.name}"
        if attr.name in seen:
            add("error", path, f"duplicate attribute name '{attr.name}'")
        seen.add(attr.name)
        if attr.kind not in ATTRIBUTE_KINDS:
            add("error", path, f"unknown attribute kind '{attr.kind}'")
            continue
        if attr.default is not None:
            # A default sees the attributes declared before it, and no population.
            env = ex.TypeEnv(
                {a.name: a.kind for a in attributes[:i]}, owner_name, machines, builtins={"tick": ex.INTEGER}, allow_aggregates=False
            )
            kind = _infer(attr.default, env, add, path, "default")
            if kind is not None and not ex.assignable(kind, attr.kind):
                add("error", path, f"default of kind {kind} cannot initialize a {attr.kind} attribute")


def _infer(expr_: ex.Expr, env: ex.TypeEnv, add: _Collector, path: str, what: str) -> str | None:
    """The kind of ``expr_`` under ``env``, or None after reporting why it has none."""
    add.sites.setdefault(id(expr_), path)
    try:
        return ex.infer_type(expr_, env)
    except ExprTypeError as err:
        add("error", path, f"{what}: {err.message}")
        return None


def _check_expr(
    expr_: ex.Expr, envs, owners: list[str], aggregates: bool, expected: tuple[str, ...], add: _Collector, path: str, what: str
) -> None:
    """Type ``expr_`` where it is evaluated: in the environment of each owner
    type, or in the world's when it has none; ``aggregates`` says whether
    ``count``/``sum`` may appear at this site."""
    for owner in owners or [None]:
        kind = _infer(expr_, envs[owner, aggregates], add, path, what)
        if kind is not None and kind not in expected:
            add("error", path, f"{what} must be {' or '.join(expected)}, got {kind}")


def _check_entity(model: Model, entity: EntityTypeSpec, envs, add: _Collector) -> None:
    path = f"entity:{entity.name}"
    _check_attributes(path, entity.name, entity.attributes, {}, add)
    _check_creation(model, entity.creation, envs, add, path, agent=False)


def _check_agent(model: Model, agent: AgentTypeSpec, envs, add: _Collector) -> None:
    path = f"agent:{agent.name}"
    machines = _machine_scope(model, agent)
    _check_attributes(path, agent.name, agent.attributes, machines, add)
    _check_creation(model, agent.creation, envs, add, path, agent=True)
    counts: dict[str, int] = {}
    attached: set[tuple[str, str]] = set()
    stream_ids: list[str] | None = None
    has_graph = model.graph_topology() is not None
    for i, cap in enumerate(agent.capabilities):
        cpath = f"{path}.capability[{i}]"
        counts[cap.kind] = counts.get(cap.kind, 0) + 1
        if cap.kind == "adaptation":
            add("error", cpath, "the adaptation capability is reserved and not supported")
            continue
        if cap.kind not in CAPABILITY_KINDS:
            add("error", cpath, f"unknown capability kind '{cap.kind}'")
            continue
        if cap.kind == "mobility":
            step = cap.step
            if step is None:
                add("error", cpath, "mobility requires a step parameter")
            else:
                _check_expr(step, envs, [agent.name], False, ex.NUMERIC, add, cpath, "mobility step")
                value = ex.literal_number(step)
                if value is not None and value < 0:
                    add("error", cpath, "mobility step must not be negative")
                if value is not None and value <= 0 and has_graph:
                    add("error", cpath, "vehicle speed must be positive on graphs")
        elif cap.kind == "disease":
            if not cap.target or model.disease(cap.target) is None:
                add("error", cpath, f"unknown disease '{cap.target}'")
            elif (cap.kind, cap.target) in attached:
                add("error", cpath, f"disease '{cap.target}' attached more than once")
            attached.add((cap.kind, cap.target))
        elif cap.kind == "state_machine":
            if not cap.target:
                add("error", cpath, "state_machine requires a target")
            elif model.machine(cap.target) is None and model.plan(cap.target) is None:
                add("error", cpath, f"unknown state machine or plan '{cap.target}'")
            elif (cap.kind, cap.target) in attached:
                add("error", cpath, f"state machine '{cap.target}' attached more than once")
            elif model.plan(cap.target) is not None and agent.capability("flow_control") is None:
                add("error", cpath, "running a signal plan requires the flow_control capability")
            attached.add((cap.kind, cap.target))
        elif cap.kind == "flow_control":
            if not has_graph:
                add("error", cpath, "flow control requires graph topology")
            stream_ids = _check_streams(model, cap, add, cpath)
        elif cap.kind == "reinforcement_learning":
            if cap.qlearning is None:
                add("error", cpath, "learning capability is missing its configuration")
            else:
                tf.validate_qlearning(cap.qlearning, add, cpath)
                for plan_name in cap.qlearning.plans:
                    if model.plan(plan_name) is None:
                        add("error", cpath, f"unknown plan '{plan_name}'")
                if cap.qlearning.reward is not None:
                    _check_expr(cap.qlearning.reward, envs, [agent.name], True, ex.NUMERIC, add, cpath, "reward")
            if agent.capability("flow_control") is None:
                add("error", cpath, "learning requires the flow_control capability")
        elif cap.kind == "external":
            if not cap.library:
                add("error", cpath, "external capability requires a library path")
            if not cap.target:
                add("error", cpath, "external capability requires an entry point name")
    if counts.get("mobility", 0) > 1:
        add("error", path, "at most one mobility capability per agent type")
    if counts.get("flow_control", 0) > 1:
        add("error", path, "at most one flow_control capability per agent type")
    if counts.get("flow_control") and model.plan_of(agent) is None and not counts.get("reinforcement_learning"):
        add("warning", path, "flow control without a plan or qlearning holds every stream red for the whole run")
    if has_graph and counts.get("flow_control") and counts.get("mobility"):
        add("error", path, "a flow-control agent must stay on its graph node, so it cannot have mobility")
    if counts.get("reinforcement_learning", 0) > 1:
        add("error", path, "at most one learning capability per agent type")
    if len({name for kind, name in attached if kind == "state_machine" and model.plan(name)}) > 1:
        add("error", path, "at most one plan per agent type")
    if model.plan_of(agent) is not None and counts.get("reinforcement_learning", 0) > 0:
        add("error", path, "an agent type cannot both run a fixed plan and learn plan selection")
    _check_plan_stream_refs(model, agent, stream_ids, add, path)


def _check_streams(model: Model, cap: CapabilityRef, add: _Collector, path: str) -> list[str] | None:
    if cap.streams is None:
        return None  # auto streams: one per incoming edge, ids s0, s1, ...
    ids: list[str] = []
    edges: dict[frozenset[str], str] = {}  # an unordered edge -> the first stream on it
    graph = model.graph_topology()
    inline = graph.source if graph is not None and isinstance(graph.source, InlineEdgeListStrategy) else None
    for stream in cap.streams:
        if stream.stream_id in ids:
            add("error", path, f"duplicate stream id '{stream.stream_id}'")
        ids.append(stream.stream_id)
        if stream.capacity is not None and stream.capacity < 1:
            add("error", path, f"stream '{stream.stream_id}' capacity must be positive")
        if stream.edge is not None:  # one stream per edge: the engine keys streams by from-node
            pair = frozenset(stream.edge)
            if pair in edges:
                add("error", path, f"stream '{stream.stream_id}' repeats the edge of stream '{edges[pair]}'")
            edges.setdefault(pair, stream.stream_id)
            if inline is not None and not any(frozenset((e.source, e.target)) == pair for e in inline.edges):
                add("error", path, f"stream '{stream.stream_id}' references an edge not in the environment graph")
    return ids


def _check_plan_stream_refs(model: Model, agent: AgentTypeSpec, stream_ids: list[str] | None, add: _Collector, path: str) -> None:
    if agent.capability("flow_control") is None:
        return
    learning = agent.capability("reinforcement_learning")
    learned = learning.qlearning.plans if learning is not None and learning.qlearning is not None else []
    for plan in [model.plan_of(agent), *map(model.plan, learned)]:
        if plan is None:
            continue
        for phase in plan.phases:
            for ref in phase.green:
                if stream_ids is not None:
                    if ref not in stream_ids:
                        add("error", f"{path}", f"plan '{plan.name}' greens unknown stream '{ref}'")
                elif not (len(ref) > 1 and ref[0] == "s" and ref[1:].isdigit()):
                    add("error", f"{path}", f"plan '{plan.name}' greens '{ref}' but auto streams are named s0, s1, ...")


def _check_machine(machine: sm.StateMachineSpec, users: list[str], envs, add: _Collector) -> None:
    path = f"machine:{machine.name}"
    states = set(machine.states)
    if len(states) != len(machine.states):
        add("error", path, "duplicate state names")
    if machine.initial not in states:
        add("error", path, f"initial state '{machine.initial}' is not declared")
    deterministic_at: dict[str, set[float]] = {}
    for i, tr in enumerate(machine.transitions):
        tpath = f"{path}.transition[{i}]"
        for end in (tr.source, tr.target):
            if end not in states:
                add("error", tpath, f"state '{end}' is not declared")
        if tr.source == sm.DEAD_STATE:
            add("error", tpath, f"'{sm.DEAD_STATE}' is absorbing: no transition leaves it")
        if tr.abortion is not None and tr.abortion.abort_to not in states:
            add("error", tpath, f"abort state '{tr.abortion.abort_to}' is not declared")
        if tr.trigger is None:
            add("error", tpath, "transition has no trigger")
            continue
        _check_trigger(tr.trigger, envs, users, add, tpath)
        if tr.guard is not None:
            _check_expr(tr.guard, envs, users, True, (ex.BOOLEAN,), add, tpath, "guard")
        if tr.abortion is not None:
            prob = ex.literal_number(tr.abortion.probability)
            if prob is not None and not 0.0 <= prob <= 1.0:
                add("error", tpath, f"abort probability {prob} outside [0, 1]")
            _check_expr(tr.abortion.probability, envs, users, False, ex.NUMERIC, add, tpath, "abort probability")
        if isinstance(tr.trigger, sm.DeterministicTrigger) and tr.guard is None:
            ticks = ex.literal_number(tr.trigger.ticks)
            if ticks is not None:
                taken = deterministic_at.setdefault(tr.source, set())
                if ticks in taken:
                    add("error", tpath, f"two transitions from '{tr.source}' fire deterministically at dwell {ticks:g}")
                taken.add(ticks)


def _check_trigger(trigger: sm.Trigger, envs, owners: list[str], add: _Collector, path: str) -> None:
    if isinstance(trigger, sm.ProbabilisticTrigger):
        rate = ex.literal_number(trigger.rate)
        if rate is not None and not 0.0 <= rate <= 1.0:
            add("error", path, f"rate {rate} outside [0, 1]")
        _check_expr(trigger.rate, envs, owners, False, ex.NUMERIC, add, path, "rate")
    elif isinstance(trigger, sm.DeterministicTrigger):
        ticks = ex.literal_number(trigger.ticks)
        if ticks is not None and (ticks < 0 or ticks != int(ticks)):
            add("error", path, "deterministic duration must be a non-negative integer")
        _check_expr(trigger.ticks, envs, owners, False, ex.NUMERIC, add, path, "duration")
    elif isinstance(trigger, sm.ConditionalTrigger):
        _check_expr(trigger.condition, envs, owners, True, (ex.BOOLEAN,), add, path, "condition")
    elif isinstance(trigger, sm.CompositeTrigger):
        if trigger.mode not in ("all_of", "any_of"):
            add("error", path, f"unknown composition '{trigger.mode}'")
        if not trigger.parts:
            add("error", path, "composite trigger needs at least one part")
        for part in trigger.parts:
            _check_trigger(part, envs, owners, add, path)


def _check_disease(model: Model, spec: dz.DiseaseModelSpec, envs, add: _Collector) -> None:
    path = f"disease:{spec.name}"
    dz.validate_disease(spec, add, path)
    carriers = [a.name for a in model.carriers(spec.name)]
    if not carriers:
        add("warning", path, "disease is not attached to any agent type")
    t = spec.transmission
    if t is not None:
        tpath = f"{path}.transmission"
        _check_expr(t.probability, envs, carriers, False, ex.NUMERIC, add, tpath, "probability")
        if t.distance is not None:
            _check_expr(t.distance, envs, carriers, False, ex.NUMERIC, add, tpath, "distance")
        for source in t.sources:
            if model.entity_type(source) is None:
                add("error", tpath, f"unknown entity type '{source}'")
        sources = [s for s in t.sources if model.entity_type(s) is not None]
        if t.condition is not None and (sources or not t.sources):  # read on the sources, else the carriers
            _check_expr(t.condition, envs, sources or carriers, True, (ex.BOOLEAN,), add, tpath, "condition")
    for prog in spec.progressions:
        _check_trigger(prog.trigger, envs, carriers, add, f"{path}.duration:{prog.compartment}")
    for extra, label in ((spec.passive_immunity, "passive"), (spec.recovered_immunity, "immunity")):
        if extra is not None:
            _check_trigger(extra, envs, carriers, add, f"{path}.{label}")
    for i, tr in enumerate(spec.custom_transitions):
        _check_trigger(tr.trigger, envs, carriers, add, f"{path}.transition[{i}]")
    for i, rule in enumerate(spec.mortality):
        mpath = f"{path}.mortality[{i}]"
        _check_expr(rule.rate, envs, carriers, False, ex.NUMERIC, add, mpath, "rate")
        if rule.condition is not None:
            _check_expr(rule.condition, envs, carriers, True, (ex.BOOLEAN,), add, mpath, "condition")


def _check_introduction(model: Model, intro: dz.DiseaseIntroductionSpec, envs, add: _Collector, path: str) -> None:
    spec = model.disease(intro.disease)
    if spec is None:
        add("error", path, f"unknown disease '{intro.disease}'")
    if intro.quantity_kind == "deterministic":
        if intro.count is None or intro.count < 0:
            add("error", path, "deterministic quantity must be >= 0")
    elif intro.quantity_kind == "probabilistic":
        if intro.probability is None or not 0.0 <= intro.probability <= 1.0:
            add("error", path, "probabilistic quantity must lie in [0, 1]")
    else:
        add("error", path, f"unknown quantity kind '{intro.quantity_kind}'")
    if intro.periodicity == "periodic":
        if intro.interval is None or intro.interval < 1:
            add("error", path, "periodic interval must be at least 1")
    elif intro.periodicity != "aperiodic":
        add("error", path, f"unknown periodicity '{intro.periodicity}'")
    if intro.selection == "eligible":
        if intro.eligibility is None:
            add("error", path, "eligible selection requires a criterion expression")
        elif spec is not None:
            carriers = [a.name for a in model.carriers(intro.disease)]
            if carriers:  # no carrier, no agent the criterion is read on
                _check_expr(intro.eligibility, envs, carriers, True, (ex.BOOLEAN,), add, path, "eligibility")
            add.sites.setdefault(id(intro.eligibility), path)  # typed or not, the engine compiles it
    elif intro.selection != "arbitrary":
        add("error", path, f"unknown selection '{intro.selection}'")


def _check_output(model: Model, output: OutputDatasetSpec, envs, add: _Collector) -> None:
    path = f"output:{output.name}"
    if output.interval < 1:
        add("error", path, "sampling interval must be at least 1 tick")
    if not output.path:
        add("error", path, "output path must not be empty")
    labels: set[str] = set()
    for series in output.series:
        spath = f"{path}.series:{series.label}"
        if series.label in labels:
            add("error", spath, f"duplicate series label '{series.label}'")
        labels.add(series.label)
        _check_expr(series.value, envs, [], True, ex.NUMERIC, add, spath, "series")


def _check_concerns(model: Model, add: _Collector) -> None:
    groups = (model.agent_types, model.entity_types, model.diseases, model.machines, model.plans, model.outputs)
    known = {spec.name for group in groups for spec in group}
    for concern in model.concerns:
        for member in concern.members:
            if member not in known:
                add("error", f"concern:{concern.name}", f"member '{member}' does not name a model element")
