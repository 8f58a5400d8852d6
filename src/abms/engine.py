"""Deterministic discrete-time simulation runtime.

One run consumes a single seeded PRNG stream in a fixed schedule, so identical
(model, seed, max_ticks) triples produce byte-identical outputs.  Each tick
runs six phase functions:

  1. ``_introduction_phase``: periodic disease introductions
  2. ``_agent_phase``: each disease's kept source index brought up to date,
     adding and removing only the agents that entered a state or died since
     (``World.entered``, every carrier before the first), and filed by the
     cell each source keeps (by exposure, under every cell within reach, when
     the model states the radius and the filing costs no more than the scans
     it spares, counted from the tallies; not at all on a graph or at or
     beyond the stencil's bound; else by cell), all afresh only when that
     filing changes; then per agent of the types in ``World.actors``, each
     type with its walk step resolved once: mobility (the walk, within the
     size or bounds ``World`` resolved, sets the position and its cell,
     refiling a source that changes cell: by cell out of one and into one),
     the signal plan's phase count and generic machines not in Dead
     (entering a new state at once), then the disease step (when susceptible,
     a scan and trials only against the sources it finds, a literal rate
     checked once, when the world is built, and a computed one on every scan;
     under exposure filing, a susceptible agent that no source reaches costs
     one cell read, its step skipped when the rate is such a literal and no
     per-tick mortality rule applies; else mortality and progression)
  3. ``_disease_phase``: buffered disease moves entered; the dead removed
  4. ``_vehicle_phase``, on graphs: movement of ``World.vehicles``, the
     vehicles on an edge, whose arrivals take their edge's one ``QueuePos``
     in ascending id order; then queue service, a controller read per node;
     then the served vehicles enter their next edges, in service order, in
     one ``_enter_random_edges`` call, the one way onto an edge
  5. ``_learning_phase``: each agent of the types in ``World.learners``
     accumulates its reward every tick and updates on completed plan cycles
  6. ``_sampling_phase``: output sampling when the tick hits an interval;
     ``count(T where m is S)`` reads the tally ``sm.force_state`` keeps per
     (agent type, machine or disease), not the roster

Phases 2 and 5 visit their types' rosters in ``World.by_type``, type by type
in creation order; ids are assigned in that order, so both visit in ascending
id order.  Phase 4 visits its own roster, ``World.vehicles``, in no order, and
sorts its arrivals.  A population is its type's roster; phase 3 prunes the dead
from the rosters.

Reordering these phases is a breaking change for reproducibility.

Agents, entities and the world are themselves the contexts expressions are
evaluated in (they implement the ``expr.Context`` hooks).  Every expression is
compiled once, when the world is built; a tick only calls the closures.  A
failure carries the expression it was compiled from, and ``_reported`` turns
it into ``tick N: path: message``, with the path ``abms validate`` gives that
site (``World.sites``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import operator
import os
import random
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import disease as dz
from . import expr as ex
from . import metamodel as mm
from . import statemachine as sm
from . import traffic as tf
from .errors import EngineError, EvalError, InvalidModelError
from .ingest import GisPoint, Graph, graph_from_inline, load_gis_points, load_osm_graph

INTERSECTION_DEGREE = 3


@dataclass
class RunConfig:
    seed: int = 42
    max_ticks: int = 100
    out_dir: str | Path = "."
    base_dir: str | Path = "."  # input files resolve against this


# ---------------------------------------------------------------------------
# Positions


@dataclass(frozen=True)
class NodePos:
    node: str


@dataclass(slots=True)
class EdgePos:
    """Phase 4 counts ``remaining`` down in place: each edge entry makes a
    fresh EdgePos, so one vehicle holds it; arriving, it takes ``stop``."""

    source: str
    target: str
    remaining: int
    total: int
    stop: QueuePos = field(repr=False, compare=False)  # the edge's one QueuePos


@dataclass(frozen=True)
class QueuePos:
    """A place in ``queue``, a directed edge's queue at its end: one per edge, held by all queued there."""

    node: str
    from_node: str
    queue: list[int] = field(repr=False, compare=False)


# ---------------------------------------------------------------------------
# Runtime instances


@dataclass
class ControllerState:
    node: str
    streams: dict[str, str]  # from-node -> declared or auto stream id, in stream order
    queues: dict[str, list[int]]  # from-node -> its stream's queue at ``node``, in stream order
    capacities: dict[str, int]  # from-node -> queue bound
    red: dict[str, list[int]]  # from-node -> queue, for the streams the active phase holds red; all without a plan
    plan: tf.PlanSpec | None = None
    phase: int = 0  # index of the active phase in plan.phases
    dwell: int = 0  # ticks spent in that phase
    ticks_in_cycle: int = 0
    learner: "LearnerState | None" = None


@dataclass
class LearnerState:
    spec: tf.QLearningSpec
    table: tf.QTable
    prev_state: tuple
    prev_action: str
    reward: Callable[[ex.Context], float | int] | None  # the spec's reward, compiled
    accumulated: float = 0.0


@dataclass(eq=False)
class _Instance(ex.Context):
    """What agents and entities share: each is the context its own
    expressions are evaluated in, resolving a name against its own
    attributes first, then the world's.  Instances compare by identity."""

    # Weak, because the world owns its instances: a cycle would keep a dropped
    # world alive until the cyclic collector runs.
    world: "World" = field(repr=False)  # a weakref.proxy
    id: int
    type_name: str
    position: object
    cell: tuple[int, int] | None = None  # the cell of ``position``, set at placement and by the walk; None on a graph
    attrs: dict[str, object] = field(default_factory=dict)

    controller = None  # only agents control flow

    def attribute(self, owner, name):
        if owner is not None and owner != self.type_name:
            raise EvalError(f"'{owner}.{name}' does not resolve on {self.type_name}")
        if name in self.attrs:
            return self.attrs[name]
        if name == "stopped" and self.controller is not None:
            return controller_stopped(self.controller)
        return self.world.attribute(None, name)

    def population(self, type_name: str):
        return self.world.population(type_name)

    def state_count(self, type_name: str, machine: str, state: str) -> int:
        return self.world.state_count(type_name, machine, state)


@dataclass(eq=False)
class AgentInstance(_Instance):
    machines: dict[str, sm.MachineInstance] = field(default_factory=dict)
    diseases: dict[str, sm.MachineInstance] = field(default_factory=dict)
    controller: ControllerState | None = None
    speed: float = 0.0  # vehicles: length units per tick

    def machine_state(self, name: str) -> str:
        if name in self.diseases:
            return self.diseases[name].current
        if name in self.machines:
            return self.machines[name].current
        ctrl = self.controller
        if ctrl is not None and ctrl.plan is not None and ctrl.plan.name == name:
            return ctrl.plan.phases[ctrl.phase].name
        raise EvalError(f"no state machine or disease named '{name}' on this agent")


class EntityInstance(_Instance):
    """A placed entity: a position and attributes, no behaviour."""


# The bench's ``engine.agent_contexts`` counter and the once-per-instance tests
# wrap these names' ``__init__``: each instance is its own context.
AgentContext, EntityContext = AgentInstance, EntityInstance


@dataclass(frozen=True)
class ResolvedDisease:
    """What the tick needs of one disease model, resolved and compiled once per run."""

    spec: dz.DiseaseModelSpec
    machine: sm.Machine
    susceptible: str
    target: str  # compartment entered on infection
    infectious: frozenset[str]
    tick_rules: dict[str, list]  # per-tick mortality by compartment, each rule compiled by dz.compile_mortality
    transmission: dz.Transmission
    distance: Callable[[ex.Context], float | int] | None  # proximity only
    radius: float | int | None  # what every scan reads when the model states it: 0 for contact, or a literal
    # The compartment whose step does nothing when no source is in reach: the susceptible one, when it has no
    # per-tick rule and the rate is a literal checked when compiled; else None.
    idle: str | None


def _resolve_disease(spec: dz.DiseaseModelSpec) -> ResolvedDisease:
    t = spec.transmission  # validation requires a transmission
    tick_rules: dict[str, list] = {}
    for rule in spec.mortality:
        if rule.evaluation != dz.LEAVING_COMPARTMENT:  # the machine realizes these as abortions
            tick_rules.setdefault(rule.compartment, []).append(dz.compile_mortality(rule))
    if t.interaction != dz.PROXIMITY:
        radius = 0
    else:  # a literal is a number (validation types it); one outside (0, inf) fails each scan instead
        radius = t.distance.value if isinstance(t.distance, ex.Literal) and 0 < t.distance.value < math.inf else None
    distance = ex.compile_number(t.distance) if t.interaction == dz.PROXIMITY else None
    susceptible = dz.susceptible_compartment(spec)
    checked = ex.checked_literal(t.probability, *sm.RATE) is not None  # a literal rate that cannot fail where read
    idle = susceptible if checked and susceptible not in tick_rules else None
    return ResolvedDisease(
        spec, sm.compile_machine(dz.build_machine(spec)), susceptible, dz.infection_target(spec),
        frozenset(dz.infectious_states(spec)), tick_rules, dz.compile_transmission(t), distance, radius, idle,
    )


class World(ex.Context):
    """Mutable simulation state, advanced in place by :func:`tick`; the
    context of world-level expressions (placements and output series)."""

    def __init__(self, model: mm.Model, config: RunConfig, sites: dict[int, str]):
        assert model.environment is not None
        self.model = model
        self.config = config
        self.sites = sites  # each expression's site path, from the model's ValidationReport
        # The model resolved once per run: the tick reads these, never a lookup by name.
        self.topology = topo = model.environment.topology
        self.wrap = (topo.width, topo.height) if isinstance(topo, mm.GridTopology) and topo.wrap else None
        self.on_grid = isinstance(topo, mm.GridTopology)
        self.graph: Graph | None = None
        self.bounds = None  # (x_min, y_min, x_max, y_max) the walk clamps to, on a bounded grid or a cartesian space
        # Per axis, the widest cell offset between two positions (None on graphs), and their distance.
        if isinstance(topo, mm.GraphTopology):
            if isinstance(topo.source, mm.OsmGraphStrategy):
                self.graph = graph = load_osm_graph(_resolve(topo.source.path, config))
            else:
                self.graph = graph = graph_from_inline(topo.source.nodes, topo.source.edges)
            self.cell_span, self.distance = None, lambda a, b: math.dist(_graph_point(graph, a), _graph_point(graph, b))
            # Phase 4 reads these, resolved once: each directed edge's queue at its target, by (target, source);
            # each node's roads out as (target, length, stop), the edge's QueuePos; its queues, in service order.
            adjacency = graph.adjacency
            stops = {(n, frm): QueuePos(n, frm, []) for n, nbrs in adjacency.items() for frm in nbrs}
            self.edge_queues = {key: stop.queue for key, stop in stops.items()}
            self.roads = {n: [(to, graph.edge_length(n, to), stops[to, n]) for to in nbrs] for n, nbrs in adjacency.items()}
            self.service = [(n, [(frm, self.edge_queues[n, frm]) for frm in adjacency[n]]) for n in graph.sorted_nodes]
        elif self.wrap is not None:
            self.cell_span, self.distance = (topo.width // 2, topo.height // 2), _torus_distance(*self.wrap)
        elif self.on_grid:
            self.cell_span, self.distance = (topo.width - 1, topo.height - 1), math.dist  # positions are points
            self.bounds = (0, 0, topo.width - 1, topo.height - 1)
        else:  # a cartesian space
            self.bounds = (topo.x_min, topo.y_min, topo.x_max, topo.y_max)
            self.cell_span = (math.floor(topo.x_max) - math.floor(topo.x_min), math.floor(topo.y_max) - math.floor(topo.y_min))
            self.distance = math.dist
        self.stencil = None  # (offsets, reaches, bound), built and grown by ``_stencil`` as scans need
        self.gap = 0 if self.on_grid else 1  # grid points in cells d apart on an axis are |d| apart; cartesian ones can be |d| - 1
        walkers = [] if isinstance(topo, mm.GraphTopology) else model.agent_types  # vehicles move in phase 4
        # Every expression the tick evaluates is compiled here, once per run.
        self.walk_steps = {
            a.name: ex.compile_number(cap.step, 0, None, "step") for a in walkers if (cap := a.capability("mobility"))
        }
        self.diseases = {d.name: _resolve_disease(d) for d in model.diseases}
        self.machines = {m.name: sm.compile_machine(m) for m in model.machines}
        self.introductions = [  # each with its disease and its eligibility criterion, if any
            (i, self.diseases[i.disease],
             ex.compile_condition(i.eligibility) if i.selection == "eligible" and i.eligibility is not None else None)
            for i in model.introductions
        ]
        self.series = {o.name: [ex.compile_number(s.value) for s in o.series] for o in model.outputs}
        self.defaults = {  # per type, each attribute with its default compiled (None without one)
            t.name: [(a, _compile_default(a)) for a in t.attributes] for t in (*model.agent_types, *model.entity_types)
        }
        self.plans = {p.name: p for p in model.plans}
        self.tick = 0
        self.rng = random.Random(config.seed)
        self.agents: dict[int, AgentInstance] = {}
        self.entities: dict[int, EntityInstance] = {}
        self.queues: dict[tuple[str, str], list[int]] = {}  # the queues a vehicle has reached, for the digest
        self.exits: dict[tuple[str, float], list] = {}  # (node, speed) -> its roads' (target, ticks, stop), filled lazily
        self.controllers_by_node: dict[str, ControllerState] = {}
        self.created: dict[str, int] = {}
        self.dead: dict[str, int] = {}
        self.deaths_by_disease: dict[str, int] = {}
        self.ever_infected: dict[str, int] = {}
        self.arrivals = 0
        self.output_rows: dict[str, list[list]] = {o.name: [] for o in model.outputs}
        self._next_id = 0
        self.sources: dict[str, SourceIndex] = {}  # per disease, made by ``_populate`` with its entity sources
        self.entered: list[AgentInstance] = []  # every carrier, then the agents that entered a disease state or died
        # (agent type, machine or disease) -> the type's agents in each state, kept by ``sm.force_state``;
        # and per disease, each carrying type's tally and whether that type walks.  ``_create_agents`` fills both.
        self.tallies: dict[tuple[str, str], dict[str, int]] = {}
        self.disease_tallies: dict[str, list[tuple[dict[str, int], bool]]] = {name: [] for name in self.diseases}
        # Rosters, which phase 3 prunes the dead from: ``by_type``'s are in ascending id order and filled only by
        # ``build_world``, which assigns ids type by type in creation order.
        self.by_type: dict[str, list[_Instance]] = {t.name: [] for t in (*model.agent_types, *model.entity_types)}
        self.vehicles: list[AgentInstance] = []  # phase 4: the vehicles on an edge, in no order; ``_enter_random_edges`` adds
        # The agent types phases 2 and 5 visit, in creation order, filled by ``_create_agents``: phase 2's with
        # their walk steps (None for none), phase 5's those whose controllers learn.
        self.actors: list[tuple[str, Callable[[ex.Context], float | int] | None]] = []
        self.learners: list[str] = []

    # -- evaluation context -----------------------------------------------------

    def attribute(self, owner, name):
        if owner is None and name == "tick":
            return self.tick
        raise EvalError(f"unknown attribute '{name}'")

    def population(self, type_name: str):
        """The type's roster itself: callers only iterate it or take its length."""
        if (roster := self.by_type.get(type_name)) is None:
            raise EvalError(f"unknown population '{type_name}'")
        return roster

    def state_count(self, type_name: str, machine: str, state: str) -> int:
        """Read from the type's tally when ``machine`` is one of its diseases
        or machines; else (a signal plan's phase, say) the roster is scanned."""
        if (tally := self.tallies.get((type_name, machine))) is None:
            return super().state_count(type_name, machine, state)
        return tally.get(state, 0)

    # -- ids --------------------------------------------------------------------

    def new_id(self) -> int:
        """The next instance id.  Ids only count up and an instance enters
        ``agents`` or ``entities`` only when it is created, so both dicts
        iterate in ascending id order without sorting."""
        self._next_id += 1
        return self._next_id - 1

    # -- digests ------------------------------------------------------------------

    def digest(self) -> str:
        """Stable hash of the full runtime state (used for determinism checks)."""
        h = hashlib.sha256()

        def put(text: str) -> None:
            h.update(text.encode("utf-8"))
            h.update(b"\x00")

        put(f"tick={self.tick}")
        for aid, agent in self.agents.items():
            put(f"A{aid}:{agent.type_name}:{agent.position!r}")
            for key in sorted(agent.attrs):
                put(f"{key}={agent.attrs[key]!r}")
            for name in sorted(agent.machines):
                inst = agent.machines[name]
                put(f"m:{name}:{inst.current}:{inst.dwell}")
            for name in sorted(agent.diseases):
                inst = agent.diseases[name]
                put(f"d:{name}:{inst.current}:{inst.dwell}")
            ctrl = agent.controller
            if ctrl is not None:
                green = [i for i, frm in enumerate(ctrl.streams) if frm not in ctrl.red]
                put(f"c:{ctrl.node}:{ctrl.plan.name if ctrl.plan else '-'}:"
                    f"{ctrl.plan.phases[ctrl.phase].name if ctrl.plan else '-'}:{green}:{ctrl.ticks_in_cycle}")
                if ctrl.learner is not None:
                    put(f"q:{ctrl.learner.prev_action}:{ctrl.learner.accumulated!r}")
                    for key, value in sorted(ctrl.learner.table.items()):
                        put(f"{key!r}={value!r}")
        for eid, entity in self.entities.items():
            put(f"E{eid}:{entity.type_name}:{entity.position!r}")
            for key in sorted(entity.attrs):
                put(f"{key}={entity.attrs[key]!r}")
        for key in sorted(self.queues):
            put(f"Q{key!r}:{self.queues[key]!r}")
        for label, counter in (
            ("deaths", self.deaths_by_disease),
            ("ever", self.ever_infected),
            ("dead", self.dead),
        ):
            for key in sorted(counter):
                put(f"{label}:{key}={counter[key]}")
        put(f"arrivals={self.arrivals}")
        return h.hexdigest()


def _torus_distance(width: int, height: int):
    def distance(a: tuple, b: tuple) -> float:
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return math.hypot(min(dx, width - dx), min(dy, height - dy))
    return distance


def _graph_point(graph: Graph, position) -> tuple[float, float]:
    if isinstance(position, (NodePos, QueuePos)):
        return graph.nodes[position.node]
    # Every other position is an EdgePos.
    sx, sy = graph.nodes[position.source]
    txx, tyy = graph.nodes[position.target]
    frac = 1.0 - position.remaining / position.total
    return (sx + (txx - sx) * frac, sy + (tyy - sy) * frac)


def _cell_of(world: World, position) -> tuple[int, int] | None:
    """The cell a placed instance keeps: its position on a grid, None on a graph."""
    if world.cell_span is None:
        return None
    return position if world.on_grid else (math.floor(position[0]), math.floor(position[1]))


def _reported(world: World, fn, *args, path: str | None = None):
    """``fn(*args)``, with a failure raised as an EngineError that names the
    tick and the path the validator gave the failing expression's site
    (``path`` for a failure at no expression, such as a placement)."""
    try:
        return fn(*args)
    except EvalError as err:
        where = path if err.site is None else world.sites[id(err.site)]
        raise EngineError(f"tick {world.tick}: {where}: {err.message}") from None


# ---------------------------------------------------------------------------
# World construction


_ZERO_VALUES = {
    ex.INTEGER: 0,
    ex.REAL: 0.0,
    ex.BOOLEAN: False,
    ex.TEXT: "",
    ex.IDENTIFIER: "",
}


def _convert_raw(raw: str, kind: str, where: str):
    try:
        if kind == ex.INTEGER:
            return int(raw)
        if kind == ex.REAL:
            value = float(raw)
            if not math.isfinite(value):
                raise EngineError(f"{where}: '{raw}' is not a finite real")
            return value
        if kind == ex.BOOLEAN:
            if raw in ("true", "1"):
                return True
            if raw in ("false", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise EngineError(f"{where}: cannot read '{raw}' as {kind}") from None


def _compile_default(attr: mm.AttributeSpec):
    """``attr``'s default compiled, or None without one."""
    if attr.default is None:
        return None
    if attr.kind in ex.NUMERIC:
        return ex.compile_number(attr.default)
    if attr.kind == ex.BOOLEAN:
        return ex.compile_condition(attr.default)
    return ex.compile(attr.default)  # a text literal or an earlier text attribute: it cannot fail


def _resolve(path: str, config: RunConfig) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(config.base_dir) / p


def build_world(model: mm.Model, config: RunConfig) -> World:
    """Validate the model, realize the environment, then populate it
    (:func:`_populate`).  A model that fails validation raises
    InvalidModelError, which carries the report."""
    report = mm.validate(model)
    if not report.ok():
        raise InvalidModelError(report)
    world = World(model, config, report.sites)
    for agent_type in model.agent_types:
        for cap in agent_type.capabilities:
            if cap.kind == "external":
                lib_path = _resolve(cap.library, config)  # validation requires a library
                if not lib_path.exists():
                    raise EngineError(
                        f"tick {world.tick}: agent:{agent_type.name}: external capability library "
                        f"'{lib_path}' does not exist"
                    )
    return _reported(world, _populate, world)


def _populate(world: World) -> World:
    """Run every creational strategy in declaration order, then apply
    introductions due at tick 0."""
    for spec in mm.creation_order(world.model):
        if isinstance(spec, mm.EntityTypeSpec):
            _create_entities(world, spec)
        else:
            _create_agents(world, spec)
    entities = world.entities.values()  # each index starts with its entity sources, which never change
    world.sources = {name: SourceIndex(world, [e for e in entities if e.type_name in d.transmission.sources], None)
                     for name, d in world.diseases.items()}
    world.entered = [a for a in world.agents.values() if a.diseases]  # every carrier enters the indexes as later state changes do
    _introduction_phase(world)
    return world


def _positions_for(world: World, strategy: mm.CreationalStrategy, type_name: str) -> tuple[list, list | None]:
    """Positions of the instances to create, and the point-file points they
    came from (None unless the strategy reads a point file)."""
    topo = world.topology
    config = world.config
    rng = world.rng
    out: list = []
    if isinstance(strategy, mm.FixedCountStrategy):
        if strategy.placement is None:
            for _ in range(strategy.count):
                if isinstance(topo, mm.GridTopology):
                    out.append((rng.randrange(topo.width), rng.randrange(topo.height)))
                elif isinstance(topo, mm.CartesianTopology):
                    x = topo.x_min + rng.random() * (topo.x_max - topo.x_min)
                    y = topo.y_min + rng.random() * (topo.y_max - topo.y_min)
                    out.append((x, y))
                else:
                    assert world.graph is not None
                    nodes = world.graph.sorted_nodes
                    if not nodes:
                        raise EngineError(f"tick {world.tick}: {type_name}: cannot place agents on an empty graph")
                    out.append(NodePos(nodes[rng.randrange(len(nodes))]))
        else:  # validation rules out explicit positions and point files on graphs
            spots = []
            for x_expr, y_expr in strategy.placement:
                x, y = (ex.compile_number(e, name="position")(world) for e in (x_expr, y_expr))
                spots.append(_reported(world, mm.place, topo, x, y, path=type_name))
            for i in range(strategy.count):
                out.append(spots[i % len(spots)])
    elif isinstance(strategy, mm.GisPointsStrategy):
        points = load_gis_points(_resolve(strategy.path, config))
        places = [_reported(world, mm.place, topo, p.x, p.y, path=f"{type_name} (point file line {p.line})") for p in points]
        return places, points
    else:  # OSM: validation rules out inline edge lists for populations
        assert world.graph is not None
        out = [NodePos(n) for n in world.graph.sorted_nodes if len(world.graph.adjacency[n]) >= INTERSECTION_DEGREE]
    return out, None


def _init_attrs(world: World, instance, point: GisPoint | None, where: str) -> None:
    overrides = point.attrs if point is not None else {}
    at = f"tick {world.tick}: {where} (point file line {point.line})" if overrides else ""
    defaults = world.defaults[instance.type_name]
    for attr, default in defaults:
        if attr.name in overrides:
            instance.attrs[attr.name] = _convert_raw(overrides[attr.name], attr.kind, at)
        elif default is not None:
            value = default(instance)
            if attr.kind == ex.REAL and isinstance(value, int):
                value = float(value)
            instance.attrs[attr.name] = value
        else:
            instance.attrs[attr.name] = _ZERO_VALUES[attr.kind]
    for key in overrides:
        if key not in {a.name for a, _ in defaults}:
            raise EngineError(f"{at}: point file sets unknown attribute '{key}'")


def _create_entities(world: World, spec: mm.EntityTypeSpec) -> None:
    positions, points = _positions_for(world, spec.creation, f"entity:{spec.name}")
    for i, position in enumerate(positions):
        entity = EntityInstance(weakref.proxy(world), world.new_id(), spec.name, position, _cell_of(world, position))
        point = points[i] if points is not None else None
        _init_attrs(world, entity, point, f"entity:{spec.name}")
        world.entities[entity.id] = entity
        world.by_type[spec.name].append(entity)


def _create_agents(world: World, spec: mm.AgentTypeSpec) -> None:
    positions, points = _positions_for(world, spec.creation, f"agent:{spec.name}")
    diseases = {name: world.diseases[name].machine for name in spec.disease_names()}
    machines = {m.name: world.machines[m.name] for m in world.model.machines_of(spec)}
    mobility = spec.capability("mobility")
    speed = None if mobility is None or world.graph is None else ex.compile_number(mobility.step, name="step")
    flow = spec.capability("flow_control")
    plan = world.model.plan_of(spec) if flow is not None else None
    learning = spec.capability("reinforcement_learning") if flow is not None else None
    step_of = world.walk_steps.get(spec.name)
    # A type acts in phase 2 with a walk step, a disease, a declared machine or a signal plan (learning sets one).
    if step_of is not None or diseases or machines or plan is not None or learning is not None:
        world.actors.append((spec.name, step_of))
    if learning is not None:
        world.learners.append(spec.name)
    disease_tallies, machine_tallies = {name: {} for name in diseases}, {name: {} for name in machines}
    for name, tally in (*disease_tallies.items(), *machine_tallies.items()):  # a disease's first, as in machine_state
        world.tallies.setdefault((spec.name, name), tally)
    for name, tally in disease_tallies.items():
        world.disease_tallies[name].append((tally, step_of is not None))
    entries = []  # created vehicles sit on a node; expressions draw nothing, so they enter after the loop
    for i, position in enumerate(positions):
        agent = AgentInstance(weakref.proxy(world), world.new_id(), spec.name, position, _cell_of(world, position))
        agent.diseases = {name: sm.instantiate(m, disease_tallies[name]) for name, m in diseases.items()}
        agent.machines = {name: sm.instantiate(m, machine_tallies[name]) for name, m in machines.items()}
        point = points[i] if points is not None else None
        _init_attrs(world, agent, point, f"agent:{spec.name}")
        world.agents[agent.id] = agent
        world.by_type[spec.name].append(agent)
        world.created[spec.name] = world.created.get(spec.name, 0) + 1
        if speed is not None:
            agent.speed = speed(agent)
            if agent.speed <= 0:
                raise EvalError("vehicle speed must be positive on graphs", mobility.step)
            entries.append((agent, position.node))
        if flow is not None:  # validation keeps flow control off mobile agents: no controller draws among vehicles
            _init_controller(world, agent, flow, plan, learning)
    if entries:
        _enter_random_edges(world, entries)


def _enter_random_edges(world: World, entries: list[tuple[AgentInstance, str]]) -> None:
    """Start each vehicle of the ``(vehicle, node)`` pairs, in order, on a
    uniformly random edge out of its node, if any, and add it to the transit
    roster: the one way onto an edge."""
    getrandbits, below, tables, vehicles = world.rng.getrandbits, sm.below, world.exits, world.vehicles
    for vehicle, node in entries:
        speed = vehicle.speed
        if (exits := tables.get((node, speed))) is None:  # speeds are per agent, so the table fills as they come
            exits = tables[node, speed] = [
                (to, max(1, math.ceil(length / speed)), stop) for to, length, stop in world.roads[node]
            ]
        if exits:
            target, ticks, stop = exits[below(getrandbits, len(exits))]
            vehicle.position = EdgePos(node, target, ticks, ticks, stop)
            vehicles.append(vehicle)


def _init_controller(world: World, agent: AgentInstance, flow: mm.CapabilityRef, plan, learning) -> None:
    # Validation puts flow control on graphs only, on agents without mobility,
    # so the controller sits on the node it was created at.
    node = agent.position.node
    capacities: dict[str, int] = {}
    if flow.streams is None:
        streams = {frm: f"s{i}" for i, frm in enumerate(world.graph.adjacency[node])}
    else:  # validation allows one stream per edge, so each from-node has at most one
        streams = {}
        for stream in flow.streams:
            a, b = stream.edge  # type: ignore[misc]
            if node == a:
                frm = b
            elif node == b:
                frm = a
            else:
                continue  # stream's edge does not touch this intersection
            streams[frm] = stream.stream_id
            if stream.capacity is not None:
                capacities[frm] = stream.capacity
    queues = {frm: world.edge_queues.get((node, frm), []) for frm in streams}  # an OSM stream may name no edge
    ctrl = ControllerState(node=node, streams=streams, queues=queues, capacities=capacities, red=dict(queues))
    agent.controller = ctrl
    world.controllers_by_node.setdefault(node, ctrl)
    if plan is not None:
        _controller_set_plan(world, ctrl, plan.name)
    if learning is not None:
        qspec = learning.qlearning
        state = tf.discretize_state(_queue_lengths(ctrl), qspec.bins)
        table: tf.QTable = {}
        action = tf.select_action(table, state, qspec.plans, qspec.epsilon, world.rng)
        reward = None if qspec.reward is None else ex.compile_number(qspec.reward, name="reward")
        ctrl.learner = LearnerState(spec=qspec, table=table, prev_state=state, prev_action=action, reward=reward)
        _controller_set_plan(world, ctrl, action)


def _controller_set_plan(world: World, ctrl: ControllerState, plan_name: str) -> None:
    ctrl.plan = world.plans[plan_name]
    ctrl.ticks_in_cycle = 0
    _controller_enter_phase(ctrl, 0)


def _controller_enter_phase(ctrl: ControllerState, index: int) -> None:
    ctrl.phase, ctrl.dwell = index, 0
    green = ctrl.plan.phases[index].green
    ctrl.red = {frm: ctrl.queues[frm] for frm, sid in ctrl.streams.items() if sid not in green}


def _queue_lengths(ctrl: ControllerState) -> list[int]:
    return list(map(len, ctrl.queues.values()))


def controller_stopped(ctrl: ControllerState) -> int:
    return sum(map(len, ctrl.red.values()))


# ---------------------------------------------------------------------------
# Mobility


def mobility_step(world: World, agent: AgentInstance, step_of, rng: random.Random):
    """The new position and its cell after one random-walk step of the
    compiled length ``step_of``, within the size or the bounds ``World``
    resolved (graph agents move in phase 4)."""
    step = step_of(agent)
    x, y = agent.position  # type: ignore[misc]
    if world.on_grid:  # 8-neighborhood plus "stay", all nine outcomes equally likely
        pick = sm.below(rng.getrandbits, 9)
        span = int(round(step))
        nx, ny = x + (pick % 3 - 1) * span, y + (pick // 3 - 1) * span
        if (wrap := world.wrap) is not None:
            new = (nx % wrap[0], ny % wrap[1])
            return new, new  # on a grid a position is its cell
    else:  # cartesian: graph agents take no random-walk step (``World.walk_steps``)
        angle = rng.random() * 2.0 * math.pi
        nx, ny = x + math.cos(angle) * step, y + math.sin(angle) * step
    x_min, y_min, x_max, y_max = world.bounds
    nx = x_min if nx < x_min else x_max if nx > x_max else nx  # the object min(max(nx, x_min), x_max) gives
    ny = y_min if ny < y_min else y_max if ny > y_max else ny
    new = (nx, ny)
    return new, new if world.on_grid else (math.floor(nx), math.floor(ny))


# ---------------------------------------------------------------------------
# Infection sources and neighbor queries


_BY_ID = operator.attrgetter("id")


BY_CELL = [(0, 0)]  # the reach of an index by cell: each source under its own cell


class SourceIndex:
    """One disease's infection sources in ascending id order (``items``),
    which ``_near`` reads, kept from tick to tick.  Unless ``reach`` is None
    (as on a graph), ``cells`` also files each source under every cell the
    offsets of ``reach`` take the cell it keeps to, modulo a wrapped grid:

    - by cell, when ``reach`` is ``BY_CELL``: each source under its own cell,
      so a scan reads the cells ``scan`` offsets its own by (none: the list is
      measured), or, when ``scan`` is None, the stencil's within its radius;
    - by exposure, when ``reach`` is the stencil's prefix within the radius
      the model states: a scan reads the one cell it stands in."""

    def __init__(self, world: World, items: list[_Instance], reach: list | None, scan: list | None = None):
        self.items, self.wrap = items, world.wrap
        self.members = set(items)  # the instances the walk refiles with ``move``
        self.reach: list | None = None
        self.cells: dict[tuple[int, int], list[_Instance]] | None = None
        self.file(reach, scan)

    def file(self, reach: list | None, scan: list | None = None) -> None:
        """Take this tick's filing, filing every source afresh only when
        ``reach`` puts them under other cells than the last one did."""
        if reach != self.reach:  # never where ``reach`` stays None: on a graph or beyond the stencil's bound
            self.cells = cells = defaultdict(list)
            for item in self.items:
                for cell in self.reached(item.cell, reach):
                    cells[cell].append(item)
        self.reach, self.scan = reach, scan
        self.exposed = reach is not None and reach is not BY_CELL

    def reached(self, cell: tuple[int, int], offsets: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """The cells ``offsets`` take ``cell`` to, each once."""
        cx, cy = cell
        if self.wrap is None:
            return [(cx + dx, cy + dy) for dx, dy in offsets]
        width, height = self.wrap
        return [((cx + dx) % width, (cy + dy) % height) for dx, dy in offsets]

    def add(self, item: _Instance) -> None:
        """File ``item``, a new source, at the cell it keeps."""
        bisect.insort(self.items, item, key=_BY_ID)
        self.members.add(item)
        if self.cells is not None:
            for cell in self.reached(item.cell, self.reach):
                self.cells[cell].append(item)

    def remove(self, item: _Instance) -> None:
        """Unfile ``item``, one of ``members``, from the cell it keeps."""
        del self.items[bisect.bisect_left(self.items, item.id, key=_BY_ID)]
        self.members.discard(item)
        if self.cells is not None:
            for cell in self.reached(item.cell, self.reach):
                self.cells[cell].remove(item)

    def move(self, item: _Instance, old: tuple[int, int], new: tuple[int, int]) -> None:
        """Refile ``item``, one of ``members``, from cell ``old`` to cell ``new``."""
        cells = self.cells
        if not self.exposed:  # by cell: out of one cell and into one
            cells[old].remove(item)
            cells[new].append(item)
            return
        for cell in self.reached(old, self.reach):
            cells[cell].remove(item)
        for cell in self.reached(new, self.reach):
            cells[cell].append(item)


def _index_sources(world: World) -> None:
    """Keep, per disease, the index of the agents in an infectious state and
    the entities of a declared source type, and decide its filing for this
    tick from the tallies.  ``_populate`` makes it with the entities, which
    never change, and queues every carrier in ``World.entered``, which
    phases 1 and 3 then fill as states are entered and agents die; phase 2
    adds and removes only those agents.  Only the walk moves agents between
    cells, so the index stays exact through phase 2 while walking sources
    are moved in it.  (A state entered by ``sm.force_state`` outside the
    tick after the first phase 2 is tallied but not refiled.)"""
    entered, world.entered = world.entered, []
    for name, disease in world.diseases.items():
        index = world.sources[name]
        for agent in entered:
            if (inst := agent.diseases.get(name)) is not None:
                source = inst.current in disease.infectious and agent.id in world.agents
                if source != (agent in index.members):
                    (index.add if source else index.remove)(agent)
        tallies = world.disease_tallies[name]
        susceptible = sum(tally.get(disease.susceptible, 0) for tally, _ in tallies)
        walking = sum(tally.get(state, 0) for tally, walks in tallies if walks for state in disease.infectious)
        index.file(*_reach(world, disease, len(index.items), walking, susceptible))


def _reach(world: World, disease: ResolvedDisease, sources: int, walking: int, susceptible: int) -> tuple:
    """The offsets a disease's sources are filed under this tick, and its
    ``SourceIndex.scan``: None, filing nothing, on a graph and for a stated
    radius at or beyond the stencil's bound (every tick or none: the stencil
    stops growing); by exposure the stencil's prefix within the radius the
    model states, when filing each source under the prefix's n cells, and
    moving each walking source out of n cells and into n more, makes no more
    list operations than the scans it spares would: a cell read each (n <=
    sources) or a distance each (n > sources) per susceptible agent; else
    ``BY_CELL``, scanning that prefix (kept as the stencil grows) if n <= sources."""
    if world.cell_span is None or disease.radius is not None and (n := _prefix(world, disease.radius)) is None:
        return None, None  # each scan measures the list
    if disease.radius is None:
        return BY_CELL, None
    if (sources + 2 * walking) * n > susceptible * min(n, sources):
        return BY_CELL, world.stencil[0][:n] if n <= sources else []
    return world.stencil[0][:n], None


def _near(world: World, sources: SourceIndex, scanner: _Instance, radius: float) -> list[_Instance]:
    """The sources within Euclidean distance ``radius`` of ``scanner``'s
    position (toroidal on wrapped grids), in ascending id order, without
    ``scanner``.  An index by exposure, built for this ``radius``, is read at
    the cell ``scanner`` keeps alone; one by cell is read at the stencil's
    cells within ``radius`` of it, unless the stencil stops short of it or
    there are fewer sources than those cells: then the list is measured.  On
    a grid a read of cells measures nothing; in a cartesian space the sources
    found are measured."""
    items, distance, position = sources.items, world.distance, scanner.position
    if (cells := sources.cells) is not None:
        if sources.exposed:
            if not (found := cells.get(scanner.cell)):
                return []
        else:
            if (offsets := sources.scan) is None:  # a computed radius: the prefix within it, or none
                offsets = world.stencil[0][:n] if (n := _prefix(world, radius)) is not None and n <= len(items) else []
            # No offsets: the list is measured.
            found = [item for near in sources.reached(scanner.cell, offsets) for item in cells.get(near, ())] if offsets else None
        if found is not None:
            items = sorted(found, key=_BY_ID)
            if not world.gap:  # the cells within reach on a grid are exactly those within the radius
                return [item for item in items if item is not scanner]
    return [item for item in items if item is not scanner and distance(position, item.position) <= radius]


def _prefix(world: World, radius: float) -> int | None:
    """How many of the stencil's offsets lie within ``radius``, growing the
    stencil as it needs; None when the radius reaches its bound."""
    if world.stencil is None or radius >= world.stencil[2]:
        _stencil(world, radius)
    _, reaches, bound = world.stencil
    return bisect.bisect_right(reaches, radius) if radius < bound else None


STENCIL_MAX_REACH = 63  # cells each way a stencil grows to; a radius beyond its bound measures the list


def _stencil(world: World, radius: float) -> None:
    """Build ``world.stencil`` out to ``radius``, at least doubling its reach,
    up to STENCIL_MAX_REACH: cell offsets (each once modulo a wrapped grid)
    sorted by reach, the least distance of two points in cells that far apart;
    the reaches; and the bound below which a radius reads a prefix of them."""
    gap = world.gap
    built = world.stencil[2] - 1 + gap if world.stencil is not None else 0  # a finite bound is reach + 1 - gap
    if built >= STENCIL_MAX_REACH:
        return
    reach = min(max(math.floor(radius) + gap, 2 * built), STENCIL_MAX_REACH)
    sx, sy = square_span = tuple(min(span, reach) for span in world.cell_span)
    square = [(dx, dy) for dx in range(-sx, sx + 1) for dy in range(-sy, sy + 1)]
    if world.wrap is not None:
        square = dict.fromkeys((dx % world.wrap[0], dy % world.wrap[1]) for dx, dy in square)  # each offset once
    ranked = sorted((world.distance((0, 0), (max(abs(dx) - gap, 0), max(abs(dy) - gap, 0))), dx, dy) for dx, dy in square)
    bound = math.inf if square_span == world.cell_span else reach + 1 - gap
    world.stencil = ([(dx, dy) for _, dx, dy in ranked], [r for r, _, _ in ranked], bound)


# ---------------------------------------------------------------------------
# The tick


def tick(world: World) -> World:
    """Advance the world by one tick in the fixed phase order."""
    world.tick += 1
    _reported(world, _phases, world)
    return world


def _phases(world: World) -> None:
    infected_now = _introduction_phase(world)
    changes = _agent_phase(world, infected_now)
    _disease_phase(world, changes)
    _vehicle_phase(world)
    _learning_phase(world)
    _sampling_phase(world)


def _introduction_phase(world: World) -> set[tuple[int, str]]:
    """Phase 1: due (so periodic) introductions; returns the (agent id, disease)
    pairs infected, which skip their disease step this tick."""
    infected_now: set[tuple[int, str]] = set()
    for intro, disease, eligible in world.introductions:
        if not dz.introduction_due(intro, world.tick):
            continue
        pool = [a for a in world.agents.values() if (inst := a.diseases.get(intro.disease)) is not None
                and inst.current == disease.susceptible]
        for agent in dz.introduce(pool, intro, eligible, world.rng):
            sm.force_state(agent.diseases[intro.disease], disease.target)
            world.entered.append(agent)
            world.ever_infected[intro.disease] = world.ever_infected.get(intro.disease, 0) + 1
            infected_now.add((agent.id, intro.disease))
    return infected_now


@dataclass
class DiseaseChanges:
    """Disease outcomes buffered in phase 2 and applied in phase 3."""

    moves: list[tuple[AgentInstance, str, str]] = field(default_factory=list)  # (agent, disease, state to enter)
    dying: list[tuple[AgentInstance, str]] = field(default_factory=list)  # (agent, disease)


def _agent_phase(world: World, infected_now: set[tuple[int, str]]) -> DiseaseChanges:
    """Phase 2: per-agent behaviour, with disease changes buffered."""
    _index_sources(world)
    changes = DiseaseChanges()
    rng, by_type = world.rng, world.by_type
    indexes = [index for index in world.sources.values() if index.cells is not None]  # the walk refiles filed ones
    # Per disease: under exposure filing, an agent in its idle compartment whose cell files no source skips its
    # step, as ``_near`` would find no source there and nothing else in the step draws, fails or buffers.
    steps = {
        name: (disease, disease.idle if (index := world.sources[name]).exposed else None, index.cells)
        for name, disease in world.diseases.items()
    }
    for type_name, step_of in world.actors:
        for agent in by_type[type_name]:
            if step_of is not None:
                old = agent.cell
                agent.position, agent.cell = mobility_step(world, agent, step_of, rng)
                if agent.cell != old:
                    for index in indexes:  # a walking source changes cell
                        if agent in index.members:
                            index.move(agent, old, agent.cell)
            ctrl = agent.controller
            if ctrl is not None and ctrl.plan is not None:
                ctrl.ticks_in_cycle += 1
                ctrl.dwell += 1
                if ctrl.dwell >= ctrl.plan.phases[ctrl.phase].duration:
                    _controller_enter_phase(ctrl, (ctrl.phase + 1) % len(ctrl.plan.phases))
            if agent.machines:
                for inst in agent.machines.values():
                    if inst.current != sm.DEAD_STATE and (state := sm.step(inst, agent, rng)) is not None:
                        sm.force_state(inst, state)
            for disease_name, inst in agent.diseases.items():  # a disease entering Dead removes its agent in phase 3
                if not infected_now or (agent.id, disease_name) not in infected_now:
                    disease, idle, cells = steps[disease_name]
                    if inst.current != idle or cells.get(agent.cell):
                        _disease_step(world, agent, inst, disease, changes)
    return changes


def _disease_step(
    world: World, agent: AgentInstance, inst: sm.MachineInstance, disease: ResolvedDisease, changes: DiseaseChanges
) -> None:
    disease_name = disease.spec.name
    # Per-tick death rates apply in any compartment, before transmission or
    # progression can move the agent on.
    tick_rules = disease.tick_rules.get(inst.current)
    if tick_rules and dz.evaluate_mortality(tick_rules, agent, world.tick, world.rng):
        changes.dying.append((agent, disease_name))
        return
    if inst.current == disease.susceptible:
        if (radius := disease.radius) is None and (radius := disease.distance(agent)) <= 0:
            raise EvalError(f"distance {radius} outside (0, inf)", disease.spec.transmission.distance)
        if not (near := _near(world, world.sources[disease_name], agent, radius)):
            disease.transmission.probability(agent)  # no source, no draw; a computed rate is still checked on every scan
            return
        candidates = [
            dz.Candidate(other.id, True, other.type_name, other, None) if isinstance(other, EntityInstance)
            else dz.Candidate(other.id, False, other.type_name, other, other.diseases[disease_name].current)
            for other in near
        ]
        if dz.attempt_transmission(agent, candidates, disease.transmission, disease.infectious, world.rng):
            changes.moves.append((agent, disease_name, disease.target))
            world.ever_infected[disease_name] = world.ever_infected.get(disease_name, 0) + 1
        return
    state = sm.step(inst, agent, world.rng)  # the dwell counts in place; the new state waits for phase 3
    if state is not None:
        changes.moves.append((agent, disease_name, state))


def _disease_phase(world: World, changes: DiseaseChanges) -> None:
    """Phase 3: enter the buffered disease states, then remove the dead."""
    for agent, disease_name, state in changes.moves:
        sm.force_state(agent.diseases[disease_name], state)
        world.entered.append(agent)
        if state == sm.DEAD_STATE:  # after the per-tick deaths of phase 2
            changes.dying.append((agent, disease_name))
    dead_types = set()
    for agent, disease_name in changes.dying:
        if agent.id in world.agents:  # the first death recorded for an agent counts
            world.deaths_by_disease[disease_name] = world.deaths_by_disease.get(disease_name, 0) + 1
            _remove_agent(world, agent)
            dead_types.add(agent.type_name)
    if dead_types:  # prune each roster the dead were in
        alive = world.agents
        world.vehicles = [a for a in world.vehicles if a.id in alive]
        for name in dead_types:
            world.by_type[name] = [a for a in world.by_type[name] if a.id in alive]


def _remove_agent(world: World, agent: AgentInstance) -> None:
    del world.agents[agent.id]
    world.entered.append(agent)  # the next phase 2 unfiles it as a source
    for inst in (*agent.diseases.values(), *agent.machines.values()):  # out of its type's tallies
        inst.tally[inst.current] -= 1
    world.dead[agent.type_name] = world.dead.get(agent.type_name, 0) + 1
    if isinstance(agent.position, QueuePos):  # a queued vehicle is in its queue until served
        agent.position.queue.remove(agent.id)
    ctrl = agent.controller
    if ctrl is not None and world.controllers_by_node.get(ctrl.node) is ctrl:
        del world.controllers_by_node[ctrl.node]


def _vehicle_phase(world: World) -> None:
    """Phase 4, on graphs only: vehicle movement, then queue service; the
    served vehicles then enter their next edges, in service order."""
    if world.graph is None:
        return
    # Movement: progress along edges; completed traversals join the queue, in id order.
    transit, arrived = [], []
    for agent in world.vehicles:
        pos = agent.position
        if pos.remaining > 1:
            pos.remaining -= 1
            transit.append(agent)
        else:
            arrived.append(agent)
    arrived.sort(key=_BY_ID)
    controllers = world.controllers_by_node
    arrivals = 0
    for agent in arrived:
        pos = agent.position
        if not (queue := pos.stop.queue):  # the digest lists each queue a vehicle has reached
            world.queues[pos.target, pos.source] = queue
        ctrl = controllers.get(pos.target)
        capacity = ctrl.capacities.get(pos.source) if ctrl is not None else None
        if capacity is not None and len(queue) >= capacity:
            pos.remaining = 0  # blocked; retry next tick
            transit.append(agent)
            continue
        queue.append(agent.id)
        agent.position = pos.stop
        arrivals += 1
    world.arrivals += arrivals
    world.vehicles = transit
    # Service: one vehicle per queue per tick, unless its stream is red; a served vehicle rejoins the roster.
    # Serving changes no controller, so each node's is read once; it draws nothing, so the served vehicles
    # enter their next edges after it, in service order, drawing what entering each at its service drew.
    agents, served = world.agents, []
    for node, queues in world.service:
        red = ctrl.red if (ctrl := controllers.get(node)) is not None else ()
        for from_node, queue in queues:
            if queue and from_node not in red:
                served.append((agents[queue.pop(0)], node))
    if served:
        _enter_random_edges(world, served)


def _learning_phase(world: World) -> None:
    """Phase 5: each learner's reward accumulates every tick; a controller
    whose plan cycle completed updates its Q-table and picks the next plan."""
    for type_name in world.learners:
        for agent in world.by_type[type_name]:
            ctrl = agent.controller
            learner = ctrl.learner
            learner.accumulated += learner.reward(agent) if learner.reward is not None else -float(controller_stopped(ctrl))
            if ctrl.phase == 0 and ctrl.dwell == 0:  # a cycle completes on re-entering its first phase
                _learn(world, ctrl)


def _learn(world: World, ctrl: ControllerState) -> None:
    learner = ctrl.learner
    assert learner is not None and ctrl.plan is not None
    state = tf.discretize_state(_queue_lengths(ctrl), learner.spec.bins)
    tf.q_update(learner.table, learner.prev_state, learner.prev_action, learner.accumulated, state, learner.spec)
    action = tf.select_action(learner.table, state, learner.spec.plans, learner.spec.epsilon, world.rng)
    learner.prev_state = state
    learner.prev_action = action
    learner.accumulated = 0.0
    _controller_set_plan(world, ctrl, action)


def _sampling_phase(world: World) -> None:
    """Phase 6: a row for each dataset whose interval divides the new tick."""
    for output in world.model.outputs:
        if world.tick % output.interval == 0:
            sample_output(world, output)


# ---------------------------------------------------------------------------
# Outputs and runs


def format_value(value: float | int) -> str:
    """CSV text of a sampled value (finite by then: see :func:`sample_output`)."""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def sample_output(world: World, output: mm.OutputDatasetSpec) -> None:
    world.output_rows[output.name].append([world.tick, *(value(world) for value in world.series[output.name])])


@dataclass
class OutputTable:
    name: str
    path: str
    header: list[str]
    rows: list[list]


@dataclass
class RunResult:
    tables: dict[str, OutputTable]
    summary: dict

    def csv_text(self, name: str) -> str:
        table = self.tables[name]
        lines = [",".join(table.header)]
        for row in table.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"


def run(model: mm.Model, config: RunConfig) -> RunResult:
    """Build the world, advance it max_ticks times, and write one CSV per
    output dataset under the configured output directory."""
    if config.max_ticks < 1:
        raise EngineError("max_ticks must be at least 1")
    world = build_world(model, config)
    _reported(world, _sampling_phase, world)  # the tick 0 rows
    for _ in range(config.max_ticks):
        tick(world)
    tables: dict[str, OutputTable] = {}
    for output in model.outputs:
        header = ["tick"] + [s.label for s in output.series]
        tables[output.name] = OutputTable(output.name, output.path, header, world.output_rows[output.name])
    result = RunResult(tables=tables, summary=_summary(world, tables))
    out_dir = Path(config.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for table in tables.values():
        target = out_dir / table.path
        os.makedirs(target.parent, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.write(result.csv_text(table.name))
    return result


def _summary(world: World, tables: dict[str, OutputTable]) -> dict:
    final: dict[str, dict[str, object]] = {}
    for name, table in tables.items():
        if table.rows:
            final[name] = dict(zip(table.header, table.rows[-1]))
    population: dict[str, int] = {}
    for agent in world.agents.values():
        population[agent.type_name] = population.get(agent.type_name, 0) + 1
    return {
        "ticks": world.tick,
        "population": population,
        "created": dict(world.created),
        "dead": dict(world.dead),
        "deaths_by_disease": dict(world.deaths_by_disease),
        "ever_infected": dict(world.ever_infected),
        "arrivals": world.arrivals,
        "final": final,
    }
