import pytest

from abms import expr as ex
from abms import metamodel as mm
from abms import statemachine as sm
from abms.dsl import parse_model

HUGE_REAL = "1" + "0" * 400 + ".0"  # parses to inf

SIR_MODEL = """
model demo {
  environment grid width 10 height 10 wrap
  agent Native {
    create fixed 5 random
    capability mobility random_walk step 1
    capability disease measles
  }
  disease measles model SIR {
    transmission proximity 2 probability 0.3
    duration I probabilistic rate 0.1
  }
  introduce measles deterministic 2 arbitrary aperiodic
}
"""


def model_from(text: str) -> mm.Model:
    return parse_model(text)


# One element of each kind a concern may list; MEMBERS is replaced per case.
CONCERN_MODEL = """
model c {
  environment grid width 5 height 5
  agent A {
    create fixed 2 random
    capability disease flu
    capability state_machine m
  }
  entity Well {
    create fixed 1 random
  }
  disease flu model SIR {
    transmission proximity 1 probability 0.5
    duration I deterministic 3
  }
  machine m {
    initial S
    state S
    state T
    transition S T deterministic 2
  }
  plan P {
    phase p green s0 duration 3
  }
  output o every 1 to "o.csv" {
    series n count(A)
  }
  concern c {
    members MEMBERS
  }
}
"""


class TestValidate:
    def test_clean_sir_model_empty_report(self):
        report = mm.validate(model_from(SIR_MODEL))
        assert report.diagnostics == []
        assert report.ok()

    def test_seir_transmission_skipping_exposed(self):
        text = SIR_MODEL.replace("model SIR", "model SEIR").replace(
            "transmission proximity 2 probability 0.3",
            "transmission proximity 2 probability 0.3 to I",
        ).replace(
            "duration I probabilistic rate 0.1",
            "duration E deterministic 3\n    duration I probabilistic rate 0.1",
        )
        report = mm.validate(model_from(text))
        assert any("transition violates compartmental model" in d.message for d in report)

    def test_flow_control_requires_graph(self):
        text = SIR_MODEL.replace(
            "capability mobility random_walk step 1",
            "capability flow_control streams auto",
        )
        report = mm.validate(model_from(text))
        assert any("flow control requires graph topology" in d.message for d in report)

    def test_dangling_disease_reference(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities[1].target = "nothere"
        report = mm.validate(model)
        assert any("unknown disease 'nothere'" in d.message for d in report)

    def test_missing_environment(self):
        model = model_from(SIR_MODEL)
        model.environment = None
        assert any("no environment" in d.message for d in mm.validate(model))

    def test_grid_dimensions(self):
        model = model_from(SIR_MODEL)
        model.environment.topology.width = 0
        assert not mm.validate(model).ok()

    def test_cartesian_bounds(self):
        model = model_from(SIR_MODEL)
        model.environment = mm.EnvironmentSpec(mm.CartesianTopology(5.0, 5.0, 0.0, 1.0))
        assert any("min < max" in d.message for d in mm.validate(model))

    @pytest.mark.parametrize("bounds", [(float("-inf"), 5.0, 0.0, 1.0), (0.0, 5.0, 0.0, float("nan"))])
    def test_cartesian_bounds_must_be_finite(self, bounds):
        model = model_from(SIR_MODEL)
        model.environment = mm.EnvironmentSpec(mm.CartesianTopology(*bounds))
        assert any("cartesian bounds must be finite" in d.message for d in mm.validate(model))

    @pytest.mark.parametrize(
        "graph, message",
        [
            ("node a 0 0\n    node b 10 0\n    edge a b " + HUGE_REAL, "edge a-b length must be finite"),
            ("node a " + HUGE_REAL + " 0\n    node b 10 0\n    edge a b 10", "node 'a' coordinates must be finite"),
            ("node a 0 0\n    node b 10 " + HUGE_REAL + "\n    edge a b 10", "node 'b' coordinates must be finite"),
            ("node a 0 0\n    node b 10 0\n    edge a b 0", "edge a-b must have positive length"),
        ],
        ids=["infinite edge length", "infinite node x", "infinite node y", "zero edge length"],
    )
    def test_inline_graph_values_must_be_finite(self, graph, message):
        model = model_from(
            f"model g {{\n  environment graph from edges {{\n    {graph}\n  }}\n"
            "  agent A {\n    create fixed 2 random\n  }\n}\n"
        )
        assert [d.message for d in mm.validate(model).errors()] == [message]

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "create fixed 2 random\n    capability mobility random_walk step 1\n    capability flow_control streams auto",
                "a flow-control agent must stay on its graph node, so it cannot have mobility",
            ),
            ('create gis "natives.points"', "explicit positions require a grid or cartesian environment"),
        ],
        ids=["flow control with mobility", "point file"],
    )
    def test_graph_rejects_what_cannot_be_placed_on_a_node(self, body, message):
        model = model_from(
            "model g {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    edge a b 10\n  }\n"
            f"  agent Car {{\n    {body}\n  }}\n}}\n"
        )
        assert [(d.path, d.message) for d in mm.validate(model).errors()] == [("agent:Car", message)]

    @pytest.mark.parametrize(
        "decl, count, expected",
        [
            ("agent Car", 3, [("agent:Car", "cannot place agents on an empty graph")]),
            ("entity Stop", 3, [("entity:Stop", "cannot place agents on an empty graph")]),
            ("agent Car", 0, []),
        ],
    )
    def test_random_placement_needs_a_node_on_an_inline_graph(self, decl, count, expected):
        model = model_from(
            f"model g {{\n  environment graph from edges {{\n  }}\n  {decl} {{\n    create fixed {count} random\n  }}\n}}\n"
        )
        assert [(d.path, d.message) for d in mm.validate(model).errors()] == expected

    @pytest.mark.parametrize(
        "probability, message",
        [
            ("nope", "abort probability: unknown attribute 'nope'"),
            ("true", "abort probability must be integer or real, got boolean"),
            ("count(A) / 10", "abort probability: aggregates are not allowed in this context"),
        ],
    )
    def test_abort_probability_is_typed(self, probability, message):
        model = model_from(
            "model m {\n  environment grid width 5 height 5\n"
            "  agent A {\n    create fixed 3 random\n    capability state_machine life\n  }\n"
            "  machine life {\n    initial a\n    state a\n    state b\n    state Dead\n"
            f"    transition a b probabilistic rate 0.5 abort {probability} to Dead\n  }}\n}}\n"
        )
        assert [d.message for d in mm.validate(model).errors()] == [message]

    def test_no_transition_leaves_dead(self):
        # Dead is absorbing in every machine, also in one that starts there.
        model = model_from(
            "model m {\n  environment grid width 5 height 5\n"
            "  agent A {\n    create fixed 1 random\n    capability state_machine k\n  }\n"
            "  machine k {\n    initial Dead\n    state Dead\n    state a\n"
            "    transition Dead a deterministic 1\n  }\n}\n"
        )
        assert [(d.path, d.message) for d in mm.validate(model).errors()] == [
            ("machine:k.transition[0]", "'Dead' is absorbing: no transition leaves it")
        ]

    def test_duplicate_node_reported_once(self):
        model = model_from(
            "model g {\n  environment graph from edges {\n    node a 0 0\n    node a 5 0\n    node b 10 0\n"
            "    edge a b 10\n  }\n  agent A {\n    create fixed 2 random\n  }\n}\n"
        )
        assert [d.message for d in mm.validate(model).errors()] == ["duplicate node 'a'"]

    def test_duplicate_type_names(self):
        model = model_from(SIR_MODEL)
        model.entity_types.append(mm.EntityTypeSpec("Native", mm.FixedCountStrategy(1)))
        assert any("duplicate type name" in d.message for d in mm.validate(model))

    @pytest.mark.parametrize("second", ["agent car", "entity CAR"])
    def test_type_names_are_unique_ignoring_case(self, second):
        # NetLogo lower-cases breed names: Car and car would be one breed.
        model = model_from(
            "model m {\n  environment grid width 5 height 5\n"
            f"  agent Car {{\n    create fixed 1 random\n  }}\n  {second} {{\n    create fixed 1 random\n  }}\n}}\n"
        )
        name = second.split()[1]
        assert [str(d) for d in mm.validate(model).errors()] == [
            f"error: {second.split()[0]}:{name}: duplicate type name '{name}'"
        ]

    @pytest.mark.parametrize(
        "env, spots, expected",
        [
            ("cartesian 0..30 0..30", "(5, 5) (250, 25)", ["position (250, 25) outside the cartesian bounds"]),
            ("cartesian 0..30 0..30", "(0, 30) (12.5, 0.0)", []),
            ("grid width 10 height 10", "(9.4, 0) (-1, 3)", ["position (-1, 3) outside the 10x10 grid"]),
            ("grid width 10 height 10 wrap", "(-1, 3) (12, 25)", []),
            ("grid width 10 height 10", "(tick + 20, 1)", []),  # not a literal: the engine decides
            ("grid width 10 height 10", f"({HUGE_REAL}, 1)", []),  # not finite: the engine reports it at tick 0
        ],
    )
    def test_literal_positions_must_lie_in_the_environment(self, env, spots, expected):
        model = model_from(f"model m {{\n  environment {env}\n  entity Well {{\n    create fixed 2 at {spots}\n  }}\n}}\n")
        assert [(d.path, d.message) for d in mm.validate(model).errors()] == [("entity:Well", m) for m in expected]

    @pytest.mark.parametrize(
        "step, expected",
        [
            ("0", ["vehicle speed must be positive on graphs"]),
            ("0.0 - 2", []),  # not a literal: the engine decides
            ("-2", ["mobility step must not be negative", "vehicle speed must be positive on graphs"]),
            ("0.5", []),
        ],
    )
    def test_literal_vehicle_step_must_be_positive_on_a_graph(self, step, expected):
        model = model_from(
            "model g {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    edge a b 10\n  }\n"
            f"  agent Car {{\n    create fixed 2 random\n    capability mobility random_walk step {step}\n  }}\n}}\n"
        )
        got = [(d.path, d.message) for d in mm.validate(model).errors()]
        assert got == [("agent:Car.capability[0]", m) for m in expected]

    def test_adaptation_rejected(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities.append(mm.CapabilityRef("adaptation"))
        report = mm.validate(model)
        assert any("reserved" in d.message and "adaptation" in d.message for d in report)

    def test_mobility_step_required_and_positive(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities[0].step = None
        assert any("step" in d.message for d in mm.validate(model))
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities[0].step = ex.Unary("-", ex.lit(1))
        assert any("must not be negative" in d.message for d in mm.validate(model))

    def test_two_mobility_capabilities(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities.append(mm.CapabilityRef("mobility", step=ex.lit(1)))
        assert any("at most one mobility" in d.message for d in mm.validate(model))

    def test_same_disease_twice(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities.append(mm.CapabilityRef("disease", target="measles"))
        assert any("attached more than once" in d.message for d in mm.validate(model))

    def test_aggregate_banned_in_defaults(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].attributes.append(
            mm.AttributeSpec("crowd", ex.INTEGER, ex.Aggregate("count", "Native", None, None))
        )
        assert any("aggregates are not allowed" in d.message for d in mm.validate(model))

    def test_default_kind_mismatch(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].attributes.append(mm.AttributeSpec("age", ex.INTEGER, ex.lit(1.5)))
        assert any("cannot initialize" in d.message for d in mm.validate(model))

    def test_output_series_must_be_numeric(self):
        model = model_from(SIR_MODEL)
        model.outputs.append(
            mm.OutputDatasetSpec("o", 1, "o.csv", [mm.SeriesSpec("flag", ex.lit(True))])
        )
        assert any("must be integer or real" in d.message for d in mm.validate(model))

    @pytest.mark.parametrize(
        "value,op", [(ex.Binary("%", ex.lit(7), ex.lit(2)), "%"), (ex.Unary("~", ex.lit(True)), "~")]
    )
    def test_unknown_operator_fails_validation(self, value, op):
        """A tree built in Python may hold an operator no expression evaluates:
        validation reports it, rather than a run failing (``%``) or reading
        it as another one (``~`` as ``not``)."""
        model = model_from(SIR_MODEL)
        model.outputs.append(mm.OutputDatasetSpec("o", 1, "o.csv", [mm.SeriesSpec("x", value)]))
        assert [str(d) for d in mm.validate(model).errors()] == [
            f"error: output:o.series:x: series: unknown operator '{op}'"
        ]

    def test_rate_out_of_range(self):
        text = SIR_MODEL.replace("probability 0.3", "probability 1.5")
        assert any("outside [0, 1]" in d.message for d in mm.validate(model_from(text)))

    def test_introduction_checks(self):
        model = model_from(SIR_MODEL)
        model.introductions[0].count = -1
        assert not mm.validate(model).ok()
        model = model_from(SIR_MODEL)
        model.introductions[0].disease = "ghost"
        assert any("unknown disease 'ghost'" in d.message for d in mm.validate(model))

    def test_qlearning_warning_single_plan(self):
        text = """
model t {
  environment graph from edges {
    node a 0 0
    node b 100 0
    edge a b 100
  }
  agent Controller {
    create fixed 1 random
    capability flow_control streams auto
    capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans only bins 2
  }
  plan only {
    phase p green s0 duration 5
  }
}
"""
        report = mm.validate(model_from(text))
        assert report.ok()
        assert any(d.severity == "warning" and "single plan" in d.message for d in report)

    def test_bins_strictly_increasing(self):
        text = """
model t {
  environment graph from edges {
    node a 0 0
    node b 100 0
    edge a b 100
  }
  agent Controller {
    create fixed 1 random
    capability flow_control streams auto
    capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans p q bins 5 5
  }
  plan p {
    phase a green s0 duration 5
  }
  plan q {
    phase a green s0 duration 9
  }
}
"""
        assert any("strictly increasing" in d.message for d in mm.validate(model_from(text)))

    def test_deterministic_conflict_same_dwell(self):
        machine = sm.StateMachineSpec(
            "m",
            ["a", "b", "c"],
            "a",
            [
                sm.Transition("a", "b", sm.DeterministicTrigger(ex.lit(2))),
                sm.Transition("a", "c", sm.DeterministicTrigger(ex.lit(2))),
            ],
        )
        model = model_from(SIR_MODEL)
        model.machines.append(machine)
        assert any("fire deterministically at dwell" in d.message for d in mm.validate(model))

    def test_report_is_deterministic_and_path_ordered(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities[1].target = "ghost"
        model.introductions[0].count = -2
        first = mm.validate(model)
        second = mm.validate(model)
        assert first.diagnostics == second.diagnostics
        paths = [d.path for d in first]
        assert paths == sorted(paths)

    @pytest.mark.parametrize(
        "runs, warned",
        [
            ("", True),
            ("    capability state_machine p\n", False),
            ("    capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans p q bins 2\n", False),
        ],
        ids=["neither", "a plan", "qlearning"],
    )
    def test_flow_control_without_plan_or_learning_warns(self, runs, warned):
        text = (
            "model t {\n  environment graph from edges {\n    node a 0 0\n    node b 100 0\n    edge a b 100\n  }\n"
            f"  agent Light {{\n    create fixed 1 random\n    capability flow_control streams auto\n{runs}  }}\n"
            "  plan p {\n    phase x green s0 duration 5\n  }\n  plan q {\n    phase y green s0 duration 9\n  }\n}\n"
        )
        report = mm.validate(model_from(text))
        assert report.ok()
        red = [(d.severity, d.path, d.message) for d in report if "holds every stream red" in d.message]
        expected = ("warning", "agent:Light", "flow control without a plan or qlearning holds every stream red for the whole run")
        assert red == ([expected] if warned else [])

    def test_disease_without_carrier_warns(self):
        model = model_from(SIR_MODEL)
        model.agent_types[0].capabilities = model.agent_types[0].capabilities[:1]
        report = mm.validate(model)
        assert any(d.severity == "warning" and "not attached" in d.message for d in report)

    @pytest.mark.parametrize(
        "members, expected",
        [
            ("A", []),
            ("Well", []),
            ("flu", []),
            ("m", []),
            ("P", []),
            ("o", []),
            ("A Well flu m P o", []),
            ("nope", ["error: concern:c: member 'nope' does not name a model element"]),
            ("flu nope o", ["error: concern:c: member 'nope' does not name a model element"]),
        ],
    )
    def test_concern_members_name_model_elements(self, members, expected):
        model = model_from(CONCERN_MODEL.replace("MEMBERS", members))
        assert [str(d) for d in mm.validate(model)] == expected


def test_graph_environment_rejects_explicit_positions():
    model = parse_model(
        """
model t {
  environment graph from edges {
    node a 0 0
    node b 10 0
    edge a b 10
  }
  agent A { create fixed 2 at (1, 1) }
}
"""
    )
    report = mm.validate(model)
    assert any("require a grid or cartesian environment" in d.message for d in report)


GRID = "environment grid width 5 height 5"
GRAPH = "environment graph from edges {\n    node a 0 0\n    node b 10 0\n    edge a b 10\n  }"
OSM = 'environment graph from osm "net.osm"'
SIGNAL_PLAN = "  plan p { phase x green s0 duration 3 }\n"
LEARN = "    capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans p"
SIR_CLAUSES = "    transmission contact probability 0.5\n    duration I deterministic 3\n"
CUSTOM_CLAUSES = (
    "    states S I R\n    initial S\n    transmission contact probability 0.5 to I\n    transition I R deterministic 3\n"
)


def _model(env: str, body: str) -> str:
    return f"model t {{\n  {env}\n{body}}}\n"


def _signal(*capabilities: str) -> str:
    caps = "".join(f"{c}\n" for c in capabilities)
    return _model(GRAPH, f"  agent S {{\n    create fixed 1 random\n{caps}  }}\n{SIGNAL_PLAN}")


def _disease(kind: str, clauses: str, extra: str = "") -> str:
    return _model(
        GRID,
        "  agent A {\n    create fixed 1 random\n    capability disease d\n  }\n"
        f"  disease d model {kind} {{\n{clauses}  }}\n{extra}",
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        (_model(GRID, '  agent A { create gis "" }\n'), [("agent:A", "file path must not be empty")]),
        (
            _model(OSM, '  entity W { create osm "net.osm" }\n'),
            [("entity:W", "OSM-based creation applies to agent types only")],
        ),
        (
            _model(GRID, '  agent A { create osm "net.osm" }\n'),
            [("agent:A", "OSM-based creation requires a graph environment loaded from OSM")],
        ),
        (
            _model(OSM, '  agent A { create osm "other.osm" }\n'),
            [("agent:A", "OSM-based creation must reference the environment's OSM file")],
        ),
        (
            _model(GRID, "  entity W { create edges { node a 0 0 } }\n"),
            [("entity:W", "inline edge lists describe environments, not populations")],
        ),
        (_model(GRID, '  agent A { create fixed 1 at ("a", 1) }\n'), [("agent:A", "position 0 must be numeric")]),
        (
            _model(GRID, '  agent A {\n    create fixed 1 random\n    capability external "" warmup\n  }\n'),
            [("agent:A.capability[0]", "external capability requires a library path")],
        ),
        (
            _signal(
                "    capability flow_control streams auto", "    capability flow_control streams auto",
                "    capability state_machine p",
            ),
            [("agent:S", "at most one flow_control capability per agent type")],
        ),
        (
            _signal("    capability flow_control streams auto", LEARN, LEARN),
            [("agent:S", "at most one learning capability per agent type")],
        ),
        (
            _signal("    capability flow_control streams auto", "    capability state_machine p", LEARN),
            [("agent:S", "an agent type cannot both run a fixed plan and learn plan selection")],
        ),
        (
            _signal("    capability flow_control stream s0 edge a b stream s0 edge b a", "    capability state_machine p"),
            [
                ("agent:S.capability[0]", "duplicate stream id 's0'"),
                ("agent:S.capability[0]", "stream 's0' repeats the edge of stream 's0'"),
            ],
        ),
        (
            _signal("    capability flow_control stream s0 edge a b stream s1 edge b a", "    capability state_machine p"),
            [("agent:S.capability[0]", "stream 's1' repeats the edge of stream 's0'")],
        ),
        (
            _signal("    capability flow_control stream s0 edge a b capacity 0", "    capability state_machine p"),
            [("agent:S.capability[0]", "stream 's0' capacity must be positive")],
        ),
        (
            _signal("    capability flow_control streams auto", LEARN + " p"),
            [("agent:S.capability[1]", "duplicate plan names in action list")],
        ),
        (
            _disease("SIR", SIR_CLAUSES.replace("0.5", "0.5 sources Well")),
            [("disease:d.transmission", "unknown entity type 'Well'")],
        ),
        (
            _disease("SIR", SIR_CLAUSES + "    passive duration deterministic 2\n"),
            [("disease:d", "passive immunity duration is only valid for PSIR, not SIR")],
        ),
        (
            _disease("SIR", SIR_CLAUSES + "    states S I R\n"),
            [("disease:d", "custom states and transitions are not valid in a SIR model")],
        ),
        (
            _disease("custom", CUSTOM_CLAUSES.replace("states S I R", "states S I R I")),
            [("disease:d", "duplicate compartment names")],
        ),
        (
            _disease("custom", CUSTOM_CLAUSES.replace("initial S", "initial Z")),
            [
                ("disease:d", "compartment 'I' is unreachable from 'Z'"),
                ("disease:d", "compartment 'R' is unreachable from 'Z'"),
                ("disease:d", "compartment 'S' is unreachable from 'Z'"),
                ("disease:d", "initial compartment 'Z' is not declared"),
            ],
        ),
        (
            _disease("custom", CUSTOM_CLAUSES.replace(" to I", "")),
            [
                ("disease:d", "compartment 'I' is unreachable from 'S'"),
                ("disease:d", "compartment 'R' is unreachable from 'S'"),
                ("disease:d.transmission", "custom disease models must declare a transmission target"),
            ],
        ),
        (
            _disease("custom", CUSTOM_CLAUSES + "    duration I deterministic 3\n"),
            [("disease:d", "custom models declare transitions, not per-compartment durations")],
        ),
        (
            _disease("SIR", SIR_CLAUSES.replace("0.5", "0.5 to E")),
            [("disease:d.transmission", "transition violates compartmental model: SIR infections enter I")],
        ),
        (
            _disease("SIR", SIR_CLAUSES, "  introduce d deterministic 1 arbitrary periodic 0\n"),
            [("introduce[0]", "periodic interval must be at least 1")],
        ),
        (
            _model(GRID, '  agent A { create fixed 1 random }\n  output o every 1 to "" {\n    series n count(A)\n  }\n'),
            [("output:o", "output path must not be empty")],
        ),
        (_model(GRAPH, "  plan p { }\n"), [("plan:p", "plan declares no phases")]),
        (
            _model(
                GRID,
                "  agent A {\n    create fixed 1 random\n    capability state_machine m\n    capability state_machine m\n  }\n"
                "  machine m {\n    initial a\n    state a\n  }\n",
            ),
            [("agent:A.capability[1]", "state machine 'm' attached more than once")],
        ),
        (
            _model(
                GRAPH,
                "  agent S {\n    create fixed 1 random\n    capability flow_control streams auto\n"
                "    capability state_machine p\n    capability state_machine q\n  }\n"
                f"{SIGNAL_PLAN}  plan q {{ phase y green s0 duration 2 }}\n",
            ),
            [("agent:S", "at most one plan per agent type")],
        ),
        (
            _disease("SIR", SIR_CLAUSES, "  machine D {\n    initial a\n    state a\n  }\n"),
            [("machine:D", "duplicate machine name 'D'")],
        ),
    ],
    ids=[
        "gis with an empty path", "osm on an entity", "osm in a grid", "osm with another file",
        "edges on an entity", "non-numeric position", "empty external library", "two flow_control",
        "two qlearning", "fixed plan plus learning", "duplicate stream id", "two streams on one edge", "capacity 0", "plans p p",
        "unknown sources type", "passive in SIR", "states in SIR", "duplicate custom compartments",
        "undeclared initial", "custom without target", "custom with duration", "SIR to E", "periodic 0",
        "empty output path", "plan without phases", "machine twice", "two plans", "disease and machine one name",
    ],
)
def test_text_reachable_diagnostic(text, expected):
    """Mistakes a modeller can write in ``.abms`` text, each reported at its path."""
    assert [(d.path, d.message) for d in mm.validate(parse_model(text)).errors()] == expected


@pytest.mark.parametrize("decl, path", [("agent A", "agent:A"), ("entity W", "entity:W")])
def test_a_creation_count_above_the_bound_fails_validation(decl, path):
    """A model that validates must build: ``create fixed N`` with N above
    1,000,000 is rejected at its type, where it used to validate and then
    exhaust memory while the world was built."""
    for count, expected in (
        (1_000_000, []),
        (1_000_001, [(path, "fixed creation counts must total at most 1000000")]),
        (100_000_000_000, [(path, "fixed creation counts must total at most 1000000")]),
    ):
        text = _model(GRID, f"  {decl} {{ create fixed {count} random }}\n")
        assert [(d.path, d.message) for d in mm.validate(parse_model(text)).errors()] == expected


@pytest.mark.parametrize(
    "counts, expected",
    [
        ((400_000, 400_000, 200_000), []),
        ((400_000, 400_000, 200_001), [("agent:B", "fixed creation counts must total at most 1000000")]),
        ((400_000, 400_000, 300_000, 5), [("agent:B", "fixed creation counts must total at most 1000000")]),
    ],
    ids=["at the bound", "past it", "reported once"],
)
def test_creation_counts_are_bounded_in_total(counts, expected):
    """Types that each stay within the bound may not exceed it between them:
    the first type, in creation order, whose count takes the total past it
    is reported, and no later one."""
    names = ("agent A", "entity W", "agent B", "agent C")
    text = _model(GRID, "".join(f"  {name} {{ create fixed {count} random }}\n" for name, count in zip(names, counts)))
    assert [(d.path, d.message) for d in mm.validate(parse_model(text)).errors()] == expected
