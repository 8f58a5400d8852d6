import bisect
import dataclasses
import json
import math
import operator
import random
import re
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abms import engine
from abms import expr as ex
from abms import metamodel as mm
from abms import statemachine as sm
from abms import traffic as tf
from abms.cli import main
from abms.dsl import parse_model
from abms.errors import AbmsError, EngineError, EvalError, FileFormatError, InvalidModelError
from abms.ingest import Graph, load_gis_points, load_osm_graph

from digest_corpus import INLINE_GRAPH_DISEASE, INLINE_MACHINE_THEN_PLAN, PINNED, corpus
from digest_corpus import SEED as CORPUS_SEED
from validate_corpus import cases as validate_cases
import vehicle_oracle
import walk_oracle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def auto_red(world, node, phase):
    """The from-nodes a phase holds red at a node with auto streams: stream
    ``s<i>`` is the node's i-th neighbour in id order."""
    return {frm for i, frm in enumerate(world.graph.adjacency[node]) if f"s{i}" not in phase.green}


def red_of(world, ctrl) -> set[str]:
    """The from-nodes ``ctrl`` holds red, each mapped to the queue at its node from there."""
    assert all(queue is world.edge_queues[ctrl.node, frm] for frm, queue in ctrl.red.items())
    return set(ctrl.red)


MINI_OSM = """<?xml version="1.0"?>
<osm>
  <node id="1" lat="0.0" lon="0.0"/>
  <node id="2" lat="0.0" lon="0.001"/>
  <node id="3" lat="0.0" lon="0.002"/>
  <way id="9"><nd ref="1"/><nd ref="2"/><nd ref="3"/><tag k="highway" v="residential"/></way>
</osm>
"""

CROSS_OSM = """<?xml version="1.0"?>
<osm>
  <node id="1" lat="0.001" lon="0.001"/>
  <node id="2" lat="-0.001" lon="0.001"/>
  <node id="3" lat="0.0" lon="0.0"/>
  <node id="4" lat="0.0" lon="0.001"/>
  <way id="10"><nd ref="1"/><nd ref="4"/><nd ref="2"/><tag k="highway" v="primary"/></way>
  <way id="11"><nd ref="3"/><nd ref="4"/><tag k="highway" v="primary"/></way>
</osm>
"""


def grid_model(body: str, width=10, height=10, wrap=True) -> mm.Model:
    wrap_kw = " wrap" if wrap else ""
    return parse_model(
        f"model t {{\n  environment grid width {width} height {height}{wrap_kw}\n{body}\n}}\n"
    )


_BY_ID = operator.attrgetter("id")
GRAPH_CORPUS = [case for case in corpus() if isinstance(case[1].environment.topology, mm.GraphTopology)]


def cell_of(world, position):
    """The cell of ``position``, worked out apart from the engine: the
    position itself on a grid, its floor in a cartesian space, None on a graph."""
    if world.graph is not None:
        return None
    return position if world.on_grid else (math.floor(position[0]), math.floor(position[1]))


class Scanner:
    """A scan's stand-in at ``position``: no source is its scanner."""

    def __init__(self, world, position):
        self.position, self.cell = position, cell_of(world, position)


def cfg(tmp_path, **kw):
    base = dict(seed=42, max_ticks=10, out_dir=tmp_path, base_dir=tmp_path)
    base.update(kw)
    return engine.RunConfig(**base)


class TestNameResolution:
    """Agents, entities and the world resolve names themselves, with the
    run-time messages the validator otherwise reports first."""

    MODEL = (
        "  agent A {\n    create fixed 2 random\n    attr x integer = 2\n    capability state_machine m\n  }\n"
        "  entity W {\n    create fixed 1 random\n    attr d real = 1.5\n  }\n"
        "  machine m {\n    initial S\n    state S\n    state T\n    transition S T deterministic 2\n  }"
    )

    @pytest.mark.parametrize(
        "target, expr, expected",
        [
            ("agent", ex.AttrRef(None, "x"), 2),
            ("agent", ex.AttrRef("A", "x"), 2),
            ("agent", ex.AttrRef("A", "tick"), 0),
            ("agent", ex.AttrRef("W", "d"), "'W.d' does not resolve on A"),
            ("agent", ex.AttrRef(None, "stopped"), "unknown attribute 'stopped'"),
            ("agent", ex.StateTest("m", "S"), True),
            ("agent", ex.StateTest("q", "S"), "no state machine or disease named 'q' on this agent"),
            ("agent", ex.Aggregate("count", "W", None, None), 1),
            ("entity", ex.AttrRef(None, "d"), 1.5),
            ("entity", ex.AttrRef(None, "tick"), 0),
            ("entity", ex.AttrRef(None, "x"), "unknown attribute 'x'"),
            ("entity", ex.StateTest("m", "S"), "no state machine or disease named 'm' in this context"),
            ("world", ex.AttrRef(None, "tick"), 0),
            ("world", ex.AttrRef("A", "tick"), "unknown attribute 'tick'"),
            ("world", ex.Aggregate("count", "A", None, None), 2),
            ("world", ex.Aggregate("count", "Z", None, None), "unknown population 'Z'"),
        ],
    )
    def test_resolution_and_messages(self, tmp_path, target, expr, expected):
        world = engine.build_world(grid_model(self.MODEL), cfg(tmp_path))
        context = {"agent": world.agents[0], "entity": world.entities[2], "world": world}[target]
        if isinstance(expected, str):
            with pytest.raises(EvalError) as err:
                ex.evaluate(expr, context)
            assert err.value.message == expected
        else:
            assert ex.evaluate(expr, context) == expected


class TestBuildWorld:
    def test_fixed_count_random_on_grid(self, tmp_path):
        model = parse_model(
            "model t {\n  environment grid width 50 height 50\n"
            "  agent A { create fixed 30 random }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        assert len(world.agents) == 30
        for agent in world.agents.values():
            x, y = agent.position
            assert 0 <= x < 50 and 0 <= y < 50

    def test_gis_points_fixture_places_each_point(self, tmp_path):
        model = parse_model(
            'model t {\n  environment grid width 25 height 25\n'
            '  agent A { create gis "natives.points" }\n}\n'
        )
        world = engine.build_world(model, cfg(tmp_path, base_dir=FIXTURES))
        points = load_gis_points(FIXTURES / "natives.points")
        assert len(world.agents) == len(points) == 12
        got = sorted(a.position for a in world.agents.values())
        want = sorted((int(round(p.x)), int(round(p.y))) for p in points)
        assert got == want

    def test_osm_intersections_get_one_controller(self, tmp_path):
        (tmp_path / "cross.osm").write_text(CROSS_OSM)
        model = parse_model(
            'model t {\n  environment graph from osm "cross.osm"\n'
            '  agent C {\n    create osm "cross.osm"\n    capability flow_control streams auto\n'
            '    capability state_machine P\n  }\n'
            "  plan P {\n    phase p green s0 s1 s2 duration 3\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        assert len(world.graph.nodes) == 4
        assert len(world.agents) == 1
        controller = next(iter(world.agents.values()))
        assert controller.controller is not None
        assert controller.controller.node == "4"
        assert controller.controller.streams == {"1": "s0", "2": "s1", "3": "s2"}

    def test_gis_point_outside_bounds_is_an_error(self, tmp_path):
        (tmp_path / "far.points").write_text("99.0,99.0\n")
        model = parse_model(
            'model t {\n  environment grid width 10 height 10\n'
            '  agent A { create gis "far.points" }\n}\n'
        )
        with pytest.raises(EngineError, match="outside"):
            engine.build_world(model, cfg(tmp_path))

    def test_missing_point_file(self, tmp_path):
        model = parse_model(
            'model t {\n  environment grid width 10 height 10\n'
            '  agent A { create gis "nope.points" }\n}\n'
        )
        with pytest.raises(FileFormatError, match="not found"):
            engine.build_world(model, cfg(tmp_path))

    def test_external_capability_requires_library_file(self, tmp_path):
        model = parse_model(
            'model t {\n  environment grid width 5 height 5\n'
            '  agent A {\n    create fixed 1 random\n'
            '    capability external "helper.nls" boost\n  }\n}\n'
        )
        with pytest.raises(EngineError, match="helper.nls"):
            engine.build_world(model, cfg(tmp_path))
        (tmp_path / "helper.nls").write_text("; helper\n")
        world = engine.build_world(model, cfg(tmp_path))
        assert len(world.agents) == 1

    def test_placement_positions_cycle(self, tmp_path):
        model = grid_model("  agent A { create fixed 5 at (1, 2) (3, 4) }")
        world = engine.build_world(model, cfg(tmp_path))
        positions = [a.position for a in world.agents.values()]
        assert positions == [(1, 2), (3, 4), (1, 2), (3, 4), (1, 2)]

    def test_attribute_defaults_and_gis_overrides(self, tmp_path):
        (tmp_path / "p.points").write_text("1.0,1.0,age=30\n2.0,2.0\n")
        model = parse_model(
            'model t {\n  environment grid width 10 height 10\n'
            '  agent A {\n    create gis "p.points"\n    attr age integer = 7\n'
            "    attr older boolean = age > 10\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        by_pos = {a.position: a for a in world.agents.values()}
        assert by_pos[(1, 1)].attrs == {"age": 30, "older": True}
        assert by_pos[(2, 2)].attrs == {"age": 7, "older": False}

    def test_text_defaults(self, tmp_path):
        model = parse_model(
            'model t {\n  environment grid width 10 height 10\n'
            '  agent A {\n    create fixed 2 random\n    attr name text = "ann"\n'
            "    attr alias text = name\n    attr tag identifier\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        assert [a.attrs for a in world.agents.values()] == [{"name": "ann", "alias": "ann", "tag": ""}] * 2

    @pytest.mark.parametrize("line", ["nan,2.0", "inf,2.0"])
    def test_gis_point_must_be_finite(self, tmp_path, line):
        (tmp_path / "bad.points").write_text(f"1.0,1.0\n{line}\n")
        model = parse_model(
            'model t {\n  environment grid width 10 height 10\n'
            '  agent A { create gis "bad.points" }\n}\n'
        )
        with pytest.raises(FileFormatError, match="line 2: coordinates must be finite"):
            engine.build_world(model, cfg(tmp_path))

    def test_gis_real_override_must_be_finite(self, tmp_path):
        (tmp_path / "p.points").write_text("1.0,1.0,p=0.5\n2.0,2.0,p=nan\n")
        model = parse_model(
            'model t {\n  environment grid width 10 height 10\n'
            '  agent A {\n    create gis "p.points"\n    attr p real = 0.1\n  }\n}\n'
        )
        with pytest.raises(EngineError, match="point file line 2.*'nan' is not a finite real"):
            engine.build_world(model, cfg(tmp_path))

    def test_osm_node_must_be_finite(self, tmp_path):
        (tmp_path / "m.osm").write_text(MINI_OSM.replace('<node id="2" lat="0.0"', '<node id="2" lat="nan"'))
        model = parse_model(
            'model t {\n  environment graph from osm "m.osm"\n'
            '  agent Car {\n    create fixed 3 random\n    capability mobility random_walk step 10\n  }\n}\n'
        )
        with pytest.raises(FileFormatError, match="node 2: lat/lon must be finite"):
            engine.build_world(model, cfg(tmp_path))

    def test_osm_file_without_nodes_cannot_place_agents(self, tmp_path):
        (tmp_path / "e.osm").write_text('<?xml version="1.0"?>\n<osm>\n</osm>\n')
        model = parse_model(
            'model t {\n  environment graph from osm "e.osm"\n'
            '  agent Car {\n    create fixed 3 random\n    capability mobility random_walk step 10\n  }\n}\n'
        )
        assert mm.validate(model).ok()
        with pytest.raises(EngineError, match="^tick 0: agent:Car: cannot place agents on an empty graph$"):
            engine.build_world(model, cfg(tmp_path))

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("2.0,2.0,color=red", "point file sets unknown attribute 'color'"),
            ("2.0,2.0,age=old", "cannot read 'old' as integer"),
            ("2.0,2.0,p=inf", "'inf' is not a finite real"),
            ("2.0,2.0,flag=maybe", "cannot read 'maybe' as boolean"),
        ],
        ids=["undeclared attribute", "unreadable value", "non-finite real", "unreadable boolean"],
    )
    def test_point_file_attribute_error_names_the_tick_and_the_line(self, tmp_path, line, expected):
        (tmp_path / "p.points").write_text(f"1.0,1.0\n{line}\n")
        model = grid_model(
            '  agent A {\n    create gis "p.points"\n    attr age integer\n    attr p real = 0.1\n    attr flag boolean\n  }'
        )
        assert mm.validate(model).ok()
        with pytest.raises(EngineError, match=rf"^tick 0: agent:A \(point file line 2\): {re.escape(expected)}$"):
            engine.build_world(model, cfg(tmp_path))

    def test_missing_external_library_names_the_tick(self, tmp_path):
        model = grid_model('  agent A {\n    create fixed 1 random\n    capability external "helper.nls" boost\n  }')
        assert mm.validate(model).ok()
        with pytest.raises(
            EngineError, match=r"^tick 0: agent:A: external capability library '.*helper\.nls' does not exist$"
        ):
            engine.build_world(model, cfg(tmp_path))

    def test_aperiodic_introduction_applies_at_build(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 10 random\n    capability disease d\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 0\n"
            "    duration I deterministic 5\n  }\n"
            "  introduce d deterministic 4 arbitrary aperiodic"
        )
        world = engine.build_world(model, cfg(tmp_path))
        infected = [a for a in world.agents.values() if a.diseases["d"].current == "I"]
        assert len(infected) == 4
        assert world.ever_infected["d"] == 4


class TestLoaders:
    def test_two_points(self, tmp_path):
        (tmp_path / "p.points").write_text("1.0,2.0\n3.5,4.5\n")
        points = load_gis_points(tmp_path / "p.points")
        assert [(p.x, p.y) for p in points] == [(1.0, 2.0), (3.5, 4.5)]

    def test_empty_file(self, tmp_path):
        (tmp_path / "p.points").write_text("")
        assert load_gis_points(tmp_path / "p.points") == []

    def test_malformed_line_reports_position(self, tmp_path):
        (tmp_path / "p.points").write_text("a,b\n")
        with pytest.raises(FileFormatError, match="line 1: expected number"):
            load_gis_points(tmp_path / "p.points")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.0,2.0\n3.0\n", "line 2: expected x,y"),
            ("1.0,2.0,age=3,tall\n", "line 1: expected key=value, got 'tall'"),
        ],
    )
    def test_malformed_point_line_is_named(self, tmp_path, text, expected):
        (tmp_path / "p.points").write_text(text)
        with pytest.raises(FileFormatError, match=f"p.points: {expected}$"):
            load_gis_points(tmp_path / "p.points")

    def test_point_file_that_is_not_utf8_names_the_line(self, tmp_path):
        (tmp_path / "p.points").write_bytes(b"1.0,2.0\n3.0,4.0,name=caf\xe9\n")
        with pytest.raises(FileFormatError, match="p.points: line 2: not UTF-8 text$"):
            load_gis_points(tmp_path / "p.points")

    @pytest.mark.parametrize("load, name", [(load_gis_points, "p.points"), (load_osm_graph, "m.osm")])
    def test_input_path_that_is_a_directory(self, tmp_path, load, name):
        (tmp_path / name).mkdir()
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(tmp_path / name))}: "):
            load(tmp_path / name)

    def test_osm_three_nodes_one_way(self, tmp_path):
        (tmp_path / "m.osm").write_text(MINI_OSM)
        graph = load_osm_graph(tmp_path / "m.osm")
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 2
        # consecutive nodes are 0.001 degrees of longitude apart at the equator
        assert graph.edge_length("1", "2") == pytest.approx(111.19, rel=0.01)

    def test_osm_graph_is_complete_when_loaded(self, tmp_path):
        (tmp_path / "m.osm").write_text(CROSS_OSM)
        graph = load_osm_graph(tmp_path / "m.osm")
        assert graph.sorted_nodes == ["1", "2", "3", "4"]
        assert graph.adjacency == {"1": ["4"], "2": ["4"], "3": ["4"], "4": ["1", "2", "3"]}

    def test_osm_unknown_node_reference(self, tmp_path):
        (tmp_path / "m.osm").write_text(MINI_OSM.replace('<nd ref="3"/>', '<nd ref="99"/>'))
        with pytest.raises(FileFormatError, match="99"):
            load_osm_graph(tmp_path / "m.osm")

    def test_osm_non_highway_ways_ignored(self, tmp_path):
        (tmp_path / "m.osm").write_text(MINI_OSM.replace('k="highway"', 'k="waterway"'))
        graph = load_osm_graph(tmp_path / "m.osm")
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 0

    @pytest.mark.parametrize(
        "node, expected",
        [
            ('<node lat="0.0" lon="0.001"/>', "node element 2: missing id"),
            ('<node id="2" lon="0.001"/>', "node 2: missing lat"),
            ("<node/>", "node element 2: missing id/lat/lon"),
            ('<node id="2" lat="north" lon="0.001"/>', "node 2: lat/lon must be numbers"),
        ],
    )
    def test_osm_malformed_node_is_named(self, tmp_path, node, expected):
        (tmp_path / "m.osm").write_text(MINI_OSM.replace('<node id="2" lat="0.0" lon="0.001"/>', node))
        with pytest.raises(FileFormatError, match=f"m.osm: {expected}$"):
            load_osm_graph(tmp_path / "m.osm")

    def test_osm_file_not_found(self, tmp_path):
        with pytest.raises(FileFormatError, match="nope.osm: file not found$"):
            load_osm_graph(tmp_path / "nope.osm")

    def test_osm_malformed_xml(self, tmp_path):
        (tmp_path / "m.osm").write_text("<osm><node id=")
        with pytest.raises(FileFormatError, match="malformed XML"):
            load_osm_graph(tmp_path / "m.osm")


class TestNeighbors:
    def build(self, tmp_path, positions, wrap=True, width=10, height=10):
        spots = " ".join(f"({x}, {y})" for x, y in positions)
        model = grid_model(
            f"  agent A {{ create fixed {len(positions)} at {spots} }}",
            width=width,
            height=height,
            wrap=wrap,
        )
        return engine.build_world(model, cfg(tmp_path))

    @staticmethod
    def near(world, scanner, radius):
        sources = engine.SourceIndex(world, list(world.agents.values()), engine.BY_CELL)
        return [item.id for item in engine._near(world, sources, scanner, radius)]

    @staticmethod
    def scan(world, index, position, radius, scanner):
        """The ids ``_near`` finds when ``scanner`` scans from ``position``:
        it stands there, in that cell, for the call, while the index keeps
        it filed where it was (a scan skips its scanner wherever it is filed)."""
        kept = scanner.position, scanner.cell
        scanner.position, scanner.cell = position, cell_of(world, position)
        try:
            return [a.id for a in engine._near(world, index, scanner, radius)]
        finally:
            scanner.position, scanner.cell = kept

    def test_torus_wraps_distance(self, tmp_path):
        world = self.build(tmp_path, [(0, 0), (9, 0)])
        ids = sorted(world.agents)
        assert self.near(world, world.agents[ids[0]], 1) == [ids[1]]

    def test_no_wrap_distance(self, tmp_path):
        world = self.build(tmp_path, [(0, 0), (9, 0)], wrap=False)
        ids = sorted(world.agents)
        assert self.near(world, world.agents[ids[0]], 1) == []

    def test_radius_zero_means_contact(self, tmp_path):
        world = self.build(tmp_path, [(3, 3), (3, 3), (3, 4)])
        ids = sorted(world.agents)
        got = self.near(world, world.agents[ids[0]], 0)
        assert got == [ids[1]]

    def test_empty_world(self, tmp_path):
        world = self.build(tmp_path, [(1, 1)])
        assert self.near(world, Scanner(world, (5, 5)), 2) == []

    def test_ascending_id_order(self, tmp_path):
        world = self.build(tmp_path, [(5, 5), (5, 6), (5, 4), (6, 5)])
        ids = sorted(world.agents)
        got = self.near(world, world.agents[ids[0]], 1.5)
        assert got == sorted(got)
        assert got == ids[1:]

    SPACES = {
        "wrapped grid": "grid width 12 height 9 wrap",
        "bounded grid": "grid width 12 height 9",
        "cartesian": "cartesian -3..9 0..9",
        "5 x 12 wrapped grid": "grid width 5 height 12 wrap",  # at radius 3 one axis wraps whole
        "3 x 3 wrapped grid": "grid width 3 height 3 wrap",  # at radius 2 each axis wraps whole
    }
    # Each radius on the lattice distance of a cell offset and the float just below it, and two wider ones.
    EDGE_RADII = [r for on in (1.0, 1.4142135623730951, 2.0, 2.23606797749979) for r in (on, math.nextafter(on, 0))] + [3, 40.5]

    @pytest.mark.parametrize("space", list(SPACES))
    @pytest.mark.parametrize("count", [4, 300], ids=["fewer sources than cells", "more sources than cells"])
    def test_cell_scan_and_list_scan_agree(self, tmp_path, space, count):
        model = parse_model(f"model t {{\n  environment {self.SPACES[space]}\n  agent A {{ create fixed {count} random }}\n}}\n")
        world = engine.build_world(model, cfg(tmp_path))
        items = list(world.agents.values())
        by_cell, listed = engine.SourceIndex(world, items, engine.BY_CELL), engine.SourceIndex(world, items, None)
        rng = random.Random(count)
        cases = []
        for _ in range(300):
            if space == "cartesian":
                position = (rng.uniform(-3, 9), rng.uniform(0, 9))
            else:
                position = (rng.randrange(world.topology.width), rng.randrange(world.topology.height))
            cases.append((position, rng.choice([0, 0.5, 1, 1.5, 2, 2.5, 4, 7]), rng.choice(items)))
        # Every cell of a grid, corners and edges included, or every source's point in a cartesian space.
        if space == "cartesian":
            spots = [item.position for item in items]
        else:
            spots = [(x, y) for x in range(world.topology.width) for y in range(world.topology.height)]
        cases += [(spot, radius, rng.choice(items)) for spot in spots for radius in self.EDGE_RADII]
        exposed = {}  # per radius below the stencil's bound, the sources filed by exposure
        found = 0
        for position, radius, exclude in cases:
            expected = [a.id for a in items if a is not exclude and world.distance(position, a.position) <= radius]
            assert self.scan(world, by_cell, position, radius, exclude) == expected
            assert self.scan(world, listed, position, radius, exclude) == expected
            if radius not in exposed and (n := engine._prefix(world, radius)) is not None:
                exposed[radius] = engine.SourceIndex(world, items, world.stencil[0][:n])
            if radius in exposed:
                assert self.scan(world, exposed[radius], position, radius, exclude) == expected
            found += len(expected)
        assert found > 0 and len(exposed) > 5

    @staticmethod
    def stencil_world(tmp_path, environment, count):
        model = parse_model(f"model t {{\n  environment {environment}\n  agent A {{ create fixed {count} random }}\n}}\n")
        world = engine.build_world(model, cfg(tmp_path))
        return world, list(world.agents.values())

    @pytest.mark.parametrize(
        "environment, size",
        [("grid width 12 height 9 wrap", 12 * 9), ("grid width 12 height 9", 23 * 17), ("cartesian -3..9 0..9", 25 * 19)],
    )
    def test_stencil_grows_to_cover_the_space_sorted_by_reach(self, tmp_path, environment, size):
        world, _ = self.stencil_world(tmp_path, environment, 1)
        engine._stencil(world, 2)
        offsets, reaches, bound = world.stencil
        if world.on_grid:  # the 5 x 5 square, 13 of its cells within radius 2
            assert (len(offsets), bound, bisect.bisect_right(reaches, 2)) == (25, 3, 13)
        else:  # the 7 x 7 square, 37 of its cells can hold a point within 2 of one in the centre cell, 9 touch it
            assert (len(offsets), bound, bisect.bisect_right(reaches, 2), bisect.bisect_right(reaches, 0)) == (49, 3, 37, 9)
        engine._stencil(world, bound)  # at least doubles the reach
        assert (len(world.stencil[0]), world.stencil[2]) == ((9 * 9, 5) if world.on_grid else (13 * 13, 6))
        engine._stencil(world, 40.5)  # the whole space
        offsets, reaches, bound = world.stencil
        assert len(set(offsets)) == len(offsets) == len(reaches) == size and bound == math.inf
        assert reaches == sorted(reaches) and reaches[0] == 0

    @pytest.mark.parametrize("environment", ["grid width 300 height 300 wrap", "cartesian 0..300 0..300"])
    def test_reach_limit_bounds_the_stencil(self, tmp_path, environment):
        world, items = self.stencil_world(tmp_path, environment, 50)
        engine._stencil(world, 1000)
        stencil = offsets, reaches, bound = world.stencil
        reach = engine.STENCIL_MAX_REACH
        assert len(offsets) == (2 * reach + 1) ** 2 and bound == (reach + 1 if world.on_grid else reach)
        if world.on_grid:  # below the bound the stencil holds every offset of the torus that near
            span = range(-reach - 20, reach + 21)
            near = {(dx % 300, dy % 300) for dx in span for dy in span if world.distance((0, 0), (dx, dy)) < bound}
            assert {offset for offset, r in zip(offsets, reaches) if r < bound} == near
        by_cell = engine.SourceIndex(world, items, engine.BY_CELL)
        for radius in (bound, 100):  # beyond the stencil: the list is measured, and the stencil is kept
            expected = [a.id for a in items if world.distance((7, 7), a.position) <= radius]
            assert [a.id for a in engine._near(world, by_cell, Scanner(world, (7, 7)), radius)] == expected
            assert world.stencil is stencil

    @pytest.mark.parametrize("environment", ["grid width 12 height 9 wrap", "grid width 12 height 9"])
    def test_stencil_scan_on_a_grid_measures_nothing(self, tmp_path, environment):
        world, items = self.stencil_world(tmp_path, environment, 300)
        by_cell = engine.SourceIndex(world, items, engine.BY_CELL)
        engine._stencil(world, 2.5)  # built by measuring offsets
        measure = world.distance
        calls = 0

        def counting(a, b):
            nonlocal calls
            calls += 1
            return measure(a, b)

        world.distance = counting
        scanners = [Scanner(world, (x, y)) for x in range(12) for y in range(9)]
        found = sum(len(engine._near(world, by_cell, scanner, r)) for scanner in scanners for r in (1, 2, 2.5))
        assert found > 0
        assert calls == 0


class TestSourceIndex:
    """During phase 2 each transmitting disease's index holds exactly its
    sources, each once and in ascending id order.  On a grid or cartesian
    space an index by cell files each in the cell of its current position,
    and an index by exposure files each once in every cell within reach of
    that cell and in no other; on a graph it is a list."""

    @staticmethod
    def sources(world, name):
        disease = world.diseases[name]
        agents = [a for a in world.agents.values() if name in a.diseases and a.diseases[name].current in disease.infectious]
        entities = [e for e in world.entities.values() if e.type_name in disease.spec.transmission.sources]
        return sorted(agents + entities, key=lambda item: item.id)

    @staticmethod
    def within_reach(world, position, radius):
        """The cells that can hold a point within ``radius`` of a point in the
        cell of ``position``: on a grid those at most ``radius`` from it
        (toroidally, each once, on a wrapped grid); in a cartesian space those
        whose nearest points are that close."""
        cx, cy = cell_of(world, position)
        gap = 0 if world.on_grid else 1
        span = range(-math.floor(radius) - gap, math.floor(radius) + gap + 1)
        if world.wrap is not None:
            width, height = world.wrap
            cells = {((cx + dx) % width, (cy + dy) % height) for dx in span for dy in span}
            return {cell for cell in cells if world.distance((cx, cy), cell) <= radius}
        nearest = {(dx, dy): math.hypot(max(abs(dx) - gap, 0), max(abs(dy) - gap, 0)) for dx in span for dy in span}
        return {(cx + dx, cy + dy) for (dx, dy), reach in nearest.items() if reach <= radius}

    @classmethod
    def assert_indexed(cls, world):
        assert set(world.sources) == {n for n, d in world.diseases.items() if d.spec.transmission is not None}
        for name, index in world.sources.items():
            expected = cls.sources(world, name)
            assert len(index.items) == len(expected)
            assert all(got is item for got, item in zip(index.items, expected))
            if world.cell_span is None:
                assert index.cells is None
                continue
            filed = {}
            for cell, bucket in index.cells.items():
                for x in bucket:
                    filed.setdefault(id(x), []).append(cell)
            for item in expected:
                cells = filed.pop(id(item))
                if index.exposed:
                    assert len(cells) == len(set(cells))
                    assert set(cells) == cls.within_reach(world, item.position, world.diseases[name].radius)
                else:
                    assert cells == [cell_of(world, item.position)]
            assert not filed

    @staticmethod
    def assert_cells_kept(world):
        for item in (*world.agents.values(), *world.entities.values()):
            assert item.cell == cell_of(world, item.position), item

    @classmethod
    def run_checked(cls, monkeypatch, world, ticks):
        """Tick ``world``, checking the cell each instance keeps and the index
        before every disease step; returns the largest index seen and the
        ways they were filed."""
        largest, filings = 0, set()
        disease_step = engine._disease_step

        def checked_step(world, *args):
            nonlocal largest
            cls.assert_cells_kept(world)
            cls.assert_indexed(world)
            largest = max([largest, *(len(index.items) for index in world.sources.values())])
            filings.update("exposure" if index.exposed else "by cell" for index in world.sources.values())
            return disease_step(world, *args)

        monkeypatch.setattr(engine, "_disease_step", checked_step)
        for _ in range(ticks):
            engine.tick(world)
        return largest, filings

    def test_wrapped_grid(self, tmp_path, monkeypatch):
        model = grid_model(
            "  agent A {\n    create fixed 40 random\n    capability mobility random_walk step 2\n"
            "    capability disease d\n  }\n"
            "  entity W {\n    create fixed 3 at (0, 0) (6, 4) (4, 3)\n  }\n"
            "  disease d model SIR {\n    transmission proximity 1.5 probability 0.3 sources W\n"
            "    duration I deterministic 3\n    immunity duration deterministic 2\n  }\n"
            "  introduce d deterministic 4 arbitrary periodic 3",
            width=7, height=5,
        )
        world = engine.build_world(model, cfg(tmp_path))
        largest, filings = self.run_checked(monkeypatch, world, 8)
        assert largest > 25 and filings == {"exposure", "by cell"}  # more sources than cells in reach

    def test_cartesian_with_deaths(self, tmp_path, monkeypatch):
        model = parse_model(
            "model t {\n  environment cartesian 0..12 -3..9\n"
            "  agent A {\n    create fixed 120 random\n    capability mobility random_walk step 1.5\n"
            "    capability disease d\n  }\n"
            "  entity W {\n    create fixed 2 at (0, -3) (11.5, 8.5)\n  }\n"
            "  disease d model SIR {\n    transmission proximity 2 probability 0.6 sources W\n"
            "    duration I deterministic 20\n    mortality I rate 0.3 every_timeunit\n  }\n"
            "  introduce d deterministic 10 arbitrary aperiodic\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        largest, filings = self.run_checked(monkeypatch, world, 10)
        assert largest > 49 and filings == {"exposure", "by cell"}  # more sources than cells in reach
        assert world.dead["A"] > 0

    def test_cartesian_placements_keep_their_cell(self, tmp_path, monkeypatch):
        # Placed on the x_max and y_max bounds, at -0.0, in negative cells and
        # from a point file, then walked: each instance's cell stays the floor of its position.
        (tmp_path / "p.points").write_text("6,4\n-0.0,0.5\n-1.5,-0.5\n2.5,3.9\n")
        model = parse_model(
            "model t {\n  environment cartesian -2..6 -1..4\n"
            "  agent A {\n    create fixed 30 at (6, 3.7) (-0.0, 1) (6, 4) (-2, -1)\n"
            "    capability mobility random_walk step 1\n    capability disease d\n  }\n"
            '  agent B {\n    create gis "p.points"\n    capability mobility random_walk step 0.7\n'
            "    capability disease d\n  }\n"
            "  entity W {\n    create fixed 2 at (6, -1) (-0.0, 3.5)\n  }\n"
            "  disease d model SIR {\n    transmission proximity 1.5 probability 0.3 sources W\n"
            "    duration I deterministic 4\n  }\n"
            "  introduce d deterministic 3 arbitrary periodic 4\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        placed = {name: {tuple(map(repr, item.position)) for item in roster} for name, roster in world.by_type.items()}
        assert placed == {
            "A": {("6.0", "3.7"), ("-0.0", "1.0"), ("6.0", "4.0"), ("-2.0", "-1.0")},
            "B": {("6.0", "4.0"), ("-0.0", "0.5"), ("-1.5", "-0.5"), ("2.5", "3.9")},
            "W": {("6.0", "-1.0"), ("-0.0", "3.5")},
        }
        self.assert_cells_kept(world)
        start = {item.id: item.cell for item in world.agents.values()}
        largest, _ = self.run_checked(monkeypatch, world, 12)
        assert largest > 2 and any(agent.cell != start[aid] for aid, agent in world.agents.items())

    def test_graph_index_is_a_list(self, tmp_path, monkeypatch):
        world = engine.build_world(parse_model(INLINE_GRAPH_DISEASE), cfg(tmp_path))
        assert self.run_checked(monkeypatch, world, 10)[0] > 0
        assert world.dead

    # Per space: environment, interaction, the walking source's far and near
    # positions, the susceptible hosts' position and number, the stationary
    # sources' position, and how the index is filed.  The far position lies
    # outside the cells within reach of the hosts.  Filed by cell, there are
    # more sources than the cells a host's scan reads, so the scan goes by
    # cell; filed by exposure, it reads the hosts' own cell, and the 15 hosts
    # outweigh the 13 sources plus the walker's refile.  Either way the scan
    # finds the walker only where it was moved to.
    WALKS = {
        "wrapped grid across the seam": (
            "grid width 10 height 10 wrap", "contact", (0, 2), (8, 2), (8, 2), 15, (4, 7), "exposure"),
        "cartesian": ("cartesian 0..10 0..10", "proximity 0.5", (2.2, 5.5), (5.6, 5.5), (5.5, 5.5), 1, (8.5, 1.5), "by cell"),
        "wrapped grid by cell": ("grid width 10 height 10 wrap", "proximity 1", (0, 2), (9, 2), (8, 2), 1, (4, 7), "by cell"),
        "cartesian by exposure": (
            "cartesian 0..10 0..10", "proximity 0.5", (2.2, 5.5), (5.6, 5.5), (5.5, 5.5), 15, (8.5, 1.5), "exposure"),
    }

    @pytest.mark.parametrize("space", list(WALKS))
    @pytest.mark.parametrize("into_reach", [True, False], ids=["into reach", "out of reach"])
    def test_source_walks_before_a_higher_id_scan(self, tmp_path, monkeypatch, space, into_reach):
        env, interaction, far, near, at, hosts, rest, filing = self.WALKS[space]
        start, end = (far, near) if into_reach else (near, far)
        model = parse_model(
            f"model t {{\n  environment {env}\n"
            f"  agent Walker {{\n    create fixed 1 at {start}\n    capability mobility random_walk step 1\n"
            "    capability disease d\n  }\n"
            f"  agent Host {{\n    create fixed {hosts} at {at}\n    capability disease d\n  }}\n"
            f"  agent Still {{\n    create fixed 12 at {rest}\n    capability disease d\n  }}\n"
            f"  disease d model SIR {{\n    transmission {interaction} probability 1\n"
            "    duration I deterministic 100\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        (walker,), host, still = (world.by_type[name] for name in ("Walker", "Host", "Still"))
        for source in (walker, *still):
            sm.force_state(source.diseases["d"], "I")
        monkeypatch.setattr(engine, "mobility_step", lambda world, agent, step, rng: (end, cell_of(world, end)))
        engine.tick(world)
        assert walker.id < host[0].id and walker.position == end
        index = world.sources["d"]
        assert len(index.items) > 9 and index.exposed == (filing == "exposure")
        assert [h.diseases["d"].current for h in host] == ["I" if into_reach else "S"] * hosts

    # Per case: environment, transmission, agents, how many of them are
    # sources (the rest susceptible), whether they walk, and whether the
    # sources are filed by exposure: when the radius is a literal below the
    # stencil's bound and (sources + 2 * walking sources) * n is at most
    # susceptible * min(n, sources), for the n cells within the radius.
    SELECTION = {
        # 13 cells lie within 2 of a grid cell: 13 susceptible agents are enough, 12 are not.
        "literal radius": ("grid width 10 height 10 wrap", "proximity 2", 14, 1, False, True),
        "literal radius, prefix beyond the susceptibles": ("grid width 10 height 10 wrap", "proximity 2", 13, 1, False, False),
        # 5 cells lie within 1: as many sources as susceptible agents are enough, one more is not.
        "as many sources as susceptibles": ("grid width 10 height 10 wrap", "proximity 1", 40, 20, False, True),
        "sources beyond the susceptibles": ("grid width 10 height 10 wrap", "proximity 1", 40, 21, False, False),
        # 10 walking sources weigh 30: 30 susceptible agents are enough, 29 are not.
        "walking sources": ("grid width 10 height 10 wrap", "proximity 1", 40, 10, True, True),
        "walking sources beyond the susceptibles": ("grid width 10 height 10 wrap", "proximity 1", 39, 10, True, False),
        "contact": ("grid width 10 height 10", "contact", 2, 1, False, True),
        "computed radius": ("grid width 10 height 10 wrap", "proximity 1 + r", 40, 1, False, False),
        # A grid wider than the stencil's 127 cells bounds it at 64.
        "radius at the stencil's bound": ("grid width 300 height 300 wrap", "proximity 64", 40, 1, False, False),
    }

    @pytest.mark.parametrize("case", list(SELECTION))
    def test_exposure_is_chosen_from_the_model_and_its_census(self, tmp_path, case):
        environment, transmission, count, sources, walking, exposure = self.SELECTION[case]
        walk = "    capability mobility random_walk step 1\n" if walking else ""
        model = parse_model(
            f"model t {{\n  environment {environment}\n"
            f"  agent A {{\n    create fixed {count} random\n    attr r real = 1\n{walk}    capability disease d\n  }}\n"
            f"  disease d model SIR {{\n    transmission {transmission} probability 0\n"
            "    duration I deterministic 50\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        for agent in list(world.agents.values())[:sources]:
            sm.force_state(agent.diseases["d"], "I")
        engine.tick(world)
        index = world.sources["d"]
        assert len(index.items) == sources and index.exposed == exposure

    def test_a_stated_distance_is_read_not_computed(self, tmp_path):
        """A literal distance is the radius every scan reads: no tick calls
        its constant closure, and the scans still find their sources."""
        model = grid_model(
            "  agent A {\n    create fixed 40 random\n    capability mobility random_walk step 1\n"
            "    capability disease d\n  }\n"
            "  disease d model SIR {\n    transmission proximity 2 probability 0.3\n    duration I deterministic 5\n  }\n"
            "  introduce d deterministic 5 arbitrary aperiodic"
        )
        world = engine.build_world(model, cfg(tmp_path))
        calls, distance = [], world.diseases["d"].distance
        world.diseases["d"] = dataclasses.replace(
            world.diseases["d"], distance=lambda ctx: calls.append(ctx) or distance(ctx)
        )
        for _ in range(10):
            engine.tick(world)
        assert calls == [] and world.ever_infected["d"] > 5

    def test_a_stated_radius_resolves_its_scan_prefix_once_per_tick(self, tmp_path, monkeypatch):
        """By cell, the stencil's prefix within a literal radius is worked out
        once per tick, when the index is built, and stays the prefix of the
        stencil as a computed radius grows it during the scans."""
        model = grid_model(
            "  agent A {\n    create fixed 40 random\n    attr r real = 6\n"
            "    capability disease d\n    capability disease e\n  }\n"
            "  disease d model SIR {\n    transmission proximity 1 probability 0\n    duration I deterministic 50\n  }\n"
            "  disease e model SIR {\n    transmission proximity r probability 0\n    duration I deterministic 50\n  }",
            width=30, height=30,
        )
        world = engine.build_world(model, cfg(tmp_path))
        agents = list(world.agents.values())
        for agent in agents[:30]:  # more sources than susceptible agents: by cell, and the prefix is read
            sm.force_state(agent.diseases["d"], "I")
        for agent in agents[:2]:
            sm.force_state(agent.diseases["e"], "I")
        radii, prefix = [], engine._prefix
        monkeypatch.setattr(engine, "_prefix", lambda world, radius: radii.append(radius) or prefix(world, radius))
        for tick in range(1, 4):
            engine.tick(world)
            index = world.sources["d"]
            assert not index.exposed and len(index.items) == 30
            offsets, reaches, bound = world.stencil
            assert bound > 6 and index.scan == offsets[:bisect.bisect_right(reaches, 1)]
            assert radii.count(1) == tick and set(radii) == {1, 6}

    def test_a_source_that_dies_is_absent_from_the_next_index(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 30 random\n    capability mobility random_walk step 1\n"
            "    capability disease d\n  }\n"
            "  entity W {\n    create fixed 2 at (1, 1) (5, 5)\n  }\n"
            "  disease d model SIR {\n    transmission proximity 2 probability 0 sources W\n"
            "    duration I deterministic 50\n    mortality I rate 1 every_timeunit\n  }\n"
            "  introduce d deterministic 12 arbitrary aperiodic"
        )
        world = engine.build_world(model, cfg(tmp_path))
        engine.tick(world)
        dead = [item for item in world.sources["d"].items if item.id not in world.agents and item.id not in world.entities]
        assert len(dead) == 12
        engine.tick(world)
        index = world.sources["d"]
        assert [item.id for item in index.items] == sorted(world.entities)
        assert not [x for bucket in index.cells.values() for x in bucket if any(x is item for item in dead)]

    def test_a_susceptible_source_does_not_infect_itself(self, tmp_path):
        # The susceptible compartment may be declared infectious: the scanning
        # agent is then in its own disease's index, and its scan skips it.
        model = grid_model(
            "  agent A {\n    create fixed 1 at (3, 3)\n    capability disease d\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 1 infectious S I\n"
            "    duration I deterministic 5\n  }"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        (agent,) = world.agents.values()
        for _ in range(3):
            engine.tick(world)
        assert world.sources["d"].items == [agent] and agent.diseases["d"].current == "S"

    def test_an_agent_is_indexed_only_for_the_disease_it_is_infectious_in(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 4 at (1, 1) (2, 2) (3, 3) (4, 4)\n"
            "    capability disease d\n    capability disease e\n  }\n"
            "  disease d model SIR {\n    transmission proximity 2 probability 0\n    duration I deterministic 50\n  }\n"
            "  disease e model SEIR {\n    transmission contact probability 0\n"
            "    duration E deterministic 50\n    duration I deterministic 50\n  }"
        )
        world = engine.build_world(model, cfg(tmp_path))
        a, b, c, _ = world.agents.values()
        sm.force_state(a.diseases["d"], "I")
        sm.force_state(b.diseases["e"], "I")
        sm.force_state(c.diseases["e"], "E")  # infected, not infectious
        engine.tick(world)
        d, e = world.sources["d"], world.sources["e"]
        # d has 1 source and 3 susceptible agents, fewer than the 13 cells within 2, so it is filed by cell.
        assert d.items == [a] and not d.exposed and d.cells == {(1, 1): [a]}
        # e has 2 susceptible agents, and contact on a grid reaches 1 cell, so its sources are filed by exposure.
        assert e.items == [b] and e.exposed and e.cells == {(2, 2): [b]}


class TestDiseaseMoves:
    """A disease step decides in phase 2 and its new state is entered in
    phase 3, so every agent reads the compartments the tick started with."""

    def test_a_source_that_recovers_still_infects_a_higher_id_agent(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 2 at (3, 3)\n    capability disease d\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 1\n    duration I deterministic 1\n  }"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        source, host = world.agents.values()
        sm.force_state(source.diseases["d"], "I")
        engine.tick(world)
        assert source.id < host.id
        assert (source.diseases["d"].current, host.diseases["d"].current) == ("R", "I")
        assert world.ever_infected["d"] == 1

    def test_an_aggregate_in_a_condition_reads_the_start_of_the_tick(self, tmp_path):
        # The lowest-id agent recovers this tick; the condition, read later in
        # the tick by the scan of the highest-id agent, still counts no R.
        model = grid_model(
            "  agent A {\n    create fixed 3 at (1, 1) (5, 5) (5, 5)\n    capability disease d\n"
            "    attr r real = 0\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 1 condition count(A where d is R) == 0\n"
            "    duration I probabilistic rate r\n  }"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        recovering, source, host = world.agents.values()
        recovering.attrs["r"] = 1.0
        sm.force_state(recovering.diseases["d"], "I")
        sm.force_state(source.diseases["d"], "I")
        engine.tick(world)
        assert [a.diseases["d"].current for a in (recovering, source, host)] == ["R", "I", "I"]

    def test_a_per_tick_death_counts_before_an_abort_to_dead(self, tmp_path):
        # Disease e is attached first, so its abort is decided first; the
        # per-tick death of d is still the one recorded for the agent.
        model = grid_model(
            "  agent A {\n    create fixed 1 at (3, 3)\n    capability disease e\n    capability disease d\n  }\n"
            "  disease e model SIR {\n    transmission contact probability 0\n    duration I deterministic 1\n"
            "    mortality I rate 1 leaving_compartment\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 0\n    duration I deterministic 50\n"
            "    mortality I rate 1 every_timeunit\n  }"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        (agent,) = world.agents.values()
        assert list(agent.diseases) == ["e", "d"]
        sm.force_state(agent.diseases["e"], "I")
        sm.force_state(agent.diseases["d"], "I")
        engine.tick(world)
        assert not world.agents and world.dead == {"A": 1}
        assert world.deaths_by_disease == {"d": 1}
        assert agent.diseases["e"].current == sm.DEAD_STATE


class TestDeadMachines:
    """``Dead`` means something only for declared machines, which are not
    stepped while in it, and for diseases, whose carrier it removes."""

    def test_a_plan_phase_named_dead_is_an_ordinary_phase(self, tmp_path, capsys):
        (tmp_path / "m.abms").write_text(
            "model dead_phase {\n"
            "  environment graph from edges {\n"
            "    node a 0 0\n    node b 100 0\n    node c 200 0\n    node d 100 100\n"
            "    edge a b 100\n    edge b c 100\n    edge b d 100\n  }\n"
            "  agent Light {\n    create fixed 1 random\n"
            "    capability flow_control streams auto\n    capability state_machine p\n  }\n"
            "  plan p {\n    phase x green s0 duration 1\n    phase Dead green s1 duration 1\n  }\n"
            "}\n"
        )
        assert main(["run", str(tmp_path / "m.abms"), "--ticks", "5", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("dead_phase: 5 ticks")

    def test_a_plan_cycles_through_its_dead_phase(self, tmp_path):
        model = parse_model(
            "model t {\n  environment graph from edges {\n    node a 0 0\n    node b 1 0\n    node c 2 0\n"
            "    node d 1 1\n    edge a b 1\n    edge b c 1\n    edge b d 1\n  }\n"
            "  agent L {\n    create fixed 1 random\n    capability flow_control streams auto\n"
            "    capability state_machine p\n  }\n"
            "  plan p {\n    phase x green s0 duration 1\n    phase Dead green s1 duration 2\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        (light,) = world.agents.values()
        phases = []
        for _ in range(6):
            engine.tick(world)
            phases.append(light.machine_state("p"))
        assert phases == ["Dead", "Dead", "x", "Dead", "Dead", "x"]

    def test_a_machine_that_starts_in_dead_is_never_stepped(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 1 random\n    capability state_machine m\n  }\n"
            "  machine m {\n    initial Dead\n    state Dead\n    state b\n  }"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        (agent,) = world.agents.values()
        for _ in range(5):
            engine.tick(world)
        assert (agent.machines["m"].current, agent.machines["m"].dwell) == (sm.DEAD_STATE, 0)

    def test_a_machine_that_aborts_into_dead_stops_counting(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 1 random\n    capability state_machine m\n  }\n"
            "  machine m {\n    initial a\n    state a\n    state b\n    state Dead\n"
            "    transition a b deterministic 2 abort 1 to Dead\n  }"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        (agent,) = world.agents.values()
        inst = agent.machines["m"]
        seen = []
        for _ in range(5):
            engine.tick(world)
            seen.append((inst.current, inst.dwell))
        assert seen == [("a", 1), (sm.DEAD_STATE, 0), (sm.DEAD_STATE, 0), (sm.DEAD_STATE, 0), (sm.DEAD_STATE, 0)]
        assert agent.id in world.agents  # a declared machine in Dead leaves its agent alive


@st.composite
def walks(draw):
    """A topology, a position in it and a step length: a wrapped or bounded
    grid with each axis often at an edge and steps rounding to spans 0-3, or
    a cartesian space with int or float bounds, possibly negative, and each
    axis often on a bound or at -0.0."""
    kind = draw(st.sampled_from(["wrapped grid", "bounded grid", "cartesian"]))
    if kind != "cartesian":
        width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        position = tuple(draw(st.sampled_from([0, size - 1]) | st.integers(0, size - 1)) for size in (width, height))
        step = draw(st.sampled_from([0, 0.4, 0.5, 1, 1.5, 2, 2.5, 3, 3.4]))
        return mm.GridTopology(width, height, kind == "wrapped grid"), position, step
    number = st.integers(-8, 8) | st.integers(-32, 32).map(lambda q: q / 4)
    extent = st.integers(1, 6) | st.integers(1, 24).map(lambda q: q / 4)
    bounds, position = [], []
    for _ in range(2):
        low = draw(number)
        high = low + draw(extent)
        on_bound = [low, high, float(low), float(high)] + ([-0.0] if low <= 0 <= high else [])
        position.append(draw(st.sampled_from(on_bound) | st.floats(low, high)))
        bounds.append((low, high))
    (x_min, x_max), (y_min, y_max) = bounds
    step = draw(st.integers(0, 4) | st.floats(0, 5))
    return mm.CartesianTopology(x_min, x_max, y_min, y_max), tuple(position), step


class TestMobility:
    @given(walks(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_step_matches_the_walk_oracle(self, walk, seed):
        """Four chained steps give the oracle's position and cell, with the
        sign of a zero and the type of a bound, and leave its random stream."""
        topology, position, step = walk
        model = parse_model("model t {\n  environment grid width 1 height 1\n  agent A { create fixed 1 random }\n}\n")
        model.environment.topology = topology
        world = engine.build_world(model, engine.RunConfig(seed=seed, max_ticks=1))
        (agent,) = world.agents.values()
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(4):
            agent.position = position
            got = engine.mobility_step(world, agent, lambda _: step, rng)
            expected = walk_oracle.mobility_step(world, agent, lambda _: step, oracle_rng)
            assert repr(got) == repr(expected) and got == expected
            assert rng.getstate() == oracle_rng.getstate()
            position = got[0]

    def test_step_zero_stays(self, tmp_path):
        model = grid_model("  agent A {\n    create fixed 1 at (4, 4)\n    capability mobility random_walk step 0\n  }")
        world = engine.build_world(model, cfg(tmp_path))
        for _ in range(5):
            engine.tick(world)
        assert next(iter(world.agents.values())).position == (4, 4)

    def test_grid_step_reaches_only_nine_cells(self, tmp_path):
        model = grid_model("  agent A {\n    create fixed 1 at (4, 4)\n    capability mobility random_walk step 1\n  }")
        world = engine.build_world(model, cfg(tmp_path))
        agent = next(iter(world.agents.values()))
        allowed = {(4 + dx, 4 + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        seen = set()
        for _ in range(1000):
            agent.position = (4, 4)
            new_pos, cell = engine.mobility_step(world, agent, world.walk_steps["A"], world.rng)
            assert new_pos in allowed and cell == new_pos
            seen.add(new_pos)
        assert seen == allowed

    def test_walk_keeps_the_sign_of_a_zero_coordinate(self, tmp_path):
        # 0.0 == -0.0, but the digest prints them apart, so each step's own
        # position is kept even when it compares equal to the last.
        model = parse_model(
            "model t {\n  environment cartesian -1..5 -1..5\n"
            "  agent A {\n    create fixed 1 at (-0.0, 3)\n    capability mobility random_walk step 0\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        agent = next(iter(world.agents.values()))
        rng = random.Random()
        rng.setstate(world.rng.getstate())
        signs = set()
        for _ in range(20):
            expected, _ = engine.mobility_step(world, agent, world.walk_steps["A"], rng)
            engine.tick(world)
            assert repr(agent.position) == repr(expected)
            signs.add(math.copysign(1.0, agent.position[0]))
        assert signs == {1.0, -1.0}

    def test_cartesian_clamps_at_bounds(self, tmp_path):
        model = parse_model(
            "model t {\n  environment cartesian 0..10 0..10\n"
            "  agent A {\n    create fixed 1 at (10, 10)\n    capability mobility random_walk step 1\n  }\n}\n"
        )
        world = engine.build_world(model, cfg(tmp_path))
        agent = next(iter(world.agents.values()))
        for _ in range(50):
            (x, y), cell = engine.mobility_step(world, agent, world.walk_steps["A"], world.rng)
            assert 0 <= x <= 10 and 0 <= y <= 10 and cell == (math.floor(x), math.floor(y))
            agent.position = (x, y)


class TestTick:
    def test_empty_world_counts_up_and_samples_zero(self, tmp_path):
        model = grid_model(
            '  agent A { create fixed 0 random }\n'
            '  output o every 1 to "o.csv" {\n    series n count(A)\n  }'
        )
        result = engine.run(model, cfg(tmp_path, max_ticks=3))
        assert result.tables["o"].rows == [[0, 0], [1, 0], [2, 0], [3, 0]]

    def test_determinism_same_seed_same_digests(self, tmp_path):
        model = parse_model((FIXTURES / "measles.abms").read_text())

        def digests(seed):
            world = engine.build_world(model, cfg(tmp_path, seed=seed, base_dir=FIXTURES))
            out = [world.digest()]
            for _ in range(30):
                engine.tick(world)
                out.append(world.digest())
            return out

        assert digests(42) == digests(42)
        assert digests(42) != digests(43)

    def test_stationary_contact_on_distinct_cells_never_spreads(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 9 at (0, 0) (1, 1) (2, 2) (3, 3) (4, 4) (5, 5) (6, 6) (7, 7) (8, 8)\n"
            "    capability disease d\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 1\n"
            "    duration I deterministic 1000\n  }\n"
            "  introduce d deterministic 1 arbitrary aperiodic"
        )
        world = engine.build_world(model, cfg(tmp_path))
        for _ in range(40):
            engine.tick(world)
        infected = [a for a in world.agents.values() if a.diseases["d"].current == "I"]
        assert len(infected) == 1

    def test_bounds_hold_every_tick(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 20 random\n    capability mobility random_walk step 1\n  }",
            width=7,
            height=7,
            wrap=False,
        )
        world = engine.build_world(model, cfg(tmp_path))
        for _ in range(50):
            engine.tick(world)
            for agent in world.agents.values():
                x, y = agent.position
                assert 0 <= x < 7 and 0 <= y < 7

    def test_zero_dynamics_without_capabilities(self, tmp_path):
        model = grid_model("  agent A {\n    create fixed 8 random\n    attr age integer = 3\n  }")
        world = engine.build_world(model, cfg(tmp_path))
        def snapshot():
            return {a.id: (a.position, dict(a.attrs)) for a in world.agents.values()}
        before = snapshot()
        for _ in range(20):
            engine.tick(world)
        assert snapshot() == before
        assert world.tick == 20


class TestRun:
    def test_tutorial_row_count_and_header(self, tmp_path):
        model = parse_model((FIXTURES / "measles.abms").read_text())
        engine.run(model, cfg(tmp_path, max_ticks=200, base_dir=FIXTURES))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert len(lines) == 202  # header + ticks 0..200
        assert lines[0] == "tick,susceptible,infected,recovered"

    def test_boundary_two_rows(self, tmp_path):
        model = grid_model(
            '  agent A { create fixed 2 random }\n'
            '  output o every 1 to "o.csv" {\n    series n count(A)\n  }'
        )
        result = engine.run(model, cfg(tmp_path, max_ticks=1))
        assert [row[0] for row in result.tables["o"].rows] == [0, 1]

    def test_interval_row_arithmetic(self, tmp_path):
        model = grid_model(
            '  agent A { create fixed 2 random }\n'
            '  output o every 3 to "o.csv" {\n    series n count(A)\n  }'
        )
        result = engine.run(model, cfg(tmp_path, max_ticks=10))
        assert [row[0] for row in result.tables["o"].rows] == [0, 3, 6, 9]
        assert len(result.tables["o"].rows) == 10 // 3 + 1

    def test_zero_transmission_keeps_ever_infected_constant(self, tmp_path):
        model = grid_model(
            "  agent A {\n    create fixed 30 random\n    capability mobility random_walk step 1\n"
            "    capability disease d\n  }\n"
            "  disease d model SIR {\n    transmission contact probability 0\n"
            "    duration I probabilistic rate 0.2\n  }\n"
            "  introduce d deterministic 5 arbitrary aperiodic"
        )
        world = engine.build_world(model, cfg(tmp_path))
        assert world.ever_infected["d"] == 5
        for _ in range(60):
            engine.tick(world)
            assert world.ever_infected["d"] == 5

    def test_conservation_on_fixture_run(self, tmp_path):
        model = parse_model((FIXTURES / "measles.abms").read_text())
        world = engine.build_world(model, cfg(tmp_path, base_dir=FIXTURES))
        created = dict(world.created)
        for _ in range(120):
            engine.tick(world)
            alive = {}
            for agent in world.agents.values():
                alive[agent.type_name] = alive.get(agent.type_name, 0) + 1
            for type_name, n in created.items():
                assert alive.get(type_name, 0) + world.dead.get(type_name, 0) == n

    def test_a_machine_named_before_the_plan_leaves_the_plan_running(self, tmp_path):
        (tmp_path / "m.abms").write_text(INLINE_MACHINE_THEN_PLAN)
        assert main(["run", str(tmp_path / "m.abms"), "--ticks", "10", "--out-dir", str(tmp_path)]) == 0
        rows = [row.split(",") for row in (tmp_path / "o.csv").read_text().splitlines()[1:]]
        # P holds p1 for 2 ticks and p2 for 3; M flips every 2 ticks.
        assert "".join(row[1] for row in rows) == "11000110001"
        assert "".join(row[2] for row in rows) == "11001100110"

    def test_run_rejects_invalid_model(self, tmp_path):
        model = grid_model("  agent A { create fixed 1 random\n    capability disease ghost\n  }")
        with pytest.raises(InvalidModelError, match="^model failed validation: error: agent:A") as err:
            engine.run(model, cfg(tmp_path))
        assert err.value.report.errors() == mm.validate(model).errors()

    def test_run_takes_at_least_one_tick(self, tmp_path):
        model = parse_model((FIXTURES / "measles.abms").read_text())
        with pytest.raises(EngineError, match="^max_ticks must be at least 1$"):
            engine.run(model, cfg(tmp_path, base_dir=FIXTURES, max_ticks=0))
        assert list(tmp_path.iterdir()) == []  # nothing was written


HUGE = "1" + "0" * 400  # an integer literal beyond the float range
BIG = f"{HUGE}.0"  # a real literal that parses to inf
NAN = f"{BIG} - {BIG}"
GRID = "environment grid width 10 height 10 wrap"
CART = "environment cartesian 0.0..10.0 0.0..10.0"
SIR = (
    "  disease d model SIR {{\n    transmission {how} probability 0.5\n    duration I {duration}\n  }}\n"
    "  introduce d deterministic 5 arbitrary aperiodic\n"
)


def walker(env, step, attr="", how="contact"):
    return (
        f"model t {{\n  {env}\n  agent A {{\n    create fixed 20 random\n{attr}"
        f"    capability mobility random_walk step {step}\n    capability disease d\n  }}\n"
        + SIR.format(how=how, duration="deterministic 5")
        + "}\n"
    )


def machine_model(transition):
    """Five agents running machine ``m``, whose one transition goes a -> b."""
    return (
        f"model t {{\n  {GRID}\n  agent A {{\n    create fixed 5 random\n    capability state_machine m\n  }}\n"
        f"  machine m {{\n    initial a\n    state a\n    state b\n    state c\n    transition a b {transition}\n  }}\n}}\n"
    )


def disease_model(clauses, entity="", intro="introduce d deterministic 5 arbitrary aperiodic"):
    """Twenty carriers of the SIR disease ``d`` with the given clauses."""
    return (
        f"model t {{\n  {GRID}\n  agent A {{\n    create fixed 20 random\n    capability disease d\n  }}\n{entity}"
        f"  disease d model SIR {{\n    {clauses}\n  }}\n  {intro}\n}}\n"
    )


NON_FINITE_CASES = {
    "inf step on a grid": (walker(GRID, BIG), r"^tick 1: agent:A\.capability\[0\]: step inf outside \[0, inf\)$"),
    "nan step on a cartesian space": (
        walker(CART, NAN), r"^tick 1: agent:A\.capability\[0\]: step nan outside \[0, inf\)$"
    ),
    "inf distance on a grid": (walker(GRID, "1", how=f"proximity {BIG}"), r"tick 1: disease:d\.transmission: "),
    "nan distance on a cartesian space": (
        walker(CART, "1", how=f"proximity {NAN}"), r"tick 1: disease:d\.transmission: "
    ),
    "inf placement": (
        f"model t {{\n  {GRID}\n  agent A {{ create fixed 1 at ({BIG}, 1) }}\n}}\n",
        r"^tick 0: agent:A: position inf is not finite$",
    ),
    "nan duration": (
        f"model t {{\n  {GRID}\n  agent A {{\n    create fixed 20 random\n"
        "    capability disease d\n  }\n" + SIR.format(how="contact", duration=f"deterministic {NAN}") + "}\n",
        r"^tick 1: disease:d\.duration:I: duration nan outside \[0, inf\)$",
    ),
    "nan reward": (
        (FIXTURES / "traffic.abms").read_text().replace(
            "bins 2 5\n", f"bins 2 5 reward {NAN}\n"
        ),
        r"^tick 1: agent:Controller\.capability\[1\]: reward nan is not finite$",
    ),
    "inf series": (
        f"model t {{\n  {GRID}\n  agent A {{ create fixed 1 random }}\n"
        f'  output o every 1 to "o.csv" {{\n    series n count(A)\n    series big {BIG} * 1.0\n  }}\n}}\n',
        r"tick 0: output:o\.series:big: ",
    ),
    "nan attribute default": (
        f"model t {{\n  {GRID}\n  agent A {{\n    create fixed 1 random\n    attr w real = {NAN}\n  }}\n}}\n",
        r"tick 0: agent:A\.attr:w: value nan is not finite",
    ),
    "nan in a comparison": (
        f"model t {{\n  {GRID}\n  agent A {{\n    create fixed 5 random\n    capability state_machine m\n  }}\n"
        f"  machine m {{\n    initial a\n    state a\n    state b\n"
        f"    transition a b conditional ({NAN}) > 0.5\n  }}\n}}\n",
        r"^tick 1: machine:m\.transition\[0\]: '>' operand nan is not finite$",
    ),
    "integer beyond the float range times a real": (
        f'model t {{\n  {GRID}\n  output o every 1 to "o.csv" {{\n    series x {HUGE} * 1.0\n  }}\n}}\n',
        r"tick 0: output:o\.series:x: '\*' overflows: int too large to convert to float",
    ),
    "integer beyond the float range divided": (
        f'model t {{\n  {GRID}\n  output o every 1 to "o.csv" {{\n    series x {HUGE} / 3\n  }}\n}}\n',
        r"tick 0: output:o\.series:x: '/' overflows: integer division result too large for a float",
    ),
    "nan in a guard": (
        machine_model(f"deterministic 1 guard ({NAN}) > 0.5"),
        r"^tick 1: machine:m\.transition\[0\]: '>' operand nan is not finite$",
    ),
    "nan abort probability": (
        machine_model(f"deterministic 1 abort {NAN} to c"),
        r"^tick 1: machine:m\.transition\[0\]: rate nan outside \[0, 1\]$",
    ),
    "nan in a contamination condition": (
        disease_model(
            f"transmission proximity 20.0 probability 0.5 sources W condition ({NAN}) > 0.5\n"
            "    duration I deterministic 5",
            entity="  entity W { create fixed 1 random }\n",
        ),
        r"^tick 1: disease:d\.transmission: '>' operand nan is not finite$",
    ),
    "nan in an introduction eligibility": (
        disease_model(
            "transmission contact probability 0.5\n    duration I deterministic 5",
            intro=f"introduce d deterministic 5 eligible ({NAN}) > 0.5 aperiodic",
        ),
        r"^tick 0: introduce\[0\]: '>' operand nan is not finite$",
    ),
    "nan probabilistic trigger rate": (
        disease_model(f"transmission contact probability 0.5\n    duration I probabilistic rate {NAN}"),
        r"^tick 1: disease:d\.duration:I: rate nan outside \[0, 1\]$",
    ),
    "nan in a when_condition mortality rule": (
        disease_model(
            "transmission contact probability 0.5\n    duration I deterministic 5\n"
            f"    mortality I rate 0.1 when_condition ({NAN}) > 0.5"
        ),
        r"^tick 1: disease:d\.mortality\[0\]: '>' operand nan is not finite$",
    ),
    "nan entity attribute default": (
        f"model t {{\n  {GRID}\n  entity W {{\n    create fixed 1 random\n    attr w real = {NAN}\n  }}\n}}\n",
        r"^tick 0: entity:W\.attr:w: value nan is not finite$",
    ),
    "nan in a boolean attribute default": (
        f"model t {{\n  {GRID}\n  agent A {{\n    create fixed 1 random\n    attr b boolean = ({NAN}) > 0.5\n  }}\n}}\n",
        r"^tick 0: agent:A\.attr:b: '>' operand nan is not finite$",
    ),
    "nan computed vehicle step": (
        "model g {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    edge a b 10\n  }\n"
        f"  agent Car {{\n    create fixed 2 random\n    capability mobility random_walk step {NAN}\n  }}\n}}\n",
        r"^tick 0: agent:Car\.capability\[0\]: step nan is not finite$",
    ),
    "nan immunity rate": (
        disease_model(
            "transmission contact probability 0.5\n    duration I deterministic 1\n"
            f"    immunity duration probabilistic rate {NAN}"
        ),
        r"^tick 2: disease:d\.immunity: rate nan outside \[0, 1\]$",
    ),
    "nan rate in a composite trigger": (
        machine_model(f"custom any_of(deterministic 5, probabilistic rate {NAN})"),
        r"^tick 1: machine:m\.transition\[0\]: rate nan outside \[0, 1\]$",
    ),
}


class TestRunTimeRanges:
    """Numbers computed at run time are checked where they are used: rates and
    probabilities against [0, 1], every number for finiteness.  A violation
    names the tick and the model path, and no CSV is written."""

    def run_with(self, tmp_path, clause):
        model = grid_model(
            "  agent A {\n    create fixed 20 random\n    attr p real = 1.5\n"
            "    capability disease d\n  }\n"
            f"  disease d model SIR {{\n    {clause}\n  }}\n"
            "  introduce d deterministic 5 arbitrary aperiodic"
        )
        engine.run(model, cfg(tmp_path))

    def test_transmission_probability_out_of_range(self, tmp_path):
        with pytest.raises(AbmsError, match=r"tick 1: disease:d\.transmission: rate 1\.5 outside \[0, 1\]"):
            self.run_with(tmp_path, "transmission contact probability p\n    duration I deterministic 5")

    def test_mortality_rate_out_of_range(self, tmp_path):
        with pytest.raises(AbmsError, match=r"tick 1: disease:d\.mortality\[0\]: rate 1\.5 outside \[0, 1\]"):
            self.run_with(
                tmp_path,
                "transmission contact probability 0.1\n    duration I deterministic 5\n"
                "    mortality I rate p every_timeunit",
            )

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                walker(GRID, "s", attr="    attr s integer = 0 - 1\n"),
                r"tick 1: agent:A\.capability\[0\]: step -1 outside \[0, inf\)",
            ),
            (
                walker(CART, "1", attr="    attr d real = 0.0 - 1.0\n", how="proximity d"),
                r"tick 1: disease:d\.transmission: distance -1\.0 outside \(0, inf\)",
            ),
            (
                walker(GRID, "1", attr="    attr d real = 0.0\n", how="proximity d"),
                r"tick 1: disease:d\.transmission: distance 0\.0 outside \(0, inf\)",
            ),
            (
                "model t {\n  environment grid width 10 height 10\n  agent A { create fixed 1 at (tick + 20, 1) }\n}\n",
                r"tick 0: agent:A: position \(20, 1\) outside the 10x10 grid",
            ),
            (
                "model g {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    edge a b 10\n  }\n"
                "  agent Car {\n    create fixed 2 random\n    capability mobility random_walk step 0.0 - 2\n  }\n}\n",
                r"tick 0: agent:Car\.capability\[0\]: vehicle speed must be positive on graphs",
            ),
        ],
        ids=[
            "negative step", "negative proximity distance", "zero proximity distance",
            "computed placement outside the grid", "computed vehicle step below zero",
        ],
    )
    def test_computed_value_outside_its_domain_fails_at_its_tick(self, tmp_path, text, expected):
        model = parse_model(text)
        assert mm.validate(model).ok()
        with pytest.raises(AbmsError, match=expected):
            engine.run(model, cfg(tmp_path, max_ticks=30))
        assert not list(tmp_path.rglob("*.csv"))

    def test_point_file_position_outside_the_grid_fails_at_tick_0(self, tmp_path):
        (tmp_path / "p.points").write_text("1.0,1.0\n12.0,1.0\n")
        model = grid_model('  agent A { create gis "p.points" }', wrap=False)
        assert mm.validate(model).ok()
        with pytest.raises(
            AbmsError, match=r"tick 0: agent:A \(point file line 2\): position \(12, 1\) outside the 10x10 grid"
        ):
            engine.run(model, cfg(tmp_path))
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("case", list(NON_FINITE_CASES))
    def test_non_finite_value_fails_at_its_tick(self, tmp_path, case):
        text, expected = NON_FINITE_CASES[case]
        model = parse_model(text)
        assert mm.validate(model).ok()
        with pytest.raises(AbmsError, match=expected):
            engine.run(model, cfg(tmp_path, max_ticks=80, base_dir=FIXTURES))
        assert not list(tmp_path.rglob("*.csv"))


    @pytest.mark.parametrize("env", ["grid width 10 height 10", "grid width 10 height 10 wrap", "cartesian 0..10 0..10"])
    @pytest.mark.parametrize("hosts", [5, 40], ids=["by cell", "by exposure"])
    def test_a_rate_out_of_range_fails_where_no_source_is_in_reach(self, tmp_path, monkeypatch, env, hosts):
        """The trial's rate is evaluated on every susceptible agent's scan,
        also one that finds no source, so it fails at the same tick with the
        same text."""
        model = parse_model(
            f"model t {{\n  environment {env}\n"
            f"  agent A {{\n    create fixed {hosts} at (1, 1)\n    attr p real = 1.5\n    capability disease d\n  }}\n"
            "  entity W {\n    create fixed 1 at (8, 8)\n  }\n"
            "  disease d model SIR {\n    transmission proximity 2 probability p sources W\n"
            "    duration I deterministic 3\n  }\n}\n"
        )
        assert mm.validate(model).ok()
        world = engine.build_world(model, cfg(tmp_path))
        scans, near = [], engine._near
        monkeypatch.setattr(engine, "_near", lambda *args: scans.append(near(*args)) or scans[-1])
        with pytest.raises(AbmsError, match=r"^tick 1: disease:d\.transmission: rate 1\.5 outside \[0, 1\]$"):
            engine.tick(world)
        assert scans == [[]] and world.sources["d"].exposed == (hosts == 40)


class TestSitePaths:
    """A run-time failure names the path ``abms validate`` gives its site: the
    validator's report maps every expression the world compiles to a path."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The root expressions handed to the compilers that tag a failure."""
        roots = []
        for name in ("compile_number", "compile_condition"):
            def recording(expr, *args, compile=getattr(ex, name), **kwargs):
                roots.append(expr)
                return compile(expr, *args, **kwargs)
            monkeypatch.setattr(ex, name, recording)
        return roots

    def unnamed(self, model, roots, base_dir=FIXTURES):
        """The roots compiled while ``model``'s world is built that its table lacks."""
        start = len(roots)
        world = engine.build_world(model, engine.RunConfig(seed=CORPUS_SEED, max_ticks=5, base_dir=base_dir))
        return [root for root in roots[start:] if id(root) not in world.sites]

    def test_every_compiled_site_of_the_digest_corpus_has_a_path(self, compiled):
        for name, model, base_dir in corpus():
            assert not self.unnamed(model, compiled, base_dir), name
        assert compiled

    def test_every_compiled_site_of_a_valid_validate_corpus_model_has_a_path(self, compiled):
        valid = [(name, model) for name, model in validate_cases() if mm.validate(model).ok()]
        assert len(valid) > 100
        for name, model in valid:
            assert not self.unnamed(model, compiled), name
        assert compiled

    def test_an_eligibility_no_carrier_types_is_still_named(self, compiled):
        """With no carrier the validator types no eligibility criterion, yet
        the world compiles it, so the report names its site all the same."""
        model = grid_model(
            "  agent A { create fixed 3 random }\n"
            "  disease d model SIR {\n    transmission contact probability 0.5\n    duration I deterministic 5\n  }\n"
            "  introduce d deterministic 1 eligible tick > 0 aperiodic"
        )
        report = mm.validate(model)
        assert report.ok() and report.sites[id(model.introductions[0].eligibility)] == "introduce[0]"
        assert not self.unnamed(model, compiled)
        assert model.introductions[0].eligibility in compiled


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestLargeProximity:
    """Any proximity distance is accepted, and it never costs more than
    reading every cell of the environment once."""

    @pytest.mark.parametrize(
        "env", [GRID, "environment grid width 10 height 10", CART], ids=["wrapped grid", "bounded grid", "cartesian"]
    )
    def test_huge_distance_runs_like_one_that_reaches_every_pair(self, tmp_path, env):
        streams = []
        for distance in ("15.0", "100000.0"):  # 15 exceeds every distance in a 10x10 space
            world = engine.build_world(parse_model(walker(env, "1", how=f"proximity {distance}")), cfg(tmp_path))
            with time_limit(10):
                streams.append([engine.tick(world).digest() for _ in range(10)])
        assert streams[0] == streams[1]


class TestVehicles:
    def traffic_world(self, tmp_path, seed=42, ticks=0):
        model = parse_model((FIXTURES / "traffic.abms").read_text())
        world = engine.build_world(model, cfg(tmp_path, seed=seed, base_dir=FIXTURES))
        for _ in range(ticks):
            engine.tick(world)
        return world

    def test_vehicle_conservation(self, tmp_path):
        world = self.traffic_world(tmp_path)
        for _ in range(80):
            engine.tick(world)
            vehicles = [a for a in world.agents.values() if a.type_name == "Vehicle"]
            assert len(vehicles) == 20
            queued = sum(len(q) for q in world.queues.values())
            in_transit = sum(1 for v in vehicles if isinstance(v.position, engine.EdgePos))
            at_node = sum(1 for v in vehicles if isinstance(v.position, engine.NodePos))
            assert queued + in_transit + at_node == 20

    def test_exactly_one_active_phase_and_green_set(self, tmp_path):
        world = self.traffic_world(tmp_path)
        model = world.model
        plan_names = {p.name for p in model.plans}
        for _ in range(60):
            engine.tick(world)
            for agent in world.agents.values():
                ctrl = agent.controller
                if ctrl is None:
                    continue
                assert ctrl.plan.name in plan_names
                [phase] = [p for p in ctrl.plan.phases if p.name == agent.machine_state(ctrl.plan.name)]
                assert 0 <= ctrl.dwell < phase.duration
                assert red_of(world, ctrl) == auto_red(world, ctrl.node, phase)

    def test_stopped_vehicles_counts_red_queues_only(self, tmp_path):
        world = self.traffic_world(tmp_path, ticks=40)
        stopped = []
        for agent in world.agents.values():
            ctrl = agent.controller
            if ctrl is None:
                continue
            [phase] = [p for p in ctrl.plan.phases if p.name == agent.machine_state(ctrl.plan.name)]
            expected = sum(
                len(world.queues.get((ctrl.node, frm), []))
                for frm, sid in ctrl.streams.items()
                if sid not in phase.green
            )
            assert engine.controller_stopped(ctrl) == expected
            stopped.append(expected)
        assert any(stopped)  # some red queue holds vehicles

    def test_learner_updates_accumulate(self, tmp_path, monkeypatch):
        world = self.traffic_world(tmp_path)
        updates: dict[int, int] = {}

        def counting(table, *args, _original=tf.q_update):
            updates[id(table)] = updates.get(id(table), 0) + 1
            return _original(table, *args)

        monkeypatch.setattr(tf, "q_update", counting)
        cycle = world.model.plan("MainGreen").cycle_length()
        for _ in range(cycle * 3 + 1):
            engine.tick(world)
        learners = [a.controller.learner for a in world.agents.values() if a.controller]
        assert learners and all(updates.get(id(l.table), 0) >= 3 for l in learners)

    def test_learners_update_on_the_tick_that_completes_the_chosen_cycle(self, tmp_path, monkeypatch):
        """Plans of 1, 3 and 6 ticks; a first phase longer than one tick shows
        a cycle ends on re-entering that phase, not on merely being in it."""
        text = (
            "model t {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    node c 20 0\n"
            "    edge a b 10\n    edge b c 10\n  }\n"
            "  agent Light {\n    create fixed 4 random\n    capability flow_control streams auto\n"
            "    capability qlearning alpha 0.5 gamma 0.9 epsilon 1.0 plans One Three Six bins 1\n  }\n"
            "  plan One { phase p green s0 duration 1 }\n"
            "  plan Three { phase p green s0 duration 2 phase q green s0 duration 1 }\n"
            "  plan Six { phase p green s0 duration 3 phase q green s0 duration 2 phase r green s0 duration 1 }\n}\n"
        )
        model = parse_model(text)
        world = engine.build_world(model, cfg(tmp_path, seed=5))
        updated: list[int] = []

        def counting(table, *args, _original=tf.q_update):
            updated.append(id(table))
            return _original(table, *args)

        monkeypatch.setattr(tf, "q_update", counting)
        learners = [a.controller.learner for a in world.agents.values()]
        assert [model.plan(p).cycle_length() for p in learners[0].spec.plans] == [1, 3, 6]
        due = {id(l.table): model.plan(l.prev_action).cycle_length() for l in learners}
        chosen = {l.prev_action for l in learners}
        for _ in range(40):
            updated.clear()
            engine.tick(world)
            assert sorted(updated) == sorted(key for key, at in due.items() if at == world.tick)
            for learner in learners:
                if id(learner.table) in updated:
                    due[id(learner.table)] = world.tick + model.plan(learner.prev_action).cycle_length()
                    chosen.add(learner.prev_action)
        assert chosen == {"One", "Three", "Six"}

    @pytest.mark.parametrize("seed", [1, 42])
    def test_each_edge_position_has_one_holder(self, tmp_path, seed):
        world = self.traffic_world(tmp_path, seed=seed)
        for _ in range(120):
            engine.tick(world)
            on_edges = [a.position for a in world.agents.values() if isinstance(a.position, engine.EdgePos)]
            assert on_edges and len({id(pos) for pos in on_edges}) == len(on_edges)


class TestTransit:
    """Phase 4 reads what the world resolved when it was built: the vehicles
    on an edge, each edge's travel ticks per speed and its queue, and each
    controller's red queues.  After every tick these equal the scans and
    sums they replace."""

    CAPACITIES = """
model transit {
  environment graph from edges {
    node a 0 0
    node b 100 0
    node c 200 0
    node d 100 100
    edge a b 100
    edge b c 100
    edge b d 130
    edge c d 141
  }
  agent Car {
    create fixed 14 random
    capability mobility random_walk step 45
  }
  agent Truck {
    create fixed 6 random
    capability mobility random_walk step 20
  }
  agent Light {
    create fixed 2 random
    capability flow_control stream main edge a b capacity 1 stream side edge b c capacity 2 stream back edge b d capacity 1
    capability state_machine Slow
  }
  plan Slow {
    phase p1 green main duration 6
    phase p2 green side back duration 4
  }
}
"""
    MODELS = {
        "traffic fixture": (FIXTURES / "traffic.abms").read_text(),
        "stream capacities": CAPACITIES,  # two speeds, blocked arrivals
        "graph disease": INLINE_GRAPH_DISEASE,  # vehicles die, in transit and in queues
    }

    @staticmethod
    def assert_resolved(world, reached: set) -> None:
        agents = list(world.agents.values())
        # Each directed edge's one stop, as the roads out of its source hold it.
        stops = {(stop.node, stop.from_node): stop for roads in world.roads.values() for _, _, stop in roads}
        assert stops.keys() == world.edge_queues.keys()
        assert all(stop.queue is world.edge_queues[key] for key, stop in stops.items())
        on_edges = [a for a in agents if isinstance(a.position, engine.EdgePos)]
        assert sorted(world.vehicles, key=_BY_ID) == on_edges
        for vehicle in on_edges:
            pos = vehicle.position
            assert pos.total == max(1, math.ceil(world.graph.edge_length(pos.source, pos.target) / vehicle.speed))
            assert pos.stop is stops[pos.target, pos.source]
            assert pos.stop.queue is world.edge_queues[pos.target, pos.source]
        queued = [a for a in agents if isinstance(a.position, engine.QueuePos)]
        assert all(a.position is stops[a.position.node, a.position.from_node] for a in queued)
        assert all(a.id in world.edge_queues[a.position.node, a.position.from_node] for a in queued)
        assert sum(map(len, world.edge_queues.values())) == len(queued)
        # The digest lists exactly the queues a vehicle has reached, each the edge's own.
        assert world.queues.keys() == reached
        assert all(queue is world.edge_queues[key] for key, queue in world.queues.items())
        for ctrl in (a.controller for a in agents if a.controller is not None):
            assert all(ctrl.queues[frm] is world.edge_queues[ctrl.node, frm] for frm in ctrl.streams)
            green = ctrl.plan.phases[ctrl.phase].green if ctrl.plan is not None else ()
            assert red_of(world, ctrl) == {frm for frm, sid in ctrl.streams.items() if sid not in green}
            assert engine.controller_stopped(ctrl) == sum(len(ctrl.queues[frm]) for frm in ctrl.red)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_resolved_references_match_the_scans_every_tick(self, tmp_path, name):
        world = engine.build_world(parse_model(self.MODELS[name]), cfg(tmp_path, seed=5, base_dir=FIXTURES))
        reached: set = set()
        blocked = 0
        self.assert_resolved(world, reached)
        for _ in range(80):
            # A vehicle alive after the tick that was due at its edge's end reached its queue in phase 4.
            due = [(a.id, (a.position.target, a.position.source)) for a in world.agents.values()
                   if isinstance(a.position, engine.EdgePos) and a.position.remaining <= 1]
            engine.tick(world)
            reached.update(key for aid, key in due if aid in world.agents)
            self.assert_resolved(world, reached)
            blocked += sum(1 for a in world.vehicles if a.position.remaining == 0)
        if name == "stream capacities":
            assert {a.speed for a in world.agents.values() if a.speed} == {45, 20} and blocked > 0
        if name == "graph disease":
            assert world.dead["Car"] > 0

    @pytest.mark.parametrize("seed", [1, 5, 42])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_phase_4_matches_the_vehicle_oracle(self, tmp_path, monkeypatch, name, seed):
        """Twin worlds, one ticked by the engine and one with the phase 4 it
        replaced, agree after every tick: the digest, the transit roster and
        each agent's position."""
        config = cfg(tmp_path, seed=seed, base_dir=FIXTURES)
        world, twin = (engine.build_world(parse_model(self.MODELS[name]), config) for _ in range(2))
        for _ in range(80):
            engine.tick(world)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_vehicle_phase", vehicle_oracle.vehicle_phase)
                engine.tick(twin)
            assert twin.digest() == world.digest()
            assert [a.id for a in twin.vehicles] == [a.id for a in world.vehicles]
            assert [repr(a.position) for a in twin.agents.values()] == [repr(a.position) for a in world.agents.values()]
        assert world.arrivals > 0

    @pytest.mark.parametrize(
        "name,model,base_dir", GRAPH_CORPUS, ids=[name for name, _, _ in GRAPH_CORPUS]
    )
    def test_ticks_measure_no_edge(self, monkeypatch, name, model, base_dir):
        """Once the world is built, no tick reads an edge's length: with the
        graph refusing, the ticks still reach the pinned digest."""
        world = engine.build_world(model, engine.RunConfig(seed=CORPUS_SEED, max_ticks=60, base_dir=base_dir))

        def refuse(*args, **kwargs):
            raise AssertionError("an edge length was read during a tick")

        monkeypatch.setattr(Graph, "edge_length", refuse)
        for _ in range(60):
            engine.tick(world)
        assert world.digest() == json.loads(PINNED.read_text(encoding="utf-8"))[name][60]


class TestSignalPlans:
    """A controller counts its own phase; each tick it reads what the plan's
    state machine (``tf.plan_to_machine``) would be in."""

    @pytest.mark.parametrize(
        "phases",
        [
            "phase p0 green s0 duration 1",
            "phase p0 green s0 duration 2 phase p1 green s1 duration 3",
            "phase p0 green s0 duration 1 phase p1 green s1 duration 1 phase p2 green s0 s1 duration 1",
            "phase go green s0 duration 2 phase Dead green s1 duration 1",
        ],
        ids=["(1)", "(2, 3)", "(1, 1, 1)", "Dead phase"],
    )
    def test_phase_follows_the_plan_machine(self, tmp_path, phases):
        text = (
            "model t {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    node c 20 0\n"
            "    edge a b 10\n    edge b c 10\n  }\n"
            "  agent Light {\n    create fixed 1 random\n    capability flow_control streams auto\n"
            f"    capability state_machine P\n  }}\n  plan P {{ {phases} }}\n}}\n"
        )
        model = parse_model(text)
        world = engine.build_world(model, cfg(tmp_path))
        [light] = world.agents.values()
        ctrl, plan = light.controller, model.plan("P")
        reference = sm.instantiate(sm.compile_machine(tf.plan_to_machine(plan)))
        rng = random.Random(0)
        for _ in range(3 * plan.cycle_length() + 1):
            engine.tick(world)
            if (state := sm.step(reference, light, rng)) is not None:
                sm.force_state(reference, state)
            assert (light.machine_state("P"), ctrl.dwell) == (reference.current, reference.dwell)
            phase = next(p for p in plan.phases if p.name == reference.current)
            assert red_of(world, ctrl) == auto_red(world, ctrl.node, phase)

    def test_a_duration_beyond_the_float_range_holds_its_phase(self, tmp_path):
        """Durations are whole numbers of ticks, counted exactly."""
        text = (
            "model t {\n  environment graph from edges {\n    node a 0 0\n    node b 10 0\n    edge a b 10\n  }\n"
            "  agent Light {\n    create fixed 1 random\n    capability flow_control streams auto\n"
            "    capability state_machine P\n  }\n"
            f"  plan P {{ phase x green s0 duration 2 phase y green s0 duration {'9' * 400} }}\n}}\n"
        )
        world = engine.build_world(parse_model(text), cfg(tmp_path))
        [light] = world.agents.values()
        for _ in range(20):
            engine.tick(world)
        assert light.machine_state("P") == "y" and light.controller.dwell == 18


class TestRosters:
    """Each phase visits its roster: exactly the agents it has work for, in
    ascending id order but for phase 4's transit roster, and a population is
    its type's roster.  A dead agent is in none of them."""

    MODELS = {
        "graph disease": INLINE_GRAPH_DISEASE,
        # Lights that learn, with a blight that kills them on any tick.
        "graph disease with learners": INLINE_GRAPH_DISEASE.replace(
            "capability state_machine Cycle", "capability qlearning alpha 0.1 gamma 0.9 epsilon 0.1 plans Cycle bins 2 5"
        ).replace("when_condition Cycle is p2", "every_timeunit").replace("    series red count(Light where Cycle is p1)\n", ""),
        "wrapped grid SIR": (
            "model t {\n  environment grid width 9 height 7 wrap\n"
            "  agent A {\n    create fixed 60 random\n    capability mobility random_walk step 1\n"
            "    capability disease d\n  }\n"
            "  agent Rock {\n    create fixed 5 random\n  }\n"
            "  entity W {\n    create fixed 3 at (0, 0) (6, 4) (4, 3)\n  }\n"
            "  disease d model SIR {\n    transmission proximity 1.5 probability 0.4 sources W\n"
            "    duration I deterministic 6\n    mortality I rate 0.2 every_timeunit\n  }\n"
            "  introduce d deterministic 5 arbitrary periodic 4\n"
            '  output o every 1 to "o.csv" {\n    series i count(A where d is I)\n    series w count(W)\n  }\n}\n'
        ),
    }

    @staticmethod
    def assert_rosters(world, created: set[int]) -> None:
        agents = list(world.agents.values())
        expected = {  # the scans over every agent that the rosters replace
            "actors": [a for a in agents if a.type_name in world.walk_steps or a.machines or a.diseases
                       or (a.controller is not None and a.controller.plan is not None)],
            "vehicles": [a for a in agents if isinstance(a.position, engine.EdgePos)],
            "learners": [a for a in agents if a.controller is not None and a.controller.learner is not None],
        }
        for name, roster in expected.items():
            assert sorted(getattr(world, name), key=_BY_ID) == roster, name
        assert world.actors == expected["actors"] and world.learners == expected["learners"]
        agent_types = {a.name for a in world.model.agent_types}
        assert list(world.by_type) == [t.name for t in (*world.model.agent_types, *world.model.entity_types)]
        populations = {name: world.population(name) for name in world.by_type}
        for name, roster in populations.items():
            instances = agents if name in agent_types else world.entities.values()
            assert roster == [x for x in instances if x.type_name == name], name
        assert all(world.population(name) is roster for name, roster in populations.items())  # no copy
        dead = created - set(world.agents)
        for roster in (*expected.values(), *populations.values()):
            ids = [item.id for item in roster]
            assert ids == sorted(set(ids)) and not dead.intersection(ids)
        assert not dead.intersection(aid for queue in world.queues.values() for aid in queue)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_rosters_match_the_scans_they_replace_every_tick(self, tmp_path, name):
        world = engine.build_world(parse_model(self.MODELS[name]), cfg(tmp_path, base_dir=FIXTURES))
        created = set(world.agents)
        learners = len(world.learners)
        self.assert_rosters(world, created)
        for _ in range(60):
            engine.tick(world)
            self.assert_rosters(world, created)
        assert sum(world.dead.values()) > 0  # pruning ran
        if learners:
            assert 0 < len(world.learners) < learners

    def test_idle_agents_are_in_no_phase_roster(self, tmp_path):
        model = parse_model((FIXTURES / "traffic.abms").read_text())
        world = engine.build_world(model, cfg(tmp_path, base_dir=FIXTURES))
        controllers = [a for a in world.agents.values() if a.type_name == "Controller"]
        vehicles = [a for a in world.agents.values() if a.type_name == "Vehicle"]
        assert controllers and vehicles
        assert world.actors == controllers and world.learners == controllers  # no vehicle has phase-2 or phase-5 work
        assert world.vehicles == vehicles  # each created vehicle entered an edge, in creation order
