"""Input file loaders: plain point lists and the OSM-XML road subset.

Both are UTF-8 text.  Point files are comma-separated ``x,y[,key=value...]``
lines.  Road maps are OSM XML restricted to ``<node id lat lon>`` plus
``<way>`` elements tagged as highways; consecutive node references inside a
way become undirected edges whose length is the great-circle distance in
meters (one simulation length unit is one meter).
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FileFormatError

EARTH_RADIUS_M = 6_371_000.0


@dataclass
class GisPoint:
    x: float
    y: float
    attrs: dict[str, str] = field(default_factory=dict)
    line: int = 0


def edge_key(a: str, b: str) -> tuple[str, str]:
    """The key of the undirected edge a-b in ``Graph.edges``."""
    return (a, b) if a <= b else (b, a)


@dataclass
class Graph:
    """Undirected road graph with planar node coordinates in meters, complete
    once built: every node's sorted neighbours and the sorted node list."""

    nodes: dict[str, tuple[float, float]]
    edges: dict[tuple[str, str], float]  # by edge_key
    adjacency: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    sorted_nodes: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        self.adjacency = {n: sorted(s) for n, s in adj.items()}
        self.sorted_nodes = sorted(self.nodes)

    def edge_length(self, a: str, b: str) -> float:
        return self.edges[edge_key(a, b)]


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path`` with universal newlines, or a FileFormatError
    naming the path (and, for bytes that are not UTF-8, the first one's line)."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except FileNotFoundError:
        raise FileFormatError(f"{path}: file not found") from None
    except OSError as err:
        raise FileFormatError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise FileFormatError(f"{path}: line {line}: not UTF-8 text") from None


def load_gis_points(path: str | Path) -> list[GisPoint]:
    """Parse a point file, preserving line order; blank lines are skipped."""
    points: list[GisPoint] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2:
            raise FileFormatError(f"{path}: line {lineno}: expected x,y")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise FileFormatError(f"{path}: line {lineno}: expected number") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FileFormatError(f"{path}: line {lineno}: coordinates must be finite")
        attrs: dict[str, str] = {}
        for extra in parts[2:]:
            if "=" not in extra:
                raise FileFormatError(f"{path}: line {lineno}: expected key=value, got '{extra}'")
            key, value = extra.split("=", 1)
            attrs[key.strip()] = value.strip()
        points.append(GisPoint(x, y, attrs, lineno))
    return points


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def load_osm_graph(path: str | Path) -> Graph:
    """Build the road graph from an OSM-XML file.

    Only ways carrying a ``highway`` tag contribute edges; a way referencing
    an undeclared node id is an error naming that id.  A node without ``id``,
    ``lat`` or ``lon``, or with a coordinate that is not a finite number, is
    an error naming its id, or its 1-based position among the node elements
    when it has none.
    """
    try:
        root = ET.fromstring(read_text(path))
    except ET.ParseError as err:
        raise FileFormatError(f"{path}: malformed XML: {err}") from None
    latlon: dict[str, tuple[float, float]] = {}
    for ordinal, node in enumerate(root.iter("node"), start=1):
        node_id = node.attrib.get("id")
        where = f"{path}: node {node_id}" if node_id is not None else f"{path}: node element {ordinal}"
        missing = [key for key in ("id", "lat", "lon") if key not in node.attrib]
        if missing:
            raise FileFormatError(f"{where}: missing {'/'.join(missing)}")
        try:
            lat, lon = float(node.attrib["lat"]), float(node.attrib["lon"])
        except ValueError:
            raise FileFormatError(f"{where}: lat/lon must be numbers") from None
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise FileFormatError(f"{where}: lat/lon must be finite")
        latlon[node_id] = (lat, lon)
    nodes: dict[str, tuple[float, float]] = {}
    if latlon:
        # Local planar projection around the mean latitude keeps Euclidean
        # coordinates consistent with the haversine edge lengths.
        lat0 = sum(lat for lat, _ in latlon.values()) / len(latlon)
        lon0 = min(lon for _, lon in latlon.values())
        lat_min = min(lat for lat, _ in latlon.values())
        scale = math.cos(math.radians(lat0))
        for node_id, (lat, lon) in latlon.items():
            x = math.radians(lon - lon0) * EARTH_RADIUS_M * scale
            y = math.radians(lat - lat_min) * EARTH_RADIUS_M
            nodes[node_id] = (x, y)
    edges: dict[tuple[str, str], float] = {}
    for way in root.iter("way"):
        tags = {t.attrib.get("k"): t.attrib.get("v") for t in way.iter("tag")}
        if "highway" not in tags:
            continue
        refs = [nd.attrib.get("ref") for nd in way.iter("nd")]
        for ref in refs:
            if ref not in latlon:
                raise FileFormatError(f"{path}: way references unknown node id {ref}")
        for a, b in zip(refs, refs[1:]):
            la, lb = latlon[a], latlon[b]
            edges[edge_key(a, b)] = haversine_m(la[0], la[1], lb[0], lb[1])
    return Graph(nodes, edges)


def graph_from_inline(nodes, edges) -> Graph:
    """Graph from inline node/edge declarations (metamodel objects)."""
    coords = {node.name: (node.x, node.y) for node in nodes}
    lengths: dict[tuple[str, str], float] = {}
    for edge in edges:
        for end in (edge.source, edge.target):
            coords.setdefault(end, (0.0, 0.0))
        lengths[edge_key(edge.source, edge.target)] = edge.length
    return Graph(coords, lengths)
