"""Abstract pre-stable marked tropical curves.

A curve is a finite connected multigraph (self-loops and parallel edges are
first-class, distinguished by edge ids) with a genus at every vertex, a
length in Q_{>=0} or INF on every edge, and markings on some of the
1-valent genus-0 vertices.  Marked leaf-edges always have infinite length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exactgeom import Fan, IntVec, format_rational, primitive


class InfiniteLength:
    """The distinguished infinite edge length; a singleton, serialized "inf"."""

    _instance: Optional["InfiniteLength"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = InfiniteLength()

Length = Union[Fraction, InfiniteLength]


@dataclass(frozen=True)
class Vertex:
    id: str
    genus: int = 0


@dataclass(frozen=True)
class Edge:
    """An edge between ``ends`` (equal ids for a self-loop).

    The two half-edges of an edge are (id, 0) and (id, 1); orientation data
    for maps lives in the maps module, not here.
    """

    id: str
    ends: tuple[str, str]
    length: Length


@dataclass(frozen=True)
class Marking:
    label: str
    vertex: str


@dataclass(frozen=True)
class TropicalCurve:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    markings: tuple[Marking, ...]

    @cached_property
    def _vertex_index(self) -> Mapping[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _edge_index(self) -> Mapping[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _incidence(self) -> Mapping[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            a, b = e.ends
            if a in inc:
                inc[a].append(e)
            if b != a and b in inc:
                inc[b].append(e)
        return {k: tuple(v) for k, v in inc.items()}

    @cached_property
    def marked_vertex_ids(self) -> frozenset[str]:
        return frozenset(m.vertex for m in self.markings)

    def vertex(self, vid: str) -> Vertex:
        return self._vertex_index[vid]

    def has_vertex(self, vid: str) -> bool:
        return vid in self._vertex_index

    def edge(self, eid: str) -> Edge:
        return self._edge_index[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_index

    def edges_at(self, vid: str) -> tuple[Edge, ...]:
        """Edges incident to the vertex; a self-loop is listed once."""
        return self._incidence[vid]

    def valence(self, vid: str) -> int:
        """Number of half-edges at the vertex; a self-loop counts twice."""
        val = 0
        for e in self._incidence[vid]:
            val += 2 if e.ends[0] == e.ends[1] else 1
        return val

    def unmarked_vertex_ids(self) -> tuple[str, ...]:
        marked = self.marked_vertex_ids
        return tuple(v.id for v in self.vertices if v.id not in marked)

    def is_marked_leaf_edge(self, e: Edge) -> bool:
        marked = self.marked_vertex_ids
        return e.ends[0] in marked or e.ends[1] in marked

    def marked_edge(self, label: str) -> Edge:
        """The unique edge at the marked vertex carrying ``label``."""
        vid = next(m.vertex for m in self.markings if m.label == label)
        edges = self.edges_at(vid)
        if len(edges) != 1:
            raise ValueError(f"marked vertex {vid} is not 1-valent")
        return edges[0]


def tropical_curve(
    vertices: Iterable[Vertex],
    edges: Iterable[Edge],
    markings: Iterable[Marking] = (),
) -> TropicalCurve:
    """Normalizing constructor: sorts components and rejects duplicate ids."""
    vs = tuple(sorted(vertices, key=lambda v: v.id))
    es = []
    for e in edges:
        a, b = e.ends
        if b < a:
            e = Edge(e.id, (b, a), e.length)
        es.append(e)
    es = tuple(sorted(es, key=lambda e: e.id))
    ms = tuple(sorted(markings, key=lambda m: m.label))
    if len({v.id for v in vs}) != len(vs):
        raise ValueError("duplicate vertex id")
    if len({e.id for e in es}) != len(es):
        raise ValueError("duplicate edge id")
    if len({m.label for m in ms}) != len(ms):
        raise ValueError("duplicate marking label")
    return TropicalCurve(vs, es, ms)


def _classes(vertex_ids: Iterable[str], edges: Iterable[Edge]) -> dict[str, str]:
    """Union-find over the vertex ids joined by the edges: each id maps to
    the smallest id of its class.  An edge naming an unlisted vertex joins
    nothing, so unvalidated curves can be checked."""
    parent = {v: v for v in vertex_ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a, b = e.ends
        if a in parent and b in parent:
            a, b = sorted((find(a), find(b)))
            parent[b] = a
    return {v: find(v) for v in parent}


def is_connected(c: TropicalCurve) -> bool:
    return len(set(_classes((v.id for v in c.vertices), c.edges).values())) <= 1


def validate_curve(c: TropicalCurve) -> list[str]:
    """Diagnostics for the curve invariants; empty iff the curve is valid."""
    diags: list[str] = []
    for v in c.vertices:
        if v.genus < 0:
            diags.append(f"vertex {v.id} has negative genus {v.genus}")
    for e in c.edges:
        for end in e.ends:
            if not c.has_vertex(end):
                diags.append(f"edge {e.id} references unknown vertex {end}")
        if isinstance(e.length, InfiniteLength):
            continue
        if not isinstance(e.length, Fraction):
            diags.append(f"edge {e.id} length is not an exact rational")
        elif e.length < 0:
            diags.append(f"edge {e.id} has negative length {format_rational(e.length)}")
    seen_vertices = set()
    for m in c.markings:
        if not c.has_vertex(m.vertex):
            diags.append(f"marking {m.label} references unknown vertex {m.vertex}")
            continue
        if m.vertex in seen_vertices:
            diags.append(f"vertex {m.vertex} carries more than one marking")
        seen_vertices.add(m.vertex)
        if c.vertex(m.vertex).genus != 0:
            diags.append(f"marked vertex {m.vertex} has nonzero genus")
        if c.valence(m.vertex) != 1:
            diags.append(f"marked vertex {m.vertex} is not 1-valent")
        else:
            leaf = c.edges_at(m.vertex)[0]
            if not isinstance(leaf.length, InfiniteLength):
                diags.append(
                    f"marked leaf-edge {leaf.id} at {m.label} must have infinite length"
                )
    if not is_connected(c):
        diags.append("curve is disconnected")
    return diags


def curve_lints(c: TropicalCurve) -> list[str]:
    """Non-fatal oddities: unmarked 1-valent genus-0 vertices are legal but
    rarely intended in stable maps."""
    lints = []
    marked = c.marked_vertex_ids
    for v in c.vertices:
        if v.id not in marked and v.genus == 0 and c.valence(v.id) == 1:
            lints.append(f"unmarked 1-valent genus-0 vertex {v.id}")
    return lints


def betti_and_genus(c: TropicalCurve) -> tuple[int, int]:
    """(first Betti number, genus): b1 = E - V + 1 for a connected graph and
    genus = b1 plus the sum of the vertex genera."""
    if not is_connected(c):
        raise ValueError("betti_and_genus requires a connected curve")
    b1 = len(c.edges) - len(c.vertices) + 1
    return b1, b1 + sum(v.genus for v in c.vertices)


def genus(c: TropicalCurve) -> int:
    return betti_and_genus(c)[1]


def is_smooth(c: TropicalCurve) -> bool:
    """True iff every non-marked edge has finite length."""
    return all(
        not isinstance(e.length, InfiniteLength) or c.is_marked_leaf_edge(e)
        for e in c.edges
    )


def contract_edges(c: TropicalCurve, edge_ids: Iterable[str]) -> tuple[TropicalCurve, dict[str, str]]:
    """Contract a set of edges in one pass.

    Each class of vertices joined by contracted edges merges into its
    smallest id.  The merged genus is the sum of the class's genera plus its
    first Betti number (contracted edges minus vertices plus one), so the
    total genus is preserved.  Marked leaf-edges cannot be contracted.
    Returns the curve and the map from each old vertex id to its survivor.
    """
    edge_set = set(edge_ids)
    for eid in sorted(edge_set):
        if not c.has_edge(eid):
            raise ValueError(f"unknown edge {eid}")
        if c.is_marked_leaf_edge(c.edge(eid)):
            raise ValueError(f"cannot contract marked leaf-edge {eid}")
    contracted = [c.edge(eid) for eid in edge_set]
    root = _classes((v.id for v in c.vertices), contracted)
    merged_genus: dict[str, int] = {}
    for v in c.vertices:
        merged_genus[root[v.id]] = merged_genus.get(root[v.id], 1) + v.genus - 1
    for e in contracted:
        merged_genus[root[e.ends[0]]] += 1
    vertices = [Vertex(v.id, merged_genus[v.id]) for v in c.vertices if root[v.id] == v.id]
    edges = [
        Edge(e.id, (root.get(e.ends[0], e.ends[0]), root.get(e.ends[1], e.ends[1])), e.length)
        for e in c.edges
        if e.id not in edge_set
    ]
    return tropical_curve(vertices, edges, c.markings), root


def contract_edge(c: TropicalCurve, edge_id: str) -> TropicalCurve:
    """Contract one edge (see :func:`contract_edges`)."""
    return contract_edges(c, [edge_id])[0]


# ---------------------------------------------------------------------------
# discrete data: genus, marking count, contact orders

@dataclass(frozen=True)
class DiscreteData:
    """Genus, number of markings, and the contact vector (contact order times
    primitive ray direction) attached to each marking label."""

    genus: int
    n: int
    contact: Mapping[str, IntVec]


def discrete_data(genus_: int, contact: Mapping[str, Sequence[int]]) -> DiscreteData:
    ct = {label: tuple(int(x) for x in vec) for label, vec in contact.items()}
    return DiscreteData(genus_, len(ct), ct)


def validate_discrete_data(d: DiscreteData, f: Fan) -> list[str]:
    """Each contact vector must be zero or a positive multiple of a single
    ray of the fan (and in particular lie in the fan's support)."""
    diags = []
    if d.n != len(d.contact):
        diags.append(f"marking count {d.n} != number of contact vectors {len(d.contact)}")
    rays = {r for c in f.cones for r in c.rays}
    for label in sorted(d.contact):
        vec = d.contact[label]
        if len(vec) != f.ambient_dim:
            diags.append(f"contact vector for {label} has length {len(vec)}")
            continue
        if all(x == 0 for x in vec):
            continue
        if primitive(vec) not in rays:
            diags.append(f"contact vector {vec} for {label} is not on a ray of the fan")
    return diags
