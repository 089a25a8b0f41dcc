"""Parametrized tropical stable maps and their combinatorial types.

A map assigns to every non-marked ("finite") vertex a position in the fan's
ambient space and to every edge a primitive integer direction with an
integer expansion factor.  Marked vertices sit at infinity along their leaf
ray and carry no position.  The three validity axioms are

* integrality: along a bounded edge oriented tail -> head,
  position(head) - position(tail) = length * weight * direction;
* balancing: at every finite vertex the outgoing weighted directions sum
  to zero;
* stability: no 2-valent vertex whose star maps into the relative interior
  of a single cone.

Contracted edges (image a point) are encoded with zero direction and zero
weight; a weight is zero exactly when the direction is zero, and self-loops
are always contracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from . import curves
from .curves import (
    Edge,
    InfiniteLength,
    Marking,
    TropicalCurve,
    Vertex,
    betti_and_genus,
    DiscreteData,
    discrete_data,
    tropical_curve,
    validate_curve,
)
from .exactgeom import (
    Cone,
    Fan,
    IntVec,
    RatVec,
    canonical_cone,
    cone_locate,
    format_rational,
    is_zero_vec,
    rank,
    ratvec,
    vector_content,
    zero_cone,
)

ZERO_LENGTH = Fraction(0)


@dataclass(frozen=True)
class EdgeMapData:
    """Direction, expansion factor, and chosen tail of one edge.

    ``u`` is primitive integral or the zero vector; ``w`` is zero iff ``u``
    is zero.  For marked leaf-edges the tail is the finite endpoint, so the
    weighted direction w*u is the contact vector of the marking.
    """

    u: IntVec
    w: int
    tail: str

    def head(self, edge: Edge) -> str:
        """The endpoint of ``edge`` other than the tail (the tail itself on a
        self-loop)."""
        a, b = edge.ends
        return a if b == self.tail else b

    def reversed(self, edge: Edge) -> EdgeMapData:
        """The same edge oriented head -> tail: negated direction, same
        weight."""
        return EdgeMapData(tuple(-x for x in self.u), self.w, self.head(edge))


class _EdgeDirections:
    """Direction lookups shared by maps and types through their
    ``edge_data``."""

    edge_data: Mapping[str, EdgeMapData]

    def direction_from(self, edge: Edge, vid: str) -> IntVec:
        """Direction of the edge read outward from the given endpoint."""
        d = self.edge_data[edge.id]
        return d.u if d.tail == vid else tuple(-x for x in d.u)

    def weighted_direction(self, edge_id: str) -> IntVec:
        d = self.edge_data[edge_id]
        return tuple(d.w * x for x in d.u)


@dataclass(frozen=True)
class ScaledMap:
    """A map's positions and finite edge lengths times one common positive
    denominator, as integers."""

    denominator: int
    positions: Mapping[str, IntVec]
    lengths: Mapping[str, int]


@dataclass(frozen=True)
class TropicalStableMap(_EdgeDirections):
    curve: TropicalCurve
    fan: Fan
    positions: Mapping[str, RatVec]
    edge_data: Mapping[str, EdgeMapData]

    @cached_property
    def scaled(self) -> ScaledMap:
        """The positions and finite lengths times D, the lcm of their
        denominators.  The per-map decisions (validation, cycle span,
        arrangement, trapped subcurves) run on these integers; every one of
        them is invariant under scaling by D."""
        lengths = {e.id: e.length for e in self.curve.edges if not isinstance(e.length, InfiniteLength)}
        d = lcm(*(x.denominator for x in lengths.values()),
                *(x.denominator for p in self.positions.values() for x in p))
        return ScaledMap(
            d,
            {vid: tuple(x.numerator * (d // x.denominator) for x in p) for vid, p in self.positions.items()},
            {eid: x.numerator * (d // x.denominator) for eid, x in lengths.items()},
        )

    @cached_property
    def located_cones(self) -> Mapping[str, Optional[Cone]]:
        """The minimal fan cone holding each finite vertex's position
        (:func:`cone_locate`; None outside the fan support).  Validation and
        the combinatorial type of a strict fan map read it."""
        return {vid: cone_locate(self.fan, self.positions[vid]) for vid in self.curve.unmarked_vertex_ids()}


def _orient_leaves(graph: TropicalCurve, edge_data: Mapping[str, EdgeMapData]) -> dict[str, EdgeMapData]:
    """Reverse every marked leaf-edge whose tail is the marked end, so the
    tail is the finite endpoint."""
    data = dict(edge_data)
    marked = graph.marked_vertex_ids
    for e in graph.edges:
        d = data.get(e.id)
        if d is not None and d.tail in marked:
            data[e.id] = d.reversed(e)
    return data


def stable_map(
    curve: TropicalCurve,
    fan: Fan,
    positions: Mapping[str, Sequence],
    edge_data: Mapping[str, EdgeMapData],
) -> TropicalStableMap:
    """Normalizing constructor.

    Sorts nothing (the curve already is), converts positions to exact
    rationals, and reorients marked leaf-edges so their tail is the finite
    endpoint.
    """
    pos = {vid: ratvec(p) for vid, p in positions.items()}
    return TropicalStableMap(curve, fan, pos, _orient_leaves(curve, edge_data))


# ---------------------------------------------------------------------------
# validation

def _edge_data_diagnostics(c: TropicalCurve, edge_data: Mapping[str, EdgeMapData], ambient: int) -> list[str]:
    diags = []
    for e in c.edges:
        d = edge_data.get(e.id)
        if d is None:
            diags.append(f"edge {e.id} has no direction/weight data")
            continue
        if d.tail not in e.ends:
            diags.append(f"edge {e.id}: tail {d.tail} is not an endpoint")
        if len(d.u) != ambient:
            diags.append(f"edge {e.id}: direction has length {len(d.u)}, expected {ambient}")
            continue
        zero = is_zero_vec(d.u)
        if d.w < 0:
            diags.append(f"edge {e.id}: negative weight {d.w}")
        if zero != (d.w == 0):
            diags.append(f"edge {e.id}: weight is zero exactly when the direction is zero")
        if not zero and vector_content(d.u) != 1:
            diags.append(f"edge {e.id}: direction {d.u} is not primitive")
        if e.ends[0] == e.ends[1] and not (zero and d.w == 0):
            diags.append(f"self-loop {e.id} must be contracted (zero direction and weight)")
    for eid in edge_data:
        if not c.has_edge(eid):
            diags.append(f"direction data for unknown edge {eid}")
    return diags


# The prefix of the stability diagnostic, which callers that allow
# 2-valent vertices (interior samples, family members) drop by exact match.
STABILITY_VIOLATED = "stability violated at 2-valent vertex "


def validate_map(m: TropicalStableMap, data: Optional[DiscreteData] = None) -> list[str]:
    """Diagnostics for the map axioms and (optionally) fixed discrete data.

    Returns the empty list iff the map is valid; each entry names the vertex
    or edge and the violated condition.
    """
    diags = [f"curve: {d}" for d in validate_curve(m.curve)]
    if diags:
        return diags
    if not curves.is_smooth(m.curve):
        diags.append("curve: unmarked edge of infinite length (map source must be smooth)")
        return diags

    ambient = m.fan.ambient_dim
    diags.extend(_edge_data_diagnostics(m.curve, m.edge_data, ambient))

    marked = m.curve.marked_vertex_ids
    finite_ids = m.curve.unmarked_vertex_ids()
    for vid in finite_ids:
        p = m.positions.get(vid)
        if p is None:
            diags.append(f"vertex {vid} has no position")
        elif len(p) != ambient:
            diags.append(f"vertex {vid}: position has length {len(p)}, expected {ambient}")
    for vid in m.positions:
        if vid in marked:
            diags.append(f"marked vertex {vid} cannot carry a position")
        elif not m.curve.has_vertex(vid):
            diags.append(f"position for unknown vertex {vid}")
    if diags:
        return diags

    # integrality along bounded edges, at the common denominator
    scaled = m.scaled
    for e in m.curve.edges:
        if m.curve.is_marked_leaf_edge(e):
            continue
        if e.ends[0] == e.ends[1]:
            continue  # contracted by the loop rule; no displacement constraint
        d = m.edge_data[e.id]
        step = scaled.lengths[e.id] * d.w
        actual = [h - t for h, t in zip(scaled.positions[d.head(e)], scaled.positions[d.tail])]
        if actual != [step * x for x in d.u]:
            displacement = tuple(format_rational(Fraction(x, scaled.denominator)) for x in actual)
            diags.append(
                f"integrality violated on edge {e.id}: displacement "
                f"{displacement} != length*weight*direction"
            )

    diags.extend(msg for _, msg in balancing_diagnostics(m.curve, m.edge_data, ambient))

    # stability of 2-valent vertices
    for vid in finite_ids:
        if m.curve.valence(vid) != 2:
            continue
        if _star_in_single_cone_interior(m, vid):
            diags.append(f"{STABILITY_VIOLATED}{vid}")

    # position membership in the fan support
    if not m.fan.embedded:
        for vid in finite_ids:
            if m.located_cones[vid] is None:
                diags.append(f"vertex {vid}: position outside the fan support")

    if data is not None:
        g = betti_and_genus(m.curve)[1]
        if g != data.genus:
            diags.append(f"genus {g} != declared genus {data.genus}")
        labels = {mk.label for mk in m.curve.markings}
        if labels != set(data.contact):
            diags.append("marking labels differ from the declared contact data")
        else:
            for mk in m.curve.markings:
                e = m.curve.edges_at(mk.vertex)[0]
                got = m.weighted_direction(e.id)
                if got != tuple(data.contact[mk.label]):
                    diags.append(
                        f"marking {mk.label}: weighted direction {got} != contact "
                        f"vector {tuple(data.contact[mk.label])}"
                    )
    return diags


def balancing_diagnostics(
    graph: TropicalCurve, edge_data: Mapping[str, EdgeMapData], ambient: int
) -> list[tuple[str, str]]:
    """(vertex, diagnostic) for every finite vertex whose outgoing weighted
    directions do not sum to zero.  Needs directions and weights only, so
    it applies to maps and types alike."""
    out = []
    for vid in graph.unmarked_vertex_ids():
        total = [0] * ambient
        for e in graph.edges_at(vid):
            if e.ends[0] == e.ends[1]:
                continue  # the two half-edges of a loop cancel
            d = edge_data[e.id]
            w = d.w if d.tail == vid else -d.w
            total = [t + w * x for t, x in zip(total, d.u)]
        if any(total):
            net = tuple(map(format_rational, total))
            out.append((vid, f"balancing violated at vertex {vid}: net weighted direction {net}"))
    return out


def _star_in_single_cone_interior(m: TropicalStableMap, vid: str) -> bool:
    """Is the image of the star of a 2-valent vertex contained in the
    relative interior of a single cone?

    In embedded mode the whole space plays that role, so any 2-valent vertex
    is redundant.  Otherwise the candidate cone is the one whose relative
    interior holds the position, and a short segment p + eps*d stays inside
    exactly when d lies in the cone's linear span.
    """
    if m.fan.embedded:
        return True
    sigma = m.located_cones[vid]
    if sigma is None:
        return False
    span_rows = list(sigma.rays)
    for e in m.curve.edges_at(vid):
        dirs = [m.direction_from(e, vid)]
        if e.ends[0] == e.ends[1]:
            dirs.append(tuple(-x for x in dirs[0]))
        for u in dirs:
            w = m.edge_data[e.id].w
            d = tuple(w * x for x in u)
            if is_zero_vec(d):
                continue
            if not span_rows:
                return False
            if rank(span_rows + [d]) != rank(span_rows):
                return False
    return True


def discrete_data_of(m: TropicalStableMap) -> DiscreteData:
    """The genus, marking count, and contact vectors realized by the map."""
    g = betti_and_genus(m.curve)[1]
    contact = {}
    for mk in m.curve.markings:
        e = m.curve.edges_at(mk.vertex)[0]
        contact[mk.label] = m.weighted_direction(e.id)
    return discrete_data(g, contact)


# ---------------------------------------------------------------------------
# combinatorial and recession types

PLACEHOLDER_LENGTH = Fraction(1)


@dataclass(frozen=True)
class CombinatorialType(_EdgeDirections):
    """A map with lengths and positions forgotten.

    ``graph`` carries placeholder length 1 on every bounded edge (a type has
    no metric; the placeholder keeps the curve machinery reusable), the fan
    is retained so degenerations know where cones live, and ``vertex_cones``
    records the cone attached to each finite vertex.
    """

    graph: TropicalCurve
    fan: Fan
    vertex_cones: Mapping[str, Cone]
    edge_data: Mapping[str, EdgeMapData]

    def bounded_edge_ids(self) -> tuple[str, ...]:
        """The edges that are not marked leaf-edges, in curve order."""
        return self._bounded_edge_ids

    @cached_property
    def _bounded_edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.graph.edges if not self.graph.is_marked_leaf_edge(e))

    @cached_property
    def vertex_profiles(self) -> Mapping[str, tuple]:
        """(genus, valence, sorted edge signatures) of each finite vertex;
        isomorphisms preserve it."""
        g = self.graph
        return {
            vid: (g.vertex(vid).genus, g.valence(vid),
                  tuple(sorted(_edge_signature(self, e, vid) for e in g.edges_at(vid))))
            for vid in g.unmarked_vertex_ids()
        }

    @cached_property
    def adjacency(self) -> Mapping[tuple[str, str], tuple]:
        """The sorted edge signatures of the edges joining each vertex to
        each neighbour, read from the vertex; isomorphisms preserve it."""
        g = self.graph
        out: dict[tuple[str, str], list] = {}
        for v in g.vertices:
            for e in g.edges_at(v.id):
                a, b = e.ends
                out.setdefault((v.id, b if a == v.id else a), []).append(_edge_signature(self, e, v.id))
        return {pair: tuple(sorted(sigs)) for pair, sigs in out.items()}

    @cached_property
    def marked_edges(self) -> Mapping[str, Edge]:
        """The leaf-edge of each marking label."""
        return {m.label: self.graph.marked_edge(m.label) for m in self.graph.markings}


@dataclass(frozen=True)
class RecessionType:
    """Everything bounded collapsed to one vertex: genus plus the marked
    contact vectors, which necessarily sum to zero."""

    genus: int
    contacts: tuple[tuple[str, IntVec], ...]


def _strip_lengths(c: TropicalCurve) -> TropicalCurve:
    edges = [
        Edge(e.id, e.ends, curves.INF if c.is_marked_leaf_edge(e) else PLACEHOLDER_LENGTH)
        for e in c.edges
    ]
    return tropical_curve(c.vertices, edges, c.markings)


def make_type(
    graph: TropicalCurve,
    fan: Fan,
    edge_data: Mapping[str, EdgeMapData],
    vertex_cones: Optional[Mapping[str, Cone]] = None,
) -> CombinatorialType:
    """Build a type directly; in embedded mode the vertex cones default to
    the zero cone."""
    graph = _strip_lengths(graph)
    marked = graph.marked_vertex_ids
    if vertex_cones is None:
        vertex_cones = {}
    cones = dict(vertex_cones)
    for vid in graph.unmarked_vertex_ids():
        cones.setdefault(vid, zero_cone(fan.ambient_dim))
    cones = {vid: canonical_cone(c) for vid, c in cones.items() if vid not in marked}
    for e in graph.edges:
        if e.id not in edge_data:
            raise ValueError(f"edge {e.id} has no direction/weight data")
    return CombinatorialType(graph, fan, cones, _orient_leaves(graph, edge_data))


def combinatorial_type(m: TropicalStableMap) -> CombinatorialType:
    """Forget lengths and positions.

    In embedded mode every finite vertex receives the zero cone (positions
    roam the whole space); otherwise the vertex cone is the minimal fan cone
    whose relative interior contains the position.
    """
    cones: dict[str, Cone] = {}
    if not m.fan.embedded:
        for vid in m.curve.unmarked_vertex_ids():
            located = m.located_cones[vid]
            if located is None:
                raise ValueError(f"vertex {vid}: position outside the fan support")
            cones[vid] = located
    return make_type(m.curve, m.fan, m.edge_data, cones)


def recession_type(t: CombinatorialType) -> RecessionType:
    g = betti_and_genus(t.graph)[1]
    contacts = []
    for mk in t.graph.markings:
        e = t.graph.edges_at(mk.vertex)[0]
        contacts.append((mk.label, t.weighted_direction(e.id)))
    contacts.sort()
    total = [0] * t.fan.ambient_dim
    for _, vec in contacts:
        total = [a + b for a, b in zip(total, vec)]
    if any(x != 0 for x in total):
        raise ValueError("contact vectors do not balance at the collapsed vertex")
    return RecessionType(g, tuple(contacts))


# ---------------------------------------------------------------------------
# canonical forms

def _lex_positive(u: IntVec) -> IntVec:
    """The lexicographically positive one of ±u (u itself when zero)."""
    for x in u:
        if x:
            return u if x > 0 else tuple(-y for y in u)
    return u


def canonical_edge_data(graph: TropicalCurve, data: Mapping[str, EdgeMapData]) -> dict[str, EdgeMapData]:
    """Reorient each edge so its direction is lexicographically positive
    (marked leaf-edges keep the finite tail; zero directions take the
    smaller endpoint as tail)."""
    marked = graph.marked_vertex_ids
    out = {}
    for e in graph.edges:
        d = data[e.id]
        a, b = e.ends
        if a in marked or b in marked:
            out[e.id] = d
        elif is_zero_vec(d.u):
            out[e.id] = EdgeMapData(d.u, d.w, min(a, b))
        elif _lex_positive(d.u) == d.u:
            out[e.id] = d
        else:
            out[e.id] = d.reversed(e)
    return out


def canonical_type(t: CombinatorialType) -> CombinatorialType:
    return CombinatorialType(t.graph, t.fan, dict(t.vertex_cones), canonical_edge_data(t.graph, t.edge_data))


def canonical_map(m: TropicalStableMap) -> TropicalStableMap:
    return TropicalStableMap(m.curve, m.fan, dict(m.positions), canonical_edge_data(m.curve, m.edge_data))


# ---------------------------------------------------------------------------
# decorated isomorphisms and automorphisms

@dataclass(frozen=True)
class TypeAutomorphism:
    """A decorated-graph automorphism: a vertex permutation together with an
    edge permutation; an edge entry maps to (image edge, reversed?)."""

    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]


def _edge_signature(t: CombinatorialType, e: Edge, vid: str) -> tuple:
    return (t.edge_data[e.id].w, t.direction_from(e, vid))


def _backtrack(n: int, options: Callable[[tuple], Iterable]) -> Iterator[tuple]:
    """Every tuple of ``n`` choices whose i-th entry is one of
    ``options(first i choices)``, depth first in the order the options come.

    The search keeps one explicit stack of option iterators, so it recurses
    through nothing; ``options`` may be lazy, as it is handed a tuple."""
    if n == 0:
        yield ()
        return
    chosen: tuple = ()
    stack = [iter(options(chosen))]
    while stack:
        try:
            choice = next(stack[-1])
        except StopIteration:
            stack.pop()
            chosen = chosen[:-1]
            continue
        if len(chosen) + 1 == n:
            yield (*chosen, choice)
        else:
            chosen = (*chosen, choice)
            stack.append(iter(options(chosen)))


def decorated_isomorphisms(
    t1: CombinatorialType,
    t2: CombinatorialType,
    vertex_ok: Optional[Callable[[str, str], bool]] = None,
) -> Iterator[tuple[dict[str, str], dict[str, tuple[str, bool]]]]:
    """All isomorphisms graph(t1) -> graph(t2) fixing markings pointwise and
    preserving genus, weights, directions up to reorientation (a reversed
    edge negates its direction), and — via ``vertex_ok`` — the vertex cones.

    The default ``vertex_ok`` demands equal vertex cones, which types hold
    in canonical form.

    One backtracking search runs in two stages.  The finite vertices of t1,
    by decreasing valence, take the unused vertices of t2 with the same
    profile and the same adjacency to every vertex mapped so far.  Then the
    bounded edges of t1, grouped by the images of their ends, take the
    unused edges of t2 between those images, each with its compatible
    orientations.  Isomorphisms come out in the lexicographic order of
    these choices.
    """
    g1, g2 = t1.graph, t2.graph
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return
    labels1 = {m.label: m.vertex for m in g1.markings}
    labels2 = {m.label: m.vertex for m in g2.markings}
    if set(labels1) != set(labels2):
        return
    for label in labels1:
        d1 = t1.edge_data[t1.marked_edges[label].id]
        d2 = t2.edge_data[t2.marked_edges[label].id]
        if (d1.u, d1.w) != (d2.u, d2.w):
            return
    marked_vmap = {v1: labels2[label] for label, v1 in labels1.items()}
    marked_emap = {e1.id: (t2.marked_edges[label].id, False) for label, e1 in t1.marked_edges.items()}

    free1 = sorted(g1.unmarked_vertex_ids(), key=lambda v: (-g1.valence(v), v))
    free2 = sorted(g2.unmarked_vertex_ids())
    profiles1, profiles2 = t1.vertex_profiles, t2.vertex_profiles
    adjacency1, adjacency2 = t1.adjacency, t2.adjacency

    def vertex_options(images: tuple[str, ...]) -> Iterator[str]:
        v1 = free1[len(images)]
        mapped = [*marked_vmap.items(), *zip(free1, images)]
        for v2 in free2:
            if v2 in images or profiles2[v2] != profiles1[v1]:
                continue
            if not (vertex_ok(v1, v2) if vertex_ok else t1.vertex_cones[v1] == t2.vertex_cones[v2]):
                continue
            if all(adjacency1.get((v1, u1), ()) == adjacency2.get((v2, u2), ()) for u1, u2 in mapped):
                yield v2

    targets: dict[tuple[str, ...], list[Edge]] = {}
    for eid in t2.bounded_edge_ids():
        e2 = g2.edge(eid)
        targets.setdefault(tuple(sorted(e2.ends)), []).append(e2)
    target_sizes = {pair: len(sinks) for pair, sinks in targets.items()}

    # (source edge, its candidate sinks) per bounded edge of t1, group by
    # group; rebound with the vertex map for each vertex assignment
    slots: list[tuple[Edge, list[Edge]]] = []
    vmap: dict[str, str] = {}

    def edge_options(images: tuple[tuple[Edge, bool], ...]) -> Iterator[tuple[Edge, bool]]:
        e1, sinks = slots[len(images)]
        used = {e2.id for e2, _ in images}
        d1 = t1.edge_data[e1.id]
        orientations = ((False, d1), (True, d1.reversed(e1)))
        for e2 in sinks:
            d2 = t2.edge_data[e2.id]
            for flip, d in orientations:
                # e1 read this way round carries e2's data onto e2's tail
                if e2.id not in used and (d.u, d.w, vmap[d.tail]) == (d2.u, d2.w, d2.tail):
                    yield e2, flip

    for images in _backtrack(len(free1), vertex_options):
        vmap = {**marked_vmap, **dict(zip(free1, images))}
        groups: dict[tuple[str, ...], list[Edge]] = {}
        for eid in t1.bounded_edge_ids():
            e1 = g1.edge(eid)
            groups.setdefault(tuple(sorted((vmap[e1.ends[0]], vmap[e1.ends[1]]))), []).append(e1)
        if {pair: len(sources) for pair, sources in groups.items()} != target_sizes:
            continue
        slots = [(e1, targets[pair]) for pair in sorted(groups) for e1 in groups[pair]]
        for choices in _backtrack(len(slots), edge_options):
            emap = {e1.id: (e2.id, flip) for (e1, _), (e2, flip) in zip(slots, choices)}
            yield dict(vmap), {**marked_emap, **emap}


def type_automorphisms(t: CombinatorialType) -> list[TypeAutomorphism]:
    """All decorated automorphisms of the type (markings fixed pointwise).

    A contracted self-loop may map to itself with either orientation, so each
    such loop contributes a factor of two.
    """
    t = canonical_type(t)
    out = []
    for vmap, emap in decorated_isomorphisms(t, t):
        out.append(TypeAutomorphism(vmap, emap))
    return out


# ---------------------------------------------------------------------------
# stars

def star(m: TropicalStableMap, vid: str) -> TropicalStableMap:
    """The one-vertex map seen at ``vid``: every incident bounded edge becomes
    an unbounded marked ray with the inherited direction and weight, existing
    markings stay, and contracted self-loops contribute nothing."""
    if not m.curve.has_vertex(vid):
        raise ValueError(f"unknown vertex {vid}")
    if vid in m.curve.marked_vertex_ids:
        raise ValueError(f"vertex {vid} is a marked leaf vertex")
    center = m.curve.vertex(vid)
    vertices = [center]
    edges: list[Edge] = []
    markings: list[Marking] = []
    edge_data: dict[str, EdgeMapData] = {}
    marked = m.curve.marked_vertex_ids
    for e in m.curve.edges_at(vid):
        a, b = e.ends
        if a == b:
            d = m.edge_data[e.id]
            if d.w != 0 or not is_zero_vec(d.u):
                raise ValueError(f"self-loop {e.id} is not contracted")
            continue  # contracted loop: its two rays have zero direction
        other = b if a == vid else a
        if other in marked:
            label = next(mk.label for mk in m.curve.markings if mk.vertex == other)
            vertices.append(m.curve.vertex(other))
            edges.append(Edge(e.id, e.ends, curves.INF))
            markings.append(Marking(label, other))
            edge_data[e.id] = m.edge_data[e.id]
        else:
            leaf = f"inf:{e.id}"
            vertices.append(Vertex(leaf, 0))
            edges.append(Edge(e.id, (vid, leaf), curves.INF))
            markings.append(Marking(f"star:{e.id}", leaf))
            u = m.direction_from(e, vid)
            edge_data[e.id] = EdgeMapData(u, m.edge_data[e.id].w, vid)
    c = tropical_curve(vertices, edges, markings)
    return stable_map(c, m.fan, {vid: m.positions[vid]}, edge_data)
