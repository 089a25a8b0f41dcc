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
from itertools import islice
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import curves
from .curves import (
    Edge,
    InfiniteLength,
    Marking,
    TropicalCurve,
    Vertex,
    _curve_diagnostics,
    tropical_curve,
    validate_curve,
)
from .exactgeom import (
    Cone,
    Fan,
    IntVec,
    RatVec,
    _canonical_pointed,
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
        return self._weighted_directions[edge_id]

    @cached_property
    def _weighted_directions(self) -> Mapping[str, IntVec]:
        """w*u of every edge, built once per map or type."""
        return {eid: tuple(d.w * x for x in d.u) for eid, d in self.edge_data.items()}


def _integers(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """D, the lcm of the denominators, and each value times D."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


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
        lengths = [e for e in self.curve.edges if not isinstance(e.length, InfiniteLength)]
        d, scaled = _integers([*(x for p in self.positions.values() for x in p), *(e.length for e in lengths)])
        values = iter(scaled)
        return ScaledMap(
            d,
            {vid: tuple(islice(values, len(p))) for vid, p in self.positions.items()},
            {e.id: x for e, x in zip(lengths, values)},
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
# 2-valent vertices (family members) drop by exact match.
STABILITY_VIOLATED = "stability violated at 2-valent vertex "


def validate_map(m: TropicalStableMap) -> list[str]:
    """Diagnostics for the map axioms.

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
    diags.extend(_position_diagnostics(m.curve, m.positions, ambient))
    if diags:
        return diags

    bounded = (e for e in m.curve.edges if not m.curve.is_marked_leaf_edge(e) and e.ends[0] != e.ends[1])
    diags.extend(_integrality_diagnostics(m.edge_data, m.scaled, bounded))
    diags.extend(msg for _, msg in balancing_diagnostics(m.curve, m.edge_data, ambient))

    # stability of 2-valent vertices; an embedded fan reads no cone
    cones = {} if m.fan.embedded else m.located_cones
    diags.extend(f"{STABILITY_VIOLATED}{vid}" for vid in _unstable_vertices(m.curve, m.fan, cones, m))

    # position membership in the fan support
    if not m.fan.embedded:
        for vid in m.curve.unmarked_vertex_ids():
            if m.located_cones[vid] is None:
                diags.append(_outside_support(vid))
    return diags


def _position_diagnostics(c: TropicalCurve, positions: Mapping[str, Sequence], ambient: int) -> list[str]:
    """Every finite vertex has a position of the ambient length, and no
    other vertex has one."""
    diags = []
    marked = c.marked_vertex_ids
    for vid in c.unmarked_vertex_ids():
        p = positions.get(vid)
        if p is None:
            diags.append(f"vertex {vid} has no position")
        elif len(p) != ambient:
            diags.append(f"vertex {vid}: position has length {len(p)}, expected {ambient}")
    for vid in positions:
        if vid in marked:
            diags.append(f"marked vertex {vid} cannot carry a position")
        elif not c.has_vertex(vid):
            diags.append(f"position for unknown vertex {vid}")
    return diags


def _integrality_diagnostics(
    edge_data: Mapping[str, EdgeMapData], scaled: ScaledMap, edges: Iterable[Edge]
) -> list[str]:
    """The integrality axiom on the given bounded non-loop edges, at the
    common denominator."""
    diags = []
    for e in edges:
        d = edge_data[e.id]
        step = scaled.lengths[e.id] * d.w
        actual = [h - t for h, t in zip(scaled.positions[d.head(e)], scaled.positions[d.tail])]
        if actual != [step * x for x in d.u]:
            displacement = tuple(format_rational(Fraction(x, scaled.denominator)) for x in actual)
            diags.append(
                f"integrality violated on edge {e.id}: displacement "
                f"{displacement} != length*weight*direction"
            )
    return diags


def _outside_support(vid: str) -> str:
    return f"vertex {vid}: position outside the fan support"


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


def _star_in_single_cone_interior(fan: Fan, sigma: Optional[Cone], directions: Iterable[IntVec]) -> bool:
    """Is the image of the star of a 2-valent vertex, with the weighted
    directions ``directions`` read outward, contained in the relative
    interior of a single cone?

    In embedded mode the whole space plays that role, so any 2-valent vertex
    is redundant.  Otherwise the candidate cone is sigma, the one whose
    relative interior holds the vertex (None outside the fan's support), and
    a short segment p + eps*d stays inside exactly when d lies in the cone's
    linear span.
    """
    if fan.embedded:
        return True
    if sigma is None:
        return False
    span_rows = list(sigma.rays)
    for d in directions:
        if is_zero_vec(d):
            continue
        if not span_rows or rank(span_rows + [d]) != rank(span_rows):
            return False
    return True


def _unstable_vertices(
    curve: TropicalCurve, fan: Fan, cones: Mapping[str, Optional[Cone]], map_or_type: _EdgeDirections
) -> list[str]:
    """The finite vertices of a map's or a type's curve that break the
    stability axiom, in curve order: the 2-valent ones whose star lies in
    the relative interior of a single cone, ``cones[vid]`` in strict mode.
    Valences are scanned first, so only 2-valent vertices reach the span
    test."""
    out = []
    for vid in curve.unmarked_vertex_ids():
        if curve.valence(vid) != 2:
            continue
        directions = [
            tuple(map_or_type.edge_data[e.id].w * x for x in map_or_type.direction_from(e, vid))
            for e in curve.edges_at(vid)
        ]
        if _star_in_single_cone_interior(fan, cones.get(vid), directions):
            out.append(vid)
    return out


# ---------------------------------------------------------------------------
# combinatorial types

PLACEHOLDER_LENGTH = Fraction(1)


class _LocalInvariants(NamedTuple):
    """What a type's isomorphism search reads of each vertex's own edges,
    all kept by isomorphisms: ``profiles`` holds (genus, valence, sorted
    edge signatures) of each finite vertex, where an edge's signature read
    from one end is (weight, direction read outward) and a self-loop is
    read once; ``adjacency`` the sorted signatures of the edges joining
    each vertex to each neighbour, read from the vertex; ``neighbours``
    the sorted neighbours of each vertex."""

    profiles: Mapping[str, tuple]
    adjacency: Mapping[tuple[str, str], tuple]
    neighbours: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class CombinatorialType(_EdgeDirections):
    """A map with lengths and positions forgotten.

    ``graph`` carries placeholder length 1 on every bounded edge (a type has
    no metric; the placeholder keeps the curve machinery reusable), the fan
    is retained so degenerations know where cones live, and ``vertex_cones``
    records the cone attached to each finite vertex.

    :func:`make_type` builds a type and checks it.  Constructing one
    directly checks nothing; it is the private path for types derived from
    a valid type, the contractions of ``moduli`` and the canonical copies
    of :func:`canonical_type`, which are valid because their source is.
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
        marked = self.graph.marked_vertex_ids
        return tuple(e.id for e in self.graph.edges if e.ends[0] not in marked and e.ends[1] not in marked)

    @cached_property
    def spanning_tree(self) -> tuple[Mapping[str, tuple[str, Edge, int]], tuple[Edge, ...]]:
        """BFS tree over the finite vertices along bounded non-loop edges,
        from the first finite vertex: (vertex -> (parent, edge, sign), the
        bounded edges off the tree in curve order).  The sign is +1 when
        the edge's stored direction points parent -> child.  Every parent
        is inserted before its children.

        Each frontier vertex reads its own incidence list, which holds its
        edges in curve edge order, so it takes the children that a scan of
        every bounded edge per frontier vertex takes, in that order: the
        same parents, signs and non-tree edges.  An edge to a vertex that
        is not in the graph joins nothing."""
        g = self.graph
        marked = g.marked_vertex_ids
        parent: dict[str, tuple[str, Edge, int]] = {}
        order = list(g.unmarked_vertex_ids()[:1])
        seen = set(order)
        for vid in order:  # grows while it is read, one BFS level after another
            for e in g.edges_at(vid):
                a, b = e.ends
                child = b if a == vid else a
                if child in seen or child in marked or not g.has_vertex(child):
                    continue  # a self-loop, a marked leaf-edge, or a vertex reached before
                parent[child] = (vid, e, 1 if self.edge_data[e.id].tail == vid else -1)
                seen.add(child)
                order.append(child)
        tree = {e.id for _, e, _ in parent.values()}
        non_tree = tuple(g.edge(eid) for eid in self.bounded_edge_ids() if eid not in tree)
        return parent, non_tree

    @cached_property
    def _local(self) -> _LocalInvariants:
        """The profiles, the adjacency and the sorted neighbours of every
        vertex, from one pass over the edges that reads one signature per
        half-edge; a self-loop is read once, as its vertex's incidence list
        holds it once, and counts twice towards the valence."""
        g = self.graph
        sigs: dict[str, list] = {v.id: [] for v in g.vertices}
        loops = dict.fromkeys(sigs, 0)
        neighbours: dict[str, list[str]] = {vid: [] for vid in sigs}
        adjacency: dict[tuple[str, str], tuple] = {}
        for e in g.edges:
            a, b = e.ends
            d = self.edge_data[e.id]
            out = (d.w, d.u)
            if a == b:
                loops[a] += 1
                sigs[a].append(out)
                adjacency[a, a] = tuple(sorted((*adjacency.get((a, a), ()), out)))
                continue
            back = (d.w, tuple([-x for x in d.u]))
            if d.tail != a:
                out, back = back, out
            sigs[a].append(out)
            sigs[b].append(back)
            if (a, b) in adjacency:  # a parallel edge
                adjacency[a, b] = tuple(sorted((*adjacency[a, b], out)))
                adjacency[b, a] = tuple(sorted((*adjacency[b, a], back)))
            else:
                adjacency[a, b], adjacency[b, a] = (out,), (back,)
                neighbours[a].append(b)
                neighbours[b].append(a)
        marked = g.marked_vertex_ids
        return _LocalInvariants(
            {
                v.id: (v.genus, len(sigs[v.id]) + loops[v.id], tuple(sorted(sigs[v.id])))
                for v in g.vertices
                if v.id not in marked
            },
            adjacency,
            {vid: tuple(sorted(us)) for vid, us in neighbours.items()},
        )

    @cached_property
    def _canonical(self) -> Optional[CombinatorialType]:
        """:func:`canonical_type` of this type, or None when that is the
        type itself, so that no type refers to itself."""
        data = canonical_edge_data(self.graph, self.edge_data)
        if data.keys() == self.edge_data.keys() and all(d is self.edge_data[eid] for eid, d in data.items()):
            return None
        t = CombinatorialType(self.graph, self.fan, dict(self.vertex_cones), data)
        t.__dict__["_canonical"] = None  # the cached property's slot: canonical data is kept as it is
        return t

    @cached_property
    def marked_edges(self) -> Mapping[str, Edge]:
        """The leaf-edge of each marking label, read in one pass over the
        edges (a self-loop once), without the curve's incidence lists."""
        g = self.graph
        at: dict[str, list[Edge]] = {m.vertex: [] for m in g.markings}
        for e in g.edges:
            a, b = e.ends
            if a in at:
                at[a].append(e)
            if b != a and b in at:
                at[b].append(e)
        out = {}
        for m in g.markings:
            edges = at[m.vertex]
            if len(edges) != 1:
                raise ValueError(f"marked vertex {m.vertex} is not 1-valent")
            out[m.label] = edges[0]
        return out


def _strip_lengths(c: TropicalCurve) -> TropicalCurve:
    """The curve with placeholder lengths; a leaf-edge that already has
    infinite length is kept as it is, and so is a curve that
    :func:`tropical_curve` would rebuild unchanged with these lengths."""
    if _is_stripped(c):
        return c
    edges = [
        (e if e.length is curves.INF else Edge(e.id, e.ends, curves.INF))
        if c.is_marked_leaf_edge(e) else Edge(e.id, e.ends, PLACEHOLDER_LENGTH)
        for e in c.edges
    ]
    return tropical_curve(c.vertices, edges, c.markings)


def _is_stripped(c: TropicalCurve) -> bool:
    """Are the vertex ids, edge ids and marking labels strictly increasing,
    every edge's ends in order, every marked leaf-edge of length ``INF`` and
    every other edge of the placeholder length, as an exact rational?"""
    marked = c.marked_vertex_ids
    for e in c.edges:
        a, b = e.ends
        if b < a:
            return False
        if a in marked or b in marked:
            if e.length is not curves.INF:
                return False
        elif type(e.length) is not Fraction or e.length != PLACEHOLDER_LENGTH:
            return False
    return all(
        all(x < y for x, y in zip(ids, ids[1:]))
        for ids in (
            [v.id for v in c.vertices],
            [e.id for e in c.edges],
            [m.label for m in c.markings],
        )
    )


class InvalidType(ValueError):
    """A type that :func:`make_type` refuses; ``vertex`` is the finite or
    marked vertex the diagnostic names, or None when it names none, and
    ``field`` the part of the type it refuses there: ``"curve"`` (the
    vertex itself) or ``"vertex_cones"`` (the vertex's cone)."""

    def __init__(self, message: str, vertex: Optional[str] = None, field: str = "curve"):
        super().__init__(message)
        self.vertex = vertex
        self.field = field


def make_type(
    graph: TropicalCurve,
    fan: Fan,
    edge_data: Mapping[str, EdgeMapData],
    vertex_cones: Optional[Mapping[str, Cone]] = None,
) -> CombinatorialType:
    """Build a type, checked once against the axioms that every map of the
    type shares; in embedded mode the vertex cones default to the zero cone.

    The checks are those of ``validate_map`` that read no length and no
    position, in its order: the curve (:func:`validate_curve` on the graph
    with placeholder lengths, markings included), the edge data and
    balancing.  In strict mode each vertex cone, canonicalized by
    :func:`_canonical_pointed` (the zero cone is its own canonical form),
    must be a cone of the fan; a cone with a line whose extreme rays come
    out pointed is refused, not read as that pointed cone.  The first
    failure raises :class:`InvalidType`.  Stability is left out, because
    families pass through 2-valent vertices; the commands that read a type
    check it (``documents.require_stable``)."""
    graph = _strip_lengths(graph)
    for vid, message in _curve_diagnostics(graph):
        raise InvalidType(message, vid)
    for message in _edge_data_diagnostics(graph, edge_data, fan.ambient_dim):
        raise InvalidType(message)
    for vid, message in balancing_diagnostics(graph, edge_data, fan.ambient_dim):
        raise InvalidType(message, vid)
    marked = graph.marked_vertex_ids
    cones = dict(vertex_cones or {})
    zero = zero_cone(fan.ambient_dim)
    for vid in graph.unmarked_vertex_ids():
        cones.setdefault(vid, zero)
    canonical = {}
    for vid, c in cones.items():
        if vid in marked:
            continue
        try:
            canonical[vid] = _canonical_pointed(c) if c.rays else c
        except ValueError:
            raise InvalidType(f"vertex cone of {vid} is not pointed", vid, "vertex_cones") from None
    if not fan.embedded:
        fan_cones = set(fan.cones)
        for vid in graph.unmarked_vertex_ids():
            if canonical[vid] not in fan_cones:
                raise InvalidType(f"vertex cone of {vid} is not a cone of the fan", vid, "vertex_cones")
    return CombinatorialType(graph, fan, canonical, _orient_leaves(graph, edge_data))


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
                raise ValueError(_outside_support(vid))
            cones[vid] = located
    return make_type(m.curve, m.fan, m.edge_data, cones)


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
            out[e.id] = d if d.tail == min(a, b) else EdgeMapData(d.u, d.w, min(a, b))
        elif _lex_positive(d.u) == d.u:
            out[e.id] = d
        else:
            out[e.id] = d.reversed(e)
    return out


def canonical_type(t: CombinatorialType) -> CombinatorialType:
    """The type with :func:`canonical_edge_data`; ``t`` itself, with what
    it has cached, when its edge data is already canonical.  Found once per
    type and cached on it, as is the canonical type's own."""
    canonical = t._canonical
    return t if canonical is None else canonical


# ---------------------------------------------------------------------------
# decorated isomorphisms and automorphisms

@dataclass(frozen=True)
class TypeAutomorphism:
    """A decorated-graph automorphism: a vertex permutation together with an
    edge permutation; an edge entry maps to (image edge, reversed?)."""

    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]


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
    these choices, the vertices of t2 taken in sorted id order.

    The vertex stage reads the types' local invariants (profiles, which
    hold the valence, adjacency and sorted neighbours, one pass over each
    type's edges).  A vertex with no neighbour mapped before it tries every
    free vertex of t2.  Otherwise the same adjacency to a mapped neighbour
    u makes the image a neighbour of u's image, so it tries only the
    neighbours of that image, which are sorted as well: the candidates
    that pass are the same and come in the same order, and so does every
    isomorphism.  A non-neighbour has empty adjacency, so the adjacency to
    every mapped vertex is the same exactly when it is the same to each
    mapped neighbour and the candidate has as many mapped neighbours.
    ``vertex_ok`` is asked last, of the candidates that pass these tests.
    The edge stage compares each edge's (direction, weight, image of the
    tail), read both ways round, with a sink's (direction, weight, tail).
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

    local1, local2 = t1._local, t2._local
    profiles1, profiles2 = local1.profiles, local2.profiles
    adjacency2, neighbours2 = local2.adjacency, local2.neighbours
    free1 = sorted(profiles1, key=lambda v: (-profiles1[v][1], v))
    free2 = sorted(profiles2)
    # a vertex's image is entry i of (marked images, chosen images) when
    # the vertex is the i-th of (marked vertices, free1); each free vertex
    # of t1 lists its neighbours mapped before it as (entry, adjacency)
    fixed = tuple(marked_vmap.values())
    entry = {v: i for i, v in enumerate((*marked_vmap, *free1))}
    links = [
        [(entry[u1], local1.adjacency[(v1, u1)]) for u1 in local1.neighbours[v1] if entry[u1] < entry[v1]]
        for v1 in free1
    ]

    def vertex_options(images: tuple[str, ...]) -> Iterator[str]:
        i = len(images)
        v1, checks = free1[i], links[i]
        profile = profiles1[v1]
        mapped = fixed + images
        for v2 in neighbours2[mapped[checks[0][0]]] if checks else free2:
            if v2 in images or profiles2.get(v2) != profile:
                continue  # used, marked, or of another profile
            if not all(adjacency2.get((v2, mapped[j])) == sigs for j, sigs in checks):
                continue
            if sum(u2 in mapped for u2 in neighbours2[v2]) != len(checks):
                continue
            if vertex_ok(v1, v2) if vertex_ok else t1.vertex_cones[v1] == t2.vertex_cones[v2]:
                yield v2

    # the bounded edges of t2 between each pair of ends, with their data as
    # (direction, weight, tail); those of t1 with their ends and data; both
    # read off the edges in curve order, as bounded_edge_ids lists them,
    # without building the edge index of a contraction that is searched once
    targets: dict[tuple[str, str], list[tuple[str, tuple]]] = {}
    marked2 = g2.marked_vertex_ids
    for e2 in g2.edges:
        a, b = e2.ends
        if a not in marked2 and b not in marked2:
            d2 = t2.edge_data[e2.id]
            targets.setdefault((a, b) if a <= b else (b, a), []).append((e2.id, (d2.u, d2.w, d2.tail)))
    target_sizes = {pair: len(sinks) for pair, sinks in targets.items()}
    sources = []
    marked1 = g1.marked_vertex_ids
    for e1 in g1.edges:
        a, b = e1.ends
        if a not in marked1 and b not in marked1:
            d1 = t1.edge_data[e1.id]
            sources.append((e1.id, e1.ends, d1, tuple([-x for x in d1.u]), d1.head(e1)))

    # (source edge, its data read both ways round onto the images, its
    # candidate sinks) per bounded edge of t1, group by group; rebound for
    # each vertex assignment
    slots: list[tuple[str, tuple, list]] = []

    def edge_options(chosen: tuple[tuple[str, bool], ...]) -> Iterator[tuple[str, bool]]:
        _, (forward, backward), sinks = slots[len(chosen)]
        used = {e2 for e2, _ in chosen}
        for e2, key in sinks:
            if e2 not in used:
                if key == forward:
                    yield e2, False
                if key == backward:
                    yield e2, True

    for images in _backtrack(len(free1), vertex_options):
        vmap = {**marked_vmap, **dict(zip(free1, images))}
        groups: dict[tuple[str, str], list[tuple[str, tuple]]] = {}
        for eid, (a, b), d1, back, head in sources:
            a, b = vmap[a], vmap[b]
            keys = ((d1.u, d1.w, vmap[d1.tail]), (back, d1.w, vmap[head]))
            groups.setdefault((a, b) if a <= b else (b, a), []).append((eid, keys))
        if {pair: len(group) for pair, group in groups.items()} != target_sizes:
            continue
        slots = [(eid, keys, targets[pair]) for pair in sorted(groups) for eid, keys in groups[pair]]
        for choices in _backtrack(len(slots), edge_options):
            emap = {eid: choice for (eid, _, _), choice in zip(slots, choices)}
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
