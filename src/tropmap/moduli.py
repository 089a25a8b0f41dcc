"""Moduli cones of combinatorial types, superabundance, faces, and limits.

For a fixed type the realizing maps form a polyhedral cone in the space of
vertex positions and bounded edge lengths, cut out by one block of linear
equations per bounded edge (head minus tail equals length times weighted
direction) together with length non-negativity and, in strict fan mode,
membership of each position in its vertex cone.  The dimension is computed
exactly; edges whose length is forced to zero by the equations are reported
as a diagnostic rather than an exception.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import curves
from .curves import Edge, TropicalCurve, betti_and_genus
from .exactgeom import (
    Cone,
    Fan,
    IntVec,
    RatVec,
    ZERO,
    cone_contains,
    cone_is_face,
    format_rational,
    integer_nullspace,
    fan_cone_intersection,
    rank,
    solve_nonneg,
)
from .maps import (
    CombinatorialType,
    EdgeMapData,
    ScaledMap,
    TropicalStableMap,
    _integers,
    _integrality_diagnostics,
    _lex_positive,
    _outside_support,
    _position_diagnostics,
    canonical_edge_data,
    canonical_type,
    decorated_isomorphisms,
)


class InfeasibleCone(ValueError):
    """The moduli cone admits no point with all lengths strictly positive."""


# ---------------------------------------------------------------------------
# presentation

class EdgeEquation(NamedTuple):
    """position(head) - position(tail) = length * wu on one bounded edge;
    head equals tail on a self-loop, where the equation reads 0 = length * wu."""

    edge: str
    head: str
    tail: str
    wu: IntVec


@dataclass(frozen=True)
class ModuliCone:
    """Equation presentation of the cone of maps of a fixed type.

    ``variables`` lists one position block per finite vertex followed by one
    length per bounded edge; ``equations`` has one entry per bounded edge.
    Lengths are non-negative and, in strict fan mode, each position lies in
    its vertex cone.  ``forced_zero_lengths`` are the edges that vanish on
    every point of the cone.

    ``support_point`` is the point of the support LP, positive on every
    coordinate that can be positive: the bounded lengths in embedded mode,
    the vertex-ray coefficients followed by the lengths in strict fan mode.
    ``cycle_rows`` are the closing conditions on the lengths in embedded
    mode and empty in strict fan mode.  :func:`sample_interior` starts from
    both.
    """

    type: CombinatorialType
    variables: tuple[str, ...]
    equations: tuple[EdgeEquation, ...]
    dim: int
    forced_zero_lengths: tuple[str, ...]
    has_positive_point: bool
    support_point: tuple[Fraction, ...] = field(repr=False, compare=False)
    cycle_rows: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)


@dataclass(frozen=True)
class ConeMetrics:
    dim: int
    expected_dim: int
    overvalence: int
    b1: int
    superabundant: bool


def _finite_vertices(t: CombinatorialType) -> tuple[str, ...]:
    return t.graph.unmarked_vertex_ids()


def _variables(t: CombinatorialType) -> tuple[str, ...]:
    n = t.fan.ambient_dim
    names = []
    for vid in _finite_vertices(t):
        names.extend(f"pos:{vid}:{k}" for k in range(n))
    names.extend(f"len:{eid}" for eid in t.bounded_edge_ids())
    return tuple(names)


def _edge_equations(t: CombinatorialType) -> tuple[EdgeEquation, ...]:
    """One :class:`EdgeEquation` per bounded edge, in bounded-edge order."""
    out = []
    for eid in t.bounded_edge_ids():
        d = t.edge_data[eid]
        out.append(EdgeEquation(eid, d.head(t.graph.edge(eid)), d.tail, t.weighted_direction(eid)))
    return tuple(out)


def _tree_steps(t: CombinatorialType) -> list[tuple[str, str, str, IntVec]]:
    """The one walk of the spanning tree: the tree edges as steps (vertex,
    parent, edge, the signed weighted direction that the edge's length
    multiplies from parent to vertex), every parent's step before its
    children's, so that a vertex's position is its parent's plus its own
    step (see :func:`moduli_cone`).  The first finite vertex is the root
    and has no step."""
    parent = t.spanning_tree[0]
    if len(parent) != len(_finite_vertices(t)) - 1:
        raise ValueError("the finite vertices are not connected by bounded edges")
    # the BFS inserts every parent before its children
    return [
        (vid, up, e.id, tuple(sign * x for x in t.weighted_direction(e.id))) for vid, (up, e, sign) in parent.items()
    ]


def _closing_rows(t: CombinatorialType) -> list[list[int]]:
    """Closing conditions on the lengths alone: one ambient-dimension block
    per independent cycle of the finite graph.  Each finite vertex's
    position minus the root's is a sparse integer form in the bounded
    lengths, edge -> signed w*u, its parent's form plus its own tree step;
    a non-tree edge closes the forms of its ends:
    form(tail) - form(head) + w*u * length = 0."""
    bounded = t.bounded_edge_ids()
    eindex = {eid: i for i, eid in enumerate(bounded)}
    forms: dict[str, dict[str, IntVec]] = {_finite_vertices(t)[0]: {}}
    for vid, up, eid, step in _tree_steps(t):
        forms[vid] = {**forms[up], eid: step}
    rows: list[list[int]] = []
    for e in t.spanning_tree[1]:
        d = t.edge_data[e.id]
        tail, head = forms[d.tail], forms[d.head(e)]
        for k, x in enumerate(t.weighted_direction(e.id)):
            row = [0] * len(bounded)
            row[eindex[e.id]] = x
            for sign, form in ((1, tail), (-1, head)):
                for eid, vec in form.items():
                    row[eindex[eid]] += sign * vec[k]
            if any(row):
                rows.append(row)
    return rows


def _positions(
    t: CombinatorialType,
    lengths: Mapping[str, tuple[int, int]],
    base_vertex: str,
    base: Sequence[tuple[int, int]],
) -> dict[str, tuple[tuple[int, int], ...]]:
    """Vertex positions fixed by the bounded edge lengths, in finite vertex
    order: each position is its tree parent's plus one step, from the root
    put on ``base``, so every tree edge is read once; then, unless
    ``base_vertex`` is the root, one shift puts it on ``base``.  Lengths,
    base coordinates and positions are (const, slope) pairs of integers
    over one common denominator; a point is the pair with slope zero."""
    finite = _finite_vertices(t)
    walked = {finite[0]: tuple(base)}
    for vid, up, eid, vec in _tree_steps(t):
        c, s = lengths[eid]
        walked[vid] = tuple((a + c * x, b + s * x) for (a, b), x in zip(walked[up], vec))
    if base_vertex not in walked:
        raise ValueError(f"base vertex {base_vertex} is not a finite vertex of the type")
    if base_vertex != finite[0]:
        shift = tuple((c - a, s - b) for (c, s), (a, b) in zip(base, walked[base_vertex]))
        walked = {vid: tuple((a + c, b + s) for (a, b), (c, s) in zip(p, shift)) for vid, p in walked.items()}
    return {vid: walked[vid] for vid in finite}


def _unit(n: int, i: int) -> list[int]:
    return [int(j == i) for j in range(n)]


def _nonneg_support(rows: Sequence[Sequence], n: int) -> tuple[set[int], list[Fraction]]:
    """Which coordinates can be positive on the cone {x >= 0 : rows . x = 0},
    and one point of the cone positive on all of them.

    Each LP asks for x >= shift, written x = shift + s with s >= 0 so that
    it needs no slack rows.  One LP with every coordinate at least 1 settles
    the common case of a cone with a strictly positive point; otherwise one
    LP per coordinate, skipping coordinates an earlier witness made positive.
    """

    def witness(shift: list[int]) -> Optional[list[Fraction]]:
        rhs = [-sum(c * x for c, x in zip(row, shift) if c) for row in rows]
        s = solve_nonneg(rows, rhs) if rows else [ZERO] * n
        # Fraction + int, which Fraction adds without the reflected operator
        return None if s is None else [x + a for x, a in zip(s, shift)]

    point = witness([1] * n)
    if point is not None:
        return set(range(n)), point
    support: set[int] = set()
    point = [ZERO] * n
    for i in range(n):
        if i in support:
            continue
        w = witness(_unit(n, i))
        if w is not None:
            support.update(j for j, x in enumerate(w) if x > 0)
            point = [a + b for a, b in zip(point, w)]
    return support, point


def moduli_cone(t: CombinatorialType) -> ModuliCone:
    """The explicit presentation of the cone of maps of this type with its
    exact dimension.

    In embedded mode positions are unconstrained.  The finite graph is
    connected, so one base point and the E bounded edge lengths fix every
    position, and the lengths obey only the closing conditions of the
    independent cycles (ambient-dimension rows per cycle).  One walk of the
    spanning tree (:func:`_tree_steps`) gives each position as the base
    point plus a sparse integer form in the lengths; the closing conditions
    are those forms closed over the non-tree edges, and :func:`make_family`
    and :func:`sample_interior` take the same tree steps at their lengths
    (:func:`_positions`).  The dimension is the ambient dimension plus E
    minus the rank of those rows together with one selector row per
    forced-zero length.  In strict fan mode positions are confined to their
    vertex cones, and the dimension is a rank difference over the cone
    generators (:func:`_strict_dim`).
    """
    equations = _edge_equations(t)
    bounded = t.bounded_edge_ids()
    if t.fan.embedded:
        cycle_rows = _closing_rows(t)
        support, point = _nonneg_support(cycle_rows, len(bounded))
        zero = [i for i in range(len(bounded)) if i not in support]
        forced = tuple(bounded[i] for i in zero)
        selectors = [_unit(len(bounded), i) for i in zero]
        dim = t.fan.ambient_dim + len(bounded) - rank(cycle_rows + selectors)
    else:
        cycle_rows = []
        dim, forced, point = _strict_dim(t, equations)
    return ModuliCone(
        type=t,
        variables=_variables(t),
        equations=equations,
        dim=dim,
        forced_zero_lengths=forced,
        has_positive_point=not forced,
        support_point=tuple(point),
        cycle_rows=tuple(map(tuple, cycle_rows)),
    )


def _strict_generator_system(
    t: CombinatorialType, equations: Sequence[EdgeEquation]
) -> tuple[list[tuple[str, IntVec]], list[list[int]]]:
    """Parametrize positions by non-negative coefficients y on the
    vertex-cone rays, followed by one coordinate per bounded length.

    Returns the rays as (vertex, ray) in y order and the edge equations over
    y: for each bounded edge and coordinate k, +r[k] on the head cone's rays,
    -r[k] on the tail cone's rays and -w*u[k] on the edge's length.
    """
    rays = _vertex_rays(t)
    rows = []
    for i, eq in enumerate(equations):
        for k, x in enumerate(eq.wu):
            row = [0] * (len(rays) + len(equations))
            if eq.head != eq.tail:
                for j, (vid, r) in enumerate(rays):
                    if vid == eq.head:
                        row[j] = r[k]
                    elif vid == eq.tail:
                        row[j] = -r[k]
            row[len(rays) + i] = -x
            rows.append(row)
    return rays, rows


def _vertex_rays(t: CombinatorialType) -> list[tuple[str, IntVec]]:
    """The rays of every finite vertex's cone as (vertex, ray), in y order."""
    return [(vid, r) for vid in _finite_vertices(t) for r in t.vertex_cones[vid].rays]


def _strict_dim(
    t: CombinatorialType, equations: Sequence[EdgeEquation]
) -> tuple[int, tuple[str, ...], list[Fraction]]:
    """The dimension, the forced-zero lengths and the support point of the
    strict-mode cone.

    The cone is the image, under the linear map M: y -> (positions,
    lengths), of the cone of generator coordinates y >= 0 that satisfy the
    edge equations.  Let B be those equations together with one selector
    row per coordinate outside the support, and K = ker B: the support
    point is positive on every other coordinate, so the y-cone spans K, and
    the dimension is that of M(K), which is dim K - dim (K ∩ ker M).  A
    vector lies in K ∩ ker M exactly when both B and M annihilate it, so
    K ∩ ker M = ker [B; M], and the dimension is
    (ny - rank B) - (ny - rank [B; M]) = rank [B; M] - rank B.
    M's rows are integers: per finite vertex and coordinate k, r[k] on each
    of the vertex's rays, and a unit row per length."""
    bounded = t.bounded_edge_ids()
    rays, eq_y = _strict_generator_system(t, equations)
    ny = len(rays) + len(bounded)
    support, point = _nonneg_support(eq_y, ny)
    rows = eq_y + [_unit(ny, j) for j in range(ny) if j not in support]
    m_rows = [
        [r[k] if v == vid else 0 for v, r in rays] + [0] * len(bounded)
        for vid in _finite_vertices(t)
        for k in range(t.fan.ambient_dim)
    ]
    m_rows += [_unit(ny, j) for j in range(len(rays), ny)]
    dim = rank(rows + m_rows) - rank(rows)
    forced = tuple(eid for i, eid in enumerate(bounded) if len(rays) + i not in support)
    return dim, forced, point


# ---------------------------------------------------------------------------
# metrics

def overvalence(t: CombinatorialType) -> int:
    """Sum of valence minus three over the vertices of valence at least
    four; a self-loop contributes two to the valence."""
    total = 0
    for vid in _finite_vertices(t):
        val = t.graph.valence(vid)
        if val >= 4:
            total += val - 3
    return total


def cone_metrics(t: CombinatorialType | ModuliCone) -> ConeMetrics:
    """Dimension against the expected dimension
    (ambient - 3)(1 - b1) + n - overvalence, with n the number of markings;
    the type is superabundant when the actual dimension is strictly larger.

    Accepts the type, or its :class:`ModuliCone` when the caller already
    has one, so the cone is not built twice.
    """
    mc = t if isinstance(t, ModuliCone) else moduli_cone(t)
    t = mc.type
    b1 = betti_and_genus(t.graph)[0]
    n_markings = len(t.graph.markings)
    ov = overvalence(t)
    expected = (t.fan.ambient_dim - 3) * (1 - b1) + n_markings - ov
    return ConeMetrics(
        dim=mc.dim,
        expected_dim=expected,
        overvalence=ov,
        b1=b1,
        superabundant=mc.dim > expected,
    )


# ---------------------------------------------------------------------------
# contraction and the face relation

def _contract_with_map(
    t: CombinatorialType, edges: Iterable[str]
) -> tuple[CombinatorialType, dict[str, str], dict[str, list[str]]]:
    """The contracted type, the map from old to surviving vertex ids, and
    each survivor's class of old vertices."""
    contracted = set(edges)
    graph, vmap = curves.contract_edges(t.graph, contracted)
    classes: dict[str, list[str]] = {}
    for old, new in vmap.items():
        classes.setdefault(new, []).append(old)
    # a merged vertex sits where all its pieces degenerate: the largest
    # common face of their cones (their intersection in a valid fan); the
    # type's cones are canonical, and so are their common faces; a vertex
    # merged with no other keeps its cone
    cones = {
        new: t.vertex_cones[new] if len(olds) == 1 else fan_cone_intersection(t.fan, [t.vertex_cones[o] for o in olds])
        for new, olds in classes.items()
        if new in t.vertex_cones
    }
    # an edge whose tail survives keeps its data as it is
    data = {
        eid: d if vmap[d.tail] == d.tail else EdgeMapData(d.u, d.w, vmap[d.tail])
        for eid, d in t.edge_data.items()
        if eid not in contracted
    }
    return CombinatorialType(graph, t.fan, cones, data), vmap, classes


def contract_type(t: CombinatorialType, edges: Iterable[str]) -> CombinatorialType:
    """Contract the listed bounded edges; merged vertices receive the
    intersection of their cones (their largest common face), and surviving
    edge decorations are unchanged."""
    return _contract_with_map(t, edges)[0]


@dataclass(frozen=True)
class FaceWitness:
    """Certificate that one moduli cone is a face of another: the contracted
    edges, the vertex map from the big type onto the face type, and the edge
    matching (with reversal flags) of the surviving edges."""

    contracted_edges: tuple[str, ...]
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]


MAX_FACE_SEARCH_EDGES = 16


def _signature(d: EdgeMapData) -> tuple:
    """What every decorated isomorphism keeps of a bounded edge, and
    contraction of other edges leaves unchanged: its weight and its
    direction up to sign."""
    return d.w, _lex_positive(d.u)


def _legs(t: CombinatorialType) -> dict[str, tuple]:
    """Direction and weight of each marking's leaf-edge, by label."""
    return {label: (t.edge_data[e.id].u, t.edge_data[e.id].w) for label, e in t.marked_edges.items()}


def _subsets_by_class(items: Sequence[str], classes: Sequence, take: Mapping) -> Iterator[tuple[str, ...]]:
    """The subsets of ``items`` holding ``take[k]`` members of each class
    ``k`` (``classes[i]`` is the class of ``items[i]``), in the order in which
    ``itertools.combinations`` lists subsets of their size.  ``take`` maps
    every class to at most its number of members."""
    if not any(take.values()):
        yield ()
        return
    for i, k in enumerate(classes):
        if take[k]:
            later = classes[i + 1:]
            for tail in _subsets_by_class(items[i + 1:], later, {**take, k: take[k] - 1}):
                yield (items[i], *tail)
            if later.count(k) < take[k]:
                return  # a subset starting further on would lack a member of class k


def is_face(ta: CombinatorialType, tb: CombinatorialType) -> Optional[FaceWitness]:
    """Search for an edge-contraction of ``tb`` matching ``ta``.

    Returns a witness whose vertex map also certifies the per-vertex face
    condition (the cone of each image vertex is a face of the cone of every
    merged vertex), or None.  Refuses instances with more than sixteen
    bounded edges.

    A decorated isomorphism keeps each bounded edge's weight and direction up
    to sign, and contraction leaves the surviving edges unchanged, so only a
    signature-compatible subset can contract to ``ta``: one that holds, of
    each (weight, ±direction) class, what ``tb``'s bounded edges have beyond
    ``ta``'s, and only when the marked legs agree label by label.  The search
    is exhaustive over these subsets, in ``itertools.combinations`` order,
    and their decorated isomorphisms; the first witness found is returned.
    The "cones do not meet in a common face" ``ValueError`` comes only from
    a subset that is tried.  The vertex check asks :func:`cone_is_face`
    once per (face cone, cone) pair in a call.
    """
    ta = canonical_type(ta)
    tb = canonical_type(tb)
    bounded = tb.bounded_edge_ids()
    if len(bounded) > MAX_FACE_SEARCH_EDGES:
        raise ValueError(
            f"face search capped at {MAX_FACE_SEARCH_EDGES} bounded edges, got {len(bounded)}"
        )
    signatures = [_signature(tb.edge_data[eid]) for eid in bounded]
    surplus = Counter(signatures)
    surplus.subtract(_signature(ta.edge_data[eid]) for eid in ta.bounded_edge_ids())
    if min(surplus.values(), default=0) < 0 or _legs(ta) != _legs(tb):
        return None
    faces: dict[tuple[Cone, Cone], bool] = {}  # cone_is_face of each (face, cone) pair asked
    for subset in _subsets_by_class(bounded, signatures, surplus):
        tc, vmap, classes = _contract_with_map(tb, subset)

        def vertex_ok(vc: str, va: str) -> bool:
            target = ta.vertex_cones[va]
            for old in classes[vc]:
                if old in tb.vertex_cones:
                    pair = (target, tb.vertex_cones[old])
                    answer = faces.get(pair)
                    if answer is None:
                        answer = faces[pair] = cone_is_face(*pair)
                    if not answer:
                        return False
            return True

        for c_vmap, c_emap in decorated_isomorphisms(tc, ta, vertex_ok=vertex_ok):
            full_vmap = {old: c_vmap[new] for old, new in vmap.items() if new in c_vmap}
            return FaceWitness(tuple(sorted(subset)), full_vmap, c_emap)
    return None


# ---------------------------------------------------------------------------
# one-parameter families and limits

@dataclass(frozen=True)
class AffineFn:
    """The function const + slope * t with exact rational coefficients."""

    const: Fraction
    slope: Fraction


def affine(const, slope=0) -> AffineFn:
    return AffineFn(Fraction(const), Fraction(slope))


@dataclass(frozen=True)
class ScaledFamily:
    """A family's constants and slopes, as (constant, slope) pairs of
    integers, times one common positive denominator."""

    denominator: int
    lengths: Mapping[str, tuple[int, int]]
    positions: Mapping[str, tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class Family:
    """A one-parameter family of maps of a fixed type on t in [0, 1]: every
    length and position coordinate is an affine function of t.

    A family checks itself once when it is built, by ``Family(...)``,
    ``dataclasses.replace`` or :func:`make_family`, on the integer (const,
    slope) pairs of :attr:`scaled`, and raises ValueError on the first
    failure:
    - the lengths are those of the bounded edges, and each is positive on
      [0, 1): c > 0 and c + s >= 0, so no member's length c + s*t is
      negative for t in [0, 1];
    - every finite vertex, and no other, has a position of the ambient
      length;
    - in strict mode, each position lies in its vertex cone at t = 0 and at
      t = 1;
    - each edge equation holds identically: the constant part and the slope
      part of each residual head - tail - length*w*u are zero.

    The type is valid (:func:`make_type`), so the curve, the edge data and
    balancing hold at every member, which shares the type's graph and edge
    data.  Every member is smooth: each bounded edge gets a finite length.
    A vertex cone is convex, so in strict mode every position between the
    two endpoints lies in it, and the cone is a cone of the fan, so the
    position lies in the fan's support (validation asks for the support
    only, not for a relative interior).  So every member on [0, 1] passes
    ``validate_map`` but for the stability axiom, which a family member may
    fail, and no member needs validating."""

    type: CombinatorialType
    lengths: Mapping[str, AffineFn]
    positions: Mapping[str, tuple[AffineFn, ...]]

    def __post_init__(self) -> None:
        t = self.type
        _require_length_keys(t, self.lengths)
        scaled = self.scaled
        for eid, pair in scaled.lengths.items():
            if not _positive_before_one(*pair):
                raise ValueError(f"length of {eid} is not positive on [0,1): {format_affine(self.lengths[eid])}")
        for message in _position_diagnostics(t.graph, self.positions, t.fan.ambient_dim):
            raise ValueError(message)
        if not t.fan.embedded:
            for probe in (0, 1):
                for vid, pairs in scaled.positions.items():
                    # membership is invariant under scaling, so it is tested on the integers
                    if not cone_contains(t.vertex_cones[vid], tuple(_scaled_at(x, probe, 1) for x in pairs)):
                        raise ValueError(f"position of {vid} exits its cone at t={probe}")
        # the first edge that fails at t = 0, else the first at t = 1/2 (an
        # affine residual that is zero at both is zero)
        slope_only = None
        for eid in t.bounded_edge_ids():
            e = t.graph.edge(eid)
            if e.ends[0] == e.ends[1]:
                continue
            d = t.edge_data[eid]
            ell = scaled.lengths[eid]
            rows = list(zip(scaled.positions[d.head(e)], scaled.positions[d.tail], d.u))
            if any(h[0] - a[0] != ell[0] * d.w * x for h, a, x in rows):
                raise ValueError(f"family inconsistent on edge {eid} at t=0")
            if slope_only is None and any(h[1] - a[1] != ell[1] * d.w * x for h, a, x in rows):
                slope_only = eid
        if slope_only is not None:
            raise ValueError(f"family inconsistent on edge {slope_only} at t=1/2")

    @cached_property
    def scaled(self) -> ScaledFamily:
        """The constants and slopes times D, the lcm of their denominators:
        at t = p/q every length and coordinate is (D*const*q + D*slope*p)
        over D*q."""
        d, pairs = _scaled_pairs([*self.lengths.values(), *(fn for fns in self.positions.values() for fn in fns)])
        it = iter(pairs)
        return ScaledFamily(
            d,
            {eid: next(it) for eid in self.lengths},
            {vid: tuple(next(it) for _ in fns) for vid, fns in self.positions.items()},
        )

    def member(self, t_val: Fraction) -> FamilyMember:
        """The member at ``t_val``, on the integers (:func:`_scaled_at`).
        The type's edge data is oriented as every member carries it."""
        t = self.type
        scaled = self.scaled
        p, q = t_val.numerator, t_val.denominator
        return FamilyMember(
            t.graph,
            t.fan,
            t.edge_data,
            ScaledMap(
                scaled.denominator * q,
                {vid: tuple(_scaled_at(x, p, q) for x in pairs) for vid, pairs in scaled.positions.items()},
                {eid: _scaled_at(scaled.lengths[eid], p, q) for eid in t.bounded_edge_ids()},
            ),
        )


@dataclass(frozen=True)
class FamilyMember:
    """A family member read on the family's integers: the family type's
    graph, fan and edge data, and the member's positions and bounded edge
    lengths as a :class:`ScaledMap` over D*q at t = p/q.

    The graph's lengths are the type's placeholders.  The genus-one
    analysis reads lengths and positions from ``scaled`` only, so it takes
    a member where it takes a map; for t < 1 the member as a map is
    ``limit_of_family(fam, t).map``."""

    curve: TropicalCurve
    fan: Fan
    edge_data: Mapping[str, EdgeMapData]
    scaled: ScaledMap


def _scaled_pairs(fns: Sequence[AffineFn]) -> tuple[int, list[tuple[int, int]]]:
    """D, the lcm of the functions' denominators, and each function's
    (const, slope) times D, as integers.  Each distinct function object is
    read once: a family shares one per pair of its walk or per spelling of
    its document."""
    distinct = {id(fn): fn for fn in fns}
    d = lcm(*(x.denominator for fn in distinct.values() for x in (fn.const, fn.slope)))
    pairs = {
        key: (fn.const.numerator * (d // fn.const.denominator), fn.slope.numerator * (d // fn.slope.denominator))
        for key, fn in distinct.items()
    }
    return d, [pairs[id(fn)] for fn in fns]


def _positive_before_one(const, slope) -> bool:
    """Is const + slope * t positive on [0, 1)?  An affine function is
    positive on [0, 1) exactly when it is positive at 0 and not negative at
    1; it is then not negative on all of [0, 1]."""
    return const > 0 and const + slope >= 0


def _require_length_keys(t: CombinatorialType, lengths: Mapping[str, AffineFn]) -> None:
    """ValueError unless ``lengths`` has one function per bounded edge."""
    bounded = set(t.bounded_edge_ids())
    if lengths.keys() != bounded:
        missing = bounded - lengths.keys()
        extra = lengths.keys() - bounded
        raise ValueError(f"length functions mismatch (missing {sorted(missing)}, extra {sorted(extra)})")


def make_family(
    t: CombinatorialType,
    lengths: Mapping[str, AffineFn],
    positions: Optional[Mapping[str, Sequence[AffineFn]]] = None,
    base_vertex: Optional[str] = None,
    base_position: Optional[Sequence[AffineFn]] = None,
) -> Family:
    """The family of the canonical form of ``t`` with these lengths, checked
    as every :class:`Family` is.

    Missing positions are walked along the type's spanning tree
    (:func:`_positions`) at the integer (const, slope) pairs of the lengths
    and base position at D, the lcm of their denominators.  Each walked
    pair over D is a position function, so D is also the lcm that
    :attr:`Family.scaled` finds, and the family's integers are the walk's.
    """
    t = canonical_type(t)
    if positions is None:
        _require_length_keys(t, lengths)
        n = t.fan.ambient_dim
        base = base_vertex if base_vertex is not None else _finite_vertices(t)[0]
        base_pos = tuple(base_position) if base_position is not None else (affine(0),) * n
        d, pairs = _scaled_pairs([*lengths.values(), *base_pos])
        walked = _positions(t, dict(zip(lengths, pairs)), base, pairs[len(lengths):])
        # one function per distinct pair, as a family document has one per spelling
        distinct = {pair for pair_vec in walked.values() for pair in pair_vec}
        fn = {(c, s): AffineFn(Fraction(c, d), Fraction(s, d)) for c, s in distinct}.__getitem__
        positions = {vid: tuple(map(fn, pair_vec)) for vid, pair_vec in walked.items()}
    return Family(t, dict(lengths), {vid: tuple(p) for vid, p in positions.items()})


def _scaled_at(pair: tuple[int, int], p: int, q: int) -> int:
    """A (const, slope) pair of a :class:`ScaledFamily` at t = p/q, times q."""
    const, slope = pair
    return const * q + slope * p


def format_affine(fn: AffineFn) -> str:
    return f"{format_rational(fn.const)} + ({format_rational(fn.slope)})*t"


def _map_from_lengths(
    t: CombinatorialType, lengths: Mapping[str, Fraction], positions: dict[str, RatVec]
) -> TropicalStableMap:
    """The map of type ``t`` with the given lengths on its non-leaf edges and
    the given vertex positions, tuples of ``Fraction`` (not validated).

    The curve and the map are built directly: the type's graph is sorted
    and its edge data leaf-oriented, as :func:`maps.make_type` and
    contraction leave them, so :func:`curves.tropical_curve` and
    :func:`maps.stable_map` would change nothing.  The map shares the
    type's edge data."""
    g = t.graph
    marked = g.marked_vertex_ids
    edges = tuple(
        e if e.ends[0] in marked or e.ends[1] in marked else Edge(e.id, e.ends, lengths[e.id])
        for e in g.edges
    )
    return TropicalStableMap(TropicalCurve(g.vertices, edges, g.markings), t.fan, positions, t.edge_data)


def _fractions(scaled: ScaledMap) -> tuple[dict[str, Fraction], dict[str, RatVec]]:
    """The lengths and the positions that ``scaled`` holds, one ``Fraction``
    per distinct value."""
    values = {*scaled.lengths.values(), *(x for p in scaled.positions.values() for x in p)}
    fraction = {x: Fraction(x, scaled.denominator) for x in values}.__getitem__
    return (
        {eid: fraction(x) for eid, x in scaled.lengths.items()},
        {vid: tuple(map(fraction, p)) for vid, p in scaled.positions.items()},
    )


@dataclass(frozen=True)
class LimitResult:
    t: Fraction
    map: TropicalStableMap
    type: CombinatorialType
    contracted_edges: tuple[str, ...]


def _limit(fam: Family, t_val: Fraction) -> tuple[CombinatorialType, tuple[str, ...], ScaledMap]:
    """The family's member at ``t_val`` with its zero-length edges
    contracted: the contracted type, the contracted edges, and the
    member's integers (:meth:`Family.member`) on that type.  The family's
    edge equations hold identically, so the vertices merged into one
    survivor share the position it takes, keyed by the survivor."""
    scaled = fam.member(t_val).scaled
    zero_edges = tuple(sorted(eid for eid, x in scaled.lengths.items() if x == 0))
    if not zero_edges:
        return fam.type, (), scaled
    t, vmap, _ = _contract_with_map(fam.type, zero_edges)
    return t, zero_edges, ScaledMap(
        scaled.denominator,
        {vmap[old]: p for old, p in scaled.positions.items()},
        {eid: x for eid, x in scaled.lengths.items() if x != 0},
    )


def limit_of_family(fam: Family, t_star) -> LimitResult:
    """Evaluate the family at t in [0, 1].

    Inside [0, 1) this is just the member map.  At t = 1 the edges whose
    length reaches zero are contracted and the limit is returned as a map of
    the contracted type, which is a face of the family's type.
    """
    t_star = Fraction(t_star)
    if t_star < 0 or t_star > 1:
        raise ValueError(f"parameter {format_rational(t_star)} outside [0, 1]")
    t, zero_edges, scaled = _limit(fam, t_star)
    lengths, positions = _fractions(scaled)
    return LimitResult(t_star, _map_from_lengths(t, lengths, positions), t, zero_edges)


def _is_limit(fam: Family, m: TropicalStableMap) -> bool:
    """Is ``m`` the family's t = 1 limit, up to edge orientation?  The same
    answer as comparing ``limit_of_family(fam, 1).map`` and ``m`` with
    their edge data in canonical form (:func:`canonical_edge_data`), read
    on the limit's integers over its denominator D (:func:`_limit`) and on
    m's integers over its denominator D_m: x/D equals y/D_m exactly when
    x*D_m = y*D.  The limit is never built as a map."""
    t, _, limit = _limit(fam, Fraction(1))
    graph, curve, ms = t.graph, m.curve, m.scaled
    d, dm = limit.denominator, ms.denominator
    if (curve.vertices, curve.markings, m.fan) != (graph.vertices, graph.markings, t.fan):
        return False
    if [(e.id, e.ends) for e in curve.edges] != [(e.id, e.ends) for e in graph.edges]:
        return False
    for e in graph.edges:
        if graph.is_marked_leaf_edge(e):
            if e.id in ms.lengths:
                return False
        elif e.id not in ms.lengths or ms.lengths[e.id] * d != limit.lengths[e.id] * dm:
            return False
    if m.positions.keys() != limit.positions.keys():
        return False
    for vid, p in limit.positions.items():
        q = ms.positions[vid]
        if len(q) != len(p) or any(x * d != y * dm for x, y in zip(q, p)):
            return False
    return canonical_edge_data(curve, m.edge_data) == canonical_edge_data(graph, t.edge_data)


# ---------------------------------------------------------------------------
# interior sampling

def sample_interior(mc: ModuliCone, seed: int) -> TropicalStableMap:
    """A deterministic rational point in the relative interior of the cone
    (all lengths strictly positive), realized as a map.

    In embedded mode the seed perturbs the lengths along the cycle space and
    picks the base position.  In strict fan mode the point depends on the
    type alone and the seed is not used.

    The type is valid (:func:`make_type`), so the sample is checked only
    for what it adds to the type: positive lengths, the edge equations on
    its integers and, in strict mode, each position's located cone, which
    must be its vertex cone.

    Raises :class:`InfeasibleCone` when some length is forced to zero.
    """
    if not mc.has_positive_point:
        raise InfeasibleCone(
            f"lengths {mc.forced_zero_lengths} are zero on the whole cone"
        )
    t = mc.type
    lengths, positions = _fractions(_sample_embedded(mc, seed) if t.fan.embedded else _sample_strict(mc))
    m = _map_from_lengths(t, lengths, positions)
    diags = [f"length of {eid} is not positive" for eid, x in m.scaled.lengths.items() if x <= 0]
    bounded = (t.graph.edge(eid) for eid in t.bounded_edge_ids())
    diags += _integrality_diagnostics(m.edge_data, m.scaled, (e for e in bounded if e.ends[0] != e.ends[1]))
    if not t.fan.embedded:
        located = m.located_cones
        diags += [_outside_support(vid) for vid, c in located.items() if c is None]
        if not diags and any(c != t.vertex_cones[vid] for vid, c in located.items()):
            raise InfeasibleCone("no interior point realizes the type: positions degenerate to faces")
    if diags:
        raise InfeasibleCone(f"sampled point does not realize the type: {diags[0]}")
    return m


def _sample_embedded(mc: ModuliCone, seed: int) -> ScaledMap:
    """The positions and lengths, as integers over one denominator, of one
    point of the embedded-mode cone with every length positive: the support
    point perturbed along the cycle space by the seed.

    The perturbation P is a seeded integer combination of the integer
    kernel basis, summed in ints, and length j moves by
    min(ell) / (2 max |P|) * P_j, which keeps it positive.  The kernel's
    common positive scale cancels from that ratio, so the point is the one
    the rational basis (1 on each free column) gives.  With the support
    point at its common denominator D0, as integers A, the moved lengths are
    2 max|P| * A + min(A) * P over 2 max|P| * D0, and the tree steps are
    taken on those integers and the seeded base position's at one common
    denominator (:func:`_positions`)."""
    rng = random.Random(seed)
    t = mc.type
    bounded = t.bounded_edge_ids()
    d, lengths = _integers(mc.support_point)
    kernel = integer_nullspace(mc.cycle_rows, ncols=len(bounded))
    coeffs = [rng.randint(-8, 8) for _ in kernel]
    perturb = [sum(cf * vec[j] for cf, vec in zip(coeffs, kernel)) for j in range(len(bounded))]
    biggest = max(map(abs, perturb), default=0)
    if biggest > 0:
        low = min(lengths)
        lengths = [2 * biggest * a + low * p for a, p in zip(lengths, perturb)]
        d *= 2 * biggest
    d_base, base = _integers([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(t.fan.ambient_dim)])
    common = lcm(d, d_base)
    pairs = dict(zip(bounded, ((x * (common // d), 0) for x in lengths)))
    walked = _positions(t, pairs, _finite_vertices(t)[0], [(x * (common // d_base), 0) for x in base])
    return ScaledMap(
        common,
        {vid: tuple(c for c, _ in p) for vid, p in walked.items()},
        {eid: c for eid, (c, _) in pairs.items()},
    )


def _sample_strict(mc: ModuliCone) -> ScaledMap:
    """The positions and lengths, as integers over one denominator, of the
    strict-mode support point: with the ray coefficients and lengths at
    their common denominator, each position is its vertex's rays times
    their coefficients, summed in ints."""
    t = mc.type
    rays = _vertex_rays(t)
    d, y = _integers(mc.support_point)
    positions = {vid: [0] * t.fan.ambient_dim for vid in _finite_vertices(t)}
    for (vid, r), c in zip(rays, y):
        if c:
            p = positions[vid]
            for k, x in enumerate(r):
                p[k] += c * x
    return ScaledMap(
        d,
        {vid: tuple(p) for vid, p in positions.items()},
        dict(zip(t.bounded_edge_ids(), y[len(rays):])),
    )
