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
from .curves import Edge, betti_and_genus, tropical_curve
from .exactgeom import (
    IntVec,
    RatVec,
    ZERO,
    cone_contains,
    cone_is_face,
    format_rational,
    integer_nullspace,
    nullspace,
    fan_cone_intersection,
    rank,
    ratvec,
    solve_nonneg,
    vadd,
    vscale,
)
from .maps import (
    STABILITY_VIOLATED,
    CombinatorialType,
    EdgeMapData,
    TropicalStableMap,
    _lex_positive,
    canonical_type,
    combinatorial_type,
    decorated_isomorphisms,
    stable_map,
    validate_map,
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


def _spanning_tree(t: CombinatorialType) -> tuple[dict[str, tuple[str, Edge, int]], list[Edge]]:
    """BFS tree over finite vertices along bounded edges.

    Returns (parent info: vertex -> (parent, edge, sign), non-tree bounded
    edges); sign is +1 when the edge's stored direction points parent->child.
    """
    finite = list(_finite_vertices(t))
    bounded = [t.graph.edge(eid) for eid in t.bounded_edge_ids()]
    root = finite[0]
    parent: dict[str, tuple[str, Edge, int]] = {}
    seen = {root}
    frontier = [root]
    used: set[str] = set()
    while frontier:
        new_frontier = []
        for vid in frontier:
            for e in bounded:
                if e.id in used or e.ends[0] == e.ends[1]:
                    continue
                a, b = e.ends
                if a == vid and b not in seen:
                    child = b
                elif b == vid and a not in seen:
                    child = a
                else:
                    continue
                sign = 1 if t.edge_data[e.id].tail == vid else -1
                parent[child] = (vid, e, sign)
                used.add(e.id)
                seen.add(child)
                new_frontier.append(child)
        frontier = new_frontier
    non_tree = [e for e in bounded if e.id not in used]
    return parent, non_tree


def _positions_from_lengths(
    t: CombinatorialType, lengths: Mapping[str, Fraction], base_vertex: str, base_point: Sequence
) -> dict[str, RatVec]:
    """Vertex positions fixed by the bounded edge lengths along the spanning
    tree, shifted so that ``base_vertex`` lands on ``base_point``.  The walk
    runs on integers at the common denominator of the lengths and the base
    point."""
    finite = _finite_vertices(t)
    if base_vertex not in finite:
        raise ValueError(f"base vertex {base_vertex} is not a finite vertex of the type")
    parent, _ = _spanning_tree(t)
    if len(parent) != len(finite) - 1:
        raise ValueError("could not derive positions: finite graph not spanned")
    base_point = ratvec(base_point)
    den = lcm(*(x.denominator for x in lengths.values()), *(x.denominator for x in base_point))
    scaled = {eid: x.numerator * (den // x.denominator) for eid, x in lengths.items()}
    # the BFS inserts every parent before its children
    walk = {finite[0]: (0,) * t.fan.ambient_dim}
    for vid, (up, e, sign) in parent.items():
        step = sign * scaled[e.id]
        walk[vid] = tuple(a + step * x for a, x in zip(walk[up], t.weighted_direction(e.id)))
    shift = [x.numerator * (den // x.denominator) - a for x, a in zip(base_point, walk[base_vertex])]
    return {vid: tuple(Fraction(a + b, den) for a, b in zip(walk[vid], shift)) for vid in finite}


def _length_constraints(t: CombinatorialType) -> list[list[int]]:
    """Closing conditions on the lengths alone: one ambient-dimension block
    per independent cycle of the finite graph.

    Along the spanning tree each position is the root's plus a linear form
    in the lengths, edge -> coefficient vector; a non-tree edge closes the
    cycle form(tail) - form(head) + w*u * length = 0.
    """
    bounded = t.bounded_edge_ids()
    eindex = {eid: i for i, eid in enumerate(bounded)}
    parent, non_tree = _spanning_tree(t)
    if len(parent) != len(_finite_vertices(t)) - 1:
        raise ValueError("the finite vertices are not connected by bounded edges")
    # the BFS inserts every parent before its children
    forms: dict[str, dict[str, IntVec]] = {_finite_vertices(t)[0]: {}}
    for vid, (up, e, sign) in parent.items():
        forms[vid] = {**forms[up], e.id: tuple(sign * x for x in t.weighted_direction(e.id))}
    rows: list[list[int]] = []
    for e in non_tree:
        d = t.edge_data[e.id]
        tail, head = forms[d.tail], forms[d.head(e)]
        for k, x in enumerate(t.weighted_direction(e.id)):
            row = [0] * len(bounded)
            row[eindex[e.id]] = x
            for eid, vec in tail.items():
                row[eindex[eid]] += vec[k]
            for eid, vec in head.items():
                row[eindex[eid]] -= vec[k]
            if any(row):
                rows.append(row)
    return rows


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
        return None if s is None else [a + b for a, b in zip(shift, s)]

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
    independent cycles (ambient-dimension rows per cycle).  The dimension is
    the ambient dimension plus E minus the rank of those rows together with
    one selector row per forced-zero length.  In strict fan mode positions
    are confined to their vertex cones and the dimension is recomputed
    through the cone generators.
    """
    equations = _edge_equations(t)
    bounded = t.bounded_edge_ids()
    if t.fan.embedded:
        cycle_rows = _length_constraints(t)
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
) -> tuple[list[tuple[str, RatVec]], list[list[Fraction]]]:
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
            row = [ZERO] * (len(rays) + len(equations))
            if eq.head != eq.tail:
                for j, (vid, r) in enumerate(rays):
                    if vid == eq.head:
                        row[j] = r[k]
                    elif vid == eq.tail:
                        row[j] = -r[k]
            row[len(rays) + i] = -Fraction(x)
            rows.append(row)
    return rays, rows


def _vertex_rays(t: CombinatorialType) -> list[tuple[str, RatVec]]:
    """The rays of every finite vertex's cone as (vertex, ray), in y order."""
    return [
        (vid, ratvec(r))
        for vid in _finite_vertices(t)
        for r in t.vertex_cones[vid].rays
    ]


def _strict_point(
    t: CombinatorialType, rays: Sequence[tuple[str, RatVec]], y: Sequence[Fraction]
) -> tuple[dict[str, RatVec], dict[str, Fraction]]:
    """The positions and lengths of the generator coordinates ``y``."""
    n = t.fan.ambient_dim
    positions = {vid: tuple([ZERO] * n) for vid in _finite_vertices(t)}
    for (vid, r), c in zip(rays, y):
        if c != 0:
            positions[vid] = vadd(positions[vid], vscale(c, r))
    return positions, dict(zip(t.bounded_edge_ids(), y[len(rays):]))


def _strict_dim(
    t: CombinatorialType, equations: Sequence[EdgeEquation]
) -> tuple[int, tuple[str, ...], list[Fraction]]:
    """The dimension, the forced-zero lengths and the support point of the
    strict-mode cone."""
    bounded = t.bounded_edge_ids()
    rays, eq_y = _strict_generator_system(t, equations)
    ny = len(rays) + len(bounded)
    support, point = _nonneg_support(eq_y, ny)
    rows = eq_y + [_unit(ny, j) for j in range(ny) if j not in support]
    # dimension of the image cone in (positions, lengths) space
    images = []
    for vec in nullspace(rows, ncols=ny):
        positions, lengths = _strict_point(t, rays, vec)
        images.append([x for p in positions.values() for x in p] + list(lengths.values()))
    dim = rank(images) if images else 0
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
    graph, vmap = curves.contract_edges(t.graph, edges)
    classes: dict[str, list[str]] = {}
    for old, new in vmap.items():
        classes.setdefault(new, []).append(old)
    # a merged vertex sits where all its pieces degenerate: the largest
    # common face of their cones (their intersection in a valid fan); the
    # type's cones are canonical, and so are their common faces
    cones = {
        new: fan_cone_intersection(t.fan, [t.vertex_cones[o] for o in olds])
        for new, olds in classes.items()
        if new in t.vertex_cones
    }
    data = {
        eid: EdgeMapData(d.u, d.w, vmap[d.tail])
        for eid, d in t.edge_data.items()
        if graph.has_edge(eid)
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
    a subset that is tried.
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
    for subset in _subsets_by_class(bounded, signatures, surplus):
        tc, vmap, classes = _contract_with_map(tb, subset)

        def vertex_ok(vc: str, va: str) -> bool:
            target = ta.vertex_cones[va]
            return all(
                cone_is_face(target, tb.vertex_cones[old])
                for old in classes[vc]
                if old in tb.vertex_cones
            )

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

    def at(self, t: Fraction) -> Fraction:
        return self.const + self.slope * Fraction(t)


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
    """A one-parameter family of maps of a fixed type on t in [0, 1]:
    every length and position coordinate is an affine function of t, all
    lengths are positive on [0, 1), and the equations hold identically."""

    type: CombinatorialType
    lengths: Mapping[str, AffineFn]
    positions: Mapping[str, tuple[AffineFn, ...]]

    @cached_property
    def scaled(self) -> ScaledFamily:
        """The constants and slopes times D, the lcm of their denominators:
        at t = p/q every length and coordinate is (D*const*q + D*slope*p)
        over D*q."""
        fns = [*self.lengths.values(), *(fn for fns in self.positions.values() for fn in fns)]
        d = lcm(*(x.denominator for fn in fns for x in (fn.const, fn.slope)))

        def pair(fn: AffineFn) -> tuple[int, int]:
            c, s = fn.const, fn.slope
            return c.numerator * (d // c.denominator), s.numerator * (d // s.denominator)

        return ScaledFamily(
            d,
            {eid: pair(fn) for eid, fn in self.lengths.items()},
            {vid: tuple(map(pair, fns)) for vid, fns in self.positions.items()},
        )


def make_family(
    t: CombinatorialType,
    lengths: Mapping[str, AffineFn],
    positions: Optional[Mapping[str, Sequence[AffineFn]]] = None,
    base_vertex: Optional[str] = None,
    base_position: Optional[Sequence[AffineFn]] = None,
) -> Family:
    """Validating constructor.

    Missing positions are derived from the lengths through a spanning tree;
    user-supplied positions are cross-checked against the edge equations at
    t = 0 and t = 1/2 (an affine residual vanishing twice vanishes
    identically).  Lengths must be positive on [0, 1).
    """
    t = canonical_type(t)
    n = t.fan.ambient_dim
    bounded = set(t.bounded_edge_ids())
    if set(lengths) != bounded:
        missing = bounded - set(lengths)
        extra = set(lengths) - bounded
        raise ValueError(f"length functions mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    for eid, fn in lengths.items():
        if fn.const <= 0 or fn.const + fn.slope < 0:
            raise ValueError(
                f"length of {eid} is not positive on [0,1): {format_affine(fn)}"
            )
    if positions is None:
        base = base_vertex if base_vertex is not None else _finite_vertices(t)[0]
        base_pos = tuple(base_position) if base_position is not None else tuple(affine(0) for _ in range(n))
        # positions are affine in t: walk the constant and the slope parts
        consts = _positions_from_lengths(
            t, {eid: fn.const for eid, fn in lengths.items()}, base, [fn.const for fn in base_pos]
        )
        slopes = _positions_from_lengths(
            t, {eid: fn.slope for eid, fn in lengths.items()}, base, [fn.slope for fn in base_pos]
        )
        positions = {vid: tuple(map(AffineFn, consts[vid], slopes[vid])) for vid in consts}
    fam = Family(t, dict(lengths), {vid: tuple(p) for vid, p in positions.items()})
    if not t.fan.embedded:
        # cones are convex, so membership at t = 0 and t = 1 pins the whole
        # affine path inside the cone; membership is invariant under scaling
        for probe in (Fraction(0), Fraction(1)):
            for vid, pairs in fam.scaled.positions.items():
                point = tuple(_scaled_at(x, probe) for x in pairs)
                if not cone_contains(t.vertex_cones[vid], point):
                    raise ValueError(
                        f"position of {vid} exits its cone at t={format_rational(probe)}"
                    )
    equations = _edge_equations(t)
    for probe in (Fraction(0), Fraction(1, 2)):
        _check_member(fam, equations, probe)
    return fam


def _scaled_at(pair: tuple[int, int], t_val: Fraction) -> int:
    """A (const, slope) pair of a :class:`ScaledFamily` at t = p/q, times q."""
    const, slope = pair
    return const * t_val.denominator + slope * t_val.numerator


def _check_member(fam: Family, equations: Sequence[EdgeEquation], t_val: Fraction) -> None:
    """The edge equations at ``t_val``, on the family's integers."""
    scaled = fam.scaled
    for eq in equations:
        if eq.head == eq.tail:
            continue
        head, tail = scaled.positions[eq.head], scaled.positions[eq.tail]
        ell = _scaled_at(scaled.lengths[eq.edge], t_val)
        for h, a, x in zip(head, tail, eq.wu):
            if _scaled_at(h, t_val) - _scaled_at(a, t_val) != ell * x:
                raise ValueError(f"family inconsistent on edge {eq.edge} at t={format_rational(t_val)}")


def format_affine(fn: AffineFn) -> str:
    return f"{format_rational(fn.const)} + ({format_rational(fn.slope)})*t"


def _map_from_lengths(
    t: CombinatorialType, lengths: Mapping[str, Fraction], positions: Mapping[str, Sequence]
) -> TropicalStableMap:
    """The map of type ``t`` with the given lengths on its non-leaf edges and
    the given vertex positions (not validated)."""
    edges = [
        e if t.graph.is_marked_leaf_edge(e) else Edge(e.id, e.ends, lengths[e.id])
        for e in t.graph.edges
    ]
    c = tropical_curve(t.graph.vertices, edges, t.graph.markings)
    return stable_map(c, t.fan, positions, t.edge_data)


def _family_at(fam: Family, t_val: Fraction) -> tuple[dict[str, Fraction], dict[str, RatVec]]:
    """The lengths and the positions of the member at ``t_val``, evaluated
    on the family's integers."""
    scaled = fam.scaled
    den = scaled.denominator * t_val.denominator
    lengths = {eid: Fraction(_scaled_at(x, t_val), den) for eid, x in scaled.lengths.items()}
    positions = {
        vid: tuple(Fraction(_scaled_at(x, t_val), den) for x in pairs)
        for vid, pairs in scaled.positions.items()
    }
    return lengths, positions


def evaluate_family(fam: Family, t_val) -> TropicalStableMap:
    """The member map at one parameter value (no contraction applied)."""
    return _map_from_lengths(fam.type, *_family_at(fam, Fraction(t_val)))


@dataclass(frozen=True)
class LimitResult:
    t: Fraction
    map: TropicalStableMap
    type: CombinatorialType
    contracted_edges: tuple[str, ...]


def limit_of_family(fam: Family, t_star) -> LimitResult:
    """Evaluate the family at t in [0, 1].

    Inside [0, 1) this is just the member map.  At t = 1 the edges whose
    length reaches zero are contracted and the limit is returned as a map of
    the contracted type, which is a face of the family's type.
    """
    t_star = Fraction(t_star)
    if t_star < 0 or t_star > 1:
        raise ValueError(f"parameter {format_rational(t_star)} outside [0, 1]")
    lengths, positions = _family_at(fam, t_star)
    zero_edges = tuple(sorted(eid for eid, ell in lengths.items() if ell == 0))
    if not zero_edges:
        return LimitResult(t_star, _map_from_lengths(fam.type, lengths, positions), fam.type, ())
    limit_type, vmap, _ = _contract_with_map(fam.type, zero_edges)
    merged: dict[str, RatVec] = {}
    for old, new in vmap.items():
        if old in positions:
            p = positions[old]
            if new in merged and merged[new] != p:
                raise ValueError(f"merged vertices of {new} have distinct limit positions")
            merged[new] = p
    limit_map = _map_from_lengths(limit_type, lengths, merged)
    return LimitResult(t_star, limit_map, limit_type, zero_edges)


# ---------------------------------------------------------------------------
# interior sampling

def sample_interior(mc: ModuliCone, seed: int) -> TropicalStableMap:
    """A deterministic rational point in the relative interior of the cone
    (all lengths strictly positive), realized as a map.

    In embedded mode the seed perturbs the lengths along the cycle space and
    picks the base position.  In strict fan mode the point depends on the
    type alone and the seed is not used.

    Raises :class:`InfeasibleCone` when some length is forced to zero.
    """
    if not mc.has_positive_point:
        raise InfeasibleCone(
            f"lengths {mc.forced_zero_lengths} are zero on the whole cone"
        )
    t = mc.type
    if t.fan.embedded:
        positions, lengths = _sample_embedded(mc, seed)
    else:
        positions, lengths = _strict_point(t, _vertex_rays(t), mc.support_point)
    m = _map_from_lengths(t, lengths, positions)
    diags = [d for d in validate_map(m) if not d.startswith(STABILITY_VIOLATED)]
    if diags:
        raise InfeasibleCone(f"sampled point does not realize the type: {diags[0]}")
    if not t.fan.embedded and canonical_type(combinatorial_type(m)) != canonical_type(t):
        raise InfeasibleCone("no interior point realizes the type: positions degenerate to faces")
    return m


def _sample_embedded(mc: ModuliCone, seed: int) -> tuple[dict[str, RatVec], dict[str, Fraction]]:
    """The positions and lengths of one point of the embedded-mode cone with
    every length positive: the support point perturbed along the cycle
    space by the seed.

    The perturbation P is a seeded integer combination of the integer
    kernel basis, summed in ints, and length j moves by
    min(ell) / (2 max |P|) * P_j, which keeps it positive.  The kernel's
    common positive scale cancels from that ratio, so the point is the one
    the rational :func:`nullspace` basis gives."""
    rng = random.Random(seed)
    t = mc.type
    n = t.fan.ambient_dim
    bounded = t.bounded_edge_ids()
    ell = mc.support_point
    kernel = integer_nullspace(mc.cycle_rows, ncols=len(bounded))
    if kernel and bounded:
        coeffs = [rng.randint(-8, 8) for _ in kernel]
        perturb = [sum(cf * vec[j] for cf, vec in zip(coeffs, kernel)) for j in range(len(bounded))]
        biggest = max(abs(x) for x in perturb)
        if biggest > 0:
            step = min(ell) / (2 * biggest)
            ell = [a + step * b for a, b in zip(ell, perturb)]
    lengths = dict(zip(bounded, ell))
    base = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
    return _positions_from_lengths(t, lengths, _finite_vertices(t)[0], base), lengths
