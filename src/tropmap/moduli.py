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

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from . import curves
from .curves import Edge, betti_and_genus, tropical_curve
from .exactgeom import (
    Cone,
    RatMatrix,
    RatVec,
    ONE,
    ZERO,
    canonical_cone,
    cone_is_face,
    format_rational,
    nullspace,
    fan_cone_intersection,
    rank,
    ratvec,
    solve_nonneg,
    vadd,
    vscale,
    zero_cone,
)
from .maps import (
    CombinatorialType,
    EdgeMapData,
    TropicalStableMap,
    canonical_type,
    combinatorial_type,
    decorated_isomorphisms,
    make_type,
    stable_map,
    validate_map,
)


class InfeasibleCone(ValueError):
    """The moduli cone admits no point with all lengths strictly positive."""


# ---------------------------------------------------------------------------
# presentation

@dataclass(frozen=True)
class ModuliCone:
    """Equation/inequality presentation of the cone of maps of a fixed type.

    ``variables`` lists one position block per finite vertex followed by one
    length per bounded edge; ``equations`` has ambient-dimension rows per
    bounded edge.  ``forced_zero_lengths`` are the edges that vanish on every
    point of the cone.
    """

    type: CombinatorialType
    variables: tuple[str, ...]
    equations: RatMatrix
    inequalities: tuple[tuple, ...]
    dim: int
    forced_zero_lengths: tuple[str, ...]
    has_positive_point: bool


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


def _equations(t: CombinatorialType) -> RatMatrix:
    n = t.fan.ambient_dim
    finite = _finite_vertices(t)
    vindex = {vid: i for i, vid in enumerate(finite)}
    bounded = t.bounded_edge_ids()
    eindex = {eid: i for i, eid in enumerate(bounded)}
    width = n * len(finite) + len(bounded)
    rows = []
    for eid in bounded:
        e = t.graph.edge(eid)
        d = t.edge_data[eid]
        tail = d.tail
        head = e.ends[0] if e.ends[1] == tail else e.ends[1]
        wd = t.weighted_direction(eid)
        for k in range(n):
            row = [ZERO] * width
            if head != tail:
                row[n * vindex[head] + k] += 1
                row[n * vindex[tail] + k] -= 1
            row[n * len(finite) + eindex[eid]] -= Fraction(wd[k])
            rows.append(tuple(row))
    return tuple(rows)


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


def _path_to_root(parent, vid) -> list[tuple[Edge, int]]:
    path = []
    while vid in parent:
        up, e, sign = parent[vid]
        path.append((e, sign))
        vid = up
    return path


def _length_constraints(t: CombinatorialType) -> list[list[Fraction]]:
    """Closing conditions on the lengths alone: one ambient-dimension block
    per independent cycle of the finite graph."""
    n = t.fan.ambient_dim
    bounded = t.bounded_edge_ids()
    eindex = {eid: i for i, eid in enumerate(bounded)}
    parent, non_tree = _spanning_tree(t)
    if len(parent) != len(_finite_vertices(t)) - 1:
        raise ValueError("the finite vertices are not connected by bounded edges")
    rows: list[list[Fraction]] = []
    for e in non_tree:
        coeff: dict[str, RatVec] = {}

        def add(eid: str, vec) -> None:
            cur = coeff.get(eid, tuple([ZERO] * n))
            coeff[eid] = vadd(cur, ratvec(vec))

        a, b = e.ends
        d = t.weighted_direction(e.id)
        tail = t.edge_data[e.id].tail
        head = a if b == tail else b
        if head != tail:
            add(e.id, d)
            # tree path from head back to tail cancels the displacement
            pa = _path_to_root(parent, tail)
            pb = _path_to_root(parent, head)
            sa = {x[0].id for x in pa}
            sb = {x[0].id for x in pb}
            for edge, sign in pa:
                if edge.id not in sb:
                    add(edge.id, vscale(sign, t.weighted_direction(edge.id)))
            for edge, sign in pb:
                if edge.id not in sa:
                    add(edge.id, vscale(-sign, t.weighted_direction(edge.id)))
        else:
            add(e.id, d)
        for k in range(n):
            row = [ZERO] * len(bounded)
            nonzero = False
            for eid, vec in coeff.items():
                if vec[k] != 0:
                    row[eindex[eid]] = vec[k]
                    nonzero = True
            if nonzero:
                rows.append(row)
    return rows


def _unit(n: int, i: int) -> list[Fraction]:
    return [ONE if j == i else ZERO for j in range(n)]


def _nonneg_support(rows: Sequence[Sequence[Fraction]], n: int) -> tuple[set[int], list[Fraction]]:
    """Which coordinates can be positive on the cone {x >= 0 : rows . x = 0},
    and one point of the cone positive on all of them.

    Each LP asks for x >= shift, written x = shift + s with s >= 0 so that
    it needs no slack rows.  One LP with every coordinate at least 1 settles
    the common case of a cone with a strictly positive point; otherwise one
    LP per coordinate, skipping coordinates an earlier witness made positive.
    """

    def witness(shift: list[Fraction]) -> Optional[list[Fraction]]:
        rhs = [-sum(c * x for c, x in zip(row, shift) if c) for row in rows]
        s = solve_nonneg(rows, rhs) if rows else [ZERO] * n
        return None if s is None else [a + b for a, b in zip(shift, s)]

    point = witness([ONE] * n)
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
    variables = _variables(t)
    equations = _equations(t)
    bounded = t.bounded_edge_ids()
    ineqs: list[tuple] = [("nonneg_length", eid) for eid in bounded]
    if not t.fan.embedded:
        for vid in _finite_vertices(t):
            ineqs.append(("cone_membership", vid, t.vertex_cones[vid]))

    if t.fan.embedded:
        cons = _length_constraints(t)
        support, _ = _nonneg_support(cons, len(bounded))
        zero = [i for i in range(len(bounded)) if i not in support]
        forced = tuple(bounded[i] for i in zero)
        selectors = [_unit(len(bounded), i) for i in zero]
        dim = t.fan.ambient_dim + len(bounded) - rank(cons + selectors)
    else:
        dim, forced = _strict_dim(t)
    return ModuliCone(
        type=t,
        variables=variables,
        equations=equations,
        inequalities=tuple(ineqs),
        dim=dim,
        forced_zero_lengths=forced,
        has_positive_point=not forced,
    )


def _strict_generator_system(t: CombinatorialType):
    """Parametrize positions by non-negative coefficients on the vertex-cone
    rays; returns (columns per y-variable of the x = (positions, lengths)
    map, equation rows over y)."""
    n = t.fan.ambient_dim
    finite = _finite_vertices(t)
    bounded = t.bounded_edge_ids()
    x_width = n * len(finite) + len(bounded)
    vindex = {vid: i for i, vid in enumerate(finite)}
    columns: list[RatVec] = []
    owners: list[tuple[str, int]] = []
    for vid in finite:
        rays = canonical_cone(t.vertex_cones[vid]).rays
        for r in rays:
            col = [ZERO] * x_width
            for k in range(n):
                col[n * vindex[vid] + k] = Fraction(r[k])
            columns.append(tuple(col))
            owners.append(("ray", 0))
    for i, eid in enumerate(bounded):
        col = [ZERO] * x_width
        col[n * len(finite) + i] = Fraction(1)
        columns.append(tuple(col))
        owners.append(("len", i))
    # equations in x-space pulled back to y-space
    eq_x = _equations(t)
    eq_y = []
    for row in eq_x:
        eq_y.append([sum(row[j] * col[j] for j in range(x_width)) for col in columns])
    return columns, eq_y, owners


def _strict_dim(t: CombinatorialType) -> tuple[int, tuple[str, ...]]:
    bounded = t.bounded_edge_ids()
    columns, eq_y, owners = _strict_generator_system(t)
    ny = len(columns)
    support, _ = _nonneg_support(eq_y, ny)
    rows = eq_y + [_unit(ny, j) for j in range(ny) if j not in support]
    kernel = nullspace(rows, ncols=ny)
    # dimension of the image cone in x-space
    x_width = len(columns[0]) if columns else 0
    images = []
    for vec in kernel:
        img = [ZERO] * x_width
        for j, c in enumerate(vec):
            if c != 0:
                img = [a + c * b for a, b in zip(img, columns[j])]
        images.append(img)
    dim = rank(images) if images else 0
    forced = tuple(
        bounded[i] for j, (kind, i) in enumerate(owners) if kind == "len" and j not in support
    )
    return dim, forced


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
) -> tuple[CombinatorialType, dict[str, str]]:
    edge_set = set(edges)
    for eid in edge_set:
        if not t.graph.has_edge(eid):
            raise ValueError(f"unknown edge {eid}")
        if t.graph.is_marked_leaf_edge(t.graph.edge(eid)):
            raise ValueError(f"cannot contract marked leaf-edge {eid}")
    graph = t.graph
    vmap = {v.id: v.id for v in graph.vertices}
    for eid in sorted(edge_set):
        live = {vmap[x] for x in t.graph.edge(eid).ends}
        before = {v.id for v in graph.vertices}
        graph = curves.contract_edge(graph, eid)
        after = {v.id for v in graph.vertices}
        gone = before - after
        if gone:
            (dropped,) = gone
            kept = min(live)
            vmap = {k: (kept if v == dropped else v) for k, v in vmap.items()}
    classes: dict[str, list[str]] = {}
    for old, new in vmap.items():
        classes.setdefault(new, []).append(old)
    cones: dict[str, Cone] = {}
    for new, olds in classes.items():
        members = [t.vertex_cones[o] for o in olds if o in t.vertex_cones]
        if not members:
            continue
        # a merged vertex sits where all its pieces degenerate: the largest
        # common face of their cones (their intersection in a valid fan)
        cones[new] = fan_cone_intersection(t.fan, members)
    data = {eid: d for eid, d in t.edge_data.items() if eid not in edge_set}
    fixed = {}
    for eid, d in data.items():
        fixed[eid] = EdgeMapData(d.u, d.w, vmap[d.tail])
    new_type = make_type(graph, t.fan, fixed, cones)
    return new_type, vmap


def contract_type(t: CombinatorialType, edges: Iterable[str]) -> CombinatorialType:
    """Contract the listed bounded edges; merged vertices receive the
    smallest fan cone containing all their cones, and surviving edge
    decorations are unchanged."""
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


def is_face(ta: CombinatorialType, tb: CombinatorialType) -> Optional[FaceWitness]:
    """Search for an edge-contraction of ``tb`` matching ``ta``.

    Returns a witness whose vertex map also certifies the per-vertex face
    condition (the cone of each image vertex is a face of the cone of every
    merged vertex), or None.  The search is exhaustive over contraction
    subsets and decorated isomorphisms and refuses instances with more than
    sixteen bounded edges.
    """
    ta = canonical_type(ta)
    tb = canonical_type(tb)
    bounded = tb.bounded_edge_ids()
    if len(bounded) > MAX_FACE_SEARCH_EDGES:
        raise ValueError(
            f"face search capped at {MAX_FACE_SEARCH_EDGES} bounded edges, got {len(bounded)}"
        )
    needed = len(bounded) - len(ta.bounded_edge_ids())
    if needed < 0 or len(tb.graph.markings) != len(ta.graph.markings):
        return None
    for subset in itertools.combinations(bounded, needed):
        try:
            tc, vmap = _contract_with_map(tb, subset)
        except ValueError:
            continue
        classes: dict[str, list[str]] = {}
        for old, new in vmap.items():
            classes.setdefault(new, []).append(old)

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
class Family:
    """A one-parameter family of maps of a fixed type on t in [0, 1]:
    every length and position coordinate is an affine function of t, all
    lengths are positive on [0, 1), and the equations hold identically."""

    type: CombinatorialType
    lengths: Mapping[str, AffineFn]
    positions: Mapping[str, tuple[AffineFn, ...]]


def _derive_positions(
    t: CombinatorialType,
    lengths: Mapping[str, AffineFn],
    base_vertex: str,
    base_position: Sequence[AffineFn],
) -> dict[str, tuple[AffineFn, ...]]:
    n = t.fan.ambient_dim
    parent, _ = _spanning_tree(t)
    positions = {base_vertex: tuple(base_position)}
    finite = _finite_vertices(t)
    remaining = [v for v in finite if v != base_vertex]
    while remaining:
        progressed = False
        for vid in list(remaining):
            up, e, sign = parent.get(vid, (None, None, 0))
            if up is None or up not in positions:
                continue
            wd = t.weighted_direction(e.id)
            ell = lengths[e.id]
            coords = []
            for k in range(n):
                delta = Fraction(sign * wd[k])
                coords.append(
                    AffineFn(
                        positions[up][k].const + delta * ell.const,
                        positions[up][k].slope + delta * ell.slope,
                    )
                )
            positions[vid] = tuple(coords)
            remaining.remove(vid)
            progressed = True
        if not progressed:
            raise ValueError("could not derive positions: finite graph not spanned")
    return positions


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
        finite = _finite_vertices(t)
        base = base_vertex if base_vertex is not None else finite[0]
        base_pos = tuple(base_position) if base_position is not None else tuple(affine(0) for _ in range(n))
        positions = _derive_positions(t, lengths, base, base_pos)
    positions = {vid: tuple(p) for vid, p in positions.items()}
    fam = Family(t, dict(lengths), positions)
    for probe in (Fraction(0), Fraction(1, 2)):
        _check_member(fam, probe)
    return fam


def _check_member(fam: Family, t_val: Fraction) -> None:
    t = fam.type
    n = t.fan.ambient_dim
    if not t.fan.embedded:
        from .exactgeom import cone_contains

        # cones are convex, so membership at t = 0 and t = 1 pins the whole
        # affine path inside the cone
        for probe in (Fraction(0), Fraction(1)):
            for vid, fns in fam.positions.items():
                p = tuple(fn.at(probe) for fn in fns)
                if not cone_contains(t.vertex_cones[vid], p):
                    raise ValueError(
                        f"position of {vid} exits its cone at t={format_rational(probe)}"
                    )
    for eid in t.bounded_edge_ids():
        e = t.graph.edge(eid)
        if e.ends[0] == e.ends[1]:
            continue
        d = t.edge_data[eid]
        tail = d.tail
        head = e.ends[0] if e.ends[1] == tail else e.ends[1]
        wd = t.weighted_direction(eid)
        ell = fam.lengths[eid].at(t_val)
        for k in range(n):
            lhs = fam.positions[head][k].at(t_val) - fam.positions[tail][k].at(t_val)
            if lhs != ell * Fraction(wd[k]):
                raise ValueError(
                    f"family inconsistent on edge {eid} at t={format_rational(t_val)}"
                )


def format_affine(fn: AffineFn) -> str:
    return f"{format_rational(fn.const)} + ({format_rational(fn.slope)})*t"


def evaluate_family(fam: Family, t_val) -> TropicalStableMap:
    """The member map at one parameter value (no contraction applied)."""
    t_val = Fraction(t_val)
    t = fam.type
    edges = []
    for e in t.graph.edges:
        if t.graph.is_marked_leaf_edge(e):
            edges.append(e)
        else:
            edges.append(Edge(e.id, e.ends, fam.lengths[e.id].at(t_val)))
    c = tropical_curve(t.graph.vertices, edges, t.graph.markings)
    pos = {vid: tuple(fn.at(t_val) for fn in fns) for vid, fns in fam.positions.items()}
    return stable_map(c, t.fan, pos, dict(t.edge_data))


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
    member = evaluate_family(fam, t_star)
    zero_edges = tuple(
        sorted(
            eid
            for eid in fam.type.bounded_edge_ids()
            if fam.lengths[eid].at(t_star) == 0
        )
    )
    if not zero_edges:
        return LimitResult(t_star, member, fam.type, ())
    limit_type, vmap = _contract_with_map(fam.type, zero_edges)
    edges = []
    for e in limit_type.graph.edges:
        if limit_type.graph.is_marked_leaf_edge(e):
            edges.append(e)
        else:
            edges.append(Edge(e.id, e.ends, fam.lengths[e.id].at(t_star)))
    c = tropical_curve(limit_type.graph.vertices, edges, limit_type.graph.markings)
    positions: dict[str, RatVec] = {}
    for old, new in vmap.items():
        if old in member.positions:
            p = member.positions[old]
            if new in positions and positions[new] != p:
                raise ValueError(f"merged vertices of {new} have distinct limit positions")
            positions[new] = p
    limit_map = stable_map(c, fam.type.fan, positions, dict(limit_type.edge_data))
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
    if not t.fan.embedded:
        return _sample_strict(t)
    rng = random.Random(seed)
    n = t.fan.ambient_dim
    bounded = t.bounded_edge_ids()
    cons = _length_constraints(t)
    _, ell = _nonneg_support(cons, len(bounded))
    kernel = nullspace(cons, ncols=len(bounded))
    if kernel and bounded:
        coeffs = [Fraction(rng.randint(-8, 8)) for _ in kernel]
        perturb = [ZERO] * len(bounded)
        for cf, vec in zip(coeffs, kernel):
            perturb = [a + cf * b for a, b in zip(perturb, vec)]
        biggest = max((abs(x) for x in perturb), default=ZERO)
        if biggest > 0:
            floor = min(ell)
            scale = floor / (2 * biggest)
            ell = [a + scale * b for a, b in zip(ell, perturb)]
    lengths = dict(zip(bounded, ell))
    base = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n))
    positions = _positions_from_lengths(t, lengths, base)
    return _assemble(t, lengths, positions)


def _positions_from_lengths(t, lengths: Mapping[str, Fraction], base: RatVec) -> dict[str, RatVec]:
    finite = _finite_vertices(t)
    parent, _ = _spanning_tree(t)
    positions = {finite[0]: base}
    remaining = [v for v in finite if v != finite[0]]
    while remaining:
        for vid in list(remaining):
            up, e, sign = parent.get(vid, (None, None, 0))
            if up is None or up not in positions:
                continue
            wd = t.weighted_direction(e.id)
            step = vscale(Fraction(sign) * lengths[e.id], ratvec(wd))
            positions[vid] = vadd(positions[up], step)
            remaining.remove(vid)
    return positions


def _assemble(t: CombinatorialType, lengths: Mapping[str, Fraction], positions: Mapping[str, RatVec]) -> TropicalStableMap:
    edges = []
    for e in t.graph.edges:
        if t.graph.is_marked_leaf_edge(e):
            edges.append(e)
        else:
            edges.append(Edge(e.id, e.ends, lengths[e.id]))
    c = tropical_curve(t.graph.vertices, edges, t.graph.markings)
    m = stable_map(c, t.fan, dict(positions), dict(t.edge_data))
    diags = [d for d in validate_map(m) if "stability" not in d]
    if diags:
        raise InfeasibleCone(f"sampled point does not realize the type: {diags[0]}")
    return m


def _sample_strict(t: CombinatorialType) -> TropicalStableMap:
    bounded = t.bounded_edge_ids()
    columns, eq_y, owners = _strict_generator_system(t)
    support, point = _nonneg_support(eq_y, len(columns))
    for j, (kind, i) in enumerate(owners):
        if kind == "len" and j not in support:
            raise InfeasibleCone(f"length {bounded[i]} is zero on the whole cone")
    x_width = len(columns[0]) if columns else 0
    x = [ZERO] * x_width
    for j, c in enumerate(point):
        if c != 0:
            x = [a + c * b for a, b in zip(x, columns[j])]
    n = t.fan.ambient_dim
    finite = _finite_vertices(t)
    positions = {
        vid: tuple(x[n * i + k] for k in range(n)) for i, vid in enumerate(finite)
    }
    lengths = {eid: x[n * len(finite) + i] for i, eid in enumerate(bounded)}
    m = _assemble(t, lengths, positions)
    realized = canonical_type(combinatorial_type(m))
    if realized != canonical_type(t):
        raise InfeasibleCone("no interior point realizes the type: positions degenerate to faces")
    return m
