"""Genus-one analysis: cycles, hyperplane flats, and well-spacedness.

A genus-one curve has a unique cycle (possibly a single genus-one vertex or
a contracted self-loop).  When its image spans a proper affine subspace V,
every hyperplane H containing V traps a subcurve: the connected component
through the cycle of the vertices and edges mapping into H.  The map is
well-spaced with respect to H when the multiset of distances from the cycle
to the trapped subcurve's boundary vertices attains its minimum at least
twice, and well-spaced outright when that holds for every such H.

Boundary vertices are the vertices of the trapped subcurve incident to at
least one edge outside it.  In particular cycle vertices where the curve
leaves H count with distance zero; this is what makes shrinking the
separation between two such departure points flip the predicate in the
shrinking-cycle family below.

The continuum of hyperplanes is reduced to finitely many cases: the trapped
subcurve depends only on which arrangement vectors (projected vertex offsets
and edge directions) the hyperplane annihilates, and the achievable patterns
are exactly the flats of rank at most codim(V) - 1 of the projected
arrangement.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import curves
from .curves import Edge, Marking, TropicalCurve, Vertex, betti_and_genus, tropical_curve
from .exactgeom import (
    IntVec,
    RatVec,
    auto_rays_fan,
    integer_nullspace,
    nullspace,
    primitive,
    rank,
    rref,
    vdot,
)
from .maps import (
    STABILITY_VIOLATED,
    EdgeMapData,
    TropicalStableMap,
    _lex_positive,
    canonical_map,
    make_type,
    stable_map,
    validate_map,
)
from .moduli import AffineFn, Family, affine, evaluate_family, limit_of_family, make_family


# ---------------------------------------------------------------------------
# the cycle and its span

@dataclass(frozen=True)
class CycleData:
    """The unique cycle of a genus-one curve together with the affine span V
    of its image: a base point, a basis of the direction space, and the
    codimension.  ``superabundant`` records codim >= 1 (the cycle image lies
    in a proper affine subspace)."""

    cycle_vertices: tuple[str, ...]
    cycle_edges: tuple[str, ...]
    base_point: RatVec
    direction_basis: tuple[RatVec, ...]
    codim: int
    superabundant: bool


def cycle_data(m: TropicalStableMap) -> CycleData:
    b1, g = betti_and_genus(m.curve)
    if g != 1:
        raise ValueError(f"cycle analysis requires genus 1, got {g}")
    if b1 == 1:
        cyc_v, cyc_e = _unique_cycle(m.curve)
    else:
        genus_vertex = next(v.id for v in m.curve.vertices if v.genus == 1)
        cyc_v, cyc_e = (genus_vertex,), ()
    # offsets at the map's common denominator span the same space
    positions = m.scaled.positions
    base = positions[cyc_v[0]]
    dirs = [[a - b for a, b in zip(positions[vid], base)] for vid in cyc_v]
    dirs += [m.edge_data[eid].u for eid in cyc_e]
    basis_rows, pivots = rref([d for d in dirs if any(d)])
    basis = tuple(tuple(basis_rows[i]) for i in range(len(pivots)))
    codim = m.fan.ambient_dim - len(basis)
    return CycleData(cyc_v, cyc_e, m.positions[cyc_v[0]], basis, codim, codim >= 1)


def _unique_cycle(c: TropicalCurve) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The 2-core of a connected graph with first Betti number one."""
    alive_v = {v.id for v in c.vertices}
    alive_e = {e.id for e in c.edges}
    changed = True
    while changed:
        changed = False
        for vid in list(alive_v):
            incident = [
                e for e in c.edges_at(vid)
                if e.id in alive_e and (e.ends[0] != e.ends[1])
            ]
            loops = [e for e in c.edges_at(vid) if e.id in alive_e and e.ends[0] == e.ends[1]]
            if len(incident) + 2 * len(loops) == 1:
                alive_v.discard(vid)
                alive_e.discard(incident[0].id)
                changed = True
    return tuple(sorted(alive_v)), tuple(sorted(alive_e))


# ---------------------------------------------------------------------------
# arrangements and flats

@dataclass(frozen=True)
class Arrangement:
    """The projected arrangement in the quotient by the cycle span:
    a quotient map (rows form a basis of the annihilator of V's directions),
    the same rows times one common positive integer, and the deduplicated
    primitive projective representatives, sorted.

    ``sources[i]`` is an ambient vector whose projection represents
    ``vectors[i]``: a positive integral multiple of a vertex offset from the
    base point or of an edge direction.  A covector vanishing on V vanishes
    on a representative exactly when it vanishes on its source, so
    containment patterns are read off the sources without lifting."""

    quotient_map: tuple[RatVec, ...]
    vectors: tuple[IntVec, ...]
    sources: tuple[IntVec, ...]
    integer_quotient: tuple[IntVec, ...]


@dataclass(frozen=True)
class HyperplaneFlat:
    """A containment pattern of hyperplanes through V: the annihilated
    arrangement vectors (a matroid flat of rank <= codim - 1) and one
    certifying integral covector on the ambient space vanishing exactly on
    the flat (and on V)."""

    zero_set: tuple[IntVec, ...]
    normal: IntVec
    rank: int


def _projective_rep(vec: Sequence[int]) -> Optional[IntVec]:
    if all(x == 0 for x in vec):
        return None
    return _lex_positive(primitive(vec))


def build_arrangement(m: TropicalStableMap, cd: Optional[CycleData] = None) -> Arrangement:
    """Project vertex offsets (for vertices off V) and all edge directions to
    the quotient by V's directions, keeping one primitive representative per
    projective class.

    The projection runs over the integers: the quotient rows are scaled by
    one common positive denominator, the offsets are taken at the map's
    common denominator, and neither scaling changes a projective class.  The
    first vector met in each class (vertices before edges) is kept as its
    source."""
    if cd is None:
        cd = cycle_data(m)
    quotient = tuple(nullspace(cd.direction_basis, ncols=m.fan.ambient_dim))
    scale = lcm(*(x.denominator for row in quotient for x in row))
    integral = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in quotient)
    positions = m.scaled.positions
    base = positions[cd.cycle_vertices[0]]
    offsets = ([a - b for a, b in zip(positions[vid], base)] for vid in m.curve.unmarked_vertex_ids())
    candidates = [primitive(v) for v in offsets if any(v)]
    candidates += [m.edge_data[e.id].u for e in m.curve.edges]
    sources: dict[IntVec, IntVec] = {}
    for vec in candidates:
        rep = _projective_rep([sum(a * b for a, b in zip(row, vec)) for row in integral])
        if rep is not None:
            sources.setdefault(rep, tuple(vec))
    reps = sorted(sources)
    return Arrangement(quotient, tuple(reps), tuple(sources[r] for r in reps), integral)


def _closure(vectors: Sequence[IntVec], subset: frozenset[IntVec]) -> frozenset[IntVec]:
    rows = list(subset)
    if not rows:
        return frozenset()
    base_rank = rank(rows)
    closed = set(subset)
    for w in vectors:
        if w in closed:
            continue
        if rank(rows + [w]) == base_rank:
            closed.add(w)
    return frozenset(closed)


MAX_ARRANGEMENT_VECTORS = 12


def enumerate_flats(
    m: TropicalStableMap, cd: Optional[CycleData] = None, arr: Optional[Arrangement] = None
) -> list[HyperplaneFlat]:
    """All hyperplane containment patterns: flats of the projected
    arrangement of rank at most codim - 1, each with a certifying normal.

    Raises ValueError when codim is zero (no hyperplane contains the cycle)
    and when the arrangement has more than twelve vectors: the number of
    flats can grow like two to that number.
    """
    if cd is None:
        cd = cycle_data(m)
    if cd.codim == 0:
        raise ValueError("cycle image spans the ambient space: no containing hyperplane")
    if arr is None:
        arr = build_arrangement(m, cd)
    if len(arr.vectors) > MAX_ARRANGEMENT_VECTORS:
        raise ValueError(
            f"flat enumeration capped at {MAX_ARRANGEMENT_VECTORS} arrangement vectors, "
            f"got {len(arr.vectors)}"
        )
    max_rank = cd.codim - 1
    flats: set[frozenset[IntVec]] = {frozenset()}
    frontier: set[frozenset[IntVec]] = {frozenset()}
    while frontier:
        new_frontier: set[frozenset[IntVec]] = set()
        for flat in frontier:
            for w in arr.vectors:
                if w in flat:
                    continue
                bigger = _closure(arr.vectors, flat | {w})
                if bigger in flats:
                    continue
                if _flat_rank(bigger) <= max_rank:
                    flats.add(bigger)
                    new_frontier.add(bigger)
        frontier = new_frontier
    out = []
    for flat in sorted(flats, key=lambda f: (len(f), sorted(f))):
        normal = _certifying_normal(arr, flat, m.fan.ambient_dim)
        out.append(HyperplaneFlat(tuple(sorted(flat)), normal, _flat_rank(flat)))
    return out


def _flat_rank(flat: frozenset[IntVec]) -> int:
    return rank(list(flat))


def _certifying_normal(arr: Arrangement, flat: frozenset[IntVec], ambient: int) -> IntVec:
    """An integral covector vanishing on V and on the flat but on no other
    arrangement vector.  A generic combination of a kernel basis works; the
    powers-of-t trick makes the search deterministic."""
    c = len(arr.quotient_map)
    kernel = integer_nullspace(list(flat), ncols=c)
    if not kernel:
        raise ValueError("flat spans the quotient: no hyperplane certifies it")
    excluded = [v for v in arr.vectors if v not in flat]
    # psi(t) = sum_i t^i kernel[i].  An excluded vector lies outside the
    # span of the flat, so some kernel vector is non-zero on it, and psi(t)
    # on it is a non-zero polynomial of degree at most len(kernel) - 1: it
    # rules out at most len(kernel) - 1 values of t, and one of the first
    # len(excluded) * (len(kernel) - 1) + 1 positive integers survives.
    for t in range(1, len(excluded) * (len(kernel) - 1) + 2):
        psi = [0] * c
        scale = 1
        for vec in kernel:
            psi = [a + scale * b for a, b in zip(psi, vec)]
            scale *= t
        if all(vdot(psi, v) != 0 for v in excluded):
            break
    else:
        raise ValueError("failed to certify flat with a generic normal")
    phi = [0] * ambient
    for coef, row in zip(psi, arr.integer_quotient):
        phi = [a + coef * b for a, b in zip(phi, row)]
    return primitive(phi)


def pattern_of_normal(
    m: TropicalStableMap, cd: CycleData, normal: Sequence[Fraction], arr: Optional[Arrangement] = None
) -> tuple[IntVec, ...]:
    """The containment pattern cut by an explicit hyperplane normal (which
    must vanish on V's directions)."""
    if arr is None:
        arr = build_arrangement(m, cd)
    for b in cd.direction_basis:
        if vdot(normal, b) != 0:
            raise ValueError("normal does not vanish on the cycle span")
    return tuple(rep for rep, src in zip(arr.vectors, arr.sources) if vdot(normal, src) == 0)


# ---------------------------------------------------------------------------
# trapped subcurves and distances

@dataclass(frozen=True)
class TrappedSubcurve:
    """The connected component through the cycle of the vertices and edges
    mapping into a hyperplane, with its boundary distance multiset."""

    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    boundary: tuple[tuple[str, Fraction], ...]

    def distance_multiset(self) -> tuple[Fraction, ...]:
        return tuple(sorted(d for _, d in self.boundary))


def subcurve_in_flat(
    m: TropicalStableMap,
    flat: HyperplaneFlat,
    cd: Optional[CycleData] = None,
    arr: Optional[Arrangement] = None,
) -> TrappedSubcurve:
    """Vertices are in H when the normal kills their offset from the base
    point; an edge is in H when both endpoints are and its direction is
    annihilated.  Boundary vertices are the component's vertices incident to
    at least one edge outside it, and distances are intrinsic shortest paths
    to the cycle inside the component."""
    if cd is None:
        cd = cycle_data(m)
    phi = flat.normal
    if pattern_of_normal(m, cd, phi, arr) != flat.zero_set:
        raise ValueError("flat was not generated for this map")
    marked = m.curve.marked_vertex_ids
    positions = m.scaled.positions
    level = vdot(phi, positions[cd.cycle_vertices[0]])
    in_h = set(marked)
    in_h.update(vid for vid in m.curve.unmarked_vertex_ids() if vdot(phi, positions[vid]) == level)
    edges_in_h = {
        e.id for e in m.curve.edges
        if e.ends[0] in in_h and e.ends[1] in in_h and vdot(phi, m.edge_data[e.id].u) == 0
    }

    component = set(cd.cycle_vertices)
    comp_edges = set(cd.cycle_edges)
    frontier = list(component)
    while frontier:
        vid = frontier.pop()
        for e in m.curve.edges_at(vid):
            if e.id not in edges_in_h:
                continue
            comp_edges.add(e.id)
            for end in e.ends:
                if end in marked or end in component:
                    continue
                component.add(end)
                frontier.append(end)

    boundary: list[tuple[str, Fraction]] = []
    dist = _distances_to_cycle(m, component, comp_edges, cd)
    for vid in sorted(component):
        outside = False
        for e in m.curve.edges_at(vid):
            if e.id not in comp_edges:
                outside = True
                break
        if outside:
            boundary.append((vid, Fraction(dist[vid], m.scaled.denominator)))
    return TrappedSubcurve(tuple(sorted(component)), tuple(sorted(comp_edges)), tuple(boundary))


def _distances_to_cycle(
    m: TropicalStableMap,
    component: set[str],
    comp_edges: set[str],
    cd: CycleData,
) -> dict[str, int]:
    """Shortest intrinsic distances to the cycle inside the component, in
    units of one over the map's common denominator."""
    lengths = m.scaled.lengths
    dist: dict[str, int] = {}
    heap: list[tuple[int, str]] = []
    for vid in cd.cycle_vertices:
        dist[vid] = 0
        heapq.heappush(heap, (0, vid))
    while heap:
        d, vid = heapq.heappop(heap)
        if dist.get(vid, None) is not None and d > dist[vid]:
            continue
        for e in m.curve.edges_at(vid):
            if e.id not in comp_edges or e.id not in lengths:
                continue
            for end in e.ends:
                if end == vid or end not in component:
                    continue
                nd = d + lengths[e.id]
                if end not in dist or nd < dist[end]:
                    dist[end] = nd
                    heapq.heappush(heap, (nd, end))
    return dist


# ---------------------------------------------------------------------------
# the well-spacedness predicate

@dataclass(frozen=True)
class FlatRecord:
    flat: HyperplaneFlat
    subcurve: TrappedSubcurve
    passes: bool


@dataclass(frozen=True)
class WellSpacedReport:
    overall: bool
    flats: tuple[FlatRecord, ...]
    witness: Optional[FlatRecord]


def multiset_passes(distances: Sequence[Fraction]) -> bool:
    """Empty multisets pass vacuously; otherwise the minimum must occur at
    least twice."""
    if not distances:
        return True
    low = min(distances)
    return sum(1 for d in distances if d == low) >= 2


def is_well_spaced(m: TropicalStableMap, cd: Optional[CycleData] = None) -> WellSpacedReport:
    """Evaluate the predicate on every hyperplane flat; the first failing
    flat is the witness.  The cycle data and the arrangement are computed
    once and shared by every flat."""
    if cd is None:
        cd = cycle_data(m)
    if cd.codim == 0:
        raise ValueError("cycle image spans the ambient space: no containing hyperplane")
    arr = build_arrangement(m, cd)
    records = []
    witness = None
    for flat in enumerate_flats(m, cd, arr):
        sub = subcurve_in_flat(m, flat, cd, arr)
        ok = multiset_passes(sub.distance_multiset())
        rec = FlatRecord(flat, sub, ok)
        records.append(rec)
        if not ok and witness is None:
            witness = rec
    return WellSpacedReport(witness is None, tuple(records), witness)


def well_spaced_or_vacuous(m: TropicalStableMap) -> bool:
    """True when no hyperplane contains the cycle span (codim zero) or the
    full predicate holds."""
    cd = cycle_data(m)
    if cd.codim == 0:
        return True
    return is_well_spaced(m, cd).overall


# ---------------------------------------------------------------------------
# the hat construction

def hat_curve(m: TropicalStableMap, t) -> TropicalStableMap:
    """Replace the unique genus-one vertex by a genus-zero vertex carrying a
    contracted self-loop of length t; genus, positions, and validity are
    preserved."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("self-loop length must be positive")
    b1, g = betti_and_genus(m.curve)
    if g != 1 or b1 != 0:
        raise ValueError("hat construction needs genus 1 concentrated at a single vertex")
    vid = next(v.id for v in m.curve.vertices if v.genus == 1)
    vertices = [Vertex(v.id, 0) if v.id == vid else v for v in m.curve.vertices]
    loop_id = f"hat:{vid}"
    if m.curve.has_edge(loop_id):
        raise ValueError(f"edge id {loop_id} already in use")
    edges = list(m.curve.edges) + [Edge(loop_id, (vid, vid), t)]
    data = dict(m.edge_data)
    data[loop_id] = EdgeMapData(tuple(0 for _ in range(m.fan.ambient_dim)), 0, vid)
    c = tropical_curve(vertices, edges, m.curve.markings)
    return stable_map(c, m.fan, dict(m.positions), data)


# ---------------------------------------------------------------------------
# the shrinking-cycle family (two departure vertices that collide at t = 1)

def build_figure1_family(n: int = 3) -> Family:
    """A one-parameter family in R^n (first three coordinates active) whose
    cycle is a hexagon in the plane {x3 = 0}: edges leave that plane at the
    two top cycle vertices only, the two cycle edges between the departure
    vertices and between their antipodes shrink with length 1 - t, and every
    other boundary vertex of the trapped subcurve sits at distance one from
    the cycle.

    For t < 1 the distance multiset of the in-plane hyperplane is
    {0, 0, 1, 1, 1, 1} and the predicate passes; at t = 1 the two departure
    vertices merge, the minimum zero occurs once, and it fails.
    """
    if n < 3:
        raise ValueError("the construction needs ambient dimension at least 3")

    def pad(*coords: int) -> tuple[int, ...]:
        return tuple(coords) + (0,) * (n - 3)

    vertices = [
        Vertex("a"), Vertex("v1"), Vertex("v2"), Vertex("b"), Vertex("c"), Vertex("d"),
        Vertex("ap"), Vertex("bp"), Vertex("cp"), Vertex("dp"),
    ]
    bounded = [
        ("e1", ("a", "v1"), pad(1, 1, 0), 1, "a", affine(1)),
        ("et", ("v1", "v2"), pad(1, 0, 0), 1, "v1", affine(1, -1)),
        ("e2", ("v2", "b"), pad(1, -1, 0), 1, "v2", affine(1)),
        ("e3", ("b", "c"), pad(-1, -1, 0), 1, "b", affine(1)),
        ("etp", ("c", "d"), pad(-1, 0, 0), 1, "c", affine(1, -1)),
        ("e4", ("d", "a"), pad(-1, 1, 0), 1, "d", affine(1)),
        ("f1", ("a", "ap"), pad(-1, 0, 0), 2, "a", affine(1)),
        ("f2", ("b", "bp"), pad(1, 0, 0), 2, "b", affine(1)),
        ("f3", ("c", "cp"), pad(0, -1, 0), 1, "c", affine(1)),
        ("f4", ("d", "dp"), pad(0, -1, 0), 1, "d", affine(1)),
    ]
    rays = [
        ("r01", "v1", pad(0, 1, 1)),
        ("r02", "v1", pad(0, 0, -1)),
        ("r03", "v2", pad(0, 1, 1)),
        ("r04", "v2", pad(0, 0, -1)),
        ("r05", "ap", pad(-1, 0, 1)),
        ("r06", "ap", pad(-1, 0, -1)),
        ("r07", "bp", pad(1, 0, 1)),
        ("r08", "bp", pad(1, 0, -1)),
        ("r09", "cp", pad(0, -1, 1)),
        ("r10", "cp", pad(0, 0, -1)),
        ("r11", "dp", pad(0, -1, 1)),
        ("r12", "dp", pad(0, 0, -1)),
    ]
    edges = []
    data: dict[str, EdgeMapData] = {}
    lengths: dict[str, AffineFn] = {}
    for eid, ends, u, w, tail, ell in bounded:
        edges.append(Edge(eid, ends, Fraction(1)))
        data[eid] = EdgeMapData(u, w, tail)
        lengths[eid] = ell
    markings = []
    for i, (eid, at, u) in enumerate(rays, start=1):
        leaf = f"q{i:02d}"
        vertices.append(Vertex(leaf))
        edges.append(Edge(eid, (at, leaf), curves.INF))
        markings.append(Marking(f"p{i:02d}", leaf))
        data[eid] = EdgeMapData(u, 1, at)
    graph = tropical_curve(vertices, edges, markings)
    fan = auto_rays_fan(n, [u for _, _, u in rays], embedded=True)
    t = make_type(graph, fan, data)
    fam = make_family(
        t,
        lengths,
        base_vertex="a",
        base_position=tuple(affine(0) for _ in range(n)),
    )
    member = evaluate_family(fam, Fraction(1, 2))
    diags = validate_map(member)
    if diags:
        raise AssertionError(f"construction failed validation: {diags}")
    return fam


def figure1_member(n: int = 3, t=Fraction(0)) -> TropicalStableMap:
    """The family member at t in [0, 1]; at t = 1 the contracted limit map."""
    fam = build_figure1_family(n)
    return limit_of_family(fam, t).map


# ---------------------------------------------------------------------------
# realizability verdicts

@dataclass(frozen=True)
class Assumptions:
    """Caller-supplied hypotheses: star realizability of the modified map
    (an algebraic condition this library cannot decide) and an optional
    family certificate presenting the map as a limit of realizable members."""

    star_realizable: bool = False
    family: Optional[Family] = None


@dataclass(frozen=True)
class Verdict:
    verdict: str  # Realizable | NotRealizable | Unknown
    rule: str     # R0..R5
    reason: str


class CertificateError(ValueError):
    """A supplied assumption certificate is malformed or does not match."""


_PROBES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100))


def realizability_verdict(m: TropicalStableMap, assume: Assumptions = Assumptions()) -> Verdict:
    """Rule cascade, first match wins.

    R0  genus 0 maps are realizable.
    R1  genus 1, all vertex genera zero, well-spaced: realizable
        (sufficiency of the spacing condition).
    R2  genus 1, all vertex genera zero, trivalent, not well-spaced:
        not realizable (necessity is known only for trivalent curves).
    R3  genus 1 concentrated at one vertex, the caller asserts the modified
        star is realizable, and the map is well-spaced: realizable.
    R4  the caller certifies the map as the t = 1 limit of a family whose
        members are realizable by R1/R3: realizable (limits of realizable
        families are realizable).
    R5  otherwise unknown, with the first inapplicable-rule explanation.
    """
    diags = validate_map(m)
    if diags:
        raise ValueError(f"verdict requires a valid map: {diags[0]}")
    return _rule_cascade(m, assume)


def _rule_cascade(m: TropicalStableMap, assume: Assumptions) -> Verdict:
    """The rules of :func:`realizability_verdict` on a map its caller has
    already validated."""
    b1, g = betti_and_genus(m.curve)
    if g == 0:
        return Verdict("Realizable", "R0", "genus 0")
    if g == 1:
        maximally_degenerate = all(v.genus == 0 for v in m.curve.vertices)
        spaced = well_spaced_or_vacuous(m)
        if maximally_degenerate and spaced:
            return Verdict("Realizable", "R1", "Speyer sufficiency")
        trivalent = all(
            m.curve.valence(vid) == 3 for vid in m.curve.unmarked_vertex_ids()
        )
        if maximally_degenerate and trivalent and not spaced:
            return Verdict("NotRealizable", "R2", "Speyer necessity, trivalent")
        if b1 == 0 and assume.star_realizable and spaced:
            return Verdict("Realizable", "R3", "Theorem B")
    if assume.family is not None:
        _check_family_certificate(m, assume)
        return Verdict("Realizable", "R4", "Theorem A")
    return Verdict("Unknown", "R5", _unknown_reason(m, g, assume))


def _check_family_certificate(m: TropicalStableMap, assume: Assumptions) -> None:
    fam = assume.family
    limit = limit_of_family(fam, Fraction(1))
    if canonical_map(limit.map) != canonical_map(m):
        raise CertificateError("family limit at t = 1 differs from the given map")
    for t in _PROBES:
        member = evaluate_family(fam, t)
        member_diags = [d for d in validate_map(member) if not d.startswith(STABILITY_VIOLATED)]
        if member_diags:
            raise CertificateError(f"family member at t={t} invalid: {member_diags[0]}")
        # members are validated above with stability waived, as families
        # may pass through 2-valent vertices that only the limit resolves
        verdict = _rule_cascade(member, Assumptions(star_realizable=assume.star_realizable))
        if verdict.rule not in ("R1", "R3"):
            raise CertificateError(
                f"family member at t={t} is not realizable by the direct rules ({verdict.rule})"
            )


def _unknown_reason(m: TropicalStableMap, g: int, assume: Assumptions) -> str:
    if g >= 2:
        return f"genus {g}: no rule covers maps of genus 2 or higher"
    if not all(v.genus == 0 for v in m.curve.vertices):
        return (
            "genus at a vertex: needs the star-realizability assumption with a "
            "well-spaced map, or a family certificate"
        )
    fat = [
        vid for vid in m.curve.unmarked_vertex_ids() if m.curve.valence(vid) != 3
    ]
    return (
        "not well-spaced, and the necessity rule needs a trivalent curve "
        f"(vertex {fat[0]} has valence {m.curve.valence(fat[0])}); no family certificate"
        if fat
        else "no rule applies"
    )
