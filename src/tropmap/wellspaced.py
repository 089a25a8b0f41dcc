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

All that the spacing questions read of a map or family member is its
:class:`CycleData`: the cycle frame (fixed by the type) and the
arrangement, the projective classes of the projected vectors and nothing
more.  The flats and the spacing loop take it, and no function takes
cycle data that the library computes itself.

Maps and family members take one path.  A map is the slope-zero member of
a family at t = 0: each vertex offset is a (const, slope) pair whose two
parts are projected once, and at t = p/q the offset's image is
const*q + slope*p (:func:`_cycle_data`).  On a valid map the trapped
component of the hyperplane H with normal phi is the closure of the cycle
over the edges whose direction phi annihilates (:func:`_flat_component`):
the cycle lies in V, inside H, and such an edge joins two points at one
level of phi, since its ends differ by length times weight times
direction.  The proof uses the edge equations alone, so it also holds for
family members, which may fail the stability axiom; it reads no vertex
level, so the members of a family, which share the type's graph and edge
data, share each component, and only their boundary distances differ.  One loop over the flats
(:func:`_flat_spacings`) decides every spacing question.

A boundary vertex's distance to the cycle is the sum of the lengths along
the path on which the closure reached it (:func:`_flat_component`).  When
b1 = 1 the curve minus the cycle edges is a forest whose trees each meet
the cycle once: a tree through two cycle vertices would close a second
cycle.  When b1 = 0 the cycle is the genus-one vertex and the curve a tree.
A cycle edge has both ends on the cycle, so the closure reaches each other
vertex over forest edges, along the unique path in its tree from the
tree's cycle vertex.  Any path from the cycle to the vertex runs, after its
last cycle vertex, inside that tree, so it contains the unique path.  The
lengths of a map, and of a family member on [0, 1), are positive, so the
unique path is the shortest and no shortest-path search is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import curves
from .curves import Edge, Marking, TropicalCurve, Vertex, betti_and_genus, tropical_curve
from .exactgeom import (
    IntVec,
    _eliminate,
    _kernel_of,
    auto_rays_fan,
    integer_nullspace,
    primitive,
    rank,
    vdot,
)
from .maps import (
    EdgeMapData,
    TropicalStableMap,
    _lex_positive,
    make_type,
    stable_map,
    validate_map,
)
from .moduli import AffineFn, Family, FamilyMember, _is_limit, affine, limit_of_family, make_family

# What the genus-one analysis reads: a map, or a family member on the
# family's integers.  It reads the graph's structure, the fan, the edge data
# and the positions and lengths in ``scaled``, which both carry.
AnyMap = Union[TropicalStableMap, FamilyMember]


# ---------------------------------------------------------------------------
# the cycle and its span

@dataclass(frozen=True)
class CycleFrame:
    """What the spacing predicate and the rule cascade read off a map's type
    rather than its lengths: the first Betti number and the genus, and, in
    genus one, whether every vertex has genus zero and every finite vertex
    is trivalent, the unique cycle, the codimension of the cycle span V,
    the quotient map onto V's annihilator (rows are a basis of it, integer
    rows: the rational rows times the lcm of their denominators) and the
    edge classes: the projective classes, sorted, of the images of the edge
    directions that leave V.

    The genus-one fields stay empty for other genera."""

    b1: int
    genus: int
    maximally_degenerate: bool = False
    trivalent: bool = False
    cycle_vertices: tuple[str, ...] = ()
    cycle_edges: tuple[str, ...] = ()
    codim: int = 0
    integer_quotient: tuple[IntVec, ...] = ()
    edge_classes: tuple[IntVec, ...] = ()


def cycle_frame(m: AnyMap) -> CycleFrame:
    """The cycle frame of a map.  The span is taken from the offsets of the
    cycle vertices from the first of them and the cycle edges' directions,
    at the map's common denominator (which spans the same space).

    The frame is computed on the integers, with the values the rational
    computation gives:
    - one fraction-free elimination of those rows gives d times their
      reduced row echelon form, and the kernel vectors
      :func:`exactgeom._kernel_of` reads off it are |d| times the quotient
      rows (the rational kernel basis, a function of the echelon form
      alone);
    - the integer rows are the rational rows times the lcm of their
      denominators (:func:`_common_multiple`).  Scaling every quotient row
      by one common positive integer changes no projective class of a
      projected vector and no primitive normal built from the rows;
    - projection is linear, so each distinct edge direction is projected
      once."""
    b1, g = betti_and_genus(m.curve)
    if g != 1:
        return CycleFrame(b1, g)
    if b1 == 1:
        cyc_v, cyc_e = _unique_cycle(m.curve)
    else:
        genus_vertex = next(v.id for v in m.curve.vertices if v.genus == 1)
        cyc_v, cyc_e = (genus_vertex,), ()
    positions = m.scaled.positions
    base = positions[cyc_v[0]]
    dirs = [[a - b for a, b in zip(positions[vid], base)] for vid in cyc_v]
    dirs += [m.edge_data[eid].u for eid in cyc_e]
    ambient = m.fan.ambient_dim
    rows, pivots, d = _eliminate([row for row in dirs if any(row)])
    integral = _common_multiple(*_kernel_of(rows, pivots, d, ambient))
    directions = {m.edge_data[e.id].u for e in m.curve.edges}
    return CycleFrame(
        b1,
        g,
        all(v.genus == 0 for v in m.curve.vertices),
        all(m.curve.valence(vid) == 3 for vid in m.curve.unmarked_vertex_ids()),
        cyc_v,
        cyc_e,
        ambient - len(pivots),
        integral,
        tuple(sorted({_projective_rep(_image(integral, u)) for u in directions} - {None})),
    )


def _common_multiple(rows: Sequence[Sequence[int]], d: int) -> tuple[IntVec, ...]:
    """The rational rows ``rows`` over ``d`` times one common positive
    integer, the lcm of their denominators.  In lowest terms x/d has the
    denominator |d|/gcd(x, d), and the lcm of such divisors of |d| is |d|/g
    for g the gcd of d and every entry; so each entry becomes x*sign(d)/g."""
    g = gcd(d, *(x for row in rows for x in row))
    if d < 0:
        g = -g
    return tuple(tuple(x // g for x in row) for row in rows)


def _image(integral: Sequence[IntVec], vec: Sequence[int]) -> IntVec:
    return tuple(sum(map(mul, row, vec)) for row in integral)


def _projective_rep(vec: Sequence[int]) -> Optional[IntVec]:
    if all(x == 0 for x in vec):
        return None
    return _lex_positive(primitive(vec))


@dataclass(frozen=True)
class CycleData:
    """The spacing analysis's one value for a genus-one map or family
    member: its cycle frame and the projected arrangement in the quotient
    by the cycle span, the deduplicated primitive projective
    representatives, sorted."""

    frame: CycleFrame
    vectors: tuple[IntVec, ...]


def cycle_data(m: AnyMap) -> CycleData:
    """The cycle data of a genus-one map; ValueError for other genera."""
    frame = cycle_frame(m)
    if frame.genus != 1:
        raise ValueError(f"cycle analysis requires genus 1, got {frame.genus}")
    return _map_cycle_data(frame, m)


def _map_cycle_data(frame: CycleFrame, m: AnyMap) -> CycleData:
    """The cycle data of m on its genus-one frame, as the slope-zero member
    at t = 0."""
    pairs = {vid: tuple((x, 0) for x in p) for vid, p in m.scaled.positions.items()}
    offsets = _projected_offsets(frame, m.curve.unmarked_vertex_ids(), pairs)
    return _cycle_data(frame, offsets, Fraction(0))


# a finite vertex's offset from the base vertex, as the images of its
# constant and slope parts under the frame's integer quotient
_Offset = tuple[IntVec, IntVec]


def _projected_offsets(
    frame: CycleFrame, vertex_ids: Iterable[str], positions: Mapping[str, Sequence[tuple[int, int]]]
) -> tuple[_Offset, ...]:
    """The projected offset of each finite vertex, in the order of
    ``vertex_ids``, from positions given as one (const, slope) pair of
    integers per coordinate."""
    base = positions[frame.cycle_vertices[0]]
    quotient = frame.integer_quotient
    return tuple(
        (
            _image(quotient, [c - b for (c, _), (b, _) in zip(positions[vid], base)]),
            _image(quotient, [s - b for (_, s), (_, b) in zip(positions[vid], base)]),
        )
        for vid in vertex_ids
    )


def _vertex_projections(offsets: Sequence[_Offset], t: Fraction) -> tuple[IntVec, ...]:
    """The projective class of the image of every offset off V, in order,
    at t = p/q: the image is const*q + slope*p.  Projection is linear, and
    the integer quotient is the rational one times a positive integer,
    which changes no projective class."""
    p, q = t.numerator, t.denominator
    classes = (_projective_rep([c * q + s * p for c, s in zip(const, slope)]) for const, slope in offsets)
    return tuple(rep for rep in classes if rep is not None)


def _cycle_data(frame: CycleFrame, offsets: Sequence[_Offset], t: Fraction) -> CycleData:
    """The cycle data of the member at t of the family whose projected
    offsets on the member's cycle frame are ``offsets``."""
    return CycleData(frame, build_arrangement(frame, _vertex_projections(offsets, t)))


def _unique_cycle(c: TropicalCurve) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The 2-core of a connected graph with first Betti number one: the
    vertices of valence one are peeled off with their edge, each once, from
    a stack, until none is left (a self-loop counts twice)."""
    valence = {v.id: c.valence(v.id) for v in c.vertices}
    alive_e = {e.id for e in c.edges}
    stack = [vid for vid, val in valence.items() if val == 1]
    while stack:
        vid = stack.pop()
        e = next(e for e in c.edges_at(vid) if e.id in alive_e)
        alive_e.discard(e.id)
        valence[vid] = 0
        other = e.ends[1] if e.ends[0] == vid else e.ends[0]
        valence[other] -= 1
        if valence[other] == 1:
            stack.append(other)
    return tuple(sorted(vid for vid, val in valence.items() if val)), tuple(sorted(alive_e))


# ---------------------------------------------------------------------------
# arrangements and flats

@dataclass(frozen=True)
class HyperplaneFlat:
    """A containment pattern of hyperplanes through V: the annihilated
    arrangement vectors (a matroid flat of rank <= codim - 1) and one
    certifying integral covector on the ambient space vanishing exactly on
    the flat (and on V)."""

    zero_set: tuple[IntVec, ...]
    normal: IntVec
    rank: int


def build_arrangement(frame: CycleFrame, vertex_classes: Iterable[IntVec]) -> tuple[IntVec, ...]:
    """The projected arrangement of a map on its cycle frame, the vectors of
    :class:`CycleData`: the projective classes met among the projected
    vertex offsets (:func:`_vertex_projections`) and the frame's edge
    classes, sorted.  Both were projected over the integers, the edge
    directions once per frame and the offsets once per family."""
    return tuple(sorted({*vertex_classes, *frame.edge_classes}))


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


def enumerate_flats(cd: CycleData) -> list[HyperplaneFlat]:
    """All hyperplane containment patterns of a map's cycle data: flats of
    its projected arrangement of rank at most codim - 1, each with a
    certifying normal.  They depend on the frame and the arrangement
    vectors alone.

    Raises ValueError when codim is zero (no hyperplane contains the cycle)
    and when the arrangement has more than twelve vectors: the number of
    flats can grow like two to that number.
    """
    if cd.frame.codim == 0:
        raise ValueError("cycle image spans the ambient space: no containing hyperplane")
    if len(cd.vectors) > MAX_ARRANGEMENT_VECTORS:
        raise ValueError(
            f"flat enumeration capped at {MAX_ARRANGEMENT_VECTORS} arrangement vectors, "
            f"got {len(cd.vectors)}"
        )
    max_rank = cd.frame.codim - 1
    flats: set[frozenset[IntVec]] = {frozenset()}
    frontier: set[frozenset[IntVec]] = {frozenset()}
    while frontier:
        new_frontier: set[frozenset[IntVec]] = set()
        for flat in frontier:
            for w in cd.vectors:
                if w in flat:
                    continue
                bigger = _closure(cd.vectors, flat | {w})
                if bigger in flats:
                    continue
                if _flat_rank(bigger) <= max_rank:
                    flats.add(bigger)
                    new_frontier.add(bigger)
        frontier = new_frontier
    out = []
    for flat in sorted(flats, key=lambda f: (len(f), sorted(f))):
        normal = _certifying_normal(cd, flat)
        out.append(HyperplaneFlat(tuple(sorted(flat)), normal, _flat_rank(flat)))
    return out


def _flat_rank(flat: frozenset[IntVec]) -> int:
    return rank(list(flat))


def _certifying_normal(cd: CycleData, flat: frozenset[IntVec]) -> IntVec:
    """An integral covector vanishing on V and on the flat but on no other
    arrangement vector, on the ambient space of the quotient rows (codim
    >= 1, so there is one).  A generic combination of a kernel basis works;
    the powers-of-t trick makes the search deterministic."""
    quotient = cd.frame.integer_quotient
    c = len(quotient)
    kernel = integer_nullspace(list(flat), ncols=c)
    if not kernel:
        raise ValueError("flat spans the quotient: no hyperplane certifies it")
    excluded = [v for v in cd.vectors if v not in flat]
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
    phi = [0] * len(quotient[0])
    for coef, row in zip(psi, quotient):
        phi = [a + coef * b for a, b in zip(phi, row)]
    return primitive(phi)


# ---------------------------------------------------------------------------
# trapped subcurves and distances

@dataclass(frozen=True)
class TrappedSubcurve:
    """The connected component through the cycle of the vertices and edges
    mapping into a hyperplane, with its boundary vertices' distances."""

    vertex_ids: tuple[str, ...]
    edge_ids: tuple[str, ...]
    boundary: tuple[tuple[str, Fraction], ...]


def subcurve_in_flat(m: TropicalStableMap, flat: HyperplaneFlat) -> TrappedSubcurve:
    """The trapped subcurve of a flat on a valid genus-one map, from the
    spacing loop on the map's cycle data, with the intrinsic distances of
    its boundary vertices to the cycle.  Raises ValueError unless the flat
    is one of ``enumerate_flats(cycle_data(m))``, normal included."""
    cd = cycle_data(m)
    if flat not in enumerate_flats(cd):
        raise ValueError("flat was not generated for this map")
    _, component, dist, _ = next(_flat_spacings(m, cd, (flat,), {}))
    return _subcurve(m, component, dist)


# a trapped subcurve's vertices and edges, and its sorted boundary vertices with their paths
_Component = tuple[set[str], set[str], tuple[tuple[str, tuple[str, ...]], ...]]


def _flat_component(m: AnyMap, frame: CycleFrame, phi: IntVec) -> _Component:
    """The trapped component of the hyperplane with normal ``phi`` on a
    valid map m: the closure of the cycle over the edges whose direction phi
    annihilates (see the module docstring), and its boundary vertices,
    sorted: those incident to an edge outside it, each with the bounded
    edges of the path on which the closure reached it from the cycle.
    Marked vertices end such edges but are not part of the component."""
    curve = m.curve
    edges_in_h = {e.id for e in curve.edges if vdot(phi, m.edge_data[e.id].u) == 0}
    marked = curve.marked_vertex_ids
    paths: dict[str, tuple[str, ...]] = dict.fromkeys(frame.cycle_vertices, ())
    comp_edges = set(frame.cycle_edges)
    frontier = list(paths)
    while frontier:
        vid = frontier.pop()
        for e in curve.edges_at(vid):
            if e.id not in edges_in_h:
                continue
            comp_edges.add(e.id)
            for end in e.ends:
                if end in marked or end in paths:
                    continue
                paths[end] = (*paths[vid], e.id)
                frontier.append(end)
    boundary = tuple(
        (vid, paths[vid]) for vid in sorted(paths) if any(e.id not in comp_edges for e in curve.edges_at(vid))
    )
    return set(paths), comp_edges, boundary


def _subcurve(m: AnyMap, component: _Component, dist: Sequence[int]) -> TrappedSubcurve:
    """A component and its boundary distances, integers over m's
    denominator in boundary order, as a :class:`TrappedSubcurve`."""
    vertices, comp_edges, boundary = component
    den = m.scaled.denominator
    return TrappedSubcurve(
        tuple(sorted(vertices)),
        tuple(sorted(comp_edges)),
        tuple((vid, Fraction(d, den)) for (vid, _), d in zip(boundary, dist)),
    )


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
    least twice.  The distances may also be integers over one common
    denominator, which keeps the answer."""
    if not distances:
        return True
    low = min(distances)
    return sum(1 for d in distances if d == low) >= 2


def _flat_spacings(
    m: AnyMap, cd: CycleData, flats: Iterable[HyperplaneFlat], components: dict[IntVec, _Component]
) -> Iterator[tuple[HyperplaneFlat, _Component, list[int], bool]]:
    """The spacing loop over the flats of a valid map or member m, lazily
    and in order: each flat, its trapped component, its boundary distances
    to the cycle (m's lengths summed over the paths, integers over m's
    denominator) and whether they pass.  Each normal's component and paths
    are built once and kept in ``components``, which a family's members share."""
    lengths = m.scaled.lengths
    for flat in flats:
        component = components.get(flat.normal)
        if component is None:
            component = components[flat.normal] = _flat_component(m, cd.frame, flat.normal)
        dist = [sum(lengths[eid] for eid in path) for _, path in component[2]]
        yield flat, component, dist, multiset_passes(dist)


def _first_failing_flat(
    m: AnyMap, cd: CycleData, flats: dict[tuple[IntVec, ...], list[HyperplaneFlat]], components: dict
) -> Optional[HyperplaneFlat]:
    """The first flat of a valid map or member m that the spacing loop
    fails, or None when m is well-spaced (vacuously when the cycle spans the
    space).  The flats depend only on the frame, which a family's members
    share, and the arrangement vectors (:func:`enumerate_flats` reads
    nothing else of the cycle data), so they are enumerated once per
    distinct set of vectors and kept in ``flats``."""
    if cd.frame.codim == 0:
        return None
    if cd.vectors not in flats:
        flats[cd.vectors] = enumerate_flats(cd)
    failing = (flat for flat, _, _, ok in _flat_spacings(m, cd, flats[cd.vectors], components) if not ok)
    return next(failing, None)


def is_well_spaced(m: AnyMap) -> WellSpacedReport:
    """Evaluate the predicate on every hyperplane flat of m's cycle data on
    the spacing loop; the first failing flat is the witness.  m must be a
    valid genus-one map, or valid but for the stability axiom, since the
    loop reads each trapped component off the edge directions (see the
    module docstring).  ValueError when the cycle spans the space."""
    cd = cycle_data(m)
    records = tuple(
        FlatRecord(flat, _subcurve(m, component, dist), ok)
        for flat, component, dist, ok in _flat_spacings(m, cd, enumerate_flats(cd), {})
    )
    witness = next((rec for rec in records if not rec.passes), None)
    return WellSpacedReport(witness is None, records, witness)



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
    return make_family(t, lengths)


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
    family certificate presenting the map as a limit of realizable members.

    The certificate is a :class:`moduli.Family` or a zero-argument callable
    that returns one.  Only rule R4 reads it, so a callable is called only
    when rules R0-R3 leave the map undecided, and then once per verdict: a
    caller holding the certificate as a document can defer parsing it, and
    any error the callable raises surfaces from the verdict unchanged."""

    star_realizable: bool = False
    family: Union[Family, Callable[[], Family], None] = None


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
    already validated, read off m's cycle frame; in genus one the spacing
    loop decides whether m is well-spaced."""
    frame = cycle_frame(m)
    spaced = frame.genus == 1 and _first_failing_flat(m, _map_cycle_data(frame, m), {}, {}) is None
    return _first_rule(m, assume, frame, spaced)


def _first_rule(m: AnyMap, assume: Assumptions, frame: CycleFrame, spaced: bool) -> Verdict:
    """The first rule that matches, given m's cycle frame and, in genus one,
    whether m is well-spaced (vacuously when the cycle spans the space)."""
    if frame.genus == 0:
        return Verdict("Realizable", "R0", "genus 0")
    if frame.genus == 1:
        if frame.maximally_degenerate and spaced:
            return Verdict("Realizable", "R1", "Speyer sufficiency")
        if frame.maximally_degenerate and frame.trivalent and not spaced:
            return Verdict("NotRealizable", "R2", "Speyer necessity, trivalent")
        if frame.b1 == 0 and assume.star_realizable and spaced:
            return Verdict("Realizable", "R3", "Theorem B")
    if assume.family is not None:
        _check_family_certificate(m, assume)
        return Verdict("Realizable", "R4", "Theorem A")
    return Verdict("Unknown", "R5", _unknown_reason(m, frame.genus))


def _check_family_certificate(m: TropicalStableMap, assume: Assumptions) -> None:
    """Check that the family's t = 1 limit is ``m`` and that each probe
    member is realizable by R1 or R3, with the stability axiom waived, as
    families may pass through 2-valent vertices that only the limit
    resolves.

    A callable ``assume.family`` is called here, once, for the family; this
    is the only place the certificate is resolved, so a verdict decided by
    rules R0-R3 never calls it.

    The limit is compared with ``m`` on the family's (const, slope) pairs
    at t = 1 and m's integers (:func:`moduli._is_limit`), without building
    the limit as a map.

    A :class:`moduli.Family` is checked when it is built, so every member
    passes ``validate_map`` but for stability (its docstring gives the
    argument), and no member is validated here.

    Each member is read from the pairs at t, on the integers, and all five
    are decided on one cycle frame, built from the first, which equals each
    member's own:
    - the members share the family type's graph and edge data, so the
      cycle, the Betti number, the genus, the valences and the edge
      directions agree;
    - a valid member's cycle vertex offsets are sums of length times weight
      times direction over cycle edges, so they lie in the span of the
      cycle edges' directions, and at every member the rows given to the
      elimination span exactly that space;
    - a row space has one reduced row echelon form, and the quotient map
      and the edge classes are computed from it alone.

    Each vertex offset's (const, slope) pair is projected once per family,
    each member's cycle data is read off the images, and the members share
    the spacing loop's flats and trapped components
    (:func:`_first_failing_flat`)."""
    fam = assume.family
    if not isinstance(fam, Family):
        fam = fam()
    if not _is_limit(fam, m):
        raise CertificateError("family limit at t = 1 differs from the given map")
    direct = Assumptions(star_realizable=assume.star_realizable)
    frame = None
    offsets: tuple[_Offset, ...] = ()
    flats: dict[tuple[IntVec, ...], list[HyperplaneFlat]] = {}
    components: dict[IntVec, _Component] = {}
    for t in _PROBES:
        member = fam.member(t)
        if frame is None:
            frame = cycle_frame(member)
            if frame.genus == 1:
                offsets = _projected_offsets(frame, fam.type.graph.unmarked_vertex_ids(), fam.scaled.positions)
        spaced = frame.genus == 1 and _first_failing_flat(
            member, _cycle_data(frame, offsets, t), flats, components
        ) is None
        verdict = _first_rule(member, direct, frame, spaced)
        if verdict.rule not in ("R1", "R3"):
            raise CertificateError(
                f"family member at t={t} is not realizable by the direct rules ({verdict.rule})"
            )



def _unknown_reason(m: AnyMap, g: int) -> str:
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
