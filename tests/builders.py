"""Shared constructions for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from tropmap import INF, affine, combinatorial_type, make_family, stable_map, validate_map
from tropmap.curves import Edge, Marking, Vertex, tropical_curve
from tropmap.exactgeom import Fan, auto_rays_fan, complete_orthant_fan, primitive, vector_content, zero_cone
from tropmap.maps import CombinatorialType, EdgeMapData, _orient_leaves, _strip_lengths, make_type


def fan(ambient_dim, cones_, embedded=False) -> Fan:
    """A raw collection of cones as a fan: no face completion, no
    canonical form, and no face lists, so every fan check runs on it."""
    return Fan(ambient_dim, tuple(sorted(set(cones_), key=lambda c: (len(c.rays), c.rays))), embedded)


def build_map(ambient, vertices, bounded, rays, positions):
    """vertices: ids or (id, genus); bounded: (id, ends, u, w, tail, length);
    rays: (id, vertex, u, w, label)."""
    vs = [Vertex(v) if isinstance(v, str) else Vertex(*v) for v in vertices]
    edges = []
    data = {}
    markings = []
    for eid, ends, u, w, tail, length in bounded:
        edges.append(Edge(eid, ends, Fraction(length)))
        data[eid] = EdgeMapData(tuple(u), w, tail)
    for eid, at, u, w, label in rays:
        leaf = f"inf:{eid}"
        vs.append(Vertex(leaf))
        edges.append(Edge(eid, (at, leaf), INF))
        markings.append(Marking(label, leaf))
        data[eid] = EdgeMapData(tuple(u), w, at)
    fan = auto_rays_fan(ambient, [u for _, _, u, _, _ in rays if any(u)], embedded=True)
    graph = tropical_curve(vs, edges, markings)
    return stable_map(graph, fan, positions, data)


def three_rays(ambient=2):
    """One genus-0 vertex at the origin with three balanced marked rays."""
    pad = lambda *c: tuple(c) + (0,) * (ambient - 2)
    rays = [
        ("r1", "o", pad(1, 0), 1, "p1"),
        ("r2", "o", pad(0, 1), 1, "p2"),
        ("r3", "o", pad(-1, -1), 1, "p3"),
    ]
    return build_map(ambient, ["o"], [], rays, {"o": pad(0, 0)})


def path_two_vertices():
    """Two vertices joined by one bounded edge in R^2, balanced by rays."""
    bounded = [("e", ("x", "y"), (1, 0), 1, "x", 1)]
    rays = [
        ("rx1", "x", (-1, 1), 1, "p1"),
        ("rx2", "x", (0, -1), 1, "p2"),
        ("ry1", "y", (1, 1), 1, "p3"),
        ("ry2", "y", (0, -1), 1, "p4"),
    ]
    return build_map(2, ["x", "y"], bounded, rays, {"x": (0, 0), "y": (1, 0)})


def rectangle_cycle(a, b):
    """The a x b rectangle cycle in the plane {x3 = 0} of R^3: 2(a + b) unit
    bounded edges, a diagonal marked ray at each corner and a pair of +-e3
    rays at every other vertex.  Its cone has dimension E + 1 against the
    expected E."""
    pts = (
        [(x, 0) for x in range(a)]
        + [(a, y) for y in range(b)]
        + [(x, b) for x in range(a, 0, -1)]
        + [(0, y) for y in range(b, 0, -1)]
    )
    n = len(pts)
    corners = {(0, 0): (-1, -1, 0), (a, 0): (1, -1, 0), (a, b): (1, 1, 0), (0, b): (-1, 1, 0)}
    bounded, rays = [], []
    for i, (p, q) in enumerate(zip(pts, pts[1:] + pts[:1])):
        u = (q[0] - p[0], q[1] - p[1], 0)
        bounded.append((f"s{i}", (f"v{i}", f"v{(i + 1) % n}"), u, 1, f"v{i}", 1))
        for u in [corners[p]] if p in corners else [(0, 0, 1), (0, 0, -1)]:
            k = len(rays)
            rays.append((f"r{k}", f"v{i}", u, 1, f"p{k}"))
    positions = {f"v{i}": (x, y, 0) for i, (x, y) in enumerate(pts)}
    return build_map(3, [f"v{i}" for i in range(n)], bounded, rays, positions)


def rectangle_family(a, b, shrink):
    """The a x b rectangle cycle as a family whose listed bounded edges
    shrink to length 0 at t = 1 and whose other edges keep length 1.  The
    cycle stays closed when ``shrink`` takes as many edges from a side as
    from the side parallel to it."""
    t = combinatorial_type(rectangle_cycle(a, b))
    return make_family(t, {eid: affine(1, -1) if eid in shrink else affine(1) for eid in t.bounded_edge_ids()})


def collinear_chain_family(k, shrink):
    """A chain of k unit edges c0 … c{k-1} along e1 in the plane, with a
    marked ray at each end and unmarked 2-valent vertices between them, as a
    family whose listed edges shrink to length 0 at t = 1.  All edges carry
    one decoration, so contracting any m of them gives the same type."""
    vertices = [f"v{i}" for i in range(k + 1)]
    bounded = [(f"c{i}", (f"v{i}", f"v{i + 1}"), (1, 0), 1, f"v{i}", 1) for i in range(k)]
    rays = [("r0", "v0", (-1, 0), 1, "p0"), ("r1", f"v{k}", (1, 0), 1, "p1")]
    m = build_map(2, vertices, bounded, rays, {v: (i, 0) for i, v in enumerate(vertices)})
    lengths = {eid: affine(1, -1) if eid in shrink else affine(1) for eid, *_ in bounded}
    return make_family(combinatorial_type(m), lengths)


def fractional_chain_family():
    """The chain of three edges with fractional constants and slopes: c1
    shrinks from 5/7 to 0, c2 grows from 3 to 4, and the base vertex v0
    moves from (1/2, -7/6) by (-3/4, 0).  The family's denominator is 84."""
    chain = collinear_chain_family(3, {"c1"})
    lengths = {"c0": affine(Fraction(2, 3)), "c1": affine(Fraction(5, 7), Fraction(-5, 7)), "c2": affine(3, 1)}
    base = (affine(Fraction(1, 2), Fraction(-3, 4)), affine(Fraction(-7, 6)))
    return make_family(chain.type, lengths, base_vertex="v0", base_position=base)


def bent_square(branch_lengths=(1, 1, 2)):
    """Square cycle in the plane of R^3 with three out-of-plane branches at
    the given distances; the fourth corner keeps an in-plane ray.  The unique
    flat's distance multiset equals sorted(branch_lengths)."""
    l0, l1, l2 = (Fraction(x) for x in branch_lengths)
    vertices = ["k0", "k1", "k2", "k3", "m0", "m1", "m2"]
    bounded = [
        ("s0", ("k0", "k1"), (1, 0, 0), 1, "k0", 1),
        ("s1", ("k1", "k2"), (0, 1, 0), 1, "k1", 1),
        ("s2", ("k2", "k3"), (-1, 0, 0), 1, "k2", 1),
        ("s3", ("k3", "k0"), (0, -1, 0), 1, "k3", 1),
        ("g0", ("k0", "m0"), (-1, -1, 0), 1, "k0", l0),
        ("g1", ("k1", "m1"), (1, -1, 0), 1, "k1", l1),
        ("g2", ("k2", "m2"), (1, 1, 0), 1, "k2", l2),
    ]
    rays = [
        ("b01", "m0", (-1, -1, 1), 1, "p1"),
        ("b02", "m0", (0, 0, -1), 1, "p2"),
        ("b11", "m1", (1, -1, 1), 1, "p3"),
        ("b12", "m1", (0, 0, -1), 1, "p4"),
        ("b21", "m2", (1, 1, 1), 1, "p5"),
        ("b22", "m2", (0, 0, -1), 1, "p6"),
        ("k3r", "k3", (-1, 1, 0), 1, "p7"),
    ]
    positions = {
        "k0": (0, 0, 0),
        "k1": (1, 0, 0),
        "k2": (1, 1, 0),
        "k3": (0, 1, 0),
        "m0": (-l0, -l0, 0),
        "m1": (1 + l1, -l1, 0),
        "m2": (1 + l2, 1 + l2, 0),
    }
    m = build_map(3, vertices, bounded, rays, positions)
    assert validate_map(m) == []
    return m


def turning_branch_family():
    """A unit square cycle in the plane {x3 = x4 = 0} of R^4 with a branch
    up e3 at two opposite corners k0 and k2; from the top x of the first an
    edge h runs along e4 with length 1 + t.  The offset of its end y
    projects to the class of (1, 1 + t) in the (x3, x4) quotient, so every
    member has its own arrangement, and every member is well-spaced."""
    vertices = ["k0", "k1", "k2", "k3", "x", "y", "z"]
    bounded = [
        ("s0", ("k0", "k1"), (1, 0, 0, 0), 1, "k0", 1),
        ("s1", ("k1", "k2"), (0, 1, 0, 0), 1, "k1", 1),
        ("s2", ("k2", "k3"), (-1, 0, 0, 0), 1, "k2", 1),
        ("s3", ("k3", "k0"), (0, -1, 0, 0), 1, "k3", 1),
        ("g", ("k0", "x"), (0, 0, 1, 0), 1, "k0", 1),
        ("h", ("x", "y"), (0, 0, 0, 1), 1, "x", 1),
        ("gz", ("k2", "z"), (0, 0, 1, 0), 1, "k2", 1),
    ]
    rays = [
        ("r0", "k0", (-1, -1, -1, 0), 1, "p0"),
        ("r1", "k1", (1, -1, 0, 0), 1, "p1"),
        ("r2", "k2", (1, 1, -1, 0), 1, "p2"),
        ("r3", "k3", (-1, 1, 0, 0), 1, "p3"),
        ("rx", "x", (0, 0, 1, -1), 1, "p4"),
        ("ry1", "y", (1, 0, 0, 1), 1, "p5"),
        ("ry2", "y", (-1, 0, 0, 0), 1, "p6"),
        ("rz1", "z", (0, 0, 1, 1), 1, "p7"),
        ("rz2", "z", (0, 0, 0, -1), 1, "p8"),
    ]
    positions = {
        "k0": (0, 0, 0, 0), "k1": (1, 0, 0, 0), "k2": (1, 1, 0, 0), "k3": (0, 1, 0, 0),
        "x": (0, 0, 1, 0), "y": (0, 0, 1, 1), "z": (1, 1, 1, 0),
    }
    m = build_map(4, vertices, bounded, rays, positions)
    assert validate_map(m) == []
    t = combinatorial_type(m)
    return make_family(t, {eid: affine(1, 1) if eid == "h" else affine(1) for eid in t.bounded_edge_ids()})


def parallel_pair():
    """Two parallel bounded edges with identical decoration (a two-edge
    cycle), balanced by weight-2 rays."""
    bounded = [
        ("e1", ("A", "B"), (1, 0), 1, "A", 1),
        ("e2", ("A", "B"), (1, 0), 1, "A", 1),
    ]
    rays = [
        ("ra", "A", (-1, 0), 2, "pa"),
        ("rb", "B", (1, 0), 2, "pb"),
    ]
    return build_map(2, ["A", "B"], bounded, rays, {"A": (0, 0), "B": (1, 0)})


def tilted_parallel_pair():
    """A two-edge cycle along (3, 2, 6) in R^3.  The quotient rows by its
    span, (-2/3, 1, 0) and (-2, 0, 1), have different denominators."""
    bounded = [
        ("e1", ("A", "B"), (3, 2, 6), 1, "A", 1),
        ("e2", ("A", "B"), (3, 2, 6), 1, "A", 1),
    ]
    rays = [
        ("ra1", "A", (1, 0, 0), 1, "pa1"),
        ("ra2", "A", (-7, -4, -12), 1, "pa2"),
        ("rb1", "B", (0, 1, 0), 1, "pb1"),
        ("rb2", "B", (2, 1, 4), 3, "pb2"),
    ]
    m = build_map(3, ["A", "B"], bounded, rays, {"A": (0, 0, 0), "B": (3, 2, 6)})
    assert validate_map(m) == []
    return m


def strict_unstable_member_family():
    """A genus-one family in ``complete_orthant_fan(2, embedded=False)``:
    a triangle cycle at (3, 2) with edges of length 1 - t, and a 2-valent
    vertex d = (2 - t, 1 - t) on the bounded edge from a.  For t < 1, d lies
    in the open positive quadrant, so members fail only the stability
    axiom, and their planar cycle is vacuously well-spaced (rule R1).  At
    t = 1 the cycle contracts to a genus-one vertex and d reaches the ray
    e1, where the limit map is valid."""
    vertices = [Vertex(v) for v in ("a", "b", "c", "d")]
    edges = [
        Edge("ab", ("a", "b"), Fraction(1)),
        Edge("bc", ("b", "c"), Fraction(1)),
        Edge("ca", ("c", "a"), Fraction(1)),
        Edge("ad", ("a", "d"), Fraction(1)),
    ]
    data = {
        "ab": EdgeMapData((1, 0), 1, "a"),
        "bc": EdgeMapData((-1, 1), 1, "b"),
        "ca": EdgeMapData((0, -1), 1, "c"),
        "ad": EdgeMapData((-1, -1), 1, "a"),
    }
    markings = []
    for eid, at, u in (("rd", "d", (-1, -1)), ("rb", "b", (2, -1)), ("rc", "c", (-1, 2))):
        vertices.append(Vertex(f"inf:{eid}"))
        edges.append(Edge(eid, (at, f"inf:{eid}"), INF))
        markings.append(Marking(f"p{eid}", f"inf:{eid}"))
        data[eid] = EdgeMapData(u, 1, at)
    positions = {"a": (3, 2), "b": (4, 2), "c": (3, 3), "d": (2, 1)}
    fan = complete_orthant_fan(2, embedded=False)
    member = stable_map(tropical_curve(vertices, edges, markings), fan, positions, data)
    assert validate_map(member) == ["stability violated at 2-valent vertex d"]
    shrink = affine(1, -1)
    lengths = {"ab": shrink, "bc": shrink, "ca": shrink, "ad": affine(1, 1)}
    return make_family(
        combinatorial_type(member),
        lengths,
        base_vertex="a",
        base_position=(affine(3), affine(2)),
    )


def lone_genus_one_vertex(ambient=2):
    vs = [Vertex("v", 1)]
    c = tropical_curve(vs, [], [])
    fan = auto_rays_fan(ambient, [], embedded=True)
    return stable_map(c, fan, {"v": (0,) * ambient}, {})


def random_connected_multigraph(rng: random.Random, max_edges=12):
    """A random connected multigraph curve: spanning tree plus extra edges
    (parallel edges and self-loops included), random vertex genera."""
    n = rng.randint(1, 6)
    vertices = [Vertex(f"v{i}", rng.randint(0, 2)) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append(Edge(f"t{i}", (f"v{i}", f"v{j}"), Fraction(rng.randint(1, 5))))
    extras = rng.randint(0, max(0, max_edges - len(edges)))
    for k in range(extras):
        a = rng.randrange(n)
        b = rng.randrange(n)
        edges.append(Edge(f"x{k}", (f"v{a}", f"v{b}"), Fraction(rng.randint(0, 4))))
    return tropical_curve(vertices, edges, [])


def random_feasible_map(rng: random.Random, ambient=None, max_vertices=4):
    """A random valid map built forward (positions first), so its type is
    feasible by construction; sometimes a closing edge creates a cycle."""
    ambient = ambient or rng.choice((2, 3))
    k = rng.randint(1, max_vertices)

    def rand_dir():
        while True:
            u = tuple(rng.randint(-2, 2) for _ in range(ambient))
            if any(u):
                return primitive(u)

    positions = {"v0": tuple(Fraction(0) for _ in range(ambient))}
    bounded = []
    for i in range(1, k):
        at = f"v{rng.randrange(i)}"
        u = rand_dir()
        w = rng.randint(1, 2)
        ell = Fraction(rng.randint(1, 3))
        vid = f"v{i}"
        positions[vid] = tuple(p + ell * w * x for p, x in zip(positions[at], u))
        bounded.append((f"e{i}", (at, vid), u, w, at, ell))
    if k >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(k), 2)
        va, vb = f"v{a}", f"v{b}"
        delta = tuple(int(x - y) for x, y in zip(positions[vb], positions[va]))
        if any(delta):
            u = primitive(delta)
            w = vector_content(delta)
            bounded.append(("cyc", (va, vb), u, w, va, 1))
    # balance every finite vertex with rays, then pad 2-valent vertices
    deficits = {f"v{i}": [0] * ambient for i in range(k)}
    valence = {f"v{i}": 0 for i in range(k)}
    for eid, (a, b), u, w, tail, ell in bounded:
        head = b if tail == a else a
        for idx in range(ambient):
            deficits[tail][idx] += w * u[idx]
            deficits[head][idx] -= w * u[idx]
        valence[a] += 1
        valence[b] += 1
    rays = []
    ray_count = 0

    def add_ray(at, u, w):
        nonlocal ray_count
        ray_count += 1
        rays.append((f"r{ray_count}", at, u, w, f"p{ray_count}"))
        valence[at] += 1

    for vid in sorted(deficits):
        d = deficits[vid]
        if any(d):
            neg = tuple(-x for x in d)
            add_ray(vid, primitive(neg), vector_content(neg))
    for vid in sorted(valence):
        while valence[vid] < 3:
            u = rand_dir()
            add_ray(vid, u, 1)
            add_ray(vid, tuple(-x for x in u), 1)
    m = build_map(ambient, [f"v{i}" for i in range(k)], bounded, rays, positions)
    diags = validate_map(m)
    assert diags == [], diags
    return m


def random_shrinking_family(rng: random.Random):
    """A family over a random feasible map with a bounded edge that shrinks a
    known set of bounded edges to length zero at t = 1: tree maps shrink a
    random nonempty subset, maps with a cycle shrink every bounded edge (in
    proportion, so the cycle stays closed).  Returns (family, shrunk ids)."""
    while True:
        m = random_feasible_map(rng)
        bounded = [e for e in m.curve.edges if not m.curve.is_marked_leaf_edge(e)]
        if bounded:
            break
    ids = [e.id for e in bounded]
    if "cyc" in ids:
        shrink = set(ids)
        lengths = {e.id: affine(e.length, -e.length) for e in bounded}
    else:
        shrink = {eid for eid in ids if rng.random() < 0.5} or {rng.choice(ids)}
        lengths = {eid: affine(1, -1) if eid in shrink else affine(1) for eid in ids}
    return make_family(combinatorial_type(m), lengths), shrink


def random_strict_type(rng: random.Random) -> CombinatorialType:
    """The type of a random feasible map read on the strict complete
    orthant fan: each finite vertex gets the cone of the orthant face its
    position lies in, the zero cone at the origin and nonzero elsewhere."""
    m = random_feasible_map(rng)
    return combinatorial_type(stable_map(m.curve, complete_orthant_fan(m.fan.ambient_dim, embedded=False),
                                         m.positions, m.edge_data))


def random_decorated_type(rng: random.Random) -> CombinatorialType:
    """A random type built for symmetry rather than balance: few directions,
    parallel edges, two or three contracted loops at one vertex, contracted
    bounded edges, vertex genera and marked legs."""
    directions = [(1, 0), (0, 1), (-1, -1), (0, 0)]
    ids = [f"v{i}" for i in range(rng.randint(1, 4))]
    vertices = [Vertex(v, rng.randint(0, 1)) for v in ids]
    edges, data, markings = [], {}, []

    def add(a, b, u, length=Fraction(1)):
        eid = f"e{len(edges)}"
        edges.append(Edge(eid, (a, b), length))
        data[eid] = EdgeMapData(u, rng.randint(1, 2) if any(u) and a != b else 0, a)

    pairs = [(ids[rng.randrange(i)], ids[i]) for i in range(1, len(ids))]
    pairs += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2)) if len(ids) > 1]
    for a, b in pairs:
        u = rng.choice(directions)
        for _ in range(rng.choice((1, 1, 2))):
            add(a, b, u)
    hub = rng.choice(ids)
    for _ in range(rng.randint(2, 3)):
        add(hub, hub, (0, 0))
    for k in range(rng.randint(0, 3)):
        at, leaf = rng.choice(ids), f"inf:{k}"
        vertices.append(Vertex(leaf))
        add(at, leaf, rng.choice(directions[:3]), INF)
        markings.append(Marking(f"p{k}", leaf))
    fan = auto_rays_fan(2, [], embedded=True)
    return unchecked_type(tropical_curve(vertices, edges, markings), fan, data)


def random_unmarked_type(rng: random.Random, max_vertices: int = 4, max_edges: int = 6) -> CombinatorialType:
    """A random type with no markings, so an isomorphism search starts at
    a vertex with no mapped neighbour: a random tree on two to
    ``max_vertices`` vertices with random genera, then parallel copies of
    its edges, contracted self-loops and chords up to ``max_edges`` edges,
    directions drawn from few (the zero one among them), so that types
    have symmetries.  Built unchecked, as it need not balance."""
    directions = [(1, 0), (0, 1), (0, 0)]
    ids = [f"v{i}" for i in range(rng.randint(2, max_vertices))]
    vertices = [Vertex(v, rng.randint(0, 1)) for v in ids]
    edges, data = [], {}

    def add(a, b, u):
        eid = f"e{len(edges)}"
        edges.append(Edge(eid, (a, b), Fraction(1)))
        data[eid] = EdgeMapData(u, rng.randint(1, 2) if any(u) else 0, rng.choice((a, b)))

    for i in range(1, len(ids)):
        add(ids[rng.randrange(i)], ids[i], rng.choice(directions))
    while len(edges) < max_edges and rng.random() < 0.8:
        kind = rng.choice(("parallel", "loop", "chord"))
        if kind == "parallel":
            e = rng.choice(edges)
            d = data[e.id]
            add(*e.ends, d.u)
            data[edges[-1].id] = EdgeMapData(d.u, d.w, d.tail)
        elif kind == "loop":
            v = rng.choice(ids)
            add(v, v, (0, 0))
        else:
            add(*rng.sample(ids, 2), rng.choice(directions))
    return unchecked_type(tropical_curve(vertices, edges, []), auto_rays_fan(2, [], embedded=True), data)


def unchecked_type(graph, fan, data, vertex_cones=None) -> CombinatorialType:
    """A type built directly, with none of ``make_type``'s checks, for the
    searches that read no axiom (isomorphisms, the face search, the moduli
    cone's equations) on decorated graphs that need not be balanced: the
    graph with placeholder lengths, the marked leaf-edges' tails at their
    finite ends, and the zero cone at every finite vertex not given one."""
    graph = _strip_lengths(graph)
    cones = {vid: (vertex_cones or {}).get(vid, zero_cone(fan.ambient_dim)) for vid in graph.unmarked_vertex_ids()}
    return CombinatorialType(graph, fan, cones, _orient_leaves(graph, data))


def random_walk_type(rng: random.Random) -> CombinatorialType:
    """A random type for the spanning-tree walk: a random tree on up to nine
    finite vertices (its leaves are pendant trees) with parallel copies of
    some edges, chords that close cycles, contracted self-loops, marked legs
    and random tails, balanced by one more marked leg where needed, so that
    ``make_type`` accepts it.  Vertex and edge ids are drawn in random
    order, so the curve order is not the order of construction."""
    ids = [f"v{i}" for i in rng.sample(range(30), rng.randint(1, 9))]
    names = iter(f"e{k:02d}" for k in rng.sample(range(100), 100))
    directions = [(1, 0), (0, 1), (1, 1), (-1, 2)]
    vertices = [Vertex(v) for v in ids]
    edges, data, markings = [], {}, []

    def add(a, b, u, length=Fraction(1)):
        eid = next(names)
        edges.append(Edge(eid, (a, b), length))
        data[eid] = EdgeMapData(u, rng.randint(1, 2) if any(u) else 0, rng.choice((a, b)))

    for i in range(1, len(ids)):
        ends = rng.sample([ids[rng.randrange(i)], ids[i]], 2)
        for _ in range(rng.choice((1, 1, 1, 2))):
            add(*ends, rng.choice(directions))
    for _ in range(rng.randint(0, 3) if len(ids) > 1 else 0):
        add(*rng.sample(ids, 2), rng.choice(directions))
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(ids)
        add(v, v, (0, 0))
    for k in range(rng.randint(0, 4)):
        leaf = f"q{k}"
        vertices.append(Vertex(leaf))
        add(rng.choice(ids), leaf, rng.choice(directions), INF)
        markings.append(Marking(f"p{k}", leaf))
    # one more marked leg at each finite vertex that is not balanced, which
    # balances it
    net = {v: [0, 0] for v in ids}
    for e in edges:
        d = data[e.id]
        for end, sign in ((d.tail, 1), (d.head(e), -1)):
            if end in net and e.ends[0] != e.ends[1]:
                net[end] = [x + sign * d.w * y for x, y in zip(net[end], d.u)]
    for v, total in net.items():
        if any(total):
            back = tuple(-x for x in total)
            vertices.append(Vertex(f"b:{v}"))
            edges.append(Edge(f"b{v}", (v, f"b:{v}"), INF))
            data[f"b{v}"] = EdgeMapData(primitive(back), vector_content(back), v)
            markings.append(Marking(f"pb{v}", f"b:{v}"))
    fan = auto_rays_fan(2, [], embedded=True)
    return make_type(tropical_curve(vertices, edges, markings), fan, data)


def relabeled_type(t: CombinatorialType, rng: random.Random) -> CombinatorialType:
    """``t`` with its vertices and edges renamed in a random order and some
    bounded edges reversed; marking labels are kept."""
    g = t.graph
    vnames = {v.id: f"w{i}" for i, v in enumerate(rng.sample(g.vertices, len(g.vertices)))}
    enames = {e.id: f"f{i}" for i, e in enumerate(rng.sample(g.edges, len(g.edges)))}
    data = {}
    for e in g.edges:
        d = t.edge_data[e.id]
        if not g.is_marked_leaf_edge(e) and rng.random() < 0.5:
            d = d.reversed(e)
        data[enames[e.id]] = EdgeMapData(d.u, d.w, vnames[d.tail])
    graph = tropical_curve(
        [Vertex(vnames[v.id], v.genus) for v in g.vertices],
        [Edge(enames[e.id], tuple(vnames[x] for x in e.ends), e.length) for e in g.edges],
        [Marking(m.label, vnames[m.vertex]) for m in g.markings],
    )
    return CombinatorialType(graph, t.fan, {vnames[v]: c for v, c in t.vertex_cones.items()}, data)
