"""Shared constructions for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from tropmap import INF, stable_map, validate_map
from tropmap.curves import Edge, Marking, Vertex, tropical_curve
from tropmap.exactgeom import auto_rays_fan, primitive, vector_content
from tropmap.maps import EdgeMapData


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
