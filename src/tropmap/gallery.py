"""Built-in example maps and families.

* ``square-loop``: the superabundance baseline, a planar square cycle in R^3
  with four in-plane marked rays; its moduli cone has dimension 5 against an
  expected dimension of 4, yet the map is well-spaced (every flat traps the
  whole curve).
* ``figure1``: the shrinking-cycle family whose well-spacedness flips from
  true (t < 1) to false at the t = 1 limit.
* ``speyer-tree``: a contracted-loop demo; the flat through the horizontal
  axis traps a subtree with boundary distance multiset {1, 1, 2} (a pass),
  while generic hyperplanes detach the loop vertex alone, so the overall
  predicate is false.
* ``hat-demo``: a genus-one vertex with a tree star, the input shape of the
  hat construction.
"""

from __future__ import annotations

from fractions import Fraction

from . import curves
from .curves import Edge, Marking, Vertex, tropical_curve
from .exactgeom import auto_rays_fan
from .maps import EdgeMapData, TropicalStableMap, stable_map
from .wellspaced import figure1_member

GALLERY_NAMES = ("figure1", "square-loop", "speyer-tree", "hat-demo")


def _build_map(ambient, vertices, bounded, rays, positions) -> TropicalStableMap:
    """bounded: (id, (a, b), u, w, tail, length); rays: (id, vertex, u, w, label)."""
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
        edges.append(Edge(eid, (at, leaf), curves.INF))
        markings.append(Marking(label, leaf))
        data[eid] = EdgeMapData(tuple(u), w, at)
    fan = auto_rays_fan(ambient, [u for _, _, u, _, _ in rays], embedded=True)
    graph = tropical_curve(vs, edges, markings)
    return stable_map(graph, fan, positions, data)


def square_loop() -> TropicalStableMap:
    """Unit square cycle in the plane {x3 = 0} of R^3, one diagonal marked
    ray per corner."""
    vertices = ["c0", "c1", "c2", "c3"]
    bounded = [
        ("s0", ("c0", "c1"), (1, 0, 0), 1, "c0", 1),
        ("s1", ("c1", "c2"), (0, 1, 0), 1, "c1", 1),
        ("s2", ("c2", "c3"), (-1, 0, 0), 1, "c2", 1),
        ("s3", ("c0", "c3"), (0, -1, 0), 1, "c3", 1),
    ]
    rays = [
        ("m0", "c0", (-1, -1, 0), 1, "p1"),
        ("m1", "c1", (1, -1, 0), 1, "p2"),
        ("m2", "c2", (1, 1, 0), 1, "p3"),
        ("m3", "c3", (-1, 1, 0), 1, "p4"),
    ]
    positions = {
        "c0": (0, 0, 0),
        "c1": (1, 0, 0),
        "c2": (1, 1, 0),
        "c3": (0, 1, 0),
    }
    return _build_map(3, vertices, bounded, rays, positions)


def speyer_tree() -> TropicalStableMap:
    """A contracted self-loop at the origin of R^2 with a tree hanging off:
    the horizontal flat traps the path through A, B, B2 with boundary
    distances {1, 1, 2}."""
    vertices = ["v0", "A", "B", "B2", "D"]
    bounded = [
        ("loop", ("v0", "v0"), (0, 0), 0, "v0", 1),
        ("ea", ("v0", "A"), (1, 0), 1, "v0", 1),
        ("eb", ("v0", "B"), (-1, 0), 1, "v0", 1),
        ("eb2", ("B", "B2"), (-1, 0), 1, "B", 1),
        ("ed", ("B", "D"), (0, 1), 1, "B", 1),
    ]
    rays = [
        ("ra1", "A", (1, 1), 1, "p1"),
        ("ra2", "A", (0, -1), 1, "p2"),
        ("rb", "B", (0, -1), 1, "p3"),
        ("rb21", "B2", (-1, 1), 1, "p4"),
        ("rb22", "B2", (0, -1), 1, "p5"),
        ("rd1", "D", (1, 1), 1, "p6"),
        ("rd2", "D", (-1, 0), 1, "p7"),
    ]
    positions = {
        "v0": (0, 0),
        "A": (1, 0),
        "B": (-1, 0),
        "B2": (-2, 0),
        "D": (-1, 1),
    }
    return _build_map(2, vertices, bounded, rays, positions)


def hat_demo() -> TropicalStableMap:
    """A genus-one vertex at the origin of R^2 with one bounded edge; feed it
    to the hat construction to trade the vertex genus for a contracted
    self-loop."""
    vertices = [("v", 1), ("x", 0)]
    bounded = [
        ("e", ("v", "x"), (1, 0), 1, "v", 1),
    ]
    rays = [
        ("rv1", "v", (0, 1), 1, "p1"),
        ("rv2", "v", (-1, -1), 1, "p2"),
        ("rx1", "x", (1, 1), 1, "p3"),
        ("rx2", "x", (0, -1), 1, "p4"),
    ]
    positions = {"v": (0, 0), "x": (1, 0)}
    return _build_map(2, vertices, bounded, rays, positions)


def gallery_map(name: str, n: int = 3, t=None) -> TropicalStableMap:
    if name == "square-loop":
        return square_loop()
    if name == "speyer-tree":
        return speyer_tree()
    if name == "hat-demo":
        return hat_demo()
    if name == "figure1":
        return figure1_member(n, Fraction(t) if t is not None else Fraction(0))
    raise ValueError(f"unknown example {name!r}; available: {', '.join(GALLERY_NAMES)}")
