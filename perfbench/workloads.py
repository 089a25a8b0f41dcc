"""Seeded inputs, operations and answer checks for the three workloads.

Every workload is a fixed *round*: a list of operations built once from the
seed.  The timed loop replays whole rounds, so each run sees the same input
mix whatever the seed; the seed changes only the concrete inputs (shapes,
translations, parameters, points, random types) and their order.

Each operation is an :class:`Op`.  ``run`` performs the timed call and
returns its output as text; ``check`` compares that text with an
expectation derived here from the construction, never from tropmap.  Calls
into tropmap go through module attributes at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

# the measured layers, in import order; the tracer wraps these modules
LAYERS = ("curves", "exactgeom", "maps", "moduli", "wellspaced", "documents", "cli")


def import_tropmap() -> SimpleNamespace:
    """Import the package and its layer modules (fresh if purged first)."""
    return SimpleNamespace(**{m: importlib.import_module(f"tropmap.{m}") for m in LAYERS})


def purge_tropmap() -> None:
    for name in [n for n in sys.modules if n == "tropmap" or n.startswith("tropmap.")]:
        del sys.modules[name]


@dataclass
class Op:
    kind: str
    label: str
    size: int  # orders ops of one kind by cost; setup warms up the smallest
    inputs: str  # the generated input documents and arguments, as text
    run: Callable[[], str]
    check: Callable[[str], bool]


def run_cli(tm: SimpleNamespace, argv: list[str], stdin: str = "") -> tuple[int, str]:
    """One in-process ``tropmap`` invocation; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tm.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _rational(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


# ---------------------------------------------------------------------------
# superabundance: `tropmap cone` on genus-one rectangle cycles in R^3

# ((a, b), plain copies, --sample copies) per round: near-square a x b cycles
# with E = 2(a + b) unit edges, 16 of 40 ops sampled.  Small cycles dominate
# the count, large ones the time.  The shape is fixed per E because
# elimination cost depends on it, not only on E.  16 ops are cheaper than the
# eight plain 2x2 ones and 16 dearer, so the median falls in the middle of
# that class; the 90th percentile falls in the middle of the three plain 5x5
# ones.  Both classes are plain, and at least a third faster or slower than
# their neighbours, so the percentiles do not hinge on a class boundary.
RECTANGLE_MIX = (
    ((1, 1), 4, 4), ((1, 2), 4, 4), ((2, 2), 8, 0), ((2, 3), 2, 2), ((3, 3), 2, 2),
    ((3, 4), 1, 1), ((4, 4), 0, 1), ((5, 5), 3, 0), ((6, 6), 0, 1), ((8, 8), 0, 1),
)


def rectangle_points(a: int, b: int) -> list[tuple[int, int]]:
    """Lattice points on the boundary of [0, a] x [0, b], counter-clockwise."""
    return (
        [(x, 0) for x in range(a)]
        + [(a, y) for y in range(b)]
        + [(x, b) for x in range(a, 0, -1)]
        + [(0, y) for y in range(b, 0, -1)]
    )


def rectangle_map(tm: SimpleNamespace, a: int, b: int, offset: tuple[Fraction, ...]):
    """The a x b rectangle cycle in {x3 = offset[2]}: unit bounded edges, a
    diagonal marked ray at each corner and a +-e3 ray pair elsewhere."""
    c = tm.curves
    pts = rectangle_points(a, b)
    n_edges = len(pts)
    vertices = [c.Vertex(f"v{i}") for i in range(n_edges)]
    edges, data, markings = [], {}, []
    for i, p in enumerate(pts):
        q = pts[(i + 1) % n_edges]
        edges.append(c.Edge(f"s{i}", (f"v{i}", f"v{(i + 1) % n_edges}"), Fraction(1)))
        data[f"s{i}"] = tm.maps.EdgeMapData((q[0] - p[0], q[1] - p[1], 0), 1, f"v{i}")
    corners = {(0, 0): (-1, -1, 0), (a, 0): (1, -1, 0), (a, b): (1, 1, 0), (0, b): (-1, 1, 0)}
    rays = []
    for i, p in enumerate(pts):
        rays += [(f"v{i}", corners[p])] if p in corners else [(f"v{i}", (0, 0, 1)), (f"v{i}", (0, 0, -1))]
    for k, (at, u) in enumerate(rays):
        leaf = f"q{k}"
        vertices.append(c.Vertex(leaf))
        edges.append(c.Edge(f"r{k}", (at, leaf), c.INF))
        markings.append(c.Marking(f"p{k}", leaf))
        data[f"r{k}"] = tm.maps.EdgeMapData(u, 1, at)
    fan = tm.exactgeom.auto_rays_fan(3, [u for _, u in rays], embedded=True)
    positions = {
        f"v{i}": (p[0] + offset[0], p[1] + offset[1], offset[2]) for i, p in enumerate(pts)
    }
    return tm.maps.stable_map(c.tropical_curve(vertices, edges, markings), fan, positions, data)


def _check_cone(out: str, doc: dict, n_edges: int, sample: bool) -> bool:
    env = json.loads(out)
    if env.get("exit_code") != 0:
        return False
    r = env["results"]
    if (r["dim"], r["expected_dim"], r["superabundant"]) != (n_edges + 1, n_edges, True):
        return False
    if r["forced_zero_lengths"] != [] or not r["has_positive_point"]:
        return False
    if len(r["variables"]) != 4 * n_edges:
        return False
    if not sample:
        return "sample" not in r
    return _sample_realizes(r["sample"], doc)


def _sample_realizes(s: dict, doc: dict) -> bool:
    """The sample has the input's graph, fan and edge data (hence its type,
    which is balanced), positive lengths, and positions solving every edge
    equation position(head) - position(tail) = length * w * u."""
    if s["fan"] != doc["fan"] or s["edge_data"] != doc["edge_data"]:
        return False
    def unweighted(edges):
        return [{k: v for k, v in e.items() if k != "length"} for e in edges]

    if unweighted(s["curve"]["edges"]) != unweighted(doc["curve"]["edges"]):
        return False
    if s["curve"]["vertices"] != doc["curve"]["vertices"] or s["curve"]["markings"] != doc["curve"]["markings"]:
        return False
    pos = {v: [Fraction(x) for x in p] for v, p in s["positions"].items()}
    for e in s["curve"]["edges"]:
        if e["length"] == "inf":
            continue
        ell = Fraction(e["length"])
        d = s["edge_data"][e["id"]]
        tail = d["tail"]
        head = e["ends"][1] if e["ends"][0] == tail else e["ends"][0]
        if ell <= 0:
            return False
        if any(ph - pt != ell * d["w"] * u for ph, pt, u in zip(pos[head], pos[tail], d["u"])):
            return False
    return True


def superabundance(tm: SimpleNamespace, seed: int) -> list[Op]:
    rng = random.Random(seed)
    specs = []
    for (a, b), plain, sampled in RECTANGLE_MIX:
        specs += [(2 * (a + b), a, b, sample) for sample in [False] * plain + [True] * sampled]
    rng.shuffle(specs)
    ops = []
    for n_edges, a, b, sample in specs:
        offset = tuple(_rational(rng, -9, 9, 4) for _ in range(3))
        text = tm.documents.serialize_document(tm.documents.Document("map", rectangle_map(tm, a, b, offset)))
        argv = ["cone"] + (["--sample", "--seed", str(rng.randint(0, 10**6))] if sample else [])
        ops.append(_cone_op(tm, argv, text, n_edges, a, b, sample))
    return ops


def _cone_op(tm, argv, text, n_edges, a, b, sample) -> Op:
    doc = json.loads(text)

    def run() -> str:
        return run_cli(tm, argv, text)[1]

    def check(out: str) -> bool:
        return _check_cone(out, doc, n_edges, sample)

    return Op("cone" + ("+sample" if sample else ""), f"cone {a}x{b} E={n_edges}", n_edges,
              json.dumps([argv, text]), run, check)


# ---------------------------------------------------------------------------
# degeneration: `example figure1 --n N | limit --t T | verdict --family`

FIGURE1_N = (3, 4, 5, 6)
# copies per round of (N, T = 1) and of (N, rational T in (0, 1)).  The 12
# T < 1 ops are the fastest, so the median (rank 9.5 of 18) lies well inside
# them; the three N = 6, T = 1 ops are the slowest, by half again over the
# next, and the 90th percentile (rank 17.1) falls in their middle.
LIMIT_COPIES = {3: 1, 4: 1, 5: 1, 6: 3}
GENERIC_COPIES = 3


def degeneration(tm: SimpleNamespace, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    specs = []
    for n in FIGURE1_N:
        specs += [(n, Fraction(1))] * LIMIT_COPIES[n]
        for _ in range(GENERIC_COPIES):
            q = rng.randint(2, 12)
            specs.append((n, Fraction(rng.randint(1, q - 1), q)))
    rng.shuffle(specs)
    family_path = os.path.join(workdir, "family.json")
    return [_pipeline_op(tm, n, t, family_path) for n, t in specs]


def _pipeline_op(tm, n: int, t: Fraction, family_path: str) -> Op:
    t_text = str(t)

    def run() -> str:
        code1, family = run_cli(tm, ["example", "figure1", "--n", str(n)])
        with open(family_path, "w", encoding="utf-8") as fh:
            fh.write(family)
        code2, limit = run_cli(tm, ["limit", "--t", t_text], family)
        code3, verdict = run_cli(tm, ["verdict", "--family", family_path], limit)
        return json.dumps({"codes": [code1, code2, code3], "family": family, "limit": limit, "verdict": verdict})

    def check(out: str) -> bool:
        r = json.loads(out)
        if r["codes"] != [0, 0, 0] or json.loads(r["family"]).get("kind") != "family":
            return False
        limit = json.loads(r["limit"])["results"]
        verdict = json.loads(r["verdict"])["results"]
        if Fraction(limit["t"]) != t:
            return False
        if t == 1:
            return limit["contracted"] == ["et", "etp"] and (verdict["verdict"], verdict["rule"]) == ("Realizable", "R4")
        return limit["contracted"] == [] and (verdict["verdict"], verdict["rule"]) == ("Realizable", "R1")

    return Op("pipeline-t1" if t == 1 else "pipeline-t<1", f"figure1 n={n} t={t_text}", n,
              json.dumps([n, t_text]), run, check)


# ---------------------------------------------------------------------------
# face_search: orthant fans (build, validate, locate) and the face relation

# Per round: 5 random-family ops (fastest), 20 figure1 ones, then 5 fans,
# so the median op is a middle figure1 one and the 90th percentile falls in
# the middle of the n = 2 fans.
FAN_MIX = ((2, 4), (3, 1))  # (ambient n, copies per round)
POINTS_PER_FAN = 8
FIGURE1_FACE_COPIES = 5  # per N in FIGURE1_N
RANDOM_FAMILIES = 5


def _fan_op(tm, n: int, points: list[tuple[Fraction, ...]]) -> Op:
    expected = [
        sorted(tuple((1 if x > 0 else -1) if i == j else 0 for j in range(n)) for i, x in enumerate(p) if x != 0)
        for p in points
    ]

    def run() -> str:
        eg = tm.exactgeom
        f = eg.complete_orthant_fan(n)
        diags = eg.fan_validate(f)
        located = [eg.cone_locate(f, p) for p in points]
        return json.dumps({
            "cones": len(f.cones),
            "diagnostics": diags,
            "located": [sorted(c.rays) if c is not None else None for c in located],
        })

    def check(out: str) -> bool:
        r = json.loads(out)
        located = [[tuple(ray) for ray in rays] if rays is not None else None for rays in r["located"]]
        return r["cones"] == 3 ** n and r["diagnostics"] == [] and located == expected

    return Op(f"fan{n}", f"orthant fan n={n}", n, json.dumps([n, [[str(x) for x in p] for p in points]]), run, check)


def _face_op(tm, kind: str, label: str, size: int, family, limit_type, expected: set[str]) -> Op:
    def run() -> str:
        w = tm.moduli.is_face(limit_type, family.type)
        if w is None:
            return json.dumps(None)
        return json.dumps({
            "contracted": sorted(w.contracted_edges),
            "vertex_map": sorted(w.vertex_map.items()),
            "edge_map": sorted((k, list(v)) for k, v in w.edge_map.items()),
        })

    def check(out: str) -> bool:
        r = json.loads(out)
        return r is not None and set(r["contracted"]) == expected

    docs = tm.documents
    inputs = json.dumps([
        docs.serialize_document(docs.Document("family", family)),
        docs.serialize_document(docs.Document("type", limit_type)),
        sorted(expected),
    ])
    return Op(kind, label, size, inputs, run, check)


def random_shrinking_family(tm: SimpleNamespace, rng: random.Random):
    """A random valid map built forward (positions first), turned into a
    family that shrinks a known set of bounded edges to length zero at t = 1.

    Tree maps shrink a random nonempty subset of edges; maps with a cycle
    shrink every bounded edge.  Returns (family, expected contracted set).
    """
    c, mp, eg, mo = tm.curves, tm.maps, tm.exactgeom, tm.moduli
    ambient = rng.choice((2, 3))
    k = rng.randint(2, 4)

    def direction() -> tuple[int, ...]:
        while True:
            u = tuple(rng.randint(-2, 2) for _ in range(ambient))
            if any(u):
                return eg.primitive(u)

    positions = {"v0": (Fraction(0),) * ambient}
    bounded = []  # (id, tail, head, u, w, length)
    for i in range(1, k):
        at, u, w, ell = f"v{rng.randrange(i)}", direction(), rng.randint(1, 2), Fraction(rng.randint(1, 3))
        positions[f"v{i}"] = tuple(p + ell * w * x for p, x in zip(positions[at], u))
        bounded.append((f"e{i}", at, f"v{i}", u, w, ell))
    if k >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(k), 2)
        delta = tuple(int(y - x) for x, y in zip(positions[f"v{a}"], positions[f"v{b}"]))
        if any(delta):
            w = eg.vector_content(delta)
            bounded.append(("cyc", f"v{a}", f"v{b}", eg.primitive(delta), w, Fraction(1)))
    deficit = {f"v{i}": [0] * ambient for i in range(k)}
    valence = {f"v{i}": 0 for i in range(k)}
    for _, tail, head, u, w, _ in bounded:
        for j in range(ambient):
            deficit[tail][j] += w * u[j]
            deficit[head][j] -= w * u[j]
        valence[tail] += 1
        valence[head] += 1
    rays = []  # (vertex, u, w)
    for vid in sorted(deficit):
        if any(deficit[vid]):
            neg = tuple(-x for x in deficit[vid])
            rays.append((vid, eg.primitive(neg), eg.vector_content(neg)))
            valence[vid] += 1
    for vid in sorted(valence):
        while valence[vid] < 3:
            u = direction()
            rays += [(vid, u, 1), (vid, tuple(-x for x in u), 1)]
            valence[vid] += 2
    vertices = [c.Vertex(v) for v in positions]
    edges, data, markings = [], {}, []
    for eid, tail, head, u, w, ell in bounded:
        edges.append(c.Edge(eid, (tail, head), ell))
        data[eid] = mp.EdgeMapData(u, w, tail)
    for j, (vid, u, w) in enumerate(rays, start=1):
        vertices.append(c.Vertex(f"inf:r{j}"))
        edges.append(c.Edge(f"r{j}", (vid, f"inf:r{j}"), c.INF))
        markings.append(c.Marking(f"p{j}", f"inf:r{j}"))
        data[f"r{j}"] = mp.EdgeMapData(u, w, vid)
    fan = eg.auto_rays_fan(ambient, [u for _, u, _ in rays], embedded=True)
    m = mp.stable_map(c.tropical_curve(vertices, edges, markings), fan, positions, data)
    ids = [e[0] for e in bounded]
    if any(e[0] == "cyc" for e in bounded):
        shrink = set(ids)
        lengths = {e[0]: mo.affine(e[5], -e[5]) for e in bounded}
    else:
        shrink = {eid for eid in ids if rng.random() < 0.5} or {rng.choice(ids)}
        lengths = {eid: mo.affine(1, -1) if eid in shrink else mo.affine(1) for eid in ids}
    return mo.make_family(mp.combinatorial_type(m), lengths), shrink


def face_search(tm: SimpleNamespace, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n, copies in FAN_MIX:
        for _ in range(copies):
            points = []
            for _ in range(POINTS_PER_FAN):
                p = tuple(Fraction(0) if rng.random() < 0.3 else _rational(rng, -5, 5, 3) for _ in range(n))
                points.append(p)
            ops.append(_fan_op(tm, n, points))
    for n in FIGURE1_N:
        fam = tm.wellspaced.build_figure1_family(n)
        limit = tm.moduli.limit_of_family(fam, 1)
        for _ in range(FIGURE1_FACE_COPIES):
            ops.append(_face_op(tm, "face-figure1", f"is_face figure1 n={n}", n, fam, limit.type, {"et", "etp"}))
    for i in range(RANDOM_FAMILIES):
        fam, shrink = random_shrinking_family(tm, rng)
        limit = tm.moduli.limit_of_family(fam, 1)
        ops.append(_face_op(tm, "face-random", f"is_face random #{i}", i, fam, limit.type, shrink))
    rng.shuffle(ops)
    return ops


def build(name: str, tm: SimpleNamespace, seed: int, workdir: str) -> list[Op]:
    """The round of operations for workload ``name`` at ``seed``."""
    if name == "superabundance":
        return superabundance(tm, seed)
    if name == "degeneration":
        return degeneration(tm, seed, workdir)
    if name == "face_search":
        return face_search(tm, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("superabundance", "degeneration", "face_search")
