"""Maps: axiom validation, types, automorphisms, the isomorphism search,
stars."""

import gc
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropmap import maps
from tropmap import (
    combinatorial_type,
    stable_map,
    star,
    type_automorphisms,
    validate_map,
)
from tropmap.curves import Edge, INF, Marking, TropicalCurve, Vertex, tropical_curve
from tropmap.exactgeom import auto_rays_fan, build_fan, cone, cone_is_face, fan_cone_intersection, zero_cone
from tropmap.gallery import GALLERY_NAMES, gallery_map, square_loop
from tropmap.maps import CombinatorialType, EdgeMapData, canonical_type, decorated_isomorphisms, make_type
from tropmap.moduli import _contract_with_map, contract_type, is_face, limit_of_family
from tropmap.wellspaced import build_figure1_family

import face_witnesses
from builders import (
    build_map,
    collinear_chain_family,
    fractional_chain_family,
    parallel_pair,
    path_two_vertices,
    random_decorated_type,
    random_strict_type,
    random_unmarked_type,
    random_walk_type,
    rectangle_family,
    relabeled_type,
    strict_unstable_member_family,
    three_rays,
    turning_branch_family,
    unchecked_type,
)
from oracles import (
    canonical_map,
    compatible_subsets,
    exhaustive_automorphisms,
    ref_adjacency,
    ref_decorated_isomorphisms,
    ref_is_face,
    ref_neighbours,
    ref_type_refusal,
    ref_unmarked_vertex_ids,
    ref_valences,
    ref_vertex_profiles,
    ref_weighted_direction,
)


class TestValidate:
    def test_balanced_three_rays(self):
        assert validate_map(three_rays()) == []

    def test_unbalanced_two_rays(self):
        m = build_map(
            2,
            ["o"],
            [],
            [("r1", "o", (1, 0), 1, "p1"), ("r2", "o", (0, 1), 1, "p2")],
            {"o": (0, 0)},
        )
        diags = validate_map(m)
        assert any("balancing" in d and "o" in d for d in diags)

    def test_integrality_violation(self):
        m = build_map(
            2,
            ["a", "b"],
            [("e", ("a", "b"), (1, 0), 2, "a", 1)],
            [
                ("ra", "a", (-1, 0), 2, "p1"),
                ("rb", "b", (1, 0), 2, "p2"),
            ],
            {"a": (0, 0), "b": (1, 0)},
        )
        diags = validate_map(m)
        assert any("integrality" in d and "e" in d for d in diags)

    def test_integrality_at_the_common_denominator(self):
        bounded = [("e", ("a", "b"), (1, 0), 2, "a", Fraction(1, 3))]
        rays = [
            ("ra1", "a", (-1, 1), 1, "p1"),
            ("ra2", "a", (-1, -1), 1, "p2"),
            ("rb1", "b", (1, 1), 1, "p3"),
            ("rb2", "b", (1, -1), 1, "p4"),
        ]
        m = build_map(2, ["a", "b"], bounded, rays, {"a": (Fraction(1, 2), 0), "b": (Fraction(7, 6), 0)})
        assert m.scaled.denominator == 6
        assert m.scaled.positions == {"a": (3, 0), "b": (7, 0)}
        assert m.scaled.lengths == {"e": 2}
        assert validate_map(m) == []
        moved = build_map(2, ["a", "b"], bounded, rays, {"a": (Fraction(1, 2), 0), "b": (Fraction(5, 4), 0)})
        assert validate_map(moved) == [
            "integrality violated on edge e: displacement ('3/4', '0') != length*weight*direction"
        ]

    def test_stability_two_valent(self):
        m = build_map(
            2,
            ["a", "b", "c"],
            [
                ("e1", ("a", "b"), (1, 0), 1, "a", 1),
                ("e2", ("b", "c"), (1, 0), 1, "b", 1),
            ],
            [
                ("ra", "a", (-1, 0), 1, "p1"),
                ("rc", "c", (1, 0), 1, "p2"),
            ],
            {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        )
        diags = validate_map(m)
        assert any("stability" in d and "b" in d for d in diags)
        # a and c are 1-valent plus a ray each: also 2-valent, also straight
        assert len([d for d in diags if "stability" in d]) == 3

    def test_stability_kept_at_stratum_change(self):
        # a line through the origin of a strict two-ray fan: the origin
        # vertex star spans two cones, so the vertex survives
        fan = build_fan(1, [[(1,)], [(-1,)]], embedded=False)
        vs = [Vertex("o"), Vertex("q1"), Vertex("q2")]
        es = [Edge("r1", ("o", "q1"), INF), Edge("r2", ("o", "q2"), INF)]
        mk = [Marking("p1", "q1"), Marking("p2", "q2")]
        c = tropical_curve(vs, es, mk)
        m = stable_map(
            c,
            fan,
            {"o": (0,)},
            {"r1": EdgeMapData((1,), 1, "o"), "r2": EdgeMapData((-1,), 1, "o")},
        )
        assert validate_map(m) == []

    def test_weight_zero_direction_mismatch(self):
        m = build_map(
            2,
            ["a", "b"],
            [("e", ("a", "b"), (1, 0), 0, "a", 1)],
            [],
            {"a": (0, 0), "b": (0, 0)},
        )
        assert any("weight" in d for d in validate_map(m))

    def test_orientation_flip_invariance(self):
        m = square_loop()
        d = m.edge_data["s1"]
        e = m.curve.edge("s1")
        other = e.ends[0] if e.ends[1] == d.tail else e.ends[1]
        flipped = dict(m.edge_data)
        flipped["s1"] = EdgeMapData(tuple(-x for x in d.u), d.w, other)
        m2 = stable_map(m.curve, m.fan, m.positions, flipped)
        assert validate_map(m2) == []
        assert canonical_map(m2) == canonical_map(m)


class TestEdgeOrientation:
    def test_head_and_reversed(self):
        e = Edge("e", ("x", "y"), Fraction(1))
        d = EdgeMapData((1, -2), 3, "x")
        assert d.head(e) == "y"
        assert d.reversed(e) == EdgeMapData((-1, 2), 3, "y")
        assert d.reversed(e).reversed(e) == d

    def test_contracted_loop(self):
        loop = Edge("l", ("x", "x"), Fraction(1))
        d = EdgeMapData((0, 0), 0, "x")
        assert d.head(loop) == "x"
        assert d.reversed(loop) == d

    def test_leaf_tail_moves_to_finite_end(self):
        # a marked ray given from its marked end is reversed by both
        # constructors; the bounded edge keeps its orientation
        m = path_two_vertices()
        e = m.curve.edge("rx1")
        data = dict(m.edge_data, rx1=m.edge_data["rx1"].reversed(e))
        assert data["rx1"].tail == "inf:rx1"
        assert stable_map(m.curve, m.fan, m.positions, data).edge_data == m.edge_data
        t = make_type(m.curve, m.fan, data)
        assert t.edge_data == combinatorial_type(m).edge_data
        del data["e"]
        with pytest.raises(ValueError, match="edge e has no direction"):
            make_type(m.curve, m.fan, data)


class TestMakeType:
    def test_unsorted_curve_gives_the_sorted_curves_type(self):
        rng = random.Random(1917)
        m = square_loop()
        cases = [(m.curve, m.fan, m.edge_data)]
        for _ in range(60):
            t = random_walk_type(rng)
            cases.append((t.graph, t.fan, t.edge_data))
        for graph, fan, data in cases:
            vs = rng.sample(graph.vertices, len(graph.vertices))
            es = [Edge(e.id, e.ends[::-1], e.length) for e in rng.sample(graph.edges, len(graph.edges))]
            ms = rng.sample(graph.markings, len(graph.markings))
            direct = make_type(TropicalCurve(tuple(vs), tuple(es), tuple(ms)), fan, data)
            assert direct == make_type(tropical_curve(vs, es, ms), fan, data)
            assert direct.spanning_tree == make_type(graph, fan, data).spanning_tree

    def test_uncontracted_self_loop_is_refused(self):
        m = square_loop()
        c = m.curve
        graph = tropical_curve(c.vertices, [*c.edges, Edge("zz", ("c0", "c0"), Fraction(1))], c.markings)
        data = {**m.edge_data, "zz": EdgeMapData((1, 0, 0), 1, "c0")}
        with pytest.raises(ValueError, match="^self-loop zz must be contracted"):
            make_type(graph, m.fan, data)
        data["zz"] = EdgeMapData((0, 0, 0), 0, "c0")
        assert make_type(graph, m.fan, data).graph.has_edge("zz")

    def test_stripped_sorted_curve_is_kept(self):
        # a curve that tropical_curve would rebuild unchanged, with the
        # placeholder on every bounded edge and INF on every marked leaf-edge
        rng = random.Random(2001)
        types = [combinatorial_type(square_loop())] + [random_walk_type(rng) for _ in range(40)]
        for t in types:
            assert make_type(t.graph, t.fan, t.edge_data).graph is t.graph

    def test_any_other_curve_is_rebuilt(self):
        t = combinatorial_type(square_loop())
        g = t.graph
        bounded = next(e for e in g.edges if not g.is_marked_leaf_edge(e))
        leaf = next(e for e in g.edges if g.is_marked_leaf_edge(e))

        def with_edge(old, new):
            return TropicalCurve(g.vertices, tuple(new if e is old else e for e in g.edges), g.markings)

        variants = {
            "unsorted vertices": TropicalCurve(g.vertices[::-1], g.edges, g.markings),
            "unsorted edges": TropicalCurve(g.vertices, g.edges[::-1], g.markings),
            "unsorted markings": TropicalCurve(g.vertices, g.edges, g.markings[::-1]),
            "reversed ends": with_edge(bounded, Edge(bounded.id, bounded.ends[::-1], bounded.length)),
            "a length": with_edge(bounded, Edge(bounded.id, bounded.ends, Fraction(2))),
            "an int length": with_edge(bounded, Edge(bounded.id, bounded.ends, 1)),
            "a finite leaf-edge": with_edge(leaf, Edge(leaf.id, leaf.ends, Fraction(1))),
        }
        for name, curve in variants.items():
            got = make_type(curve, t.fan, t.edge_data)
            assert got.graph is not curve, name
            assert got.graph == g and type(got.graph.edge(bounded.id).length) is Fraction, name

    def test_canonical_type_keeps_a_canonical_type(self):
        rng = random.Random(2002)
        for t in [combinatorial_type(square_loop())] + [random_walk_type(rng) for _ in range(40)]:
            c = canonical_type(t)
            assert canonical_type(c) is c
            # reversing every bounded edge gives a new type with the same canonical data
            flipped = {
                eid: d if t.graph.is_marked_leaf_edge(t.graph.edge(eid)) else d.reversed(t.graph.edge(eid))
                for eid, d in c.edge_data.items()
            }
            again = canonical_type(CombinatorialType(c.graph, c.fan, c.vertex_cones, flipped))
            assert again == c

    def test_curve_without_vertices_is_refused(self):
        empty = TropicalCurve((), (), ())
        assert empty.connected
        with pytest.raises(ValueError, match="^curve has no vertices$"):
            make_type(empty, auto_rays_fan(2, [], embedded=True), {})

    def test_disconnected_graph_is_refused(self):
        m = square_loop()
        c = m.curve
        graph = tropical_curve([*c.vertices, Vertex("lone")], c.edges, c.markings)
        with pytest.raises(ValueError, match="^curve is disconnected$"):
            make_type(graph, m.fan, m.edge_data)


class TestTypes:
    def test_embedded_zero_cones(self):
        t = combinatorial_type(square_loop())
        assert all(c == zero_cone(3) for c in t.vertex_cones.values())
        assert len(t.vertex_cones) == 4

    def test_strict_ray_cone(self):
        fan = build_fan(1, [[(1,)], [(-1,)]], embedded=False)
        vs = [Vertex("o"), Vertex("q1"), Vertex("q2")]
        es = [Edge("r1", ("o", "q1"), INF), Edge("r2", ("o", "q2"), INF)]
        mk = [Marking("p1", "q1"), Marking("p2", "q2")]
        c = tropical_curve(vs, es, mk)
        m = stable_map(
            c,
            fan,
            {"o": (2,)},
            {"r1": EdgeMapData((1,), 1, "o"), "r2": EdgeMapData((-1,), 1, "o")},
        )
        t = combinatorial_type(m)
        assert t.vertex_cones["o"] == cone(1, [(1,)])

    def test_strict_outside_support(self):
        fan = build_fan(1, [[(1,)]], embedded=False)
        vs = [Vertex("o"), Vertex("q1"), Vertex("q2")]
        es = [Edge("r1", ("o", "q1"), INF), Edge("r2", ("o", "q2"), INF)]
        mk = [Marking("p1", "q1"), Marking("p2", "q2")]
        c = tropical_curve(vs, es, mk)
        m = stable_map(
            c,
            fan,
            {"o": (-1,)},
            {"r1": EdgeMapData((1,), 1, "o"), "r2": EdgeMapData((-1,), 1, "o")},
        )
        with pytest.raises(ValueError):
            combinatorial_type(m)

    def test_vertex_cone_with_a_line_is_refused(self, capsys, monkeypatch):
        # the four rays contain the line through (1, -1); canonical_cone
        # alone stored the cone on (0, 1) and (1, -1) without an error
        from tropmap.cli import main
        from tropmap.documents import Document, serialize_document

        t = combinatorial_type(three_rays())
        lined = cone(2, [(-2, -1), (-2, 1), (0, 1), (1, -1)])
        with pytest.raises(ValueError, match="vertex cone of o is not pointed"):
            make_type(t.graph, t.fan, t.edge_data, {"o": lined})
        wedge = make_type(t.graph, t.fan, t.edge_data, {"o": cone(2, [(1, -1), (0, 1)])})
        assert wedge.vertex_cones["o"] == cone(2, [(0, 1), (1, -1)])
        # a type document with that vertex cone exits 2
        doc = json.loads(serialize_document(Document("type", t)))
        doc["vertex_cones"] = {"o": {"rays": [list(r) for r in lined.rays]}}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        assert main(["cone"]) == 2
        [diag] = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag == {"pointer": "/vertex_cones/o", "message": "vertex cone of o is not pointed"}

    def test_type_balancing_is_length_free(self):
        # the weighted directions of a valid map balance at every finite
        # vertex of the forgotten type
        for m in (square_loop(), three_rays(), parallel_pair()):
            t = combinatorial_type(m)
            for vid in t.graph.unmarked_vertex_ids():
                total = None
                for e in t.graph.edges_at(vid):
                    if e.ends[0] == e.ends[1]:
                        continue
                    u = t.direction_from(e, vid)
                    w = t.edge_data[e.id].w
                    vec = tuple(w * x for x in u)
                    total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
                assert total is None or all(x == 0 for x in total)


class TestAutomorphisms:
    def test_asymmetric_three_rays_identity(self):
        auts = type_automorphisms(combinatorial_type(three_rays()))
        assert len(auts) == 1

    def test_parallel_pair_swap(self):
        t = combinatorial_type(parallel_pair())
        auts = type_automorphisms(t)
        assert len(auts) == 2
        assert sorted(a.edge_map["e1"][0] for a in auts) == ["e1", "e2"]

    def test_square_loop_identity(self):
        assert len(type_automorphisms(combinatorial_type(square_loop()))) == 1

    def test_contracted_loop_flip(self):
        from tropmap.gallery import speyer_tree

        t = combinatorial_type(speyer_tree())
        auts = type_automorphisms(t)
        # only the contracted self-loop can move: identity and the loop flip
        assert len(auts) == 2
        assert sorted(a.edge_map["loop"][1] for a in auts) == [False, True]

    def test_oracle_cross_check(self):
        for m in (three_rays(), parallel_pair(), square_loop()):
            t = combinatorial_type(m)
            assert len(type_automorphisms(t)) == _exhaustive_count(t)

    def test_unmarked_types_match_the_exhaustive_count(self):
        # no marking fixes a vertex, so every automorphism of the graph
        # counts, the contracted self-loops' flips and the parallel pairs'
        # swaps included
        loops = parallel = symmetric = 0
        for seed in range(40):
            t = random_unmarked_type(random.Random(seed))
            count = len(type_automorphisms(t))
            assert count == _exhaustive_count(t), seed
            loops += any(e.ends[0] == e.ends[1] for e in t.graph.edges)
            parallel += any(len(sigs) > 1 for (v, u), sigs in t._local.adjacency.items() if v != u)
            symmetric += count > 1
        assert loops > 10 and parallel > 10 and symmetric > 20

    def test_group_closure(self):
        t = combinatorial_type(parallel_pair())
        auts = type_automorphisms(t)
        keys = {
            (tuple(sorted(a.vertex_map.items())), tuple(sorted(a.edge_map.items())))
            for a in auts
        }
        for a in auts:
            for b in auts:
                vcomp = {v: b.vertex_map[w] for v, w in a.vertex_map.items()}
                ecomp = {}
                for e, (f, flip1) in a.edge_map.items():
                    g, flip2 = b.edge_map[f]
                    ecomp[e] = (g, flip1 != flip2)
                key = (tuple(sorted(vcomp.items())), tuple(sorted(ecomp.items())))
                assert key in keys


def _exhaustive_count(t):
    """``oracles.exhaustive_automorphisms`` of the type, from its raw
    vertices, edges and markings."""
    vertices = {v.id: v.genus for v in t.graph.vertices}
    edges = {}
    for e in t.graph.edges:
        d = t.edge_data[e.id]
        a, b = e.ends
        edges[e.id] = (a, b, d.u if d.tail == a else tuple(-x for x in d.u), d.w)
    return exhaustive_automorphisms(vertices, edges, {mk.label: mk.vertex for mk in t.graph.markings})


def _same_search(t1, t2, vertex_ok=None):
    """Both searches yield the same isomorphisms in the same order, dict
    order included; returns how many."""
    got = [(list(v.items()), list(e.items())) for v, e in decorated_isomorphisms(t1, t2, vertex_ok)]
    want = [(list(v.items()), list(e.items())) for v, e in ref_decorated_isomorphisms(t1, t2, vertex_ok)]
    assert got == want
    return len(got)


def _face_vertex_ok(ta, tb, classes):
    """``is_face``'s vertex test for the contraction of ``tb`` with these
    vertex classes onto ``ta``."""
    return lambda vc, va: all(
        cone_is_face(ta.vertex_cones[va], tb.vertex_cones[old]) for old in classes[vc] if old in tb.vertex_cones
    )


class TestIsomorphismOrder:
    """``decorated_isomorphisms`` yields exactly the sequence of the two
    recursive searches it replaced (``oracles.ref_decorated_isomorphisms``)."""

    def test_face_witness_families(self):
        rng = random.Random(0)
        for name, fam in face_witnesses.families().items():
            big = canonical_type(fam.type)
            limit = canonical_type(limit_of_family(fam, 1).type)
            for t in (big, limit):
                assert _same_search(t, t) >= 1, name
                assert _same_search(t, relabeled_type(t, rng)) >= 1, name
            w = is_face(limit, big)
            tc, _, classes = _contract_with_map(big, w.contracted_edges)
            assert _same_search(tc, limit, _face_vertex_ok(limit, big, classes)) >= 1, name
            assert _same_search(limit, big) == 0

    def test_gallery_types(self):
        rng = random.Random(1)
        for name in GALLERY_NAMES:
            t = combinatorial_type(gallery_map(name))
            for other in (t, canonical_type(t), relabeled_type(t, rng)):
                assert _same_search(t, other) >= 1, name

    def test_random_types_and_relabeled_copies(self):
        total = 0
        for seed in range(200):
            rng = random.Random(seed)
            t = random_decorated_type(rng)
            for other in (t, relabeled_type(t, rng), canonical_type(t), random_decorated_type(rng)):
                total += _same_search(t, other)
                total += _same_search(t, other, lambda v1, v2: (ord(v1[-1]) + ord(v2[-1])) % 3 != 0)
        assert total > 10_000

    def test_unmarked_types(self):
        # the first vertex has no mapped neighbour and tries every vertex;
        # contracted self-loops and parallel pairs permute and flip
        total = 0
        for seed in range(150):
            rng = random.Random(seed)
            t = random_unmarked_type(rng, max_vertices=6, max_edges=9)
            assert not t.graph.markings
            for other in (t, relabeled_type(t, rng), canonical_type(t)):
                total += _same_search(t, other)
            total += _same_search(t, random_unmarked_type(rng, max_vertices=6, max_edges=9))
            total += _same_search(t, t, lambda v1, v2: (ord(v1[-1]) + ord(v2[-1])) % 3 != 0)
        assert total > 1_000

    def test_loops_at_one_vertex_permute_and_flip(self):
        types = (random_decorated_type(random.Random(seed)) for seed in range(50))
        t = next(t for t in types if sum(e.ends[0] == e.ends[1] for e in t.graph.edges) == 3)
        auts = type_automorphisms(t)
        assert len(auts) % 48 == 0  # 3! orders times 2^3 orientations
        assert len(auts) == _same_search(canonical_type(t), canonical_type(t))


def _face_pairs():
    """(name, face type, big type) pairs whose face searches try subsets:
    the recorded families' limits, contractions of seeded random decorated
    types, and contractions of random strict fan types, whose vertex cones
    are distinct and mostly nonzero, also with the face's cones dealt out
    again from the big type's (some of those pairs are no faces)."""
    for name, fam in face_witnesses.families().items():
        yield name, limit_of_family(fam, 1).type, fam.type
    for seed in range(20):
        rng = random.Random(seed)
        tb = random_decorated_type(rng)
        bounded = tb.bounded_edge_ids()
        for k in (1, 2):
            if len(bounded) >= k:
                yield f"decorated seed={seed} k={k}", contract_type(tb, rng.sample(bounded, k)), tb
    for seed in range(120):
        rng = random.Random(seed)
        tb = random_strict_type(rng)
        bounded = tb.bounded_edge_ids()
        if not bounded:
            continue
        ta = contract_type(tb, rng.sample(bounded, rng.randint(1, len(bounded))))
        yield f"strict seed={seed}", ta, tb
        cones = list(tb.vertex_cones.values())
        dealt = {v: rng.choice(cones) for v in ta.vertex_cones}
        yield f"strict seed={seed} dealt", CombinatorialType(ta.graph, ta.fan, dealt, ta.edge_data), tb


class TestFaceSearchSubsets:
    """Every signature-compatible subset the face search tries gets the
    vertex profiles the reference reads off each vertex's own edges, and
    the search on it yields what the recursive reference yields; every
    pair gets the reference's face witness."""

    def test_every_compatible_subset(self):
        subsets = nonzero = 0
        answers = Counter()
        for name, ta, tb in _face_pairs():
            w = is_face(ta, tb)
            assert w == ref_is_face(ta, tb), name
            answers[w is None] += 1
            ta, tb = canonical_type(ta), canonical_type(tb)
            for subset in compatible_subsets(ta, tb):
                tc, vmap, classes = _contract_with_map(tb, subset)
                # a class of one vertex keeps its cone and an edge whose
                # tail survives keeps its data; both as the full rule gives
                assert tc.vertex_cones == {
                    new: fan_cone_intersection(tb.fan, [tb.vertex_cones[o] for o in olds])
                    for new, olds in classes.items() if new in tb.vertex_cones
                }, (name, subset)
                assert tc.edge_data == {
                    eid: EdgeMapData(d.u, d.w, vmap[d.tail]) for eid, d in tb.edge_data.items() if tc.graph.has_edge(eid)
                }, (name, subset)
                assert tc._local.profiles == ref_vertex_profiles(tc), (name, subset)
                _same_search(tc, ta, _face_vertex_ok(ta, tb, classes))
                subsets += 1
                nonzero += any(c.rays for c in tc.vertex_cones.values())
        assert subsets > 300 and nonzero > 50
        assert answers[False] > 150 and answers[True] > 50


class TestCanonicalType:
    def test_found_once_and_kept(self, monkeypatch):
        rng = random.Random(5)
        t = relabeled_type(combinatorial_type(square_loop()), rng)
        calls = []
        real = maps.canonical_edge_data
        monkeypatch.setattr(maps, "canonical_edge_data", lambda *args: calls.append(args) or real(*args))
        c = canonical_type(t)
        assert c is not t and c == CombinatorialType(t.graph, t.fan, t.vertex_cones, real(t.graph, t.edge_data))
        assert canonical_type(t) is c and canonical_type(c) is c
        assert len(calls) == 1
        other = combinatorial_type(square_loop())
        assert canonical_type(other) is canonical_type(other)
        assert len(calls) == 2  # one search per type

    def test_no_reference_cycle(self):
        t = relabeled_type(combinatorial_type(square_loop()), random.Random(5))
        gc.collect()
        gc.disable()
        try:
            c = canonical_type(t)
            assert canonical_type(c) is c and c is not t
            assert is_face(t, t) is not None
            del t, c
            assert gc.collect() == 0
        finally:
            gc.enable()


def _cycles(*lengths):
    """Disjoint cycles of contracted edges (zero direction and weight) on
    vertices v0, v1, ..., one cycle per length, as an unchecked type."""
    vertices, edges, data, start = [], [], {}, 0
    for n in lengths:
        ids = [f"v{start + i}" for i in range(n)]
        for i, v in enumerate(ids):
            vertices.append(Vertex(v))
            edges.append(Edge(f"e{v}", (v, ids[(i + 1) % n]), Fraction(1)))
            data[f"e{v}"] = EdgeMapData((0, 0), 0, v)
        start += n
    return unchecked_type(tropical_curve(vertices, edges, []), auto_rays_fan(2, [], embedded=True), data)


def test_a_candidate_with_more_mapped_neighbours_is_refused():
    # a hexagon onto two triangles: v1 maps into a triangle next to v0's
    # image, and v2, whose one mapped neighbour is v1, could only take the
    # triangle's third vertex, which is next to both images; the vertex
    # stage refuses it before the cone test
    asked = []
    hexagon, triangles = _cycles(6), _cycles(3, 3)
    assert list(decorated_isomorphisms(hexagon, triangles, lambda v1, v2: asked.append(v1) or True)) == []
    assert set(asked) == {"v0", "v1"}
    assert len(list(decorated_isomorphisms(hexagon, hexagon))) == 12


def test_the_search_leaves_no_garbage():
    """The search holds no reference cycle, so a face search and an
    automorphism count free everything without the cycle collector (the
    recursive closures it replaced left hundreds of objects)."""
    fam = build_figure1_family(3)
    limit = limit_of_family(fam, 1).type
    gc.collect()
    gc.disable()
    try:
        assert is_face(limit, fam.type) is not None
        assert gc.collect() == 0
        assert len(type_automorphisms(fam.type)) == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bounded_edge_ids_are_computed_once():
    t = combinatorial_type(square_loop())
    assert t.bounded_edge_ids() is t.bounded_edge_ids()
    assert t.bounded_edge_ids() == ("s0", "s1", "s2", "s3")


def test_marked_edges_are_the_leaf_edges():
    rng = random.Random(17)
    types = [combinatorial_type(gallery_map(name)) for name in GALLERY_NAMES]
    types += [random_decorated_type(rng) for _ in range(20)]
    for t in types:
        want = {}
        for m in t.graph.markings:
            [want[m.label]] = [e for e in t.graph.edges if m.vertex in e.ends]
        assert t.marked_edges == want


def test_marked_edges_refuse_a_marked_vertex_that_is_not_a_leaf():
    t = combinatorial_type(three_rays())
    g = t.graph
    # mark the finite vertex as well: it has three edges
    bad = tropical_curve(g.vertices, g.edges, (*g.markings, Marking("q", "o")))
    with pytest.raises(ValueError, match="marked vertex o is not 1-valent"):
        type(t)(bad, t.fan, t.vertex_cones, t.edge_data).marked_edges


def test_local_invariants_match_the_references():
    """The profiles, adjacency and neighbours read in one pass over the
    edges are those read off each vertex's own incidence list, on types
    with markings or none, contracted self-loops, parallel edges, and the
    contractions the face search tries."""
    types = [combinatorial_type(gallery_map(name)) for name in GALLERY_NAMES]
    for seed in range(40):
        rng = random.Random(seed)
        types += [random_decorated_type(rng), random_unmarked_type(rng, 6, 9), random_walk_type(rng)]
    for name, ta, tb in _face_pairs():
        ta, tb = canonical_type(ta), canonical_type(tb)
        types += [ta, tb] + [_contract_with_map(tb, s)[0] for s in compatible_subsets(ta, tb)[:3]]
    for t in types:
        assert t._local.profiles == ref_vertex_profiles(t)
        assert t._local.adjacency == ref_adjacency(t)
        assert t._local.neighbours == ref_neighbours(t)
    assert len(types) > 400


def test_adjacency_reads_edge_signatures_from_the_vertex():
    t = combinatorial_type(parallel_pair())
    assert t._local.adjacency[("A", "B")] == ((1, (1, 0)), (1, (1, 0)))
    assert set(t._local.adjacency) == {(v, u) for e in t.graph.edges for v, u in (e.ends, e.ends[::-1])}
    for (v, u), sigs in t._local.adjacency.items():
        assert sigs == tuple(sorted(
            (t.edge_data[e.id].w, t.direction_from(e, v))
            for e in t.graph.edges_at(v) if set(e.ends) == {v, u}
        ))
        assert sorted((w, tuple(-x for x in d)) for w, d in t._local.adjacency[(u, v)]) == list(sigs)


class TestStar:
    def test_three_rays_fixed_point(self):
        m = three_rays()
        s = star(m, "o")
        assert canonical_map(s) == canonical_map(m)

    def test_square_loop_corner(self):
        s = star(square_loop(), "c0")
        assert validate_map(s) == []
        dirs = sorted(s.weighted_direction(e.id) for e in s.curve.edges)
        assert dirs == sorted([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])

    def test_contracted_loop_dropped(self):
        from tropmap.gallery import speyer_tree

        s = star(speyer_tree(), "v0")
        assert not any(e.ends[0] == e.ends[1] for e in s.curve.edges)
        assert len(s.curve.edges) == 2  # the two tree edges become rays

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            star(three_rays(), "nope")


# ---------------------------------------------------------------------------
# per-element data cached per curve, map or type, and the type axioms

def _cached_data_types() -> list[CombinatorialType]:
    """The gallery's types, the certificate families' types, and 200
    seeded ``random_walk_type`` types with one seeded contraction each."""
    types = [combinatorial_type(gallery_map(name)) for name in GALLERY_NAMES]
    families = [build_figure1_family(n) for n in (3, 4, 5, 6)]
    families += [rectangle_family(1, 2, {"s1", "s5"}), collinear_chain_family(4, {"c1", "c2"})]
    families += [fractional_chain_family(), turning_branch_family(), strict_unstable_member_family()]
    types += [fam.type for fam in families]
    rng = random.Random(3232)
    for _ in range(200):
        t = random_walk_type(rng)
        bounded = t.bounded_edge_ids()
        types += [t, contract_type(t, rng.sample(bounded, rng.randint(0, len(bounded))))]
    return types


def test_cached_per_element_data_matches_a_fresh_derivation():
    types = _cached_data_types()
    objects = [(t.graph, t) for t in types]
    objects += [(m.curve, m) for m in (gallery_map(name) for name in GALLERY_NAMES)]
    contracted = 0
    for curve, obj in objects:
        for _ in range(2):  # the first call fills each cache, the second reads it
            assert {v.id: curve.valence(v.id) for v in curve.vertices} == ref_valences(curve)
            assert curve.unmarked_vertex_ids() == ref_unmarked_vertex_ids(curve)
            for e in curve.edges:
                assert obj.weighted_direction(e.id) == ref_weighted_direction(obj, e.id)
        contracted += any(e.ends[0] == e.ends[1] for e in curve.edges)
    assert len(types) > 400 and contracted > 50


def _single_defects(t: CombinatorialType, rng: random.Random) -> list[tuple[str, TropicalCurve, dict]]:
    """Seeded copies of the type's graph and edge data with one defect each:
    a foreign tail, an unbalanced vertex, a direction that is not
    primitive, a second marking, a finite leaf length and an isolated
    vertex (where the type has an edge to break)."""
    g, data = t.graph, dict(t.edge_data)
    out = [("none", g, data)]
    if g.edges:
        e = rng.choice(g.edges)
        foreign = [v.id for v in g.vertices if v.id not in e.ends]
        if foreign:
            d = data[e.id]
            out.append(("foreign tail", g, {**data, e.id: EdgeMapData(d.u, d.w, rng.choice(foreign))}))
    moving = [e for e in g.edges if e.ends[0] != e.ends[1] and any(data[e.id].u)]
    if moving:
        e = rng.choice(moving)
        d = data[e.id]
        out.append(("unbalanced vertex", g, {**data, e.id: EdgeMapData(d.u, d.w + 1, d.tail)}))
    even = [e for e in moving if data[e.id].w % 2 == 0]
    if even:
        # the same weighted direction, so every vertex stays balanced
        e = rng.choice(even)
        d = data[e.id]
        out.append(("not primitive", g, {**data, e.id: EdgeMapData(tuple(2 * x for x in d.u), d.w // 2, d.tail)}))
    on = rng.choice(sorted(g.marked_vertex_ids) or [v.id for v in g.vertices])
    out.append(("second marking", tropical_curve(g.vertices, g.edges, [*g.markings, Marking("extra", on)]), data))
    leaves = [e for e in g.edges if g.is_marked_leaf_edge(e)]
    if leaves:
        leaf = rng.choice(leaves)
        edges = [Edge(e.id, e.ends, Fraction(1)) if e is leaf else e for e in g.edges]
        out.append(("finite leaf length", tropical_curve(g.vertices, edges, g.markings), data))
    out.append(("isolated vertex", tropical_curve([*g.vertices, Vertex("isolated")], g.edges, g.markings), data))
    return out


def test_make_type_refuses_the_first_fault_of_the_three_scans():
    rng = random.Random(3233)
    defects = Counter()
    for t in _cached_data_types():
        n = t.fan.ambient_dim
        # a contraction can turn a parallel edge into an uncontracted loop
        valid = ref_type_refusal(t.graph, t.edge_data, n) is None
        for name, graph, data in _single_defects(t, rng):
            # make_type judges the graph with placeholder lengths
            want = ref_type_refusal(maps._strip_lengths(graph), data, n)
            try:
                got = make_type(graph, t.fan, data, t.vertex_cones)
            except maps.InvalidType as exc:
                assert (str(exc), exc.vertex, exc.field) == want, name
                defects[name, valid] += 1
            else:
                assert want is None, name
                assert got.graph == maps._strip_lengths(graph) and got.edge_data == maps._orient_leaves(got.graph, data)
    # on a valid type, a finite leaf length is stripped away and every
    # other defect is refused
    assert defects["none", True] == defects["finite leaf length", True] == 0
    for name in ("foreign tail", "unbalanced vertex", "not primitive", "second marking", "isolated vertex"):
        assert defects[name, True] > 250, (name, defects)
