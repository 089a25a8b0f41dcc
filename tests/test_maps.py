"""Maps: axiom validation, types, automorphisms, the isomorphism search,
stars."""

import gc
import random
from fractions import Fraction

import pytest

from tropmap import (
    canonical_map,
    combinatorial_type,
    discrete_data_of,
    recession_type,
    stable_map,
    star,
    type_automorphisms,
    validate_map,
)
from tropmap.curves import Edge, INF, Marking, Vertex, tropical_curve
from tropmap.exactgeom import build_fan, cone, cone_is_face, zero_cone
from tropmap.gallery import GALLERY_NAMES, gallery_map, square_loop
from tropmap.maps import EdgeMapData, canonical_type, decorated_isomorphisms, make_type
from tropmap.moduli import _contract_with_map, is_face, limit_of_family
from tropmap.wellspaced import build_figure1_family

import face_witnesses
from builders import (
    build_map,
    parallel_pair,
    path_two_vertices,
    random_decorated_type,
    relabeled_type,
    three_rays,
)
from oracles import exhaustive_automorphisms, ref_decorated_isomorphisms


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

    def test_contact_check(self):
        m = three_rays()
        data = discrete_data_of(m)
        assert validate_map(m, data) == []
        bad = discrete_data_of(m).contact | {"p1": (9, 9)}
        from tropmap import discrete_data

        assert any(
            "contact" in d for d in validate_map(m, discrete_data(0, bad))
        )

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

    def test_recession_three_rays(self):
        rt = recession_type(combinatorial_type(three_rays()))
        assert rt.genus == 0
        assert sorted(v for _, v in rt.contacts) == sorted(
            [(1, 0), (0, 1), (-1, -1)]
        )

    def test_recession_square_loop(self):
        rt = recession_type(combinatorial_type(square_loop()))
        assert rt.genus == 1
        assert len(rt.contacts) == 4

    def test_recession_no_markings(self):
        from builders import lone_genus_one_vertex

        rt = recession_type(combinatorial_type(lone_genus_one_vertex()))
        assert rt.genus == 1 and rt.contacts == ()

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

    def test_recession_invariant_under_contraction(self):
        from tropmap import contract_type

        t = combinatorial_type(square_loop())
        rt = recession_type(t)
        for edges in (["s0"], ["s0", "s2"], list(t.bounded_edge_ids())):
            assert recession_type(contract_type(t, edges)) == rt


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
            vertices = {v.id: v.genus for v in t.graph.vertices}
            edges = {}
            for e in t.graph.edges:
                d = t.edge_data[e.id]
                a, b = e.ends
                u = d.u if d.tail == a else tuple(-x for x in d.u)
                edges[e.id] = (a, b, u, d.w)
            markings = {mk.label: mk.vertex for mk in t.graph.markings}
            assert len(type_automorphisms(t)) == exhaustive_automorphisms(
                vertices, edges, markings
            )

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

    def test_loops_at_one_vertex_permute_and_flip(self):
        types = (random_decorated_type(random.Random(seed)) for seed in range(50))
        t = next(t for t in types if sum(e.ends[0] == e.ends[1] for e in t.graph.edges) == 3)
        auts = type_automorphisms(t)
        assert len(auts) % 48 == 0  # 3! orders times 2^3 orientations
        assert len(auts) == _same_search(canonical_type(t), canonical_type(t))


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


def test_adjacency_reads_edge_signatures_from_the_vertex():
    t = combinatorial_type(parallel_pair())
    assert t.adjacency[("A", "B")] == ((1, (1, 0)), (1, (1, 0)))
    assert set(t.adjacency) == {(v, u) for e in t.graph.edges for v, u in (e.ends, e.ends[::-1])}
    for (v, u), sigs in t.adjacency.items():
        assert sigs == tuple(sorted(
            (t.edge_data[e.id].w, t.direction_from(e, v))
            for e in t.graph.edges_at(v) if set(e.ends) == {v, u}
        ))
        assert sorted((w, tuple(-x for x in d)) for w, d in t.adjacency[(u, v)]) == list(sigs)


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
