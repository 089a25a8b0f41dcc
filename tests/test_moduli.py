"""Moduli cones: dimension, metrics, contraction, faces, families, sampling."""

import random
from fractions import Fraction

import pytest

from tropmap import moduli
from tropmap import (
    InfeasibleCone,
    affine,
    betti_and_genus,
    canonical_type,
    combinatorial_type,
    cone_metrics,
    contract_type,
    evaluate_family,
    is_face,
    limit_of_family,
    make_family,
    moduli_cone,
    overvalence,
    sample_interior,
    validate_map,
)
from tropmap.curves import Edge, INF, Marking, Vertex, tropical_curve
from tropmap.exactgeom import auto_rays_fan, build_fan, rank
from tropmap.gallery import hat_demo, speyer_tree, square_loop
from tropmap.maps import EdgeMapData, make_type, stable_map

from builders import build_map, path_two_vertices, random_feasible_map, rectangle_cycle, three_rays
from oracles import bareiss_rank


def _raw_type(bounded, rays):
    """An embedded type built straight from edge data, with no balancing."""
    finite = sorted({v for _, ends, *_ in bounded for v in ends} | {at for _, at, *_ in rays})
    vs = [Vertex(v) for v in finite] + [Vertex(f"inf:{eid}") for eid, *_ in rays]
    es = [Edge(eid, ends, Fraction(l)) for eid, ends, _, _, _, l in bounded]
    es += [Edge(eid, (at, f"inf:{eid}"), INF) for eid, at, _, _, _ in rays]
    mk = [Marking(lbl, f"inf:{eid}") for eid, _, _, _, lbl in rays]
    c = tropical_curve(vs, es, mk)
    fan = auto_rays_fan(2, [u for _, _, u, _, _ in rays], embedded=True)
    data = {eid: EdgeMapData(tuple(u), w, tail) for eid, _, u, w, tail, _ in bounded}
    data |= {eid: EdgeMapData(tuple(u), w, at) for eid, at, u, w, _ in rays}
    return make_type(c, fan, data)


def _infeasible_two_cycle():
    bounded = [
        ("c1", ("x", "y"), (1, 0), 1, "x", 1),
        ("c2", ("x", "y"), (0, 1), 1, "y", 1),
    ]
    rays = [
        ("r1", "x", (-1, 0), 1, "p1"),
        ("r2", "x", (0, -1), 1, "p2"),
        ("r3", "y", (1, 0), 1, "p3"),
        ("r4", "y", (0, 1), 1, "p4"),
    ]
    return _raw_type(bounded, rays)


def _partly_forced_cycle():
    """c1 runs x -> y and c2 runs y -> x in the same direction, so the cycle
    closes only with len(c1) + len(c2) = 0: non-negativity, not the
    equations, forces both to zero.  The bridge b to z stays free."""
    bounded = [
        ("c1", ("x", "y"), (1, 0), 1, "x", 1),
        ("c2", ("x", "y"), (1, 0), 1, "y", 1),
        ("b", ("y", "z"), (1, 1), 1, "y", 1),
    ]
    rays = [
        ("r1", "x", (0, -1), 1, "p1"),
        ("r2", "y", (0, 1), 1, "p2"),
        ("r3", "z", (1, 0), 1, "p3"),
        ("r4", "z", (0, 1), 1, "p4"),
    ]
    return _raw_type(bounded, rays)


def _oracle_dim(mc):
    """The dimension by the independent elimination oracle: all variables
    minus the rank of every edge equation plus one selector row per
    forced-zero length."""
    selectors = [
        [int(v == f"len:{eid}") for v in mc.variables] for eid in mc.forced_zero_lengths
    ]
    return len(mc.variables) - bareiss_rank(list(mc.equations) + selectors)


class TestModuliCone:
    def test_three_rays_translations_only(self):
        mc = moduli_cone(combinatorial_type(three_rays(2)))
        assert len(mc.variables) == 2
        assert mc.equations == ()
        assert mc.dim == 2

    def test_path_rank_and_dim(self):
        mc = moduli_cone(combinatorial_type(path_two_vertices()))
        assert len(mc.variables) == 5
        assert len(mc.equations) == 2
        assert rank(mc.equations) == 2
        assert mc.dim == 3

    def test_square_loop(self):
        mc = moduli_cone(combinatorial_type(square_loop()))
        assert len(mc.variables) == 16
        assert len(mc.equations) == 12
        assert rank(mc.equations) == 11
        assert mc.dim == 5
        assert mc.has_positive_point

    def test_rows_per_edge(self):
        for m in (square_loop(), path_two_vertices(), speyer_tree()):
            t = combinatorial_type(m)
            mc = moduli_cone(t)
            assert len(mc.equations) == t.fan.ambient_dim * len(t.bounded_edge_ids())

    def test_infeasible_cycle_flagged(self):
        mc = moduli_cone(_infeasible_two_cycle())
        assert mc.forced_zero_lengths == ("c1", "c2")
        assert not mc.has_positive_point
        assert mc.dim == 2  # translations of the merged point remain

    def test_strict_mode_pins_origin(self):
        # one vertex forced into the zero cone of a strict fan: no moduli
        fan = build_fan(2, [[(1, 0)], [(0, 1)], [(-1, -1)]], embedded=False)
        m = three_rays(2)
        m2 = stable_map(m.curve, fan, m.positions, m.edge_data)
        mc = moduli_cone(combinatorial_type(m2))
        assert mc.dim == 0

    def test_strict_mode_ray_vertex(self):
        fan = build_fan(1, [[(1,)], [(-1,)]], embedded=False)
        vs = [Vertex("o"), Vertex("q1"), Vertex("q2")]
        es = [Edge("r1", ("o", "q1"), INF), Edge("r2", ("o", "q2"), INF)]
        mk = [Marking("p1", "q1"), Marking("p2", "q2")]
        c = tropical_curve(vs, es, mk)
        m = stable_map(
            c, fan, {"o": (2,)},
            {"r1": EdgeMapData((1,), 1, "o"), "r2": EdgeMapData((-1,), 1, "o")},
        )
        mc = moduli_cone(combinatorial_type(m))
        assert mc.dim == 1  # the vertex slides along the ray


class TestCycleSpaceDimension:
    """The embedded dimension, computed on the cycle space of the lengths,
    against elimination over the full edge equations."""

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 2), (1, 4), (2, 3), (1, 5), (2, 4), (3, 3)])
    def test_rectangle_cycles(self, a, b):
        mc = moduli_cone(combinatorial_type(rectangle_cycle(a, b)))
        assert mc.dim == _oracle_dim(mc) == 2 * (a + b) + 1

    def test_fixtures(self):
        maps = (three_rays(2), three_rays(3), path_two_vertices(), square_loop(), speyer_tree(), hat_demo())
        types = [combinatorial_type(m) for m in maps]
        for t in types + [_infeasible_two_cycle(), _partly_forced_cycle()]:
            mc = moduli_cone(t)
            assert mc.dim == _oracle_dim(mc)

    def test_random_feasible(self):
        rng = random.Random(424242)
        for _ in range(40):
            mc = moduli_cone(combinatorial_type(random_feasible_map(rng)))
            assert mc.dim == _oracle_dim(mc)

    def test_partly_forced_lengths(self):
        # the all-positive LP fails, so support comes from the per-edge LPs
        mc = moduli_cone(_partly_forced_cycle())
        assert mc.forced_zero_lengths == ("c1", "c2")
        assert not mc.has_positive_point
        assert mc.dim == _oracle_dim(mc) == 3  # translations plus the bridge

    def test_support_skips_covered_coordinates(self, monkeypatch):
        calls = []
        real = moduli.solve_nonneg

        def counting(rows, rhs):
            calls.append(rhs)
            return real(rows, rhs)

        monkeypatch.setattr(moduli, "solve_nonneg", counting)
        rows = [[Fraction(x) for x in r] for r in ((1, -1, 0, 0), (0, 0, 1, 1))]
        support, point = moduli._nonneg_support(rows, 4)
        assert support == {0, 1}
        assert point[0] > 0 and point[1] > 0 and point[2] == point[3] == 0
        assert all(sum(c * x for c, x in zip(r, point)) == 0 for r in rows)
        # all coordinates at once, then x0 (whose witness covers x1), x2, x3
        assert len(calls) == 4


class TestMetrics:
    def test_square_loop_superabundant(self):
        cm = cone_metrics(combinatorial_type(square_loop()))
        assert (cm.dim, cm.expected_dim, cm.overvalence, cm.b1) == (5, 4, 0, 1)
        assert cm.superabundant

    def test_three_rays_in_r3(self):
        cm = cone_metrics(combinatorial_type(three_rays(3)))
        assert (cm.dim, cm.expected_dim) == (3, 3)
        assert not cm.superabundant

    def test_overvalence_five_valent(self):
        rays = [
            ("r1", "o", (1, 0), 2, "p1"),
            ("r2", "o", (0, 1), 1, "p2"),
            ("r3", "o", (-1, 0), 1, "p3"),
            ("r4", "o", (0, -1), 1, "p4"),
            ("r5", "o", (-1, 0), 1, "p5"),
        ]
        m = build_map(2, ["o"], [], rays, {"o": (0, 0)})
        assert overvalence(combinatorial_type(m)) == 2  # 5 - 3 per the formula

    def test_self_loop_counts_double(self):
        t = combinatorial_type(speyer_tree())
        # v0 carries a loop plus two edges: valence 4, contributes 1; B is 4-valent
        assert overvalence(t) == 2

    def test_expected_is_lower_bound_embedded(self):
        # property holds in embedded mode (and only there is it asserted)
        rng = random.Random(424242)
        for _ in range(40):
            cm = cone_metrics(combinatorial_type(random_feasible_map(rng)))
            assert cm.dim >= cm.expected_dim
        for m in (square_loop(), speyer_tree(), hat_demo(), three_rays(3)):
            cm = cone_metrics(combinatorial_type(m))
            assert cm.dim >= cm.expected_dim


class TestContractType:
    def test_cycle_edge(self):
        t = combinatorial_type(square_loop())
        tri = contract_type(t, ["s0"])
        assert betti_and_genus(tri.graph) == (1, 1)
        assert set(tri.bounded_edge_ids()) == {"s1", "s2", "s3"}
        # decorations survive; the tail id is remapped onto the merged vertex
        assert (tri.edge_data["s1"].u, tri.edge_data["s1"].w) == (
            t.edge_data["s1"].u,
            t.edge_data["s1"].w,
        )
        assert tri.edge_data["s2"] == t.edge_data["s2"]

    def test_contract_all(self):
        t = combinatorial_type(square_loop())
        pt = contract_type(t, t.bounded_edge_ids())
        finite = [v for v in pt.graph.vertices if not v.id.startswith("inf")]
        assert len(finite) == 1 and finite[0].genus == 1
        assert betti_and_genus(pt.graph) == (0, 1)

    def test_contract_nothing(self):
        t = canonical_type(combinatorial_type(square_loop()))
        assert contract_type(t, []) == t

    def test_marked_refused(self):
        t = combinatorial_type(square_loop())
        with pytest.raises(ValueError):
            contract_type(t, ["m0"])


class TestIsFace:
    def test_triangle_of_square(self):
        t = combinatorial_type(square_loop())
        tri = contract_type(t, ["s0"])
        w = is_face(tri, t)
        assert w is not None and w.contracted_edges == ("s0",)
        assert set(w.vertex_map.values()) <= {v.id for v in tri.graph.vertices}

    def test_identity(self):
        t = combinatorial_type(square_loop())
        w = is_face(t, t)
        assert w is not None and w.contracted_edges == ()

    def test_genus_mismatch_absent(self):
        assert is_face(combinatorial_type(three_rays(3)), combinatorial_type(square_loop())) is None

    def test_face_dim_monotone(self):
        t = combinatorial_type(square_loop())
        tri = contract_type(t, ["s0"])
        assert moduli_cone(tri).dim <= moduli_cone(t).dim
        assert is_face(tri, t) is not None

    def test_cap(self):
        n = 18
        vs = [Vertex(f"w{i:02d}") for i in range(n)]
        es = [Edge(f"e{i:02d}", (f"w{i:02d}", f"w{i + 1:02d}"), Fraction(1)) for i in range(n - 1)]
        c = tropical_curve(vs, es, [])
        fan = auto_rays_fan(2, [(1, 0)], embedded=True)
        data = {e.id: EdgeMapData((1, 0), 1, e.ends[0]) for e in es}
        wide = make_type(c, fan, data)
        with pytest.raises(ValueError, match="capped"):
            is_face(wide, wide)


class TestFamilies:
    def test_single_edge_contraction(self):
        t = combinatorial_type(path_two_vertices())
        fam = make_family(t, {"e": affine(1, -1)})
        lim = limit_of_family(fam, 1)
        assert lim.contracted_edges == ("e",)
        finite = [v for v in lim.type.graph.vertices if not v.id.startswith("inf")]
        assert len(finite) == 1
        assert is_face(lim.type, t) is not None

    def test_constant_family(self):
        t = combinatorial_type(path_two_vertices())
        fam = make_family(t, {"e": affine(2)})
        lim = limit_of_family(fam, 1)
        assert lim.contracted_edges == ()
        assert canonical_type(lim.type) == canonical_type(t)
        member = evaluate_family(fam, Fraction(1, 3))
        assert validate_map(member) == []

    def test_positive_on_interval_enforced(self):
        t = combinatorial_type(path_two_vertices())
        with pytest.raises(ValueError):
            make_family(t, {"e": affine(1, -2)})  # negative before t = 1
        with pytest.raises(ValueError):
            make_family(t, {"e": affine(0, 1)})  # zero at t = 0

    def test_inconsistent_positions_rejected(self):
        t = combinatorial_type(path_two_vertices())
        pos = {
            "x": (affine(0), affine(0)),
            "y": (affine(5), affine(0)),  # violates the edge equation
        }
        with pytest.raises(ValueError):
            make_family(t, {"e": affine(1)}, positions=pos)

    def test_strict_contraction_merges_into_common_face(self):
        # a vertex at the origin (zero cone) merging with a vertex on a ray:
        # the merged vertex lands in the largest common face, the zero cone
        fan = build_fan(1, [[(1,)], [(-1,)]], embedded=False)
        vs = [Vertex("o"), Vertex("x"), Vertex("q1"), Vertex("q2"), Vertex("q3")]
        es = [
            Edge("e", ("o", "x"), Fraction(2)),
            Edge("r1", ("o", "q1"), INF),
            Edge("r2", ("x", "q2"), INF),
            Edge("r3", ("x", "q3"), INF),
        ]
        mk = [Marking("p1", "q1"), Marking("p2", "q2"), Marking("p3", "q3")]
        c = tropical_curve(vs, es, mk)
        data = {
            "e": EdgeMapData((1,), 1, "o"),
            "r1": EdgeMapData((-1,), 1, "o"),
            "r2": EdgeMapData((1,), 2, "x"),
            "r3": EdgeMapData((-1,), 1, "x"),
        }
        m = stable_map(c, fan, {"o": (0,), "x": (2,)}, data)
        assert validate_map(m) == []
        t = combinatorial_type(m)
        assert t.vertex_cones["o"].rays == ()
        assert t.vertex_cones["x"].rays == ((1,),)
        merged = contract_type(t, ["e"])
        assert merged.vertex_cones["o"].rays == ()
        fam = make_family(t, {"e": affine(2, -2)})
        lim = limit_of_family(fam, 1)
        assert lim.contracted_edges == ("e",)
        assert is_face(lim.type, t) is not None

    def test_strict_family_position_exits_cone(self):
        fan = build_fan(1, [[(1,)]], embedded=False)
        vs = [Vertex("o"), Vertex("x"), Vertex("q1"), Vertex("q2"), Vertex("q3")]
        es = [
            Edge("e", ("o", "x"), Fraction(2)),
            Edge("r1", ("o", "q1"), INF),
            Edge("r2", ("x", "q2"), INF),
            Edge("r3", ("x", "q3"), INF),
        ]
        mk = [Marking("p1", "q1"), Marking("p2", "q2"), Marking("p3", "q3")]
        c = tropical_curve(vs, es, mk)
        data = {
            "e": EdgeMapData((1,), 1, "o"),
            "r1": EdgeMapData((-1,), 1, "o"),
            "r2": EdgeMapData((1,), 2, "x"),
            "r3": EdgeMapData((-1,), 1, "x"),
        }
        m = stable_map(c, fan, {"o": (1,), "x": (3,)}, data)
        t = combinatorial_type(m)
        base = (affine(1, -4),)  # the base vertex walks out of the ray cone
        with pytest.raises(ValueError, match="exits its cone"):
            make_family(t, {"e": affine(2)}, base_vertex="o", base_position=base)

    def test_square_loop_family_keeps_cycle_closed(self):
        t = combinatorial_type(square_loop())
        lengths = {
            "s0": affine(1, -1),
            "s2": affine(1, -1),
            "s1": affine(1),
            "s3": affine(1),
        }
        fam = make_family(t, lengths)
        lim = limit_of_family(fam, 1)
        assert lim.contracted_edges == ("s0", "s2")
        assert validate_map(lim.map) == []
        assert is_face(lim.type, t) is not None

    def test_out_of_range(self):
        t = combinatorial_type(path_two_vertices())
        fam = make_family(t, {"e": affine(1)})
        with pytest.raises(ValueError):
            limit_of_family(fam, Fraction(3, 2))


class TestSampleInterior:
    def test_square_loop_opposite_sides(self):
        mc = moduli_cone(combinatorial_type(square_loop()))
        m = sample_interior(mc, 1)
        lengths = {e.id: e.length for e in m.curve.edges if not m.curve.is_marked_leaf_edge(e)}
        assert lengths["s0"] == lengths["s2"] > 0
        assert lengths["s1"] == lengths["s3"] > 0
        assert validate_map(m) == []

    def test_three_rays_rational_point(self):
        mc = moduli_cone(combinatorial_type(three_rays(2)))
        m = sample_interior(mc, 3)
        assert validate_map(m) == []

    def test_infeasible_raises(self):
        mc = moduli_cone(_infeasible_two_cycle())
        with pytest.raises(InfeasibleCone):
            sample_interior(mc, 0)

    def test_round_trip_gallery(self):
        for m in (square_loop(), speyer_tree(), hat_demo(), path_two_vertices()):
            t = combinatorial_type(m)
            mc = moduli_cone(t)
            for seed in (0, 1, 2):
                s = sample_interior(mc, seed)
                assert canonical_type(combinatorial_type(s)) == canonical_type(t)

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(10):
            t = combinatorial_type(random_feasible_map(rng))
            s = sample_interior(moduli_cone(t), rng.randrange(1000))
            assert canonical_type(combinatorial_type(s)) == canonical_type(t)

    def test_determinism(self):
        mc = moduli_cone(combinatorial_type(square_loop()))
        assert sample_interior(mc, 5) == sample_interior(mc, 5)
