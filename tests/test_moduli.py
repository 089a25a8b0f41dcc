"""Moduli cones: dimension, metrics, contraction, faces, families, sampling."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropmap import curves, exactgeom, moduli
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
from tropmap.exactgeom import auto_rays_fan, build_fan, complete_orthant_fan, cone, rank
from tropmap.gallery import gallery_map, hat_demo, speyer_tree, square_loop
from tropmap.maps import EdgeMapData, make_type, stable_map
from tropmap.wellspaced import build_figure1_family

from builders import (
    build_map,
    path_two_vertices,
    random_feasible_map,
    rectangle_cycle,
    rectangle_family,
    strict_unstable_member_family,
    three_rays,
)
from oracles import bareiss_rank, dense_equations, dense_pull_back


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


def _strict_segment(fan, positions):
    """Two vertices o, x on a line joined by an edge of length 2 in a strict
    one-dimensional fan, o with one ray and x with two."""
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
    return stable_map(c, fan, positions, data)


def _strict_ray_vertex():
    fan = build_fan(1, [[(1,)], [(-1,)]], embedded=False)
    vs = [Vertex("o"), Vertex("q1"), Vertex("q2")]
    es = [Edge("r1", ("o", "q1"), INF), Edge("r2", ("o", "q2"), INF)]
    mk = [Marking("p1", "q1"), Marking("p2", "q2")]
    c = tropical_curve(vs, es, mk)
    return stable_map(
        c, fan, {"o": (2,)},
        {"r1": EdgeMapData((1,), 1, "o"), "r2": EdgeMapData((-1,), 1, "o")},
    )


def _strict_origin():
    fan = build_fan(2, [[(1, 0)], [(0, 1)], [(-1, -1)]], embedded=False)
    m = three_rays(2)
    return stable_map(m.curve, fan, m.positions, m.edge_data)


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
    return len(mc.variables) - bareiss_rank(list(dense_equations(mc.type)) + selectors)


class TestModuliCone:
    def test_three_rays_translations_only(self):
        mc = moduli_cone(combinatorial_type(three_rays(2)))
        assert len(mc.variables) == 2
        assert dense_equations(mc.type) == ()
        assert mc.dim == 2

    def test_path_rank_and_dim(self):
        mc = moduli_cone(combinatorial_type(path_two_vertices()))
        assert len(mc.variables) == 5
        eqs = dense_equations(mc.type)
        assert len(eqs) == 2
        assert rank(eqs) == 2
        assert mc.dim == 3

    def test_square_loop(self):
        mc = moduli_cone(combinatorial_type(square_loop()))
        assert len(mc.variables) == 16
        eqs = dense_equations(mc.type)
        assert len(eqs) == 12
        assert rank(eqs) == 11
        assert mc.dim == 5
        assert mc.has_positive_point

    def test_rows_per_edge(self):
        for m in (square_loop(), path_two_vertices(), speyer_tree()):
            t = combinatorial_type(m)
            mc = moduli_cone(t)
            assert len(dense_equations(t)) == t.fan.ambient_dim * len(t.bounded_edge_ids())
            assert len(mc.equations) == len(t.bounded_edge_ids())

    def test_infeasible_cycle_flagged(self):
        mc = moduli_cone(_infeasible_two_cycle())
        assert mc.forced_zero_lengths == ("c1", "c2")
        assert not mc.has_positive_point
        assert mc.dim == 2  # translations of the merged point remain

    def test_strict_mode_pins_origin(self):
        # one vertex forced into the zero cone of a strict fan: no moduli
        mc = moduli_cone(combinatorial_type(_strict_origin()))
        assert mc.dim == 0

    def test_strict_mode_ray_vertex(self):
        mc = moduli_cone(combinatorial_type(_strict_ray_vertex()))
        assert mc.dim == 1  # the vertex slides along the ray


class TestStrictGeneratorRows:
    """The strict-mode edge equations over the ray and length coordinates,
    built edge by edge, against the dense pull-back of the full equations."""

    @staticmethod
    def _check(t):
        _, rows = moduli._strict_generator_system(t, moduli._edge_equations(t))
        assert rows == dense_pull_back(t, dense_equations(t))

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_rectangle_cycles(self, a, b):
        m = rectangle_cycle(a, b)
        fan = complete_orthant_fan(3, embedded=False)
        self._check(combinatorial_type(stable_map(m.curve, fan, m.positions, m.edge_data)))

    def test_fixtures(self):
        line = build_fan(1, [[(1,)], [(-1,)]], embedded=False)
        maps = [_strict_origin(), _strict_ray_vertex(), _strict_segment(line, {"o": (0,), "x": (2,)})]
        fam = strict_unstable_member_family()
        types = [combinatorial_type(m) for m in maps] + [fam.type, limit_of_family(fam, 1).type]
        for t in types:
            self._check(t)


def _expand(mc):
    """The sparse edge equations of ``mc`` written out as dense rows over
    ``mc.variables``."""
    index = {v: i for i, v in enumerate(mc.variables)}
    rows = []
    for eq in mc.equations:
        for k, x in enumerate(eq.wu):
            row = [Fraction(0)] * len(mc.variables)
            if eq.head != eq.tail:
                row[index[f"pos:{eq.head}:{k}"]] += 1
                row[index[f"pos:{eq.tail}:{k}"]] -= 1
            row[index[f"len:{eq.edge}"]] -= x
            rows.append(tuple(row))
    return tuple(rows)


class TestSparseEquations:
    """One (edge, head, tail, w*u) entry per bounded edge, written out over
    the variables, is the dense oracle matrix."""

    def test_gallery(self):
        for m in (square_loop(), speyer_tree(), hat_demo(), gallery_map("figure1", 3, Fraction(1, 2))):
            mc = moduli_cone(combinatorial_type(m))
            assert _expand(mc) == dense_equations(mc.type)

    @pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 3), (3, 3)])
    def test_rectangle_cycles(self, a, b):
        mc = moduli_cone(combinatorial_type(rectangle_cycle(a, b)))
        assert _expand(mc) == dense_equations(mc.type)

    def test_strict_fan_types(self):
        m = rectangle_cycle(2, 1)
        rect = stable_map(m.curve, complete_orthant_fan(3, embedded=False), m.positions, m.edge_data)
        fam = strict_unstable_member_family()
        types = [combinatorial_type(x) for x in (rect, _strict_origin(), _strict_ray_vertex())]
        for t in types + [fam.type, limit_of_family(fam, 1).type]:
            mc = moduli_cone(t)
            assert _expand(mc) == dense_equations(t)


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

    def test_type_cones_are_not_canonicalized_again(self, monkeypatch):
        fam = build_figure1_family(3)
        limit = limit_of_family(fam, 1)
        calls = []
        real = exactgeom.canonical_cone

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(exactgeom, "canonical_cone", counting)
        monkeypatch.setattr("tropmap.maps.canonical_cone", counting)
        assert is_face(limit.type, fam.type) is not None
        assert len(calls) == 20  # all from cone_is_face in the vertex check

    def test_one_curve_rebuild_per_subset_tried(self, monkeypatch):
        calls = []
        real = curves.tropical_curve

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def signature(t, eid):
            d = t.edge_data[eid]
            return d.w, max(d.u, tuple(-x for x in d.u))

        # figure1: only the witness carries the edge classes the face lacks;
        # the rectangle: only vertical edges may contract, and the witness
        # is the third such subset
        cases = [(build_figure1_family(3), 1), (rectangle_family(1, 2, {"s1", "s5"}), 3)]
        cases = [(fam, limit_of_family(fam, 1).type, tried) for fam, tried in cases]
        monkeypatch.setattr(curves, "tropical_curve", counting)
        for fam, limit, tried in cases:
            bounded = fam.type.bounded_edge_ids()
            surplus = Counter(signature(fam.type, e) for e in bounded)
            surplus.subtract(signature(limit, e) for e in limit.bounded_edge_ids())
            compatible = [
                s
                for s in itertools.combinations(bounded, len(bounded) - len(limit.bounded_edge_ids()))
                if Counter(signature(fam.type, e) for e in s) == +surplus
            ]
            calls.clear()
            w = is_face(limit, fam.type)
            assert len(calls) == compatible.index(w.contracted_edges) + 1 == tried

    def test_overlapping_vertex_cones_raise(self):
        # two cones of an invalid fan overlap in a cone that is a face of
        # neither: contracting the edge between their vertices is an error,
        # not a failed match
        fan = build_fan(2, [[(1, 0), (0, 1)], [(1, 1), (1, -1)]], embedded=False)
        c = tropical_curve([Vertex("x"), Vertex("y")], [Edge("e", ("x", "y"), Fraction(1))])
        cones = {"x": cone(2, [(1, 0), (0, 1)]), "y": cone(2, [(1, 1), (1, -1)])}
        tb = make_type(c, fan, {"e": EdgeMapData((1, 0), 1, "x")}, cones)
        ta = make_type(tropical_curve([Vertex("x")], []), fan, {})
        with pytest.raises(ValueError, match="cones do not meet in a common face"):
            is_face(ta, tb)


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
        m = _strict_segment(fan, {"o": (0,), "x": (2,)})
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
        t = combinatorial_type(_strict_segment(fan, {"o": (1,), "x": (3,)}))
        base = (affine(1, -4),)  # the base vertex walks out of the ray cone
        with pytest.raises(ValueError, match="exits its cone"):
            make_family(t, {"e": affine(2)}, base_vertex="o", base_position=base)

    def test_strict_membership_checked_once_per_endpoint(self, monkeypatch):
        calls = []
        real = moduli.cone_contains

        def counting(c, p):
            calls.append(p)
            return real(c, p)

        monkeypatch.setattr(moduli, "cone_contains", counting)
        fam = strict_unstable_member_family()
        # each of the four vertices at t = 0 and at t = 1
        assert len(calls) == 2 * len(fam.positions) == 8

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

    def test_any_finite_base_vertex(self):
        # deriving positions from any finite vertex and its own position in
        # the family gives the family back
        for fam in (build_figure1_family(3), strict_unstable_member_family()):
            for vid in fam.type.graph.unmarked_vertex_ids():
                again = make_family(
                    fam.type, fam.lengths, base_vertex=vid, base_position=fam.positions[vid]
                )
                assert again == fam, vid

    def test_base_vertex_must_be_finite(self):
        fam = build_figure1_family(3)
        for vid in ("nowhere", "q01"):  # unknown, marked
            with pytest.raises(ValueError, match=vid):
                make_family(fam.type, fam.lengths, base_vertex=vid)


def _linearity_families():
    fams = [build_figure1_family(n) for n in range(3, 7)]
    fams.append(strict_unstable_member_family())
    rng = random.Random(31337)
    while len(fams) < 15:
        m = random_feasible_map(rng)
        bounded = [e for e in m.curve.edges if not m.curve.is_marked_leaf_edge(e)]
        if any(e.length == 0 for e in bounded):
            continue
        # uniform scaling keeps every cycle closed
        lengths = {e.id: affine(e.length, -e.length / 2) for e in bounded}
        fams.append(make_family(combinatorial_type(m), lengths))
    return fams


class TestFamilyPositions:
    """Family positions come from one walk on the constant parts and one on
    the slopes; at every t they must equal the walk on the lengths at t."""

    @pytest.mark.parametrize("t_val", [Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(99, 100)])
    def test_members_match_the_walk(self, t_val):
        for fam in _linearity_families():
            base = fam.type.graph.unmarked_vertex_ids()[0]
            lengths = {eid: fn.at(t_val) for eid, fn in fam.lengths.items()}
            point = tuple(fn.at(t_val) for fn in fam.positions[base])
            walk = moduli._positions_from_lengths(fam.type, lengths, base, point)
            assert evaluate_family(fam, t_val).positions == walk


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

    def test_strict_sample_locates_each_vertex_once(self, monkeypatch):
        m = rectangle_cycle(3, 3)
        strict = stable_map(m.curve, complete_orthant_fan(3, embedded=False), m.positions, m.edge_data)
        mc = moduli_cone(combinatorial_type(strict))
        calls = []
        real = exactgeom.cone_locate

        def counting(f, p):
            calls.append(p)
            return real(f, p)

        monkeypatch.setattr("tropmap.maps.cone_locate", counting)
        sample_interior(mc, 0)
        # one per finite vertex, shared by validation and the type check
        assert len(calls) == len(strict.curve.unmarked_vertex_ids()) == 12
