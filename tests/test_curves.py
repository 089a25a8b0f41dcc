"""Curves: validation, genus bookkeeping, contraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropmap import (
    INF,
    betti_and_genus,
    contract_edge,
    contract_edges,
    curve_lints,
    discrete_data,
    is_smooth,
    tropical_curve,
    validate_curve,
    validate_discrete_data,
)
from tropmap.curves import Edge, Marking, Vertex
from tropmap.exactgeom import auto_rays_fan

from builders import random_connected_multigraph
from oracles import euler_betti, ref_contract_edge


def _segment():
    return tropical_curve(
        [Vertex("a"), Vertex("b")],
        [Edge("e", ("a", "b"), Fraction(2))],
    )


def _square_cycle_marked():
    vs = [Vertex(f"c{i}") for i in range(4)] + [Vertex(f"q{i}") for i in range(4)]
    es = [Edge(f"s{i}", (f"c{i}", f"c{(i + 1) % 4}"), Fraction(1)) for i in range(4)]
    es += [Edge(f"l{i}", (f"c{i}", f"q{i}"), INF) for i in range(4)]
    mk = [Marking(f"p{i}", f"q{i}") for i in range(4)]
    return tropical_curve(vs, es, mk)


class TestValidate:
    def test_single_genus_one_vertex(self):
        c = tropical_curve([Vertex("v", 1)], [])
        assert validate_curve(c) == []

    def test_marked_leaf_finite_length(self):
        c = tropical_curve(
            [Vertex("a"), Vertex("q")],
            [Edge("e", ("a", "q"), Fraction(1))],
            [Marking("p1", "q")],
        )
        diags = validate_curve(c)
        assert any("infinite length" in d for d in diags)

    def test_disconnected(self):
        c = tropical_curve([Vertex("a"), Vertex("b")], [])
        assert any("disconnected" in d for d in validate_curve(c))

    def test_marked_vertex_constraints(self):
        c = tropical_curve(
            [Vertex("a"), Vertex("q", 1)],
            [Edge("e", ("a", "q"), INF)],
            [Marking("p1", "q")],
        )
        assert any("genus" in d for d in validate_curve(c))

    def test_negative_length(self):
        c = tropical_curve([Vertex("a"), Vertex("b")], [Edge("e", ("a", "b"), Fraction(-1))])
        assert any("negative length" in d for d in validate_curve(c))

    def test_lint_unmarked_leaf(self):
        c = _segment()
        assert validate_curve(c) == []
        assert len(curve_lints(c)) == 2  # both endpoints are bare leaves


class TestBettiGenus:
    def test_single_vertex(self):
        assert betti_and_genus(tropical_curve([Vertex("v", 1)], [])) == (0, 1)

    def test_self_loop(self):
        c = tropical_curve([Vertex("v")], [Edge("l", ("v", "v"), Fraction(1))])
        assert betti_and_genus(c) == (1, 1)

    def test_square_cycle_with_marked_leaves(self):
        # E = 8, V = 8 including the four marked leaves: b1 = 1
        assert betti_and_genus(_square_cycle_marked()) == (1, 1)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            betti_and_genus(tropical_curve([Vertex("a"), Vertex("b")], []))


class TestSmooth:
    def test_marked_cycle_smooth(self):
        assert is_smooth(_square_cycle_marked())

    def test_internal_infinite_edge(self):
        c = tropical_curve([Vertex("a"), Vertex("b")], [Edge("e", ("a", "b"), INF)])
        assert not is_smooth(c)

    def test_single_vertex_smooth(self):
        assert is_smooth(tropical_curve([Vertex("v")], []))


class TestContract:
    def test_merge_segment(self):
        c = contract_edge(_segment(), "e")
        assert [v.id for v in c.vertices] == ["a"]
        assert c.vertex("a").genus == 0

    def test_self_loop_bump(self):
        c = tropical_curve([Vertex("v")], [Edge("l", ("v", "v"), Fraction(1))])
        out = contract_edge(c, "l")
        assert out.vertex("v").genus == 1
        assert betti_and_genus(out) == (0, 1)

    def test_square_to_triangle(self):
        c = contract_edge(_square_cycle_marked(), "s0")
        b1, g = betti_and_genus(c)
        assert (b1, g) == (1, 1)
        assert len([e for e in c.edges if e.id.startswith("s")]) == 3

    def test_marked_leaf_refused(self):
        with pytest.raises(ValueError):
            contract_edge(_square_cycle_marked(), "l0")

    def test_genus_merge(self):
        c = tropical_curve(
            [Vertex("a", 1), Vertex("b", 2)], [Edge("e", ("a", "b"), Fraction(1))]
        )
        out = contract_edge(c, "e")
        assert out.vertex("a").genus == 3


class TestRandomGraphProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_euler_and_contraction(self, seed):
        rng = random.Random(seed)
        c = random_connected_multigraph(rng)
        b1, g = betti_and_genus(c)
        pairs = [
            tuple(int(v[1:]) for v in e.ends) for e in c.edges
        ]
        assert b1 == euler_betti(len(c.vertices), pairs)
        assert b1 == len(c.edges) - len(c.vertices) + 1
        for e in c.edges:
            out = contract_edge(c, e.id)
            assert betti_and_genus(out)[1] == g
            assert out.markings == c.markings
            if e.ends[0] == e.ends[1]:
                assert betti_and_genus(out)[0] == b1 - 1


def _with_marked_leaves(rng: random.Random, c):
    """The curve with a marked leaf-edge at a random subset of its
    genus-zero vertices."""
    vertices, edges, markings = list(c.vertices), list(c.edges), []
    for v in c.vertices:
        if v.genus == 0 and rng.random() < 0.5:
            vertices.append(Vertex(f"inf:{v.id}"))
            edges.append(Edge(f"l{v.id}", (v.id, f"inf:{v.id}"), INF))
            markings.append(Marking(f"p{v.id}", f"inf:{v.id}"))
    return tropical_curve(vertices, edges, markings)


def _fold(c, edge_ids):
    for eid in sorted(edge_ids):
        c = ref_contract_edge(c, eid)
    return c


class TestContractEdges:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_equals_the_per_edge_fold(self, seed):
        rng = random.Random(seed)
        c = _with_marked_leaves(rng, random_connected_multigraph(rng))
        inner = [e.id for e in c.edges if not c.is_marked_leaf_edge(e)]
        subset = [eid for eid in inner if rng.random() < 0.5]
        out, vmap = contract_edges(c, subset)
        assert out == _fold(c, subset)
        survivors = {v.id for v in out.vertices}
        assert set(vmap) == {v.id for v in c.vertices}
        assert all(vmap[s] == s for s in survivors)
        assert all(vmap[v] in survivors and vmap[v] <= v for v in vmap)
        assert all(vmap[c.edge(eid).ends[0]] == vmap[c.edge(eid).ends[1]] for eid in subset)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_refusals_match_the_fold(self, seed):
        rng = random.Random(seed)
        c = _with_marked_leaves(rng, random_connected_multigraph(rng))
        # marked leaf-edges may be drawn; unknown ids sort first or last
        subset = [e.id for e in c.edges if rng.random() < 0.5] + rng.choice([[], ["a"], ["z"]])
        try:
            expected = _fold(c, subset)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                contract_edges(c, subset)
            assert str(info.value) == str(exc)
        else:
            assert contract_edges(c, subset)[0] == expected

    def test_unknown_ends_are_tolerated(self):
        vs = [Vertex("a"), Vertex("b")]
        loose = Edge("e", ("a", "z"), Fraction(1))
        c = tropical_curve(vs, [loose, Edge("f", ("a", "b"), Fraction(1))])
        assert validate_curve(c) == ["edge e references unknown vertex z"]
        out, vmap = contract_edges(c, ["f"])
        assert out.edges == (loose,) and vmap == {"a": "a", "b": "a"}
        apart = tropical_curve(vs, [loose, Edge("g", ("y", "z"), Fraction(1))])
        assert validate_curve(apart) == [
            "edge e references unknown vertex z",
            "edge g references unknown vertex y",
            "edge g references unknown vertex z",
            "curve is disconnected",
        ]


class TestDiscreteData:
    def test_contact_on_ray(self):
        f = auto_rays_fan(2, [(1, 0), (0, 1), (-1, -1)])
        d = discrete_data(0, {"p1": (2, 0), "p2": (0, 1), "p3": (-2, -2)})
        # p2 slot intentionally unbalanced; only the per-ray condition is checked here
        assert validate_discrete_data(d, f) == []

    def test_contact_off_ray(self):
        f = auto_rays_fan(2, [(1, 0)])
        d = discrete_data(0, {"p1": (1, 1)})
        assert any("ray" in x for x in validate_discrete_data(d, f))

    def test_zero_contact_allowed(self):
        f = auto_rays_fan(2, [(1, 0)])
        d = discrete_data(1, {"p1": (0, 0)})
        assert validate_discrete_data(d, f) == []
