"""Rationals, exact elimination, cones, and fans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropmap import combinatorial_type, moduli_cone
from tropmap.exactgeom import (
    auto_rays_fan,
    build_fan,
    complete_orthant_fan,
    cone,
    cone_contains,
    cone_faces,
    cone_is_face,
    cone_is_pointed,
    cone_locate,
    fan,
    fan_validate,
    format_rational,
    lp_feasible,
    parse_rational,
    rank,
    ratvec,
    solve_nonneg,
    transpose,
    zero_cone,
)

from oracles import bareiss_rank


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational("2/4") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "a", "1/0", None, 2.5, True])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_canonical(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-4, 2)) == "-2"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(0) == "0"
        assert format_rational(3) == "3"
        assert format_rational(-2) == "-2"

    @given(st.fractions())
    def test_roundtrip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestRank:
    def test_identity(self):
        eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert rank(eye) == 3

    def test_dependent_rows(self):
        rows = [ratvec(r) for r in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]]
        assert rank(rows) == 2

    def test_empty(self):
        assert rank([]) == 0

    def test_square_loop_closing_matrix(self):
        # 12x16 system of the planar square-loop type; frozen value 11 was
        # computed with the Bareiss oracle before wiring up the modules
        from tropmap.gallery import square_loop

        eq = moduli_cone(combinatorial_type(square_loop())).equations
        assert len(eq) == 12 and len(eq[0]) == 16
        assert bareiss_rank(eq) == 11
        assert rank(eq) == 11

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda nr: st.integers(1, 8).flatmap(
                lambda nc: st.lists(
                    st.lists(
                        st.fractions(
                            max_denominator=6, min_value=-5, max_value=5
                        ),
                        min_size=nc,
                        max_size=nc,
                    ),
                    min_size=nr,
                    max_size=nr,
                )
            )
        )
    )
    def test_rank_transpose_and_oracle(self, rows):
        r = rank(rows)
        assert r == rank(transpose(rows))
        assert r == bareiss_rank(rows)


class TestLp:
    def test_nonneg_solve(self):
        # x + y = 3, x - y = 1 has the nonneg solution (2, 1)
        y = solve_nonneg([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]], [3, 1])
        assert y == [Fraction(2), Fraction(1)]

    def test_nonneg_infeasible(self):
        assert solve_nonneg([[Fraction(1), Fraction(1)]], [Fraction(-2)]) is None

    def test_free_variables(self):
        x = lp_feasible(2, eqs=[((1, 1), 0)], geqs=[((1, -1), 4)])
        assert x is not None and x[0] + x[1] == 0 and x[0] - x[1] >= 4

    def test_geq_with_nonneg(self):
        assert lp_feasible(1, eqs=[((1,), -1)], nonneg=(0,)) is None


class TestCones:
    def test_membership(self):
        c = cone(2, [(1, 0), (1, 2)])
        assert cone_contains(c, ratvec((2, 2)))
        assert not cone_contains(c, ratvec((-1, 0)))
        assert cone_contains(zero_cone(2), ratvec((0, 0)))
        assert not cone_contains(zero_cone(2), ratvec((1, 0)))

    def test_membership_dim_mismatch(self):
        with pytest.raises(ValueError):
            cone_contains(zero_cone(2), ratvec((1, 0, 0)))

    def test_pointed(self):
        assert cone_is_pointed(cone(2, [(1, 0), (0, 1)]))
        assert not cone_is_pointed(cone(2, [(1, 0), (-1, 0)]))

    def test_faces_of_quadrant(self):
        faces = cone_faces(cone(2, [(1, 0), (0, 1)]))
        assert len(faces) == 4  # origin, two rays, the quadrant
        assert zero_cone(2) in faces

    def test_is_face(self):
        quad = cone(2, [(1, 0), (0, 1)])
        assert cone_is_face(cone(2, [(1, 0)]), quad)
        assert cone_is_face(zero_cone(2), quad)
        assert cone_is_face(quad, quad)
        assert not cone_is_face(cone(2, [(1, 1)]), quad)


class TestFans:
    def test_complete_line_fan_valid(self):
        f = complete_orthant_fan(1)
        assert fan_validate(f) == []
        assert len(f.cones) == 3

    def test_missing_zero_cone(self):
        f = fan(2, [cone(2, [(1, 0)])])
        diags = fan_validate(f)
        assert any("zero cone" in d for d in diags)

    def test_non_primitive_ray(self):
        f = fan(2, [zero_cone(2), cone(2, [(2, 0)])])
        diags = fan_validate(f)
        assert any("non-primitive" in d.lower() for d in diags)

    def test_missing_face(self):
        f = fan(2, [zero_cone(2), cone(2, [(1, 0), (0, 1)])])
        diags = fan_validate(f)
        assert any("missing face" in d for d in diags)

    def test_bad_intersection(self):
        f1 = cone(2, [(1, 0), (1, 2)])
        f2 = cone(2, [(1, 1), (1, 3)])
        bad = fan(2, [zero_cone(2), *cone_faces(f1), *cone_faces(f2)])
        diags = fan_validate(bad)
        assert any("common face" in d for d in diags)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_builders_produce_valid_fans(self, n):
        assert fan_validate(complete_orthant_fan(n)) == []
        assert fan_validate(auto_rays_fan(n, [(1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)])) == []

    def test_orthant_fan_counts(self):
        assert len(complete_orthant_fan(2).cones) == 9
        assert len(complete_orthant_fan(3).cones) == 27


class TestConeLocate:
    def test_origin_in_zero_cone(self):
        f = complete_orthant_fan(2)
        assert cone_locate(f, ratvec((0, 0))) == zero_cone(2)

    def test_on_ray(self):
        f = build_fan(2, [[(1, 0)]])
        assert cone_locate(f, ratvec((3, 0))) == cone(2, [(1, 0)])

    def test_outside_support(self):
        f = build_fan(2, [[(1, 0)]])
        assert cone_locate(f, ratvec((0, 1))) is None

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cone_locate(complete_orthant_fan(2), ratvec((1, 0, 0)))

    def test_relint_property(self):
        # locate returns a cone whose proper faces all miss the point
        f = complete_orthant_fan(2)
        p = ratvec((1, 1))
        located = cone_locate(f, p)
        assert cone_contains(located, p)
        for face in cone_faces(located):
            if face != located:
                assert not cone_contains(face, p)
