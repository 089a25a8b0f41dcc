"""Rationals, exact elimination, cones, and fans."""

import collections
import functools
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropmap import combinatorial_type, documents, exactgeom, moduli
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
    fan_cone_intersection,
    fan_validate,
    format_rational,
    integer_nullspace,
    parse_rational,
    rank,
    ratvec,
    rref,
    solve_nonneg,
    zero_cone,
)
from tropmap.wellspaced import build_figure1_family

from builders import fan, rectangle_cycle, strict_unstable_member_family
from oracles import (
    bareiss_rank,
    dense_equations,
    lp_canonical_cone,
    lp_common_face,
    lp_cone_is_pointed,
    lp_cone_locate,
    lp_faces,
    ref_cone_contains,
    ref_cone_faces,
    ref_cone_is_face,
    ref_cone_locate,
    ref_fan_cone_intersection,
    ref_fan_validate,
    ref_lp_feasible,
    ref_nullspace,
    ref_pair_meets_in_common_face,
    ref_rref,
    ref_solve_nonneg,
)

rational_matrices = st.integers(1, 8).flatmap(
    lambda nr: st.integers(1, 8).flatmap(
        lambda nc: st.lists(
            st.lists(
                st.fractions(max_denominator=6, min_value=-5, max_value=5),
                min_size=nc,
                max_size=nc,
            ),
            min_size=nr,
            max_size=nr,
        )
    )
)


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

        eq = dense_equations(combinatorial_type(square_loop()))
        assert len(eq) == 12 and len(eq[0]) == 16
        assert bareiss_rank(eq) == 11
        assert rank(eq) == 11

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices)
    def test_rank_transpose_and_oracle(self, rows):
        r = rank(rows)
        assert r == rank([list(col) for col in zip(*rows)])
        assert r == bareiss_rank(rows)

    @settings(max_examples=80, deadline=None)
    @given(rational_matrices, st.integers(-3, 3))
    def test_echelon_forms_against_fraction_elimination(self, rows, c):
        rows = rows + [[x + c * y for x, y in zip(rows[0], rows[-1])]]  # a dependent row
        red, pivots = rref(rows)
        assert (red, pivots) == ref_rref(rows)
        assert rank(rows) == len(pivots)
        kernel = ref_nullspace(rows)
        free = [c for c in range(len(rows[0])) if c not in pivots]
        assert len(kernel) == len(free)
        for vec, fc in zip(kernel, free):
            assert [vec[c] for c in free] == [int(c == fc) for c in free]
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        scaled = integer_nullspace(rows)
        assert all(type(x) is int for vec in scaled for x in vec)
        assert len(scaled) == len(kernel)
        if kernel:
            scale = scaled[0][free[0]]
            assert scale > 0
            assert [[scale * x for x in vec] for vec in kernel] == [list(vec) for vec in scaled]

    def test_empty_kernels(self):
        assert ref_nullspace([], ncols=2) == integer_nullspace([], ncols=2) == [(1, 0), (0, 1)]
        assert ref_nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [(Fraction(-2, 3), 1)]
        assert integer_nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [(-2, 3)]
        assert integer_nullspace([[1, 0], [0, 2]]) == [] == ref_nullspace([[1, 0], [0, 2]])


class TestLp:
    def test_nonneg_solve(self):
        # x + y = 3, x - y = 1 has the nonneg solution (2, 1)
        y = solve_nonneg([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]], [3, 1])
        assert y == [Fraction(2), Fraction(1)]

    def test_nonneg_infeasible(self):
        assert solve_nonneg([[Fraction(1), Fraction(1)]], [Fraction(-2)]) is None

    def test_free_variables(self):
        x = ref_lp_feasible(2, eqs=[((1, 1), 0)], geqs=[((1, -1), 4)])
        assert x is not None and x[0] + x[1] == 0 and x[0] - x[1] >= 4

    def test_geq_with_nonneg(self):
        assert ref_lp_feasible(1, eqs=[((1,), -1)], nonneg=(0,)) is None

    def test_no_constraints(self):
        assert ref_lp_feasible(2) == [0, 0]

    def test_witnesses_match_the_fraction_simplex_on_random_lps(self):
        rng = random.Random(8080)
        for _ in range(2400):
            rows, rhs = _random_lp(rng)
            _assert_same_witness(rows, rhs)

    def test_rows_are_scaled_by_one_common_denominator(self):
        # scaled by 2 on its own, the first row would cancel the second in
        # the phase-one reduced cost of column 1, and column 2 would enter
        rows = [[-1, Fraction(-1, 2), 1], [0, 1, 1]]
        assert solve_nonneg(rows, [0, 2]) == [0, Fraction(4, 3), Fraction(2, 3)]
        _assert_same_witness(rows, [0, 2])

    def test_witnesses_match_the_fraction_simplex_on_library_lps(self, monkeypatch):
        recorded = []
        real = exactgeom.solve_nonneg

        def recording(rows, rhs):
            recorded.append(([list(r) for r in rows], list(rhs)))
            return real(rows, rhs)

        monkeypatch.setattr(exactgeom, "solve_nonneg", recording)
        monkeypatch.setattr(moduli, "solve_nonneg", recording)
        assert fan_validate(complete_orthant_fan(3)) == []
        assert fan_validate(build_fan(3, [_SQUARE_CONE])) == []  # not simplicial
        for n in (2, 3):
            f = complete_orthant_fan(n)
            for p in itertools.product((-2, 0, 3), repeat=n):
                cone_locate(f, ratvec(p))
        for fam in (build_figure1_family(3), strict_unstable_member_family()):
            assert moduli.is_face(moduli.limit_of_family(fam, 1).type, fam.type) is not None
        mc = moduli.moduli_cone(combinatorial_type(rectangle_cycle(3, 3)))
        moduli.sample_interior(mc, seed=5)
        # membership in a cone on dependent rays is still an LP: locate a
        # grid in the square cone's fan (the square cone itself, 125 LPs),
        # and canonicalize sets of five rays in R^3, one LP per ray
        square = build_fan(3, [_SQUARE_CONE])
        for p in itertools.product(range(-2, 3), repeat=3):
            cone_locate(square, ratvec(p))
        rng = random.Random(2929)
        for _ in range(30):
            rays = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(5)]
            exactgeom.canonical_cone(cone(3, rays))
        # pairs of maximal cones that neither cone's elimination separates
        # keep the common-face LP: the pentagon fan (2 LPs) and seeded
        # complete fans of R^2
        assert fan_validate(build_fan(2, _PENTAGON_CONES)) == []
        for _ in range(12):
            assert fan_validate(_random_complete_fan_2d(rng)) == []
        # a raw collection is validated from its cones alone: the square
        # cone's faces again (one pointedness LP and 14 common-face LPs)
        # and the pentagon fan's two unseparated pairs
        for built in (square, build_fan(2, _PENTAGON_CONES)):
            assert fan_validate(fan(built.ambient_dim, built.cones)) == []
        assert len(recorded) > 300
        for rows, rhs in recorded:
            _assert_same_witness(rows, rhs)


# the cone over a square in R^3: four extreme rays, so no rank test applies
_SQUARE_CONE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]

# the maximal cones of a complete fan of R^2 in which neither elimination
# separates cone((1, 0), (1, 1)) from cone((0, 1), (-1, 0)), nor
# cone((1, 1), (0, 1)) from cone((0, -1), (1, 0)): two common-face LPs
_PENTAGON_CONES = [[(1, 0), (1, 1)], [(1, 1), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]


def _random_complete_fan_2d(rng: random.Random) -> exactgeom.Fan:
    """A complete fan of R^2 on four to seven primitive rays with entries
    in [-3, 3], each two consecutive rays (by angle) less than a half-turn
    apart, so that every maximal cone is pointed."""

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def by_angle(u, v):
        return half(u) - half(v) or -cross(u, v)

    pool = sorted({exactgeom.primitive(v) for v in itertools.product(range(-3, 4), repeat=2) if any(v)})
    while True:
        rays = sorted(rng.sample(pool, rng.randint(4, 7)), key=functools.cmp_to_key(by_angle))
        pairs = list(zip(rays, rays[1:] + rays[:1]))
        if all(cross(u, v) > 0 for u, v in pairs):
            return build_fan(2, pairs)


def _random_lp(rng):
    """A small LP with rational entries; it may have negative right-hand
    sides, zero and duplicate rows, b = 0, or no solution."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)

    def random_row():
        # rows at different scales: Bland's rule must see them unweighted
        den = rng.choice((1, 2, 3, 4, 12))
        return [
            0 if rng.random() < 0.3 else Fraction(rng.randint(-6, 6), rng.choice((1, den)))
            for _ in range(n)
        ]

    rows = [random_row() for _ in range(m)]
    kind = rng.randrange(4)
    if kind == 0:  # feasible by construction, often degenerate
        y = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, y)) for row in rows]
    elif kind == 1:
        rhs = [0] * m
    else:
        rhs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        rows[j], rhs[j] = list(rows[i]), rhs[i] * rng.choice((1, -1, Fraction(1, 2)))
    if rng.random() < 0.15:
        i = rng.randrange(m)
        rows[i] = [0] * n
    return rows, rhs


def _assert_same_witness(rows, rhs):
    got, want = solve_nonneg(rows, rhs), ref_solve_nonneg(rows, rhs)
    assert got == want, (rows, rhs)
    assert got is None or all(type(x) is Fraction for x in got)


class TestCones:
    def test_membership(self):
        c = cone(2, [(1, 0), (1, 2)])
        assert cone_contains(c, ratvec((2, 2)))
        assert not cone_contains(c, ratvec((-1, 0)))
        assert cone_contains(zero_cone(2), ratvec((0, 0)))
        assert not cone_contains(zero_cone(2), ratvec((1, 0)))

    def test_membership_dim_mismatch(self):
        # the zero cone, a simplicial cone (the cached elimination) and a
        # cone on dependent rays (the LP) refuse alike
        for c in (zero_cone(2), cone(2, [(1, 0), (1, 2)]), cone(2, [(1, 0), (1, 2), (0, 1)])):
            for p in ((1,), (1, 0, 0)):
                with pytest.raises(ValueError, match="ambient dimension 2"):
                    cone_contains(c, ratvec(p))
                with pytest.raises(ValueError):
                    ref_cone_contains(c, ratvec(p))

    def test_rays_of_the_wrong_length_are_refused(self):
        # no elimination is cached for them, and the LP paths refuse them
        c = exactgeom.Cone(2, ((1, 0, 0), (0, 1, 0)))
        assert c._frame is None
        for fn in (cone_is_pointed, exactgeom.canonical_cone, cone_faces):
            with pytest.raises(ValueError):
                fn(c)

    def test_pointed(self):
        assert cone_is_pointed(cone(2, [(1, 0), (0, 1)]))
        assert not cone_is_pointed(cone(2, [(1, 0), (-1, 0)]))
        # one ray: the only non-negative dependence is that of a zero ray
        assert cone_is_pointed(cone(2, [(2, -1)]))
        assert not cone_is_pointed(cone(2, [(0, 0)]))

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
        with pytest.raises(ValueError):
            cone_is_face(zero_cone(2), cone(2, [(1, 0), (-1, 0)]))


def _random_rays(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    """k rays in R^n with entries in [-3, 3] that are linearly independent
    by the oracle's rank."""
    while True:
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if bareiss_rank(rays) == k:
            return rays


def _combination(rays, weights, n: int) -> tuple:
    return tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(n))


def _membership_case(rng: random.Random, n: int):
    """One (cone, point, expected) triple in R^n.  The cone is simplicial
    (1 ... n independent rays), raw (such rays plus a zero ray, a duplicate
    or a non-primitive ray, built with ``Cone`` so nothing is dropped) or
    dependent (a combination of its other rays added, or more rays than
    coordinates).  The point is interior, on a proper face, in the span
    outside the cone, or off the span, with int or Fraction coordinates.
    ``expected`` is the answer the construction gives on a simplicial cone,
    else None."""
    kind = rng.choice(("simplicial", "simplicial", "raw", "dependent"))
    k = rng.randint(1, n)
    rays = _random_rays(rng, n, k)
    base = list(rays)
    if kind == "raw":
        extra = rng.choice(("zero", "duplicate", "non-primitive"))
        if extra == "zero":
            rays.append((0,) * n)
        elif extra == "duplicate":
            rays.append(rng.choice(rays))
        else:
            i = rng.randrange(k)
            rays[i] = tuple(rng.choice((2, 3)) * x for x in rays[i])
    elif kind == "dependent":
        if k < n and rng.random() < 0.5:
            rays.append(_combination(base, [rng.randint(-2, 2) for _ in base], n))
        else:
            rays += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 1 - k)]
    fractional = rng.random() < 0.5

    def weight(lo: int, hi: int):
        w = rng.randint(lo, hi)
        return Fraction(w, rng.choice((1, 2, 3, 7))) if fractional else w

    where = rng.choice(("interior", "face", "span", "off") if k < n else ("interior", "face", "span"))
    if where == "interior":
        weights = [weight(1, 5) for _ in base]
    elif where == "face":
        weights = [weight(1, 5) for _ in base]
        for i in rng.sample(range(k), rng.randint(1, k)):
            weights[i] = 0
    else:
        weights = [weight(-3, 5) for _ in base]
        weights[rng.randrange(k)] = weight(-5, -1)
    point = _combination(base, weights, n)
    if where == "off":
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if bareiss_rank(base + [v]) > k:
                break
        point = tuple(x + y for x, y in zip(point, v))
    point = tuple(x if type(x) is int else Fraction(x) for x in point)
    expected = where in ("interior", "face") if kind == "simplicial" else None
    return exactgeom.Cone(n, tuple(rays)), point, expected


class TestMembership:
    def test_against_the_lp_reference(self):
        """cone_contains against the reference LP on 2 400 seeded (cone,
        point) pairs in R^1 ... R^4.  On a simplicial cone the answer is
        also the construction's, and is read off the cached elimination;
        a cone on dependent or zero rays keeps the LP."""
        rng = random.Random(2929)
        seen = collections.Counter()
        for _ in range(2400):
            c, p, expected = _membership_case(rng, rng.randint(1, 4))
            got = cone_contains(c, p)
            assert got == ref_cone_contains(c, p), (c, p)
            if expected is not None:
                assert got == expected, (c, p)
            fast = c._frame is not None
            assert fast == (len(c.rays) <= c.ambient_dim and bareiss_rank(c.rays) == len(c.rays)), c
            seen["frame" if fast else "lp", got] += 1
            seen[type(p[0]).__name__] += 1
        assert len(seen) == 6 and min(seen.values()) >= 100, seen


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

    def test_cone_on_rays_of_another_that_is_not_its_face(self):
        # the diagonal of the cone over a square lies in it, not on a face
        diagonal = [_SQUARE_CONE[0], _SQUARE_CONE[2]]
        f = build_fan(3, [_SQUARE_CONE, diagonal])
        diags = fan_validate(f)
        assert diags == ref_fan_validate(f)
        square, diagonal = f.cones[-1].rays, tuple(sorted(diagonal))
        assert f"cones {diagonal} and {square} do not meet in a common face" in diags

    def test_face_with_a_line_is_no_face(self):
        # canonical_cone reads the four rays, which contain the line through
        # (1, -1), as the wedge on (0, 1) and (1, -1)
        lined = cone(2, [(-2, -1), (-2, 1), (0, 1), (1, -1)])
        wedge = cone(2, [(0, 1), (1, -1)])
        assert exactgeom.canonical_cone(lined) == wedge
        assert not cone_is_face(lined, wedge)
        assert not ref_cone_is_face(lined, wedge)
        assert cone_is_face(wedge, wedge) and ref_cone_is_face(wedge, wedge)
        with pytest.raises(ValueError, match="pointed"):
            cone_is_face(wedge, lined)
        # a cone with a line whose rays are all extreme is no face either
        assert not cone_is_face(cone(2, [(1, 0), (-1, 0)]), wedge)

    def test_face_test_adds_no_lp_where_no_ray_is_dropped(self, monkeypatch):
        # cone_is_face solves the LPs of canonical_cone, cone_is_pointed and
        # _common_face, and no pointedness LP of its own
        lps = []
        real = exactgeom.solve_nonneg
        monkeypatch.setattr(exactgeom, "solve_nonneg", lambda *a: lps.append(a) or real(*a))
        square = cone(3, _SQUARE_CONE)
        for face in cone_faces(square):
            lps.clear()
            assert cone_is_face(face, square)
            want = len(lps)
            lps.clear()
            exactgeom.canonical_cone(face)
            exactgeom.canonical_cone(square)
            exactgeom.cone_is_pointed(square)
            exactgeom._common_face(face, square)
            assert want == len(lps), face

    def test_cone_with_a_line_whose_extreme_rays_are_pointed(self):
        # (0, 1) and (1, -1) generate a pointed cone, but the four rays
        # contain the line through (1, -1); canonical_cone drops the first
        # two as non-extreme
        rays = [(-2, -1), (-2, 1), (0, 1), (1, -1)]
        c = cone(2, rays)
        assert not cone_is_pointed(c)
        assert exactgeom.canonical_cone(c).rays == ((0, 1), (1, -1))
        with pytest.raises(ValueError, match="pointed"):
            cone_faces(c)
        with pytest.raises(ValueError, match="pointed"):
            build_fan(2, [rays])
        f = fan(2, [zero_cone(2), c])
        assert fan_validate(f) == ref_fan_validate(f) == [f"cone {c.rays} is not pointed"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_builders_produce_valid_fans(self, n):
        assert fan_validate(complete_orthant_fan(n)) == []
        assert fan_validate(auto_rays_fan(n, [(1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)])) == []

    def test_one_ray_cones_match_the_general_path(self):
        # a doubled ray is one ray of the cone but two generators, so the
        # second fan is built through canonicalization
        rng = random.Random(1921)
        for _ in range(200):
            n = rng.randint(1, 4)
            rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            assert build_fan(n, [[r] for r in rays]) == build_fan(n, [[r, r] for r in rays])

    def test_orthant_fan_counts(self):
        assert len(complete_orthant_fan(2).cones) == 9
        assert len(complete_orthant_fan(3).cones) == 27

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_fan(2, [[(1, 0, 0)], [(0, 1)]]),
            lambda: build_fan(2, [[(0, 1), (1, 0, 0)]]),
            lambda: auto_rays_fan(2, [(1, 0, 0), (0, 1)]),
        ],
        ids=["one-ray path", "canonicalizing path", "auto_rays_fan"],
    )
    def test_ray_of_the_wrong_length_is_refused(self, monkeypatch, build):
        # before any cone is canonicalized
        calls = []
        real = exactgeom.canonical_cone
        monkeypatch.setattr(exactgeom, "canonical_cone", lambda c: calls.append(c) or real(c))
        with pytest.raises(ValueError, match=r"^ray \(1, 0, 0\) has length 3, expected 2$"):
            build()
        assert calls == []


_STRICT_ORTHANT_FAN_MAP = Path(__file__).parent / "data" / "strict_orthant_fan_map.json"


def _built_fans() -> list[exactgeom.Fan]:
    """The fans the suite builds with ``build_fan``: the orthant fans of
    R^1 ... R^4, the square cone's and the pentagon fan, 12 seeded complete
    fans of R^2 and an ``auto_rays_fan``."""
    rng = random.Random(3131)
    fans = [complete_orthant_fan(n) for n in (1, 2, 3, 4)]
    fans += [build_fan(3, [_SQUARE_CONE]), build_fan(2, _PENTAGON_CONES)]
    fans += [_random_complete_fan_2d(rng) for _ in range(12)]
    fans.append(auto_rays_fan(3, [(1, 0, 0), (0, -2, 0), (1, 1, 1), (-1, 0, 0)]))
    return fans


class TestBuiltFanFaceLists:
    def test_face_lists_are_the_cone_faces(self):
        for f in _built_fans():
            lists = f.face_lists
            assert lists is not None and zero_cone(f.ambient_dim) in lists
            for c, faces in lists.items():
                assert faces == cone_faces(c), c
            # the listed faces are the fan's cones
            assert {face for faces in lists.values() for face in faces} == set(f.cones)
            raw = fan(f.ambient_dim, f.cones, f.embedded)
            assert raw == f and raw.face_lists is None
            assert fan_validate(f) == ref_fan_validate(f) == fan_validate(raw) == []

    def test_overlapping_built_fans_list_the_raw_diagnostics(self):
        # a failing maximal pair sends a built fan through the all-pairs
        # scan, which takes face lists from cone_faces for the cones the
        # build did not enumerate
        overlapping = [list(c) for c in _PENTAGON_CONES]
        overlapping[1] = [(1, 1), (-1, 1)]
        for f in (
            build_fan(2, overlapping),
            build_fan(3, [_SQUARE_CONE, [_SQUARE_CONE[0], _SQUARE_CONE[2]]]),
            build_fan(2, [[(1, 0), (0, 1)], [(1, 0), (1, 1)]]),
            build_fan(2, [[(1, 0), (0, 1)], [(1, 1)]]),
        ):
            diags = fan_validate(f)
            assert diags and diags == ref_fan_validate(f) == fan_validate(fan(f.ambient_dim, f.cones))

    @staticmethod
    def _count_enumerations(monkeypatch) -> collections.Counter:
        """Calls of ``exactgeom._faces`` and ``exactgeom.canonical_cone``
        from now on, by name."""
        calls = collections.Counter()
        for name in ("_faces", "canonical_cone"):
            real = getattr(exactgeom, name)
            monkeypatch.setattr(exactgeom, name, lambda c, name=name, real=real: calls.update([name]) or real(c))
        return calls

    def test_validation_enumerates_nothing_again(self, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        f = complete_orthant_fan(3)
        # one canonical form and one face enumeration per orthant
        assert calls == {"_faces": 8, "canonical_cone": 8}
        calls.clear()
        assert fan_validate(f) == []
        assert calls == {}

    def test_loading_enumerates_each_cone_once(self, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        at_build = []
        build = documents.build_fan

        def counting_build(*args, **kwargs):
            f = build(*args, **kwargs)
            at_build.append(dict(calls))
            return f

        monkeypatch.setattr(documents, "build_fan", counting_build)
        loaded = documents.load_document(_STRICT_ORTHANT_FAN_MAP.read_text())
        assert loaded.document.kind == "map"
        # the document lists all 27 cones: the zero cone, 12 quadrants and
        # 8 octants are canonicalized, and only the octants are enumerated,
        # as their face lists hold every other cone; the 6 rays need
        # neither.  Validation and the map read no cone again
        assert at_build == [{"_faces": 8, "canonical_cone": 21}]
        assert calls == at_build[0]

    def test_overlapping_fan_listing_every_face_enumerates_each_cone_once(self, monkeypatch):
        # the octants of R^3 and a cone inside the first octant, with every
        # face of each listed: only the 3-ray cones are enumerated at build,
        # and the failing maximal pairs send validation through the
        # all-pairs scan, which makes the face list of each other cone that
        # it reads once, however many pairs read it
        inner = cone_faces(cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]))
        listed = [c.rays for c in complete_orthant_fan(3).cones] + [c.rays for c in inner]
        f = build_fan(3, listed, embedded=True)
        assert {c for c, faces in f.face_lists.items() if len(c.rays) == 3} == {
            c for c in f.cones if len(c.rays) == 3
        }
        enumerated = collections.Counter()
        real = exactgeom._faces
        monkeypatch.setattr(exactgeom, "_faces", lambda c: enumerated.update([c]) or real(c))
        diags = fan_validate(f)
        assert len(enumerated) > 10 and set(enumerated.values()) == {1}
        assert not set(enumerated) & set(f.face_lists)
        monkeypatch.undo()
        assert diags and diags == ref_fan_validate(f) == fan_validate(fan(3, f.cones, True))

    def test_listed_faces_are_not_enumerated(self, monkeypatch):
        # the quadrants listed before the octants lie in the octants' face
        # lists, so only the octants are enumerated, in any listing order
        f = complete_orthant_fan(3)
        rng = random.Random(3237)
        for _ in range(5):
            listed = rng.sample(f.cones, len(f.cones))
            calls = self._count_enumerations(monkeypatch)
            built = build_fan(3, [c.rays for c in listed], embedded=True)
            assert calls["_faces"] == 8
            assert built == f and set(built.face_lists) == set(f.face_lists)
            monkeypatch.undo()

    def test_refusals_and_cones_are_those_of_a_list_order_build(self):
        # seeded lists in R^2 and R^3 with opposite rays (cones that are not
        # pointed, some keeping every ray in canonical form), repeated and
        # nested cones and now and then a ray of the wrong length
        rng = random.Random(3238)
        outcomes = collections.Counter()
        for _ in range(400):
            n = rng.choice((2, 3))
            ray_lists = []
            for _ in range(rng.randint(1, 5)):
                rays = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.05:
                    rays.append((1,) * (n + 1))
                ray_lists.append(rays)
            want = _outcome_or_message(_list_order_fan, n, ray_lists)
            got = _outcome_or_message(lambda *a: set(build_fan(*a).cones), n, ray_lists)
            assert got == want, ray_lists
            outcomes[want if isinstance(want, str) else "built"] += 1
        assert outcomes["built"] > 100 and outcomes[exactgeom.NOT_POINTED] > 50
        assert sum(v for k, v in outcomes.items() if k.startswith("ray ")) > 20


def _list_order_fan(n: int, ray_lists) -> set:
    """The cones of a fan built one list at a time, in list order: each
    list's rays checked, its cone put in canonical form and its faces
    enumerated, a cone enumerated before skipped."""
    zero = zero_cone(n)
    lists = {zero: [zero]}
    for rays in ray_lists:
        for r in rays:
            if len(r) != n:
                raise ValueError(f"ray {tuple(r)} has length {len(r)}, expected {n}")
        if len(rays) == 1:
            if any(rays[0]):
                c = cone(n, [exactgeom.primitive(rays[0])])
                lists[c] = [zero, c]
            continue
        c = exactgeom._canonical_pointed(cone(n, rays))
        if len(c.rays) > 14:
            raise ValueError("cone with more than 14 extreme rays: out of desk scale")
        if c not in lists:
            lists[c] = cone_faces(c)
    return {face for faces in lists.values() for face in faces}


def _outcome_or_message(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


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

    def test_overlap_refused_without_an_lp(self, monkeypatch):
        # two simplicial cones that overlap: the second lies in the first
        f = build_fan(2, [[(1, 0), (0, 1)], [(1, 0), (1, 1)]])
        assert len(f.cones) == 6  # with their faces
        p = ratvec((2, 1))  # in the interior of both
        calls = _count_lps(monkeypatch)
        with pytest.raises(ValueError, match="^fan cones overlap or miss a face near the given point$"):
            cone_locate(f, p)
        assert calls == []  # both memberships read cached eliminations
        assert _outcome(lp_cone_locate, f, p) is ValueError  # one LP per cone, same refusal
        diags = fan_validate(f)
        assert diags == ref_fan_validate(f)
        assert "cones ((0, 1), (1, 0)) and ((1, 0), (1, 1)) do not meet in a common face" in diags

    def test_relint_property(self):
        # locate returns a cone whose proper faces all miss the point
        f = complete_orthant_fan(2)
        p = ratvec((1, 1))
        located = cone_locate(f, p)
        assert cone_contains(located, p)
        for face in cone_faces(located):
            if face != located:
                assert not cone_contains(face, p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _random_fan(rng: random.Random):
    """A build_fan fan in R^2 (three draws in four) or R^3 from one or two
    cones of one to four nonzero rays with entries in [-2, 2]; None when a
    cone is not pointed."""
    n = rng.choice((2, 2, 2, 3))
    ray_lists = []
    for _ in range(rng.randint(1, 2)):
        rays = []
        size = rng.randint(1, 4)
        while len(rays) < size:
            r = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(r):
                rays.append(r)
        ray_lists.append(rays)
    try:
        return build_fan(n, ray_lists)
    except ValueError:
        return None


def _random_raw_fan(rng: random.Random) -> exactgeom.Fan:
    """A raw ``fan(...)`` collection in R^2 or R^3, often not closed under
    faces: the faces of one to three random cones (their full face lists in
    one draw of two, else random subsets of them; a cone that is not
    pointed is kept as it is).  In one draw of three a cone on the first
    ray of a pointed cone and the sum of its first two rays is added with
    its faces: it lies in that cone without being a face of it.  The zero cone
    is kept in four draws of five, and in one draw of five a cone is
    duplicated, its rays plus a redundant one."""
    n = rng.choice((2, 3))
    whole = rng.random() < 0.5
    cones = set()
    for _ in range(rng.randint(1, 3)):
        rays = []
        size = rng.randint(1, 3)
        while len(rays) < size:
            r = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(r):
                rays.append(r)
        c = cone(n, rays)
        try:
            faces = cone_faces(c)
        except ValueError:
            cones.add(c)
            continue
        cones.update(faces if whole else [face for face in faces if rng.random() < 0.7])

    def ray_sum(c):
        total = [x + y for x, y in zip(c.rays[0], c.rays[1])]
        return exactgeom.primitive(total) if any(total) else None

    wide = [c for c in cones if len(c.rays) >= 2 and cone_is_pointed(c) and ray_sum(c) is not None]
    if wide and rng.random() < 1 / 3:
        c = rng.choice(wide)
        cones.update(cone_faces(cone(n, [c.rays[0], ray_sum(c)])))
    cones.discard(zero_cone(n))
    if rng.random() < 0.8:
        cones.add(zero_cone(n))
    if wide and rng.random() < 0.2:
        c = rng.choice(wide)
        cones.add(cone(n, c.rays + (ray_sum(c),)))
    return fan(n, cones)


def _check_against_references(f: exactgeom.Fan, rng: random.Random) -> bool:
    """Compare the face, intersection and location routines with the
    membership-test references on one fan.  On a fan the references call
    valid the answers must be equal; otherwise an answer may only turn into
    a ValueError.  Returns whether the fan is valid."""
    diags = fan_validate(f)
    assert diags == ref_fan_validate(f) == fan_validate(fan(f.ambient_dim, f.cones, f.embedded))
    valid = not diags

    def agree(got, want):
        assert got == want or (not valid and got is ValueError and want is not ValueError)

    for c in f.cones:
        assert cone_faces(c) == ref_cone_faces(c)
    pairs = list(itertools.product(f.cones, repeat=2))
    for a, b in rng.sample(pairs, min(len(pairs), 8)):
        assert cone_is_face(a, b) == ref_cone_is_face(a, b)
        agree(_outcome(fan_cone_intersection, f, [a, b]), _outcome(ref_fan_cone_intersection, f, [a, b]))
    for _ in range(3):
        cs = rng.sample(f.cones, min(len(f.cones), 3))
        agree(_outcome(fan_cone_intersection, f, cs), _outcome(ref_fan_cone_intersection, f, cs))
    n = f.ambient_dim
    points = [ratvec(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
    for c in rng.sample(f.cones, min(len(f.cones), 3)):
        points.append(ratvec(sum(r[k] for r in c.rays) for k in range(n)))
    for p in points:
        agree(_outcome(cone_locate, f, p), _outcome(ref_cone_locate, f, p))
    return valid


_QUADRANT = cone(2, [(1, 0), (0, 1)])

# raw collections, no face lists: each cone heads the list of itself alone
_RAW_LOCATION_CASES = {
    # two simplicial cones that overlap, each with all its faces
    "overlap": [*cone_faces(_QUADRANT), *cone_faces(cone(2, [(1, 0), (1, 1)]))],
    # the ray (1, 1) lies inside the quadrant without being a face of it
    "ray inside a 2-cone": [*cone_faces(_QUADRANT), cone(2, [(1, 1)])],
    # the quadrant's ray (0, 1) is missing, and in the next collection the zero cone
    "missing ray": [zero_cone(2), cone(2, [(1, 0)]), _QUADRANT],
    "missing zero cone": [cone(2, [(1, 0)]), cone(2, [(0, 1)]), _QUADRANT],
    # the square cone of R^3 with its faces: its own test is an LP
    "square cone": cone_faces(cone(3, _SQUARE_CONE)),
}


def _ray_sum(c: exactgeom.Cone) -> tuple[Fraction, ...]:
    """The sum of a cone's rays, a point of its relative interior."""
    return ratvec(sum(r[k] for r in c.rays) for k in range(c.ambient_dim))


class TestConeLocateAgainstOracles:
    """cone_locate against one membership LP per cone with the same
    minimal-cone rule (lp_cone_locate), and against the reference that
    takes the candidate lying in every other (ref_cone_locate): the
    outcome, a cone, None or ValueError, is the same.  On raw collections
    the reference also answers where the candidates' shared rays span no
    candidate, a nested cone that is no face of the others; cone_locate
    refuses there, as it did when it tested every cone."""

    @pytest.mark.parametrize("case", list(_RAW_LOCATION_CASES))
    def test_raw_collections(self, case):
        cones = _RAW_LOCATION_CASES[case]
        n = cones[0].ambient_dim
        f = fan(n, cones)
        assert f.face_lists is None
        points = [ratvec(p) for p in itertools.product(range(-1, 3), repeat=n)]
        points += [_ray_sum(c) for c in f.cones]
        nested = []
        for p in points:
            got = _outcome(cone_locate, f, p)
            assert got == _outcome(lp_cone_locate, f, p), p
            want = _outcome(ref_cone_locate, f, p)
            if got != want:
                assert got is ValueError and want is not ValueError, p
                nested.append((tuple(p), want.rays))
        if case == "overlap":
            # the reference answers the cone that every other candidate holds
            assert ((2, 1), ((1, 0), (1, 1))) in nested and ((1, 1), ((1, 1),)) in nested
        elif case == "ray inside a 2-cone":
            assert set(nested) == {((1, 1), ((1, 1),)), ((2, 2), ((1, 1),))}
        else:
            assert nested == []
        if case == "missing ray":
            # no cone lies in the quadrant on that ray, so nothing is seen missing there
            assert cone_locate(f, ratvec((0, 1))) == _QUADRANT
        if case == "missing zero cone":
            with pytest.raises(ValueError, match="miss a face"):
                cone_locate(f, ratvec((0, 0)))
        if case == "square cone":
            assert fan_validate(f) == [] and cone_locate(f, ratvec((0, 0, 1))) == cone(3, _SQUARE_CONE)

    def test_built_fans_with_non_simplicial_heads(self):
        """Seeded ``_random_fan`` draws with a head on dependent rays, the
        square cone's fan, the pentagon fan and its overlapping copy (a
        fan in no valid sense: only a refusal may differ there).  On a
        valid fan the ray sum of every cone locates to that cone."""
        rng = random.Random(3434)
        fans = [build_fan(3, [_SQUARE_CONE]), build_fan(3, [_SQUARE_CONE, [(1, 0, 1), (0, 1, 1), (1, 1, 0)]])]
        while len(fans) < 22:
            f = _random_fan(rng)
            if f is not None and not all(exactgeom._simplicial(head) for head in f.face_lists):
                fans.append(f)
        overlapping = [list(c) for c in _PENTAGON_CONES]
        overlapping[1] = [(1, 1), (-1, 1)]
        fans += [build_fan(2, _PENTAGON_CONES), build_fan(2, overlapping)]
        located = valid = 0
        for f in fans:
            ok = not fan_validate(f)
            valid += ok
            n = f.ambient_dim
            points = [ratvec(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
            for c in f.cones:
                p = _ray_sum(c)
                points.append(p)
                if ok:
                    assert cone_locate(f, p) == c, (f, c)
            for p in points:
                got = _outcome(cone_locate, f, p)
                assert got == _outcome(lp_cone_locate, f, p), (f, p)
                want = _outcome(ref_cone_locate, f, p)
                assert got == want or (not ok and got is ValueError), (f, p)
                located += got is not None and got is not ValueError
        assert valid >= 12 and len(fans) - valid >= 2 and located >= 100, (valid, located)


class TestAgainstMembershipReferences:
    def test_random_fans(self):
        rng = random.Random(20161018)
        checked = valid = 0
        while checked < 200:
            f = _random_fan(rng)
            if f is None:
                continue
            valid += _check_against_references(f, rng)
            checked += 1
        assert 20 <= valid <= 180  # both kinds of fan are exercised

    def test_raw_collections(self):
        """fan_validate against the all-pairs oracle on raw collections:
        random subsets of faces, with and without the zero cone, duplicates
        and overlapping cones.  When every pair of maximal cones meets in a
        common face the function returns early, whether or not a per-cone
        check failed; otherwise it lists all pairs.  Each of the four cases
        is taken at least 20 times."""
        rng = random.Random(1710)
        cases = collections.Counter()
        for _ in range(300):
            f = _random_raw_fan(rng)
            diags = fan_validate(f)
            assert diags == ref_fan_validate(f), f
            pairs = sum(d.endswith(" do not meet in a common face") for d in diags)
            cases["listed" if pairs else "early", "check failed" if len(diags) > pairs else "checks passed"] += 1
        assert len(cases) == 4 and min(cases.values()) >= 20, cases

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_builder_fans(self, n):
        rng = random.Random(n)
        axis = (1,) + (0,) * (n - 1)
        for f in (complete_orthant_fan(n), auto_rays_fan(n, [axis, tuple(-x for x in axis)])):
            assert _check_against_references(f, rng)

    def test_overlapping_cones_do_not_meet_in_the_zero_cone(self):
        # the cones share no ray, yet both contain (1, -3/7, -2/7)
        a = [(1, -1, 2), (1, 0, -2)]
        b = [(-1, 2, 1), (1, 0, 1), (2, -1, -1)]
        p = (Fraction(1), Fraction(-3, 7), Fraction(-2, 7))
        assert cone_contains(cone(3, a), p) and cone_contains(cone(3, b), p)
        f = build_fan(3, [a, b])
        with pytest.raises(ValueError, match="common face"):
            fan_cone_intersection(f, [cone(3, a), cone(3, b)])

    def test_shortcuts_agree_with_the_lp_path(self, monkeypatch):
        """The rank, cached-elimination and ray-containment shortcuts
        against the LP-only canonical form, pointedness, common face, face
        list and location, on the 200 seeded random fans and the builder
        fans.  Each shortcut and each LP fallback is taken at least 20
        times; the common face is also settled by a covector at least 20
        times, and location skips cones, reads cached eliminations, poses
        LPs and decides at least 20 faces from the support of a point's
        coordinates on a simplicial cone that holds it."""
        branches = collections.Counter()

        def counting(independent):
            def counted(rays):
                got = independent(rays)
                caller = sys._getframe(1).f_code.co_name
                # a common face that no rank settles tries the covectors
                # next; its LP is counted where it is posed
                if got or caller != "_common_face":
                    branches[caller, "rank" if got else "lp"] += 1
                return got
            return counted

        contains, coordinates = exactgeom._contains, exactgeom._coordinates
        separates, solve = exactgeom._frame_separates, exactgeom.solve_nonneg
        tested = []  # (cone, how): each membership test that location makes

        def counting_contains(c, q):
            if c.rays and c._frame is None:
                tested.append((c, "lp"))
            elif not c.rays:
                tested.append((c, "zero"))
            return contains(c, q)

        def counting_coordinates(c, q):
            lam = coordinates(c, q)
            tested.append((c, "frame"))
            if lam is not None and sys._getframe(1).f_code.co_name == "cone_locate":
                # a head that holds the point: its other faces are decided
                # by the support of the coordinates, with no test
                branches["cone_locate", "support"] += len(f.face_lists[c]) - 1
            return lam

        def counting_separates(a, b, in_b, in_a):
            got = separates(a, b, in_b, in_a)
            branches["_common_face", "covector"] += got
            return got

        def counting_solve(rows, rhs):
            if sys._getframe(1).f_code.co_name == "_common_face":
                branches["_common_face", "lp"] += 1
            return solve(rows, rhs)

        monkeypatch.setattr(exactgeom, "_independent", counting(exactgeom._independent))
        monkeypatch.setattr(exactgeom, "_simplicial", counting(exactgeom._simplicial))
        monkeypatch.setattr(exactgeom, "_contains", counting_contains)
        monkeypatch.setattr(exactgeom, "_coordinates", counting_coordinates)
        monkeypatch.setattr(exactgeom, "_frame_separates", counting_separates)
        monkeypatch.setattr(exactgeom, "solve_nonneg", counting_solve)
        rng = random.Random(20161018)
        fans = []
        while len(fans) < 200:
            f = _random_fan(rng)
            if f is not None:
                fans.append(f)
        for n in (1, 2, 3):
            axis = (1,) + (0,) * (n - 1)
            fans += [complete_orthant_fan(n), auto_rays_fan(n, [axis, tuple(-x for x in axis)])]
        for f in fans:
            n = f.ambient_dim
            for c in f.cones:
                assert exactgeom._faces(c) == lp_faces(c)
            for a, b in itertools.product(f.cones, repeat=2):
                assert exactgeom._common_face(a, b) == lp_common_face(a, b), (a, b)
            pairs = list(itertools.combinations(f.cones, 2))
            for a, b in rng.sample(pairs, min(len(pairs), 6)):
                raw = cone(n, a.rays + b.rays)  # often with rays that are not extreme
                assert exactgeom.cone_is_pointed(raw) == lp_cone_is_pointed(raw), raw
                assert exactgeom.canonical_cone(raw) == lp_canonical_cone(raw), raw
            points = [ratvec(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
            points += [ratvec(sum(r[k] for r in c.rays) for k in range(n)) for c in f.cones]
            for p in points:
                tested.clear()
                got = _outcome(exactgeom.cone_locate, f, p)
                branches["cone_locate", "skip"] += len(f.cones) - len({c for c, _ in tested})
                for _, how in tested:
                    branches["cone_locate", how] += 1
                assert got == _outcome(lp_cone_locate, f, p), (f, p)
        for name in ("canonical_cone", "cone_is_pointed", "_common_face", "_faces", "cone_locate"):
            shortcut = "skip" if name == "cone_locate" else "rank"
            assert branches[name, shortcut] >= 20 and branches[name, "lp"] >= 20, (name, branches)
        assert branches["_common_face", "covector"] >= 20, branches
        assert branches["cone_locate", "frame"] >= 20, branches
        assert branches["cone_locate", "support"] >= 20, branches

    def test_common_face_against_the_lp_on_seeded_pairs(self, monkeypatch):
        """_common_face against the LP-only common face on every ordered
        pair of canonical pointed cones drawn from one pool of up to six
        primitive rays in R^1 ... R^4, over 2 000 pairs.  Simplicial and non-simplicial cones,
        pairs with and without shared rays, and overlapping pairs (None) are
        each met at least 100 times; a rank, the first cone's covector, the
        second cone's covector alone, and the LP each settle at least 50."""
        separates = exactgeom._frame_separates
        sides = []

        def recording(a, b, in_b, in_a):
            sides.append(separates(a, b, in_b, in_a))
            return sides[-1]

        monkeypatch.setattr(exactgeom, "_frame_separates", recording)
        rng = random.Random(3030)
        seen = collections.Counter()
        pairs = 0
        while pairs < 2000:
            n = rng.randint(1, 4)
            draws = (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(6))
            pool = sorted({exactgeom.primitive(r) for r in draws if any(r)})
            cones = set()
            for _ in range(6):
                rays = rng.sample(pool, rng.randint(1, min(len(pool), n + 2)))
                try:
                    cones.add(exactgeom._canonical_pointed(cone(n, rays)))
                except ValueError:  # not pointed
                    pass
            for a, b in itertools.permutations(sorted(cones, key=lambda c: c.rays), 2):
                sides.clear()
                got = exactgeom._common_face(a, b)
                assert got == lp_common_face(a, b), (a, b)
                pairs += 1
                seen["simplicial" if exactgeom._simplicial(a) and exactgeom._simplicial(b) else "not simplicial"] += 1
                seen["shared" if set(a.rays) & set(b.rays) else "none shared"] += 1
                seen["overlap" if got is None else "face"] += 1
                seen[{(): "rank", (True,): "first", (False, True): "second"}.get(tuple(sides), "lp")] += 1
        for kind in ("simplicial", "not simplicial", "shared", "none shared", "overlap", "face"):
            assert seen[kind] >= 100, seen
        for way in ("rank", "first", "second", "lp"):
            assert seen[way] >= 50, seen

    def test_orthant_build_lp_count(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        assert len(complete_orthant_fan(3).cones) == 27
        # every octant is simplicial: its canonical form, pointedness and
        # faces are read off one rank each
        assert len(calls) == 0

    def test_orthant_validation_lp_count(self, monkeypatch):
        fans = {n: complete_orthant_fan(n) for n in (2, 3)}
        calls = _count_lps(monkeypatch)
        for n, f in fans.items():
            calls.clear()
            assert fan_validate(f) == []
            # faces need no LP, and only the 2^n orthants, the maximal
            # cones, are paired.  Two orthants differ in some sign, so
            # their rays together are dependent, but the elimination of
            # the first gives a covector: minus the coordinates of the
            # rays it does not share is 0 on the shared rays, -1 on its
            # other rays and +1 on the other rays of the second.  No LP
            # for any of the 2^(n-1) (2^n - 1) pairs, 6 and 28
            assert calls == []

    def test_pentagon_fan_validation_lp_count(self, monkeypatch):
        f = build_fan(2, _PENTAGON_CONES)
        calls = _count_lps(monkeypatch)
        assert fan_validate(f) == []
        # of the 10 pairs of maximal cones, the two that neither covector
        # separates pose one LP each
        assert len(calls) == 2
        overlapping = [list(c) for c in _PENTAGON_CONES]
        overlapping[1] = [(1, 1), (-1, 1)]
        # with (0, 1) moved to (-1, 1) the second cone overlaps the third
        # and holds the ray (0, 1); every failing pair is listed
        overlapping_fan = build_fan(2, overlapping)
        assert fan_validate(overlapping_fan) == ref_fan_validate(overlapping_fan) == [
            "cones ((-1, 1),) and ((-1, 0), (0, 1)) do not meet in a common face",
            "cones ((0, 1),) and ((-1, 1), (1, 1)) do not meet in a common face",
            "cones ((-1, 0), (0, 1)) and ((-1, 1), (1, 1)) do not meet in a common face",
        ]

    def test_orthant_location_lp_count(self, monkeypatch):
        fans = {n: complete_orthant_fan(n) for n in (2, 3)}
        calls = _count_lps(monkeypatch)
        tested, zero_tests, eliminations = [], [], []
        coordinates, contains, eliminate = exactgeom._coordinates, exactgeom._contains, exactgeom._eliminate
        # a membership test reads the dot products of a cone's cached
        # elimination (_coordinates), on the point scaled to integers once;
        # the zero cone's test is a zero test
        monkeypatch.setattr(exactgeom, "_coordinates", lambda c, q: tested.append(c) or coordinates(c, q))
        monkeypatch.setattr(exactgeom, "_contains", lambda c, q: zero_tests.append(c) or contains(c, q))
        monkeypatch.setattr(exactgeom, "_eliminate", lambda rows: eliminations.append(rows) or eliminate(rows))
        for n, f in fans.items():
            points = [ratvec(p) for p in itertools.product((-2, 0, 3), repeat=n)]
            calls.clear()
            tested.clear()
            zero_tests.clear()
            eliminations.clear()
            located = [cone_locate(f, p) for p in points]
            assert located == [ref_cone_locate(f, p) for p in points]
            # the 2^n orthants and the zero cone head the fan's face lists.
            # Each orthant is tested once per point, and the coordinates of
            # p on the rays of an orthant that holds p decide its lower
            # faces: the faces on the rays where p's coordinate is nonzero
            # and more.  No lower cone is tested on its own
            orthants = [c for c in f.cones if len(c.rays) == n]
            assert len(tested) == 2**n * len(points) and set(tested) == set(orthants)
            assert zero_tests == [zero_cone(n)] * len(points)
            # the orthants' eliminations were made when the fan was built,
            # and no LP is posed
            assert calls == [] and eliminations == []
        assert len(tested) == 216  # n = 3: 27 points, 8 tests each (276 with a test per lower cone holding p)

    def test_non_simplicial_fan_lp_count(self, monkeypatch):
        calls = _count_lps(monkeypatch)
        f = build_fan(3, [_SQUARE_CONE])
        # any three of the four rays are independent, so the test of each
        # ray against the other three reads a cached elimination: no LP.
        # Then one pointedness LP, and one common-face LP per proper
        # nonempty ray subset (with the other rays of the square cone its
        # rays are dependent)
        assert len(calls) == 0 + 1 + 14
        assert len(f.cones) == 10
        calls.clear()
        assert fan_validate(f) == []
        # the fan keeps the square cone's face list from the build, which
        # shows it to be the only maximal cone: no pair, so no LP
        assert len(calls) == 0


def _count_lps(monkeypatch) -> list[int]:
    """The row counts of the LPs ``exactgeom`` poses from now on."""
    calls = []
    real = exactgeom.solve_nonneg

    def counting(rows, rhs):
        calls.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(exactgeom, "solve_nonneg", counting)
    return calls


def _random_ray_set(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """One to four nonzero rays in R^n with entries in [-2, 2]; in one draw
    of four the negation of the first ray is added, so the set is not
    pointed."""
    rays = []
    size = rng.randint(1, 4)
    while len(rays) < size:
        r = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(r):
            rays.append(r)
    if rng.random() < 0.25:
        rays.append(tuple(-x for x in rays[0]))
    return rays


def _ref_is_pointed(c: exactgeom.Cone) -> bool:
    """No y >= 0 with sum y_i r_i = 0 and sum y_i >= 1, asked through the
    general front end with a slack column."""
    k = len(c.rays)
    eqs = [([r[coord] for r in c.rays], 0) for coord in range(c.ambient_dim)]
    return ref_lp_feasible(k, eqs=eqs, geqs=[([1] * k, 1)], nonneg=range(k)) is None


class TestConeLpsAgainstTheGeneralFrontEnd:
    """Pointedness and the common-face LP, posed directly to solve_nonneg,
    against the same questions posed through ``ref_lp_feasible`` on random
    ray sets, non-pointed ones included (``_random_fan`` drops them)."""

    def test_random_ray_sets(self):
        rng = random.Random(1609)
        pointed = {2: [], 3: []}
        non_pointed = 0
        for _ in range(200):
            n = rng.choice((2, 3))
            c = cone(n, _random_ray_set(rng, n))
            assert cone_is_pointed(c) == _ref_is_pointed(c), c
            if cone_is_pointed(c):
                pointed[n].append(exactgeom.canonical_cone(c))
            else:
                non_pointed += 1
        assert 20 <= non_pointed <= 180
        meet = apart = 0
        for cones in pointed.values():
            for a, b in itertools.combinations_with_replacement(sorted(set(cones), key=lambda c: c.rays), 2):
                want = ref_pair_meets_in_common_face(a, b)  # symmetric: x -> -x swaps the cones
                for c1, c2 in ((a, b), (b, a)):
                    got = exactgeom._common_face(c1, c2)
                    assert (got is None) == (not want), (c1, c2)
                    if got is None:
                        apart += 1
                    else:
                        meet += 1
                        assert set(got.rays) == set(c1.rays) & set(c2.rays)
        # overlapping pairs (no common face) and pairs meeting in a face
        assert apart >= 100 and meet >= 100
