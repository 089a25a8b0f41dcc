"""Rationals, exact elimination, cones, and fans."""

import collections
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropmap import combinatorial_type, exactgeom, moduli
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
    fan_cone_intersection,
    fan_validate,
    format_rational,
    integer_nullspace,
    nullspace,
    parse_rational,
    rank,
    ratvec,
    rref,
    solve_nonneg,
    zero_cone,
)
from tropmap.wellspaced import build_figure1_family

from builders import rectangle_cycle, strict_unstable_member_family
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
        kernel = nullspace(rows)
        free = [c for c in range(len(rows[0])) if c not in pivots]
        assert len(kernel) == len(free)
        for vec, fc in zip(kernel, free):
            assert [vec[c] for c in free] == [int(c == fc) for c in free]
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        scaled = integer_nullspace(rows)
        assert all(type(x) is int for vec in scaled for x in vec)
        if kernel:
            scale = scaled[0][free[0]]
            assert scale > 0
            assert [[scale * x for x in vec] for vec in kernel] == [list(vec) for vec in scaled]

    def test_empty_kernels(self):
        assert nullspace([], ncols=2) == [(1, 0), (0, 1)]
        assert integer_nullspace([], ncols=2) == [(1, 0), (0, 1)]
        assert nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [(Fraction(-2, 3), 1)]
        assert integer_nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [(-2, 3)]


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
        assert len(recorded) > 300
        for rows, rhs in recorded:
            _assert_same_witness(rows, rhs)


# the cone over a square in R^3: four extreme rays, so no rank test applies
_SQUARE_CONE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]


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
        # second fan is built through canonicalization and face enumeration
        rng = random.Random(1921)
        for _ in range(200):
            n = rng.randint(1, 4)
            rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            assert build_fan(n, [[r] for r in rays]) == build_fan(n, [[r, r] for r in rays])

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
    assert diags == ref_fan_validate(f)
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
        times; location skips cones, reads cached eliminations and poses
        LPs."""
        branches = collections.Counter()

        def counting(independent):
            def counted(rays):
                got = independent(rays)
                branches[sys._getframe(1).f_code.co_name, "rank" if got else "lp"] += 1
                return got
            return counted

        contains = exactgeom.cone_contains
        tested = []

        def counting_contains(c, p):
            tested.append(c)
            return contains(c, p)

        monkeypatch.setattr(exactgeom, "_independent", counting(exactgeom._independent))
        monkeypatch.setattr(exactgeom, "_simplicial", counting(exactgeom._simplicial))
        monkeypatch.setattr(exactgeom, "cone_contains", counting_contains)
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
                branches["cone_locate", "skip"] += len(f.cones) - len(tested)
                branches["cone_locate", "frame"] += sum(1 for c in tested if c.rays and c._frame is not None)
                branches["cone_locate", "lp"] += sum(1 for c in tested if c.rays and c._frame is None)
                assert got == _outcome(lp_cone_locate, f, p), (f, p)
        for name in ("canonical_cone", "cone_is_pointed", "_common_face", "_faces", "cone_locate"):
            shortcut = "skip" if name == "cone_locate" else "rank"
            assert branches[name, shortcut] >= 20 and branches[name, "lp"] >= 20, (name, branches)
        assert branches["cone_locate", "frame"] >= 20, branches

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
            # their rays together are dependent: one LP per pair,
            # 2^(n-1) (2^n - 1) of them, 6 and 28
            assert len(calls) == 2 ** (n - 1) * (2**n - 1)

    def test_orthant_location_lp_count(self, monkeypatch):
        fans = {n: complete_orthant_fan(n) for n in (2, 3)}
        calls = _count_lps(monkeypatch)
        tested, eliminations = [], []
        contains, eliminate = exactgeom.cone_contains, exactgeom._eliminate
        # the nonzero cones tested; the zero cone's test is a zero test
        monkeypatch.setattr(exactgeom, "cone_contains", lambda c, p: c.rays and tested.append(c) or contains(c, p))
        monkeypatch.setattr(exactgeom, "_eliminate", lambda rows: eliminations.append(rows) or eliminate(rows))
        for n, f in fans.items():
            points = [ratvec(p) for p in itertools.product((-2, 0, 3), repeat=n)]
            calls.clear()
            tested.clear()
            eliminations.clear()
            located = [cone_locate(f, p) for p in points]
            assert located == [ref_cone_locate(f, p) for p in points]
            # with z zero coordinates in p: one membership test per orthant,
            # then one per lower cone that contains p (every other one lies
            # in an orthant or a cone that misses p), the zero cone aside
            zeros = [sum(x == 0 for x in p) for p in points]
            assert len(tested) == sum(2**n + 3**z - 2**z - (z == n) for z in zeros)
            # every cone of the fan is simplicial, so a test reads the dot
            # products of its cone's cached elimination and poses no LP.
            # The orthants' eliminations were made when the fan was built,
            # and each lower cone's is made at its first test, once
            assert calls == []
            assert len(eliminations) == len({c for c in tested if len(c.rays) < n})
        assert len(tested) == 276  # n = 3, against 27 * 26 = 702 at one test per nonzero cone

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
        # the square cone again (its four edges and rays are simplicial);
        # it is the only maximal cone, so no pair needs an LP
        assert len(calls) == 0 + 1 + 14


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
