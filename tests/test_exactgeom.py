"""Rationals, exact elimination, cones, and fans."""

import itertools
import random
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

from builders import rectangle_cycle
from oracles import (
    bareiss_rank,
    dense_equations,
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
        fam = build_figure1_family(3)
        assert moduli.is_face(moduli.limit_of_family(fam, 1).type, fam.type) is not None
        mc = moduli.moduli_cone(combinatorial_type(rectangle_cycle(3, 3)))
        moduli.sample_interior(mc, seed=5)
        assert len(recorded) > 300
        for rows, rhs in recorded:
            _assert_same_witness(rows, rhs)


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
        with pytest.raises(ValueError):
            cone_contains(zero_cone(2), ratvec((1, 0, 0)))

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

    def test_orthant_build_lp_count(self, monkeypatch):
        calls = []
        real = exactgeom.solve_nonneg

        def counting(rows, rhs):
            calls.append(len(rows))
            return real(rows, rhs)

        monkeypatch.setattr(exactgeom, "solve_nonneg", counting)
        assert len(complete_orthant_fan(3).cones) == 27
        # per octant, canonicalized once: one membership LP per ray, then
        # pointedness and one LP per one- and two-ray subset
        assert len(calls) == 8 * (3 + 1 + 3 + 3)

    def test_orthant_validation_lp_count(self, monkeypatch):
        calls = []
        real = exactgeom.solve_nonneg

        def counting(rows, rhs):
            calls.append(len(rows))
            return real(rows, rhs)

        f = complete_orthant_fan(2)
        monkeypatch.setattr(exactgeom, "solve_nonneg", counting)
        assert fan_validate(f) == []
        # per quadrant: pointedness, one membership LP per ray when
        # canonicalizing, one LP per one-ray subset; a ray's pointedness
        # needs no LP; then one common-face LP for each of the 36 pairs of
        # cones
        assert len(calls) == 4 * (1 + 2 + 2) + 36


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
