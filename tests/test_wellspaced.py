"""Genus-one analysis: cycles, flats, spacing, the hat, and verdicts."""

import io
import json
import random
import time
from fractions import Fraction

import pytest

from tropmap import (
    Assumptions,
    CertificateError,
    betti_and_genus,
    build_figure1_family,
    combinatorial_type,
    cycle_data,
    enumerate_flats,
    figure1_member,
    hat_curve,
    is_well_spaced,
    limit_of_family,
    realizability_verdict,
    star,
    subcurve_in_flat,
    validate_map,
    well_spaced_or_vacuous,
)
from tropmap import wellspaced
from tropmap.cli import main
from tropmap.documents import Document, serialize_document
from tropmap.exactgeom import primitive, ratvec, vdot, vector_content
from tropmap.gallery import hat_demo, speyer_tree, square_loop
from tropmap.wellspaced import _PROBES, build_arrangement, multiset_passes, pattern_of_normal

from builders import (
    bent_square,
    build_map,
    lone_genus_one_vertex,
    random_feasible_map,
    strict_unstable_member_family,
    three_rays,
    tilted_parallel_pair,
)
from oracles import fraction_projection, lift_pattern, projective_class, subset_closure_flats


class TestCycleData:
    def test_square_loop_plane(self):
        cd = cycle_data(square_loop())
        assert set(cd.cycle_edges) == {"s0", "s1", "s2", "s3"}
        assert cd.codim == 1 and cd.superabundant
        # the span is the horizontal plane: both directions have last entry 0
        assert all(b[2] == 0 for b in cd.direction_basis)

    def test_lone_vertex_point_span(self):
        cd = cycle_data(lone_genus_one_vertex(3))
        assert cd.codim == 3
        assert cd.direction_basis == ()

    def test_contracted_loop_point_span(self):
        cd = cycle_data(speyer_tree())
        assert cd.cycle_vertices == ("v0",)
        assert cd.codim == 2

    def test_space_filling_cycle(self):
        # triangle whose edges span all of R^2: codim 0, not superabundant
        m = _space_filling_cycle()
        cd = cycle_data(m)
        assert cd.codim == 0 and not cd.superabundant
        with pytest.raises(ValueError):
            enumerate_flats(m, cd)

    def test_genus_two_rejected(self):
        from tropmap.curves import Vertex, tropical_curve
        from tropmap.exactgeom import auto_rays_fan
        from tropmap.maps import stable_map

        c = tropical_curve([Vertex("v", 2)], [])
        m = stable_map(c, auto_rays_fan(2, [], embedded=True), {"v": (0, 0)}, {})
        with pytest.raises(ValueError):
            cycle_data(m)


class TestFlats:
    def test_unique_flat_when_codim_one(self):
        flats = enumerate_flats(square_loop())
        assert len(flats) == 1
        assert flats[0].zero_set == ()
        cd = cycle_data(square_loop())
        assert all(vdot(ratvec(flats[0].normal), b) == 0 for b in cd.direction_basis)

    def test_contracted_loop_two_directions(self):
        # a contracted loop with exactly two independent departing classes:
        # flats are the empty closure plus the two singletons
        bounded = [("loop", ("v", "v"), (0, 0), 0, "v", 1)]
        rays = [
            ("r1", "v", (1, 0), 1, "p1"),
            ("r2", "v", (-1, 0), 1, "p2"),
            ("r3", "v", (0, 1), 1, "p3"),
            ("r4", "v", (0, -1), 1, "p4"),
        ]
        m = build_map(2, ["v"], bounded, rays, {"v": (0, 0)})
        assert validate_map(m) == []
        flats = enumerate_flats(m)
        assert [f.zero_set for f in flats] == [(), ((0, 1),), ((1, 0),)]

    def test_three_coplanar_classes(self):
        bounded = [("loop", ("v", "v"), (0, 0), 0, "v", 1)]
        rays = [
            ("r1", "v", (1, 0), 1, "p1"),
            ("r2", "v", (0, 1), 1, "p2"),
            ("r3", "v", (-1, -1), 1, "p3"),
        ]
        m = build_map(2, ["v"], bounded, rays, {"v": (0, 0)})
        flats = enumerate_flats(m)
        assert len(flats) == 4  # empty flat + three singletons

    def test_oracle_cross_check(self):
        for m in (speyer_tree(), hat_demo(), bent_square()):
            cd = cycle_data(m)
            arr = build_arrangement(m, cd)
            expected = subset_closure_flats(arr.vectors, cd.codim - 1)
            got = {frozenset(f.zero_set) for f in enumerate_flats(m, cd)}
            assert got == expected

    def test_normals_certify(self):
        for m in (speyer_tree(), hat_demo(), bent_square(), square_loop()):
            cd = cycle_data(m)
            for flat in enumerate_flats(m, cd):
                assert pattern_of_normal(m, cd, ratvec(flat.normal)) == flat.zero_set


def many_directions_pair():
    """A two-edge cycle along e1 in R^7 whose vertex A carries rays in
    thirteen directions of distinct projective classes in the quotient."""
    unit = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    pairs = [(i, i + 1) for i in range(5)] + [(0, 2), (1, 3)]
    quotient_dirs = unit + [tuple(a + b for a, b in zip(unit[i], unit[j])) for i, j in pairs]
    dirs = [(0,) + d for d in quotient_dirs]
    rest = tuple(-sum(d[k] for d in dirs) for k in range(7))
    bounded = [
        ("e1", ("A", "B"), (1,) + (0,) * 6, 1, "A", 1),
        ("e2", ("A", "B"), (1,) + (0,) * 6, 1, "A", 1),
    ]
    rays = [(f"r{k}", "A", d, 1, f"p{k}") for k, d in enumerate(dirs)]
    rays += [
        ("rest", "A", primitive(rest), vector_content(rest), "prest"),
        ("ra", "A", (-1,) + (0,) * 6, 2, "pa"),
        ("rb", "B", (1,) + (0,) * 6, 2, "pb"),
    ]
    origin = (0,) * 7
    return build_map(7, ["A", "B"], bounded, rays, {"A": origin, "B": (1,) + origin[1:]})


class TestArrangementCap:
    def test_oversized_arrangement_is_refused_quickly(self, capsys, monkeypatch):
        m = many_directions_pair()
        assert validate_map(m) == []
        cd = cycle_data(m)
        assert cd.codim == 6
        assert len(build_arrangement(m, cd).vectors) > wellspaced.MAX_ARRANGEMENT_VECTORS
        doc = serialize_document(Document("map", m))
        for command in ("wellspaced", "verdict"):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            start = time.perf_counter()
            code = main([command])
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out
            assert code == 2, command
            message = json.loads(out)["diagnostics"][0]["message"]
            assert message == "flat enumeration capped at 12 arrangement vectors, got 14"
            assert elapsed < 2, command

    def test_no_committed_map_reaches_the_cap(self):
        maps = TestIntegerProjection._maps() + [figure1_member(6, Fraction(1, 2)), figure1_member(6, 1)]
        assert max(len(build_arrangement(m).vectors) for m in maps) < wellspaced.MAX_ARRANGEMENT_VECTORS


class TestIntegerProjection:
    """The integer projection and the source-vector patterns against the
    Fraction projection and the lift-based patterns of the oracles."""

    @staticmethod
    def _maps():
        maps = [square_loop(), speyer_tree(), hat_demo(), hat_curve(hat_demo(), 1)]
        maps += [bent_square(b) for b in ((1, 1, 2), (1, 2, 3), (Fraction(1, 3), Fraction(2, 5), 1))]
        for n in (3, 4):
            fam = build_figure1_family(n)
            maps += [limit_of_family(fam, t).map for t in (Fraction(2, 7), Fraction(5, 11), 1)]
        maps.append(tilted_parallel_pair())
        rng = random.Random(17)
        for _ in range(120):
            m = random_feasible_map(rng, max_vertices=5)
            if betti_and_genus(m.curve)[1] == 1:
                maps.append(m)
        return [m for m in maps if cycle_data(m).codim > 0]

    def test_against_fraction_oracles(self):
        rng = random.Random(29)
        denominators = set()
        for m in self._maps():
            cd = cycle_data(m)
            arr = build_arrangement(m, cd)
            q = arr.quotient_map
            assert arr.vectors == fraction_projection(m, cd.base_point, q)
            assert [projective_class(q, src) for src in arr.sources] == list(arr.vectors)
            denominators.add(frozenset(max(x.denominator for x in row) for row in q))
            normals = [f.normal for f in enumerate_flats(m, cd, arr)]
            for _ in range(5):
                psi = [rng.randint(-3, 3) for _ in q]
                normals.append([vdot(psi, col) for col in zip(*q)])
            for normal in normals:
                assert pattern_of_normal(m, cd, normal, arr) == lift_pattern(q, arr.vectors, normal)
        # quotient rows with different denominators share one common scale
        assert frozenset({1, 3}) in denominators


class TestWorkDoneOnce:
    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(wellspaced, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(wellspaced, name, counted)
        return calls

    def test_one_arrangement_and_cycle_data_per_map(self, monkeypatch):
        maps = (speyer_tree(), bent_square(), figure1_member(4, Fraction(1, 2)))
        arrangements = self._count(monkeypatch, "build_arrangement")
        cycles = self._count(monkeypatch, "cycle_data")
        for m in maps:
            for predicate in (is_well_spaced, well_spaced_or_vacuous):
                arrangements.clear()
                cycles.clear()
                predicate(m)
                assert (len(arrangements), len(cycles)) == (1, 1)

    def test_one_validation_per_probe_member(self, monkeypatch):
        fam = build_figure1_family(3)
        target = limit_of_family(fam, 1).map
        validations = self._count(monkeypatch, "validate_map")
        assert realizability_verdict(target, Assumptions(family=fam)).rule == "R4"
        assert len(validations) == 1 + len(_PROBES)


class TestSubcurve:
    def test_square_loop_whole_curve(self):
        m = square_loop()
        flat = enumerate_flats(m)[0]
        sub = subcurve_in_flat(m, flat)
        assert sub.boundary == ()
        assert set(sub.vertex_ids) == {"c0", "c1", "c2", "c3"}
        assert len(sub.edge_ids) == 8  # the cycle and the four in-plane rays

    def test_contracted_loop_boundary_zero(self):
        bounded = [("loop", ("v", "v"), (0, 0), 0, "v", 1)]
        rays = [
            ("r1", "v", (1, 0), 1, "p1"),
            ("r2", "v", (0, 1), 1, "p2"),
            ("r3", "v", (-1, -1), 1, "p3"),
        ]
        m = build_map(2, ["v"], bounded, rays, {"v": (0, 0)})
        flat = enumerate_flats(m)[0]  # the empty flat: all rays depart
        sub = subcurve_in_flat(m, flat)
        assert sub.boundary == (("v", Fraction(0)),)

    def test_speyer_tree_multiset(self):
        m = speyer_tree()
        flats = enumerate_flats(m)
        horizontal = [f for f in flats if f.zero_set == ((1, 0),)]
        assert len(horizontal) == 1
        sub = subcurve_in_flat(m, horizontal[0])
        assert sub.distance_multiset() == (1, 1, 2)

    def test_figure1_departure_pair(self):
        m = figure1_member(3, Fraction(1, 2))
        flat = enumerate_flats(m)[0]
        sub = subcurve_in_flat(m, flat)
        assert sub.distance_multiset() == (0, 0, 1, 1, 1, 1)

    def test_foreign_flat_rejected(self):
        m = square_loop()
        flat = enumerate_flats(speyer_tree())[0]
        with pytest.raises(ValueError):
            subcurve_in_flat(m, flat)


class TestWellSpaced:
    def test_multiset_rule(self):
        assert multiset_passes(())
        assert multiset_passes((1, 1, 2))
        assert not multiset_passes((1, 2, 3))
        assert not multiset_passes((0,))

    def test_pass_on_112(self):
        rep = is_well_spaced(bent_square((1, 1, 2)))
        assert rep.overall and len(rep.flats) == 1
        assert rep.flats[0].subcurve.distance_multiset() == (1, 1, 2)

    def test_fail_on_123(self):
        rep = is_well_spaced(bent_square((1, 2, 3)))
        assert not rep.overall
        assert rep.witness is not None
        assert rep.witness.subcurve.distance_multiset() == (1, 2, 3)

    def test_square_loop_vacuous(self):
        assert is_well_spaced(square_loop()).overall

    def test_figure1_flip(self):
        fam = build_figure1_family(3)
        for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)):
            assert is_well_spaced(limit_of_family(fam, t).map).overall
        assert not is_well_spaced(limit_of_family(fam, 1).map).overall

    def test_figure1_dimension_four(self):
        fam = build_figure1_family(4)
        mid = limit_of_family(fam, Fraction(1, 2)).map
        rep = is_well_spaced(mid)
        assert rep.overall and len(rep.flats) == 2
        assert not is_well_spaced(limit_of_family(fam, 1).map).overall

    def test_lone_vertex_vacuous(self):
        assert is_well_spaced(lone_genus_one_vertex(2)).overall

    def test_sampling_agreement(self):
        # random hyperplanes through the cycle span reproduce exactly one
        # enumerated flat and the same verdict
        rng = random.Random(11)
        m = speyer_tree()
        cd = cycle_data(m)
        arr = build_arrangement(m, cd)
        flats = enumerate_flats(m, cd)
        by_pattern = {f.zero_set: f for f in flats}
        for _ in range(25):
            psi = [Fraction(rng.randint(-6, 6)) for _ in arr.quotient_map]
            if all(x == 0 for x in psi):
                continue
            normal = [
                sum(c * row[k] for c, row in zip(psi, arr.quotient_map))
                for k in range(m.fan.ambient_dim)
            ]
            pattern = pattern_of_normal(m, cd, ratvec(normal))
            assert pattern in by_pattern
            flat = by_pattern[pattern]
            direct = subcurve_in_flat(m, flat, cd)
            assert multiset_passes(direct.distance_multiset()) == (
                next(r.passes for r in is_well_spaced(m).flats if r.flat.zero_set == pattern)
            )


class TestHat:
    def test_basic(self):
        m = hat_demo()
        h = hat_curve(m, 1)
        assert validate_map(h) == []
        assert betti_and_genus(h.curve) == (1, 1)
        assert all(v.genus == 0 for v in h.curve.vertices)
        assert h.positions == m.positions

    def test_parametrized_length(self):
        h = hat_curve(hat_demo(), Fraction(1, 2))
        loop = next(e for e in h.curve.edges if e.ends[0] == e.ends[1])
        assert loop.length == Fraction(1, 2)

    def test_rejects_cycle_curve(self):
        with pytest.raises(ValueError):
            hat_curve(square_loop(), 1)

    def test_star_directions_preserved(self):
        m = hat_demo()
        h = hat_curve(m, 1)
        sm = star(m, "v")
        sh = star(h, "v")
        dirs = lambda s: sorted(s.weighted_direction(e.id) for e in s.curve.edges)
        assert dirs(sm) == dirs(sh)


class TestVerdicts:
    def test_genus_zero(self):
        v = realizability_verdict(three_rays(2))
        assert (v.verdict, v.rule) == ("Realizable", "R0")

    def test_speyer_sufficiency(self):
        v = realizability_verdict(bent_square((1, 1, 2)))
        assert (v.verdict, v.rule, v.reason) == ("Realizable", "R1", "Speyer sufficiency")

    def test_speyer_necessity_trivalent(self):
        v = realizability_verdict(bent_square((1, 2, 3)))
        assert (v.verdict, v.rule, v.reason) == (
            "NotRealizable",
            "R2",
            "Speyer necessity, trivalent",
        )

    def test_good_reduction_rule(self):
        m = lone_genus_one_vertex(2)
        v = realizability_verdict(m, Assumptions(star_realizable=True))
        assert (v.verdict, v.rule, v.reason) == ("Realizable", "R3", "Theorem B")
        assert realizability_verdict(m).rule == "R5"

    def test_limit_rule(self):
        fam = build_figure1_family(3)
        lim = limit_of_family(fam, 1)
        v = realizability_verdict(lim.map, Assumptions(family=fam))
        assert (v.verdict, v.rule, v.reason) == ("Realizable", "R4", "Theorem A")

    def test_bad_certificate(self):
        from tropmap import affine, make_family

        # the figure1 limit reaches the certificate rule, but a family whose
        # own limit is a different map must be rejected
        fam = build_figure1_family(3)
        target = limit_of_family(fam, 1).map
        loop_type = combinatorial_type(square_loop())
        wrong = make_family(loop_type, {e: affine(1) for e in loop_type.bounded_edge_ids()})
        with pytest.raises(CertificateError):
            realizability_verdict(target, Assumptions(family=wrong))

    def test_certificate_members_may_be_unstable(self):
        # members fail only the stability axiom, which the certificate waives;
        # the limit itself is valid and reaches rule R4
        fam = strict_unstable_member_family()
        lim = limit_of_family(fam, 1)
        assert lim.contracted_edges == ("ab", "bc", "ca")
        assert validate_map(lim.map) == []
        assert realizability_verdict(lim.map).rule == "R5"
        member = limit_of_family(fam, Fraction(1, 2)).map
        with pytest.raises(ValueError, match="stability"):
            realizability_verdict(member)
        v = realizability_verdict(lim.map, Assumptions(family=fam))
        assert (v.verdict, v.rule, v.reason) == ("Realizable", "R4", "Theorem A")

    def test_certificate_ignored_when_direct_rule_fires(self):
        fam = build_figure1_family(3)
        member = limit_of_family(fam, Fraction(1, 2)).map
        v = realizability_verdict(member, Assumptions(family=fam))
        assert v.rule == "R1"  # first match wins; the certificate is unused

    def test_unknown_genus_two(self):
        from tropmap.curves import Vertex, tropical_curve
        from tropmap.exactgeom import auto_rays_fan
        from tropmap.maps import stable_map

        c = tropical_curve([Vertex("v", 2)], [])
        m = stable_map(c, auto_rays_fan(2, [], embedded=True), {"v": (0, 0)}, {})
        v = realizability_verdict(m)
        assert v.verdict == "Unknown" and v.rule == "R5" and "genus 2" in v.reason

    def test_rules_exclusive(self):
        # R1 and R2 can never both apply: R2 needs the predicate false
        for branches in ((1, 1, 2), (1, 2, 3)):
            m = bent_square(branches)
            v = realizability_verdict(m)
            spaced = well_spaced_or_vacuous(m)
            assert (v.rule == "R1") == spaced
            assert (v.rule == "R2") == (not spaced)

    def test_vacuous_codim_zero_is_realizable(self):
        # cycle spanning the plane: no containing hyperplane, R1 applies
        m = _space_filling_cycle()
        v = realizability_verdict(m)
        assert (v.verdict, v.rule) == ("Realizable", "R1")


def _space_filling_cycle():
    bounded = [
        ("a", ("u", "v"), (1, 0), 1, "u", 1),
        ("b", ("v", "w"), (0, 1), 1, "v", 1),
        ("c", ("u", "w"), (1, 1), 1, "u", 1),
    ]
    rays = [
        ("ru", "u", (-2, -1), 1, "p1"),
        ("rv", "v", (1, -1), 1, "p2"),
        ("rw", "w", (1, 2), 1, "p3"),
    ]
    m = build_map(
        2,
        ["u", "v", "w"],
        bounded,
        rays,
        {"u": (0, 0), "v": (1, 0), "w": (1, 1)},
    )
    assert validate_map(m) == []
    return m
