"""Genus-one analysis: cycles, flats, spacing, the hat, and verdicts."""

import io
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from tropmap import (
    AffineFn,
    Assumptions,
    CertificateError,
    Family,
    affine,
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
)
from tropmap import moduli, wellspaced
from tropmap.cli import main
from tropmap.curves import Edge, tropical_curve
from tropmap.documents import Document, serialize_document
from tropmap.exactgeom import build_fan, canonical_cone, cone, primitive, vdot, vector_content
from tropmap.gallery import GALLERY_NAMES, gallery_map, hat_demo, speyer_tree, square_loop
from tropmap.maps import STABILITY_VIOLATED, make_type, stable_map
from tropmap.moduli import InfeasibleCone, moduli_cone, sample_interior
from tropmap.wellspaced import (
    _PROBES,
    cycle_frame,
    multiset_passes,
)

from builders import (
    bent_square,
    build_map,
    collinear_chain_family,
    fractional_chain_family,
    lone_genus_one_vertex,
    random_connected_multigraph,
    random_feasible_map,
    random_shrinking_family,
    rectangle_family,
    strict_unstable_member_family,
    three_rays,
    tilted_parallel_pair,
    turning_branch_family,
)
from oracles import (
    canonical_map,
    fraction_projection,
    lift_pattern,
    ref_check_family_certificate,
    ref_cycle_frame,
    ref_invalid_member,
    ref_level_cut,
    ref_member,
    ref_member_defect,
    ref_positions_from_lengths,
    ref_unique_cycle,
    ref_well_spaced,
    subset_closure_flats,
)


class TestCycleData:
    def test_square_loop_plane(self):
        m = square_loop()
        cd = cycle_data(m)
        assert set(cd.frame.cycle_edges) == {"s0", "s1", "s2", "s3"}
        assert cd.frame.codim == 1
        # the span is the horizontal plane: the cycle edges' directions have
        # last entry 0, and the one quotient row annihilates them
        directions = [m.edge_data[eid].u for eid in cd.frame.cycle_edges]
        assert all(u[2] == 0 for u in directions)
        assert cd.frame.integer_quotient == ((0, 0, 1),)
        assert all(vdot(row, u) == 0 for row in cd.frame.integer_quotient for u in directions)

    def test_lone_vertex_point_span(self):
        cd = cycle_data(lone_genus_one_vertex(3))
        assert cd.frame.codim == 3
        # the span is a point: no cycle edge, and the quotient is the identity
        assert cd.frame.cycle_edges == ()
        assert cd.frame.integer_quotient == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_contracted_loop_point_span(self):
        cd = cycle_data(speyer_tree())
        assert cd.frame.cycle_vertices == ("v0",)
        assert cd.frame.codim == 2

    def test_space_filling_cycle(self):
        # triangle whose edges span all of R^2: codim 0, not superabundant
        m = _space_filling_cycle()
        cd = cycle_data(m)
        assert cd.frame.codim == 0
        with pytest.raises(ValueError):
            enumerate_flats(cd)

    def test_unique_cycle_equals_the_sweep(self):
        curves = [gallery_map(name).curve for name in GALLERY_NAMES]
        curves += [figure1_member(n, t).curve for n in (3, 6) for t in (0, 1)]
        rng = random.Random(77)
        while len(curves) < 300:
            c = random_connected_multigraph(rng)
            if betti_and_genus(c)[0] == 1:
                curves.append(c)
        checked = 0
        for c in curves:
            if betti_and_genus(c)[0] == 1:
                assert wellspaced._unique_cycle(c) == ref_unique_cycle(c)
                checked += 1
        assert checked >= 250

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
        m = square_loop()
        cd = cycle_data(m)
        flats = enumerate_flats(cd)
        assert len(flats) == 1
        assert flats[0].zero_set == ()
        assert all(vdot(flats[0].normal, m.edge_data[eid].u) == 0 for eid in cd.frame.cycle_edges)

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
        flats = enumerate_flats(cycle_data(m))
        assert [f.zero_set for f in flats] == [(), ((0, 1),), ((1, 0),)]

    def test_three_coplanar_classes(self):
        bounded = [("loop", ("v", "v"), (0, 0), 0, "v", 1)]
        rays = [
            ("r1", "v", (1, 0), 1, "p1"),
            ("r2", "v", (0, 1), 1, "p2"),
            ("r3", "v", (-1, -1), 1, "p3"),
        ]
        m = build_map(2, ["v"], bounded, rays, {"v": (0, 0)})
        flats = enumerate_flats(cycle_data(m))
        assert len(flats) == 4  # empty flat + three singletons

    def test_oracle_cross_check(self):
        for m in (speyer_tree(), hat_demo(), bent_square()):
            cd = cycle_data(m)
            expected = subset_closure_flats(cd.vectors, cd.frame.codim - 1)
            got = {frozenset(f.zero_set) for f in enumerate_flats(cd)}
            assert got == expected

    def test_normals_certify(self):
        for m in (speyer_tree(), hat_demo(), bent_square(), square_loop()):
            cd = cycle_data(m)
            _, _, q = ref_cycle_frame(m)
            for flat in enumerate_flats(cd):
                assert lift_pattern(q, cd.vectors, flat.normal) == flat.zero_set


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
        assert cd.frame.codim == 6
        assert len(cd.vectors) > wellspaced.MAX_ARRANGEMENT_VECTORS
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
        assert max(len(cycle_data(m).vectors) for m in maps) < wellspaced.MAX_ARRANGEMENT_VECTORS


class TestIntegerProjection:
    """The integer projection and the enumerated flats against the Fraction
    projection and the lift-based patterns of the oracles."""

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
        return [m for m in maps if cycle_data(m).frame.codim > 0]

    def test_against_fraction_oracles(self):
        rng = random.Random(29)
        denominators = set()
        for m in self._maps():
            cd = cycle_data(m)
            _, _, q = ref_cycle_frame(m)
            assert cd.vectors == fraction_projection(m, m.positions[cd.frame.cycle_vertices[0]], q)
            denominators.add(frozenset(max(x.denominator for x in row) for row in q))
            flats = enumerate_flats(cd)
            for f in flats:
                assert lift_pattern(q, cd.vectors, f.normal) == f.zero_set
            # every hyperplane through the span cuts one of the flats
            for _ in range(5):
                psi = [rng.randint(-3, 3) for _ in q]
                normal = [vdot(psi, col) for col in zip(*q)]
                if any(normal):
                    assert lift_pattern(q, cd.vectors, normal) in {f.zero_set for f in flats}
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
            arrangements.clear()
            cycles.clear()
            is_well_spaced(m)
            assert (len(arrangements), len(cycles)) == (1, 1)

    def test_one_validation_per_probe_member(self, monkeypatch):
        # the limit map is validated; the members are read off the family,
        # which is validated once, so no member is built as a map, and the
        # limit is compared with the map on the family's integers, so
        # neither is the limit
        fam = build_figure1_family(3)
        target = limit_of_family(fam, 1).map
        validations = self._count(monkeypatch, "validate_map")
        built = []
        original = moduli._map_from_lengths
        monkeypatch.setattr(moduli, "_map_from_lengths", lambda *args: built.append(args) or original(*args))
        assert realizability_verdict(target, Assumptions(family=fam)).rule == "R4"
        assert len(validations) == 1
        assert built == []


LAST_PROBE_FAILS = "bent square, g2 below 1 after t = 3/4"


def _certificate_families():
    """(name, target map, family) for the R4 certificate comparisons."""
    from tropmap import affine, make_family

    cases = []
    for n in (3, 4, 5, 6):
        fam = build_figure1_family(n)
        cases.append((f"figure1 n={n}", limit_of_family(fam, 1).map, fam))
    families = {
        "strict unstable members": strict_unstable_member_family(),
        "rectangle 1x2 shrinking s1, s5": rectangle_family(1, 2, {"s1", "s5"}),
        "rectangle 2x2 shrinking s0, s1, s4, s5": rectangle_family(2, 2, {"s0", "s1", "s4", "s5"}),
        "chain of 4 shrinking c1, c2": collinear_chain_family(4, {"c1", "c2"}),
        "turning branch in R^4": turning_branch_family(),
    }
    # a genus-one family whose spacing fails after t = 0: branch g1 grows
    bent = combinatorial_type(bent_square())
    lengths = {e: affine(1) for e in bent.bounded_edge_ids()}
    lengths.update(g1=affine(1, 1), g2=affine(2))
    families["bent square, growing g1"] = make_family(bent, lengths)
    # g2 falls below the other branches' distance 1 after t = 3/4: only the
    # member at t = 99/100 is not well-spaced
    lengths = {e: affine(1) for e in bent.bounded_edge_ids()}
    lengths.update(g2=affine(2, Fraction(-11, 10)))
    families[LAST_PROBE_FAILS] = make_family(bent, lengths)
    rng = random.Random(1414)
    for i in range(200):
        families[f"random #{i}"] = random_shrinking_family(rng)[0]
    for name, fam in families.items():
        cases.append((name, limit_of_family(fam, 1).map, fam))
    # the wrong-limit certificate of test_bad_certificate
    loop_type = combinatorial_type(square_loop())
    wrong = make_family(loop_type, {e: affine(1) for e in loop_type.bounded_edge_ids()})
    cases.append(("wrong limit", figure1_member(3, 1), wrong))
    return cases


def _families_breaking_one_check():
    """(name, type, lengths, positions, refusal) for families that break
    one of the checks a family runs when it is built, or whose type breaks
    one that ``make_type`` runs.  The type is kept as built directly, for
    the member reference."""
    fig = build_figure1_family(3)
    strict = strict_unstable_member_family()
    # f1 = 1 - 2t: the branch edge reaches 0 at t = 1/2 and goes negative;
    # the positions walk the constant and slope parts from a at the origin
    lengths = {**fig.lengths, "f1": affine(1, -2)}
    walks = [
        ref_positions_from_lengths(fig.type, {e: part(fn) for e, fn in lengths.items()}, "a", (0, 0, 0))
        for part in (lambda fn: fn.const, lambda fn: fn.slope)
    ]
    walked = {v: tuple(map(AffineFn, walks[0][v], walks[1][v])) for v in walks[0]}
    cases = [("f1 = 1 - 2t", fig.type, lengths, walked, "length of f1 is not positive on [0,1): 1 + (-2)*t")]
    # every position moves by (-5 + 5t, 0): each vertex starts outside its
    # quadrant cone, inside the fan's support or, on a fan of the positive
    # quadrant alone, outside it
    moved = {v: (AffineFn(x.const - 5, x.slope + 5), y) for v, (x, y) in strict.positions.items()}
    quadrant = replace(strict.type, fan=build_fan(2, [[(1, 0), (0, 1)]]))
    cases += [
        ("strict, outside the vertex cone at t = 0", strict.type, strict.lengths, moved,
         "position of a exits its cone at t=0"),
        ("strict, outside the support at t = 0", quadrant, strict.lengths, moved,
         "position of a exits its cone at t=0"),
    ]
    # vertex cones that hold every position but are not cones of the fan
    wedge = canonical_cone(cone(2, [(1, 0), (1, 1)]))
    wedged = replace(strict.type, vertex_cones={v: wedge for v in strict.type.vertex_cones})
    cases.append(("strict, vertex cones not in the fan", wedged, strict.lengths, strict.positions,
                  "vertex cone of a is not a cone of the fan"))
    # the equation of f1 holds at t = 0 only
    ap = fig.positions["ap"]
    bent = {**fig.positions, "ap": (AffineFn(ap[0].const, ap[0].slope + 1), *ap[1:])}
    cases.append(("equation at t = 0 only", fig.type, fig.lengths, bent, "family inconsistent on edge f1 at t=1/2"))
    unplaced = {v: p for v, p in fig.positions.items() if v != "ap"}
    cases.append(("missing position", fig.type, fig.lengths, unplaced, "vertex ap has no position"))
    return cases


def _valid_but_unstable(m) -> bool:
    """Valid, or failing the stability axiom only, as certificate members may."""
    return all(d.startswith(STABILITY_VIOLATED) for d in validate_map(m))


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


class TestSharedFrame:
    """The family certificate decides every probe member on one cycle frame;
    the oracle decides each member on its own."""

    def test_certificate_matches_the_per_member_oracle(self, monkeypatch):
        rules = set()
        for name, target, fam in _certificate_families():
            assume = Assumptions(family=fam)
            got = _outcome(lambda: wellspaced._check_family_certificate(target, assume))
            want = _outcome(lambda: ref_check_family_certificate(target, assume))
            assert got == want, name
            rules.add(got if got is None else got[1].rsplit(" ", 1)[-1])
            if validate_map(target):
                continue
            verdict = _outcome(lambda: realizability_verdict(target, assume))
            with monkeypatch.context() as patched:
                patched.setattr(wellspaced, "_check_family_certificate", ref_check_family_certificate)
                assert _outcome(lambda: realizability_verdict(target, assume)) == verdict, name
        # accepted certificates and rejections by R0, R2 and R5 all occur
        assert {None, "(R0)", "(R2)", "(R5)"} <= rules

    def test_certificate_families_are_valid_by_construction(self):
        # construction accepts each family again, and the reference finds
        # every member at its probes a map of the family's type
        for name, _, fam in _certificate_families():
            assert Family(fam.type, fam.lengths, fam.positions) == fam, name
            assert ref_invalid_member(fam.type, fam.lengths, fam.positions) is None, name

    def test_families_breaking_one_check(self):
        # each is refused when it is built, its type through make_type, and
        # the reference finds a member that is not a map of the type
        for name, t, lengths, positions, want in _families_breaking_one_check():
            with pytest.raises(ValueError) as info:
                Family(make_type(t.graph, t.fan, t.edge_data, t.vertex_cones), lengths, positions)
            assert str(info.value) == want, name
            assert ref_invalid_member(t, lengths, positions) is not None, name

    @staticmethod
    def _genus_one_maps():
        """(map, another valid map with its graph and edge data)."""
        pairs = []
        for name in GALLERY_NAMES:
            m = gallery_map(name)
            pairs += [(m, s) for s in TestSharedFrame._samples(m)]
        rng = random.Random(23)
        while len(pairs) < 60:
            m = random_feasible_map(rng, max_vertices=5)
            if betti_and_genus(m.curve)[1] == 1:
                pairs += [(m, s) for s in TestSharedFrame._samples(m)]
        for _, _, fam in _certificate_families():
            members = [limit_of_family(fam, t).map for t in _PROBES]
            valid = [x for x in members if _valid_but_unstable(x)]
            if valid and betti_and_genus(valid[0].curve)[1] == 1:
                pairs += [(x, valid[0]) for x in valid]
        return pairs

    @staticmethod
    def _samples(m):
        mc = moduli_cone(combinatorial_type(m))
        out = []
        for seed in (0, 1):
            try:
                s = sample_interior(mc, seed)
            except InfeasibleCone:
                continue
            if s.positions != m.positions:
                out.append(s)
        return out

    def test_frame_equals_the_maps_own(self):
        checked = 0
        for m, other in self._genus_one_maps():
            assert _valid_but_unstable(m) and _valid_but_unstable(other)
            assert cycle_frame(other) == cycle_frame(m)
            cd = cycle_data(m)
            if cd.frame.codim == 0:
                continue
            # the arrangement on the other map's frame is m's own
            assert wellspaced._map_cycle_data(cycle_frame(other), m) == cd
            checked += 1
        assert checked >= 60

    def test_two_frames_per_family_verdict(self, monkeypatch, tmp_path):
        fam = build_figure1_family(3)
        family_doc = tmp_path / "family.json"
        family_doc.write_text(serialize_document(Document("family", fam)))
        limit_doc = serialize_document(Document("map", limit_of_family(fam, 1).map))
        frames = TestWorkDoneOnce._count(monkeypatch, "cycle_frame")
        monkeypatch.setattr("sys.stdin", io.StringIO(limit_doc))
        out = io.StringIO()
        monkeypatch.setattr("sys.stdout", out)
        assert main(["verdict", "--family", str(family_doc)]) == 0
        assert json.loads(out.getvalue())["results"]["rule"] == "R4"
        # one for the limit map, one shared by the five probe members
        assert len(frames) == 2


class TestIntegerPaths:
    """The certificate's integer shortcuts against the Fraction-path and
    per-member references in ``tests/oracles.py``: the integer cycle frame,
    the vertex offsets projected once per family, the flats enumerated once
    per distinct arrangement, and the limit compared on the integers."""

    def test_frame_equals_the_fraction_path(self):
        maps = [gallery_map(name) for name in GALLERY_NAMES]
        for n in (3, 4, 5, 6):
            fam = build_figure1_family(n)
            maps.append(limit_of_family(fam, 1).map)
            maps += [ref_member(fam, t) for t in (*_PROBES, Fraction(1, 3), Fraction(5, 7))]
            maps += [fam.member(t) for t in (*_PROBES, Fraction(2, 9))]
        rng = random.Random(18)
        maps += [random_feasible_map(rng, max_vertices=5) for _ in range(200)]
        genus_one = 0
        for m in maps:
            frame = cycle_frame(m)
            assert frame == ref_cycle_frame(m)[0]
            genus_one += frame.genus == 1 and frame.codim > 0
        assert genus_one >= 100

    def test_projected_offsets_equal_the_members_own(self):
        checked = 0
        for name, _, fam in _certificate_families():
            members = [(t, fam.member(t)) for t in (*_PROBES, Fraction(1, 3), Fraction(7, 8))]
            frame = cycle_frame(members[0][1])
            if frame.genus != 1 or frame.codim == 0:
                continue
            ids = fam.type.graph.unmarked_vertex_ids()
            offsets = wellspaced._projected_offsets(frame, ids, fam.scaled.positions)
            for t, member in members:
                # the per-vertex projections, not only the arrangement they
                # merge into, equal those of the member's own slope-zero offsets
                own = {vid: tuple((x, 0) for x in p) for vid, p in member.scaled.positions.items()}
                own_offsets = wellspaced._projected_offsets(cycle_frame(member), ids, own)
                assert wellspaced._vertex_projections(offsets, t) == wellspaced._vertex_projections(
                    own_offsets, Fraction(0)
                ), name
                assert wellspaced._cycle_data(frame, offsets, t) == cycle_data(member), name
                checked += 1
        assert checked >= 100

    def test_failing_at_one_probe_names_that_probe(self):
        _, target, fam = next(case for case in _certificate_families() if case[0] == LAST_PROBE_FAILS)
        want = ("CertificateError", "family member at t=99/100 is not realizable by the direct rules (R2)")
        assert _outcome(lambda: ref_check_family_certificate(target, Assumptions(family=fam))) == want
        assert _outcome(lambda: wellspaced._check_family_certificate(target, Assumptions(family=fam))) == want
        spaced = [is_well_spaced(limit_of_family(fam, t).map).overall for t in _PROBES]
        assert spaced == [True, True, True, True, False]

    def test_trapped_component_depends_on_the_normal_alone(self):
        # the component read off the edge directions, its boundary, the
        # distances and the verdict are those of the level cut in the
        # oracles: on the gallery maps, on 250 seeded genus-one maps and on
        # every valid member of the certificate families, whose members
        # share one component per normal, also where a normal puts
        # different vertices in its hyperplane at different t
        groups = [(name, [gallery_map(name)]) for name in GALLERY_NAMES]
        rng = random.Random(540)
        seeded = 0
        while seeded < 250:
            m = random_feasible_map(rng, max_vertices=5)
            if betti_and_genus(m.curve)[1] == 1:
                groups.append((f"seeded map #{seeded}", [m]))
                seeded += 1
        for name, _, fam in _certificate_families():
            groups.append((name, [fam.member(t) for t in (*_PROBES, Fraction(1, 3), Fraction(7, 8))]))
        checked = ties = 0
        for name, maps in groups:
            if not maps:
                continue
            frame = cycle_frame(maps[0])
            if frame.genus != 1 or frame.codim == 0:
                continue
            in_h: dict[tuple, set] = {}
            flats: dict = {}
            components: dict = {}
            for m in maps:
                cd = cycle_data(m)
                report = is_well_spaced(m)
                positions = m.scaled.positions
                for rec in report.flats:
                    phi = rec.flat.normal
                    cut = ref_level_cut(m, frame, phi)
                    assert rec.subcurve == cut, name
                    component, comp_edges, boundary = components.setdefault(
                        phi, wellspaced._flat_component(m, frame, phi)
                    )
                    assert (component, comp_edges) == (set(cut.vertex_ids), set(cut.edge_ids)), name
                    assert tuple(vid for vid, _ in boundary) == tuple(vid for vid, _ in cut.boundary), name
                    for vid, path in boundary:
                        # a chain of component edges off the cycle, from a
                        # cycle vertex to the boundary vertex
                        assert set(path) <= comp_edges - set(frame.cycle_edges), name
                        end = vid
                        for eid in reversed(path):
                            assert end not in frame.cycle_vertices, name
                            x, y = m.curve.edge(eid).ends
                            assert end in (x, y) and x != y, name
                            end = y if end == x else x
                        assert end in frame.cycle_vertices, name
                    level = vdot(phi, positions[frame.cycle_vertices[0]])
                    in_h.setdefault(phi, set()).add(
                        frozenset(v for v in m.curve.unmarked_vertex_ids() if vdot(phi, positions[v]) == level)
                    )
                    checked += 1
                assert report.overall == ref_well_spaced(m, frame), name
                witness = report.witness.flat if report.witness else None
                assert wellspaced._first_failing_flat(m, cd, flats, components) == witness, name
            ties += sum(len(sets) > 1 for sets in in_h.values())
        assert checked >= 1000
        # some normal puts different vertices in its hyperplane at different t
        assert ties >= 1

    def test_flats_and_cycle_data_equal_the_per_member_ones(self, monkeypatch):
        # every member the certificate decides is decided on its own cycle
        # data and on the flats enumerate_flats gives that member alone
        decided = []
        spacings = wellspaced._flat_spacings
        monkeypatch.setattr(
            wellspaced, "_flat_spacings",
            lambda m, cd, flats, *rest: decided.append((m, cd, flats)) or spacings(m, cd, flats, *rest),
        )
        enumerations = TestWorkDoneOnce._count(monkeypatch, "enumerate_flats")
        arrangements = set()
        for name, target, fam in _certificate_families():
            decided.clear()
            enumerations.clear()
            _outcome(lambda: wellspaced._check_family_certificate(target, Assumptions(family=fam)))
            vectors = set()
            for member, cd, flats in decided:
                own = cycle_data(member)
                assert cd == own, name
                assert flats == enumerate_flats(own), name
                vectors.add(own.vectors)
            assert len(enumerations) == len(vectors) <= len(decided), name
            arrangements.add((len(vectors), len(decided)))
        # families whose members share one arrangement and families whose
        # members do not both occur
        assert {(1, 5), (5, 5)} <= arrangements

    @staticmethod
    def _moved(m, vid, k):
        p = m.positions[vid]
        return stable_map(m.curve, m.fan, {**m.positions, vid: (*p[:k], p[k] + 1, *p[k + 1:])}, m.edge_data)

    @staticmethod
    def _stretched(m, eid):
        edges = [Edge(e.id, e.ends, e.length + Fraction(1, 2)) if e.id == eid else e for e in m.curve.edges]
        return stable_map(tropical_curve(m.curve.vertices, edges, m.curve.markings), m.fan, m.positions, m.edge_data)

    def _altered_limits(self):
        """(name, map, family) where the map is the family's limit but for
        one coordinate, one length or one contracted edge."""
        cases = []
        for n in (3, 6):
            fam = build_figure1_family(n)
            limit = limit_of_family(fam, 1).map
            cases.append((f"figure1 n={n}", limit, fam))
            for vid, k in (("a", 0), ("bp", 1), ("cp", n - 1)):
                cases.append((f"figure1 n={n}, {vid}[{k}] + 1", self._moved(limit, vid, k), fam))
            for eid in ("e1", "f2"):
                cases.append((f"figure1 n={n}, {eid} + 1/2", self._stretched(limit, eid), fam))
        fam = fractional_chain_family()
        limit = limit_of_family(fam, 1).map
        assert fam.scaled.denominator != limit.scaled.denominator
        cases += [
            ("fractional chain", limit, fam),
            ("fractional chain, v0[1] + 1", self._moved(limit, "v0", 1), fam),
            ("fractional chain, c2 + 1/2", self._stretched(limit, "c2"), fam),
        ]
        chains = {k: collinear_chain_family(4, {"c1", "c2"} - {k}) for k in ("", "c1", "c2")}
        for k, fam in chains.items():
            for j, other in chains.items():
                cases.append((f"chain limit {k or '-'} against family {j or '-'}", limit_of_family(other, 1).map, fam))
        rng = random.Random(1818)
        while len(cases) < 80:
            fam, shrink = random_shrinking_family(rng)
            if "cyc" in shrink:
                continue
            eid = rng.choice(fam.type.bounded_edge_ids())
            lengths = {**fam.lengths, eid: affine(1) if eid in shrink else affine(1, -1)}
            toggled = moduli.make_family(fam.type, lengths)
            cases.append((f"random tree toggling {eid}", limit_of_family(toggled, 1).map, fam))
            cases.append((f"random tree, limit", limit_of_family(fam, 1).map, fam))
        return cases

    def test_limit_check_equals_the_reference(self):
        matches = set()
        for name, target, fam in self._altered_limits():
            assume = Assumptions(family=fam)
            got = _outcome(lambda: wellspaced._check_family_certificate(target, assume))
            assert got == _outcome(lambda: ref_check_family_certificate(target, assume)), name
            same = canonical_map(limit_of_family(fam, 1).map) == canonical_map(target)
            assert moduli._is_limit(fam, target) == same, name
            matches.add(same)
            if "+" in name:
                assert not same, name
        assert matches == {True, False}

    def test_merged_vertices_apart_fail_as_the_reference_does(self):
        # c1 shrinks to 0, but v2 drifts off the chain's line, so c2's
        # equation holds at t = 0 only: the family is refused when it is
        # built, and at t = 1 the reference finds c1's ends apart
        fam = collinear_chain_family(3, {"c1"})
        positions = {**fam.positions, "v2": (fam.positions["v2"][0], affine(0, 1))}
        with pytest.raises(ValueError, match="^family inconsistent on edge c1 at t=1/2$"):
            Family(fam.type, fam.lengths, positions)
        assert ref_invalid_member(fam.type, fam.lengths, positions)[0] == Fraction(1, 4)
        diag = ref_member_defect(fam.type, fam.lengths, positions, Fraction(1))
        assert diag.startswith("integrality violated on edge c1")


def _distances(sub):
    """A trapped subcurve's boundary distances, sorted."""
    return tuple(sorted(d for _, d in sub.boundary))


class TestSubcurve:
    def test_square_loop_whole_curve(self):
        m = square_loop()
        flat = enumerate_flats(cycle_data(m))[0]
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
        flat = enumerate_flats(cycle_data(m))[0]  # the empty flat: all rays depart
        sub = subcurve_in_flat(m, flat)
        assert sub.boundary == (("v", Fraction(0)),)

    def test_speyer_tree_multiset(self):
        m = speyer_tree()
        flats = enumerate_flats(cycle_data(m))
        horizontal = [f for f in flats if f.zero_set == ((1, 0),)]
        assert len(horizontal) == 1
        sub = subcurve_in_flat(m, horizontal[0])
        assert _distances(sub) == (1, 1, 2)

    def test_figure1_departure_pair(self):
        m = figure1_member(3, Fraction(1, 2))
        flat = enumerate_flats(cycle_data(m))[0]
        sub = subcurve_in_flat(m, flat)
        assert _distances(sub) == (0, 0, 1, 1, 1, 1)

    def test_foreign_flat_rejected(self):
        m = square_loop()
        flat = enumerate_flats(cycle_data(speyer_tree()))[0]
        with pytest.raises(ValueError):
            subcurve_in_flat(m, flat)

    def test_equals_the_report_and_refuses_other_flats(self):
        # the subcurve of each of m's flats is the one in is_well_spaced's
        # record of that flat; any other flat is refused, also one with one
        # of m's zero sets and another normal
        maps = [gallery_map(name) for name in GALLERY_NAMES]
        maps += [figure1_member(n, t) for n in (3, 4, 5, 6) for t in (0, Fraction(1, 2), 1)]
        maps = [m for m in maps if betti_and_genus(m.curve)[1] == 1 and cycle_data(m).frame.codim > 0]
        assert len(maps) == 16
        every_flat = [f for m in maps for f in enumerate_flats(cycle_data(m))]
        for m in maps:
            records = is_well_spaced(m).flats
            for rec in records:
                assert subcurve_in_flat(m, rec.flat) == rec.subcurve
            own = [rec.flat for rec in records]
            others = [f for f in every_flat if f not in own]
            others += [replace(f, normal=tuple(2 * x for x in f.normal)) for f in own]
            assert others
            for flat in others:
                with pytest.raises(ValueError, match="^flat was not generated for this map$"):
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
        assert _distances(rep.flats[0].subcurve) == (1, 1, 2)

    def test_fail_on_123(self):
        rep = is_well_spaced(bent_square((1, 2, 3)))
        assert not rep.overall
        assert rep.witness is not None
        assert _distances(rep.witness.subcurve) == (1, 2, 3)

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
        _, _, q = ref_cycle_frame(m)
        flats = enumerate_flats(cd)
        by_pattern = {f.zero_set: f for f in flats}
        for _ in range(25):
            psi = [Fraction(rng.randint(-6, 6)) for _ in cd.frame.integer_quotient]
            if all(x == 0 for x in psi):
                continue
            normal = [
                sum(c * row[k] for c, row in zip(psi, cd.frame.integer_quotient))
                for k in range(m.fan.ambient_dim)
            ]
            pattern = lift_pattern(q, cd.vectors, normal)
            assert pattern in by_pattern
            flat = by_pattern[pattern]
            direct = subcurve_in_flat(m, flat)
            assert multiset_passes(_distances(direct)) == (
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

    def test_callable_certificate_is_resolved_only_by_r4(self):
        fam = build_figure1_family(3)
        calls = []

        def certificate():
            calls.append(None)
            return fam

        cases = [
            (three_rays(2), False, "R0"),
            (bent_square((1, 1, 2)), False, "R1"),
            (bent_square((1, 2, 3)), False, "R2"),
            (lone_genus_one_vertex(2), True, "R3"),
            (limit_of_family(fam, Fraction(1, 2)).map, False, "R1"),
        ]
        for m, star_realizable, rule in cases:
            v = realizability_verdict(m, Assumptions(star_realizable=star_realizable, family=certificate))
            assert v.rule == rule
        assert calls == []
        v = realizability_verdict(limit_of_family(fam, 1).map, Assumptions(family=certificate))
        assert (v.verdict, v.rule, v.reason) == ("Realizable", "R4", "Theorem A")
        assert len(calls) == 1

    def test_callable_certificate_errors_surface(self):
        fam = build_figure1_family(3)

        def broken():
            raise ValueError("unreadable certificate")

        with pytest.raises(ValueError, match="unreadable certificate"):
            realizability_verdict(limit_of_family(fam, 1).map, Assumptions(family=broken))

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
            spaced = is_well_spaced(m).overall
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
