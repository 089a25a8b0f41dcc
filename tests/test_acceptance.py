"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from tropmap import (
    Assumptions,
    affine,
    betti_and_genus,
    build_figure1_family,
    canonical_type,
    combinatorial_type,
    cone_metrics,
    contract_edges,
    cycle_data,
    is_face,
    is_well_spaced,
    limit_of_family,
    make_family,
    moduli_cone,
    realizability_verdict,
    sample_interior,
)
from tropmap.cli import main as cli_main
from tropmap.documents import Document, DocumentError, load_document, serialize_document
from tropmap.exactgeom import ratvec, vdot
from tropmap.gallery import hat_demo, speyer_tree, square_loop

from builders import random_connected_multigraph, random_feasible_map
from oracles import bareiss_rank, dense_equations
from test_documents import _mutate


def _report(n, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


PROBES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100))


def test_criterion_1_figure1_flip():
    start = time.perf_counter()
    fam = build_figure1_family(3)
    for t in PROBES:
        member = limit_of_family(fam, t).map
        assert is_well_spaced(member).overall is True
    limit = limit_of_family(fam, 1)
    assert is_well_spaced(limit.map).overall is False
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 1.0, f"spacing true on {len(PROBES)} members, false at t=1 ({elapsed:.3f}s < 1s)")


def test_criterion_2_verdict_reproduction():
    fam = build_figure1_family(3)
    for t in PROBES:
        v = realizability_verdict(limit_of_family(fam, t).map)
        assert (v.verdict, v.reason) == ("Realizable", "Speyer sufficiency"), (t, v)
    limit = limit_of_family(fam, 1)
    assert is_well_spaced(limit.map).overall is False
    v = realizability_verdict(limit.map, Assumptions(family=fam))
    assert (v.verdict, v.rule, v.reason) == ("Realizable", "R4", "Theorem A")
    _report(2, True, "members Realizable(Speyer sufficiency); limit Realizable(Theorem A) though not well-spaced")


def test_criterion_3_superabundance_baseline():
    start = time.perf_counter()
    t = combinatorial_type(square_loop())
    mc = moduli_cone(t)
    metrics = cone_metrics(t)
    oracle_dim = len(mc.variables) - bareiss_rank(dense_equations(t))
    elapsed = time.perf_counter() - start
    ok = (
        metrics.dim == 5
        and metrics.expected_dim == 4
        and metrics.superabundant is True
        and oracle_dim == 5
        and elapsed < 0.1
    )
    _report(3, ok, f"dim=5 (oracle agrees), expected=4, superabundant ({elapsed:.4f}s < 0.1s)")


def test_criterion_4_moduli_round_trip():
    pairs = 0
    gallery_types = [
        combinatorial_type(m) for m in (square_loop(), speyer_tree(), hat_demo())
    ]
    gallery_types.append(canonical_type(build_figure1_family(3).type))
    for t in gallery_types:
        for seed in range(5):
            s = sample_interior(moduli_cone(t), seed)
            assert canonical_type(combinatorial_type(s)) == canonical_type(t)
            pairs += 1
    rng = random.Random(20240817)
    while pairs < 100:
        t = combinatorial_type(random_feasible_map(rng))
        mc = moduli_cone(t)
        for seed in range(5):
            s = sample_interior(mc, rng.randrange(10 ** 6))
            assert canonical_type(combinatorial_type(s)) == canonical_type(t)
            pairs += 1
    _report(4, pairs >= 100, f"{pairs} (type, seed) round trips exact")


def _independent_subcurve_verdict(m, cd, normal):
    """Per-hyperplane well-spacedness computed directly from the normal,
    sharing no code with the flat machinery."""
    phi = ratvec(normal)
    marked = m.curve.marked_vertex_ids
    base = m.positions[cd.frame.cycle_vertices[0]]
    in_vertex = {
        vid: vdot(phi, [x - y for x, y in zip(m.positions[vid], base, strict=True)]) == 0
        for vid in m.curve.unmarked_vertex_ids()
    }

    def edge_in(e):
        for end in e.ends:
            if end not in marked and not in_vertex[end]:
                return False
        return vdot(phi, ratvec(m.edge_data[e.id].u)) == 0

    comp = set(cd.frame.cycle_vertices)
    comp_edges = set(cd.frame.cycle_edges)
    stack = list(comp)
    while stack:
        vid = stack.pop()
        for e in m.curve.edges_at(vid):
            if edge_in(e):
                comp_edges.add(e.id)
                for end in e.ends:
                    if end not in marked and end not in comp:
                        comp.add(end)
                        stack.append(end)
    # shortest path distances to the cycle inside the component
    dist = {v: Fraction(0) for v in cd.frame.cycle_vertices}
    frontier = set(cd.frame.cycle_vertices)
    while frontier:
        nxt = set()
        for vid in sorted(frontier):
            for e in m.curve.edges_at(vid):
                if e.id not in comp_edges or m.curve.is_marked_leaf_edge(e):
                    continue
                for end in e.ends:
                    if end not in comp or end == vid:
                        continue
                    nd = dist[vid] + e.length
                    if end not in dist or nd < dist[end]:
                        dist[end] = nd
                        nxt.add(end)
        frontier = nxt
    multiset = []
    for vid in comp:
        if any(e.id not in comp_edges for e in m.curve.edges_at(vid)):
            multiset.append(dist[vid])
    if not multiset:
        return True
    low = min(multiset)
    return sum(1 for d in multiset if d == low) >= 2


def test_criterion_5_flat_soundness():
    start = time.perf_counter()
    rng = random.Random(5150)
    maps = {
        "square-loop": square_loop(),
        "speyer-tree": speyer_tree(),
        "hat-demo": hat_demo(),
        "figure1(t=1/2)": limit_of_family(build_figure1_family(3), Fraction(1, 2)).map,
    }
    checked = 0
    for name, m in maps.items():
        cd = cycle_data(m)
        assert cd.frame.codim >= 1, name
        report = is_well_spaced(m)
        by_pattern = {rec.flat.zero_set: rec for rec in report.flats}
        hits = 0
        while hits < 200:
            psi = [Fraction(rng.randint(-9, 9)) for _ in cd.frame.integer_quotient]
            if all(x == 0 for x in psi):
                continue
            normal = [
                sum(c * row[k] for c, row in zip(psi, cd.frame.integer_quotient))
                for k in range(m.fan.ambient_dim)
            ]
            pattern = tuple(
                sorted(v for v in cd.vectors if vdot(ratvec(psi), ratvec(v)) == 0)
            )
            matching = [p for p in by_pattern if p == pattern]
            assert len(matching) == 1, (name, pattern)
            rec = by_pattern[matching[0]]
            direct = _independent_subcurve_verdict(m, cd, normal)
            assert direct == rec.passes, (name, pattern)
            hits += 1
            checked += 1
    elapsed = time.perf_counter() - start
    _report(5, elapsed < 5.0, f"{checked} random hyperplanes matched flats and verdicts ({elapsed:.2f}s < 5s)")


def test_criterion_6_genus_euler_suite():
    rng = random.Random(606060)
    for i in range(1000):
        c = random_connected_multigraph(rng)
        b1, g = betti_and_genus(c)
        assert b1 == len(c.edges) - len(c.vertices) + 1
        assert g == b1 + sum(v.genus for v in c.vertices)
        if c.edges:
            e = rng.choice(c.edges)
            out = contract_edges(c, [e.id])[0]
            assert betti_and_genus(out)[1] == g
            if e.ends[0] == e.ends[1]:
                assert out.vertex(e.ends[0]).genus == c.vertex(e.ends[0]).genus + 1
                assert betti_and_genus(out)[0] == b1 - 1
    _report(6, True, "1000 random multigraphs: Euler count, contraction invariance, loop bump")


def test_criterion_7_limit_face_property():
    start = time.perf_counter()
    rng = random.Random(777)
    done = 0
    while done < 50:
        m = random_feasible_map(rng)
        t = combinatorial_type(m)
        bounded = t.bounded_edge_ids()
        if not bounded:
            continue
        has_cycle = betti_and_genus(t.graph)[0] > 0
        if has_cycle:
            # shrink the whole map: the closing edge has length one, so its
            # function is exactly 1 - t, and the closing constraints hold
            lengths = {}
            for eid in bounded:
                ell = m.curve.edge(eid).length
                lengths[eid] = affine(ell, -ell)
        else:
            subset = {
                eid for eid in bounded if rng.random() < 0.5
            } or {rng.choice(bounded)}
            lengths = {
                eid: affine(1, -1) if eid in subset else affine(1)
                for eid in bounded
            }
        fam = make_family(t, lengths)
        limit = limit_of_family(fam, 1)
        assert limit.contracted_edges, "family must contract something at t = 1"
        assert any(
            fam.lengths[eid] == affine(1, -1) for eid in limit.contracted_edges
        )
        witness = is_face(limit.type, t)
        assert witness is not None
        assert set(witness.contracted_edges) == set(limit.contracted_edges)
        done += 1
    elapsed = time.perf_counter() - start
    _report(7, elapsed < 10.0, f"50 family limits admit face witnesses ({elapsed:.2f}s < 10s)")


def criterion_8_documents():
    """The documents that criterion 8 round-trips and mutates."""
    return [
        Document("map", square_loop()),
        Document("map", speyer_tree()),
        Document("map", hat_demo()),
        Document("map", limit_of_family(build_figure1_family(3), Fraction(1, 2)).map),
        Document("family", build_figure1_family(3)),
        Document("type", combinatorial_type(square_loop())),
        Document("fan", square_loop().fan),
        Document("curve", square_loop().curve),
    ]


def test_criterion_8_cli_round_trip_and_fuzz(monkeypatch):
    docs = criterion_8_documents()
    for doc in docs:
        text = serialize_document(doc)
        again = serialize_document(load_document(text).document)
        assert again == text, f"{doc.kind} round trip not bit-exact"

    def run(args, stdin_text=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(args)
        return code, out.getvalue()

    # documented exit codes on the gallery
    code, out = run(["validate"], serialize_document(docs[0]))
    assert code == 0 and json.loads(out)["exit_code"] == 0
    fam_text = serialize_document(Document("family", build_figure1_family(3)))
    code, limit_out = run(["limit", "--t", "1"], fam_text)
    assert code == 0
    code, out = run(["wellspaced"], limit_out)
    assert code == 1 and json.loads(out)["exit_code"] == 1

    rng = random.Random(800813)
    seeds = [json.loads(serialize_document(d)) for d in docs]
    crashes = 0
    for i in range(500):
        text = _mutate(rng, rng.choice(seeds))
        try:
            load_document(text)
        except DocumentError:
            pass
        except Exception:
            crashes += 1
    # the loader may legitimately accept harmless mutations; the CLI must
    # still map every failure to exit 2 with a JSON pointer
    for i in range(60):
        text = _mutate(rng, rng.choice(seeds))
        code, out = run(["validate"], text if isinstance(text, str) else json.dumps(text))
        assert code in (0, 1, 2)
        report = json.loads(out)
        if code == 2:
            assert report["diagnostics"] and "pointer" in report["diagnostics"][0]
    _report(8, crashes == 0, "gallery bit-exact; 500 fuzzed documents handled without crashes")
