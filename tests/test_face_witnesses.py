"""The face relation's witnesses equal the recorded ones and those of the
exhaustive search over every edge subset (``oracles.ref_is_face``)."""

import json
from pathlib import Path

import pytest

import face_witnesses
from builders import collinear_chain_family, rectangle_family
from oracles import ref_is_face
from tropmap.curves import Marking, tropical_curve
from tropmap.maps import CombinatorialType, EdgeMapData
from tropmap.moduli import is_face, limit_of_family
from tropmap.wellspaced import build_figure1_family

DATA = Path(__file__).parent / "data" / "face_witnesses.json"


def test_face_witnesses_match_the_record():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(recorded) >= 4 + 1 + 20
    assert face_witnesses.compute() == recorded


# the new families repeat signatures: several bounded edges share one
# (weight, ±direction) class, so several subsets pass the signature filter
# and the order they are tried in decides the witness; every subset of a
# chain's size is a witness
FAMILIES = {
    **face_witnesses.families(),
    "rectangle 1x2 shrinking s1, s5": rectangle_family(1, 2, {"s1", "s5"}),
    "rectangle 1x2 shrinking s2, s4": rectangle_family(1, 2, {"s2", "s4"}),
    "rectangle 2x2 shrinking s2, s6": rectangle_family(2, 2, {"s2", "s6"}),
    "rectangle 2x2 shrinking s0, s1, s4, s5": rectangle_family(2, 2, {"s0", "s1", "s4", "s5"}),
    "chain of 4 shrinking c1, c2": collinear_chain_family(4, {"c1", "c2"}),
    "chain of 5 shrinking c4": collinear_chain_family(5, {"c4"}),
    "chain of 5 shrinking c0, c2, c3": collinear_chain_family(5, {"c0", "c2", "c3"}),
}


def _relabeled(t, renames):
    g = t.graph
    markings = [Marking(renames.get(m.label, m.label), m.vertex) for m in g.markings]
    return CombinatorialType(tropical_curve(g.vertices, g.edges, markings), t.fan, t.vertex_cones, t.edge_data)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_witness_equals_the_exhaustive_search(name):
    fam = FAMILIES[name]
    limit = limit_of_family(fam, 1).type
    w = is_face(limit, fam.type)
    assert w is not None
    assert w == ref_is_face(limit, fam.type)
    # every family shrinks an edge, so the other way round is no face
    assert is_face(fam.type, limit) is None
    assert ref_is_face(fam.type, limit) is None


def test_chain_witness_is_the_first_subset():
    fam = FAMILIES["chain of 4 shrinking c1, c2"]
    w = is_face(limit_of_family(fam, 1).type, fam.type)
    assert w.contracted_edges == ("c0", "c1")


def test_non_faces_agree():
    rect = FAMILIES["rectangle 1x2 shrinking s1, s5"]
    limit = limit_of_family(rect, 1).type
    # the +e3 rays at the two middle vertices trade labels: the legs and the
    # edge classes still agree, but no contraction fixes every marking
    swapped = _relabeled(limit, {"p2": "p6", "p6": "p2"})
    assert limit.edge_data[limit.marked_edges["p2"].id].u == limit.edge_data[limit.marked_edges["p6"].id].u
    pairs = [
        (swapped, rect.type),
        (limit_of_family(build_figure1_family(3), 1).type, build_figure1_family(4).type),
    ]
    for ta, tb in pairs:
        assert is_face(ta, tb) is None
        assert ref_is_face(ta, tb) is None


def test_mismatched_marked_legs_agree():
    fam = build_figure1_family(3)
    limit = limit_of_family(fam, 1).type
    label = limit.graph.markings[0].label
    leg = limit.marked_edges[label].id
    d = limit.edge_data[leg]
    heavier = CombinatorialType(
        limit.graph, limit.fan, limit.vertex_cones, {**limit.edge_data, leg: EdgeMapData(d.u, d.w + 1, d.tail)}
    )
    for ta in (_relabeled(limit, {label: "elsewhere"}), heavier):
        assert is_face(ta, fam.type) is None
        assert ref_is_face(ta, fam.type) is None
