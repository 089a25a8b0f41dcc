"""Document I/O: round trips, pointered diagnostics, fuzz robustness."""

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import tropmap.cli
from tropmap import maps
from tropmap import AffineFn, canonical_type, combinatorial_type, documents, limit_of_family, make_type
from tropmap.cli import main
from tropmap.documents import (
    Document,
    DocumentError,
    load_document,
    serialize_document,
)
from tropmap.gallery import hat_demo, speyer_tree, square_loop
from tropmap.wellspaced import build_figure1_family

from builders import collinear_chain_family, rectangle_family, strict_unstable_member_family, three_rays
from oracles import ref_invalid_member, ref_positions_from_lengths

DIAGNOSTICS = Path(__file__).parent / "data" / "load_diagnostics.json"
STRICT_ORTHANT_FAN_MAP = Path(__file__).parent / "data" / "strict_orthant_fan_map.json"


def _gallery_documents():
    return [
        Document("map", square_loop()),
        Document("map", speyer_tree()),
        Document("map", hat_demo()),
        Document("family", build_figure1_family(3)),
        Document("type", combinatorial_type(square_loop())),
        Document("fan", square_loop().fan),
        Document("curve", square_loop().curve),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("doc", _gallery_documents(), ids=lambda d: d.kind)
    def test_bit_exact(self, doc):
        text = serialize_document(doc)
        loaded = load_document(text)
        assert loaded.warnings == []
        assert serialize_document(loaded.document) == text
        assert loaded.document.payload == doc.payload

    def test_pretty_and_compact_agree(self):
        doc = Document("map", square_loop())
        pretty = serialize_document(doc, pretty=True)
        assert load_document(pretty).document.payload == doc.payload

    def test_kind_inference(self):
        doc = Document("map", square_loop())
        raw = json.loads(serialize_document(doc))
        del raw["kind"]
        assert load_document(json.dumps(raw)).document.kind == "map"

    def test_envelope_unwrap(self):
        doc = Document("map", square_loop())
        envelope = {
            "command": "star",
            "inputs": {},
            "results": {"map": json.loads(serialize_document(doc))},
            "exit_code": 0,
        }
        loaded = load_document(json.dumps(envelope))
        assert loaded.document.payload == doc.payload

    def test_envelope_parsed_once(self, capsys, monkeypatch):
        family = serialize_document(Document("family", build_figure1_family(3)))
        monkeypatch.setattr("sys.stdin", io.StringIO(family))
        assert main(["limit", "--t", "1"]) == 0
        envelope = capsys.readouterr().out
        calls = []

        def counting(name):
            real = getattr(json, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return call

        fake = SimpleNamespace(loads=counting("loads"), dumps=counting("dumps"), JSONDecodeError=json.JSONDecodeError)
        monkeypatch.setattr(documents, "json", fake)
        loaded = load_document(envelope)
        assert loaded.document.kind == "map"
        assert calls == ["loads"]


class TestFamilyReader:
    """``parse_family`` reads each distinct canonical (const, slope)
    spelling once and shares the ``AffineFn`` it gives; the family read is
    the one written, and so are its integers."""

    @staticmethod
    def _families():
        from builders import fractional_chain_family, random_shrinking_family

        fams = [build_figure1_family(n) for n in (3, 6)]
        rng = random.Random(1818)
        fams += [random_shrinking_family(rng)[0] for _ in range(20)]
        return [*fams, fractional_chain_family()]

    @staticmethod
    def _check(text, fam):
        loaded = load_document(text)
        read = loaded.document.payload
        assert read == fam
        assert read.scaled == fam.scaled
        return loaded.warnings

    def test_read_family_is_the_written_one(self):
        for fam in self._families():
            assert self._check(serialize_document(Document("family", fam)), fam) == []

    def test_repeated_spellings_share_one_function(self):
        fam = build_figure1_family(3)
        read = load_document(serialize_document(Document("family", fam))).document.payload
        fns = [*read.lengths.values(), *(fn for p in read.positions.values() for fn in p)]
        assert len({id(fn) for fn in fns}) == len(set(fns)) < len(fns)

    def test_non_canonical_spellings_keep_their_warnings(self):
        fam = build_figure1_family(3)
        raw = json.loads(serialize_document(Document("family", fam)))
        # a pair spelled twice warns twice: only pairs read without a
        # warning are looked up
        raw["lengths"]["e1"] = raw["lengths"]["e2"] = {"const": "2/2", "slope": "+0"}
        raw["positions"]["ap"][0]["const"] = "-4/2"
        raw["positions"]["ap"][1]["slope"] = 0
        assert self._check(json.dumps(raw), fam) == [
            "/lengths/e1/const: normalized '2/2' to '1'",
            "/lengths/e1/slope: normalized '+0' to '0'",
            "/lengths/e2/const: normalized '2/2' to '1'",
            "/lengths/e2/slope: normalized '+0' to '0'",
            "/positions/ap/0/const: normalized '-4/2' to '-2'",
        ]


class TestDiagnostics:
    def test_non_canonical_rational_warns(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        entry = next(e for e in raw["curve"]["edges"] if e["id"] == "s0")
        entry["length"] = "2/2"
        loaded = load_document(json.dumps(raw))
        assert any("normalized" in w for w in loaded.warnings)
        assert loaded.document.payload == square_loop()

    @pytest.mark.parametrize("spelling, canonical", [
        ("+3", "3"), ("03", "3"), ("-0", "0"), (" 3", "3"), ("3 ", "3"), ("1_000", "1000"),
        ("6/4", "3/2"), ("3/-4", "-3/4"), ("0/5", "0"), ("3/1", "3"), ("-03/06", "-1/2"),
        ("\u0663", "3"), ("1/\u0664", "1/4"),
    ])
    def test_non_canonical_spellings_warn_and_normalize(self, spelling, canonical):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        raw["positions"]["c0"][0] = spelling
        loaded = load_document(json.dumps(raw))
        assert loaded.warnings == [f"/positions/c0/0: normalized {spelling!r} to {canonical!r}"]
        assert loaded.document.payload.positions["c0"][0] == Fraction(canonical)

    def test_unknown_vertex_pointer(self):
        raw = json.loads(serialize_document(Document("curve", square_loop().curve)))
        raw["edges"][0]["ends"][1] = "ghost"
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert err.value.pointer == "/edges/0/ends/1"

    def test_non_primitive_direction(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        raw["edge_data"]["s0"]["u"] = [2, 0, 0]
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert "primitive" in err.value.message

    def test_overlapping_strict_fan(self):
        # two cones that share no ray yet both hold (1, -3/7, -2/7)
        raw = {
            "ambient_dim": 3,
            "cones": [{"rays": [[1, -1, 2], [1, 0, -2]]}, {"rays": [[-1, 2, 1], [1, 0, 1], [2, -1, -1]]}],
        }
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert err.value.pointer == "/cones"
        assert err.value.message.endswith("do not meet in a common face")
        raw["embedded"] = True  # an embedded fan's cones are never read
        assert load_document(json.dumps(raw)).document.payload.embedded

    def test_missing_position(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        del raw["positions"]["c0"]
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert err.value.pointer == "/positions/c0"

    def test_pointer_escapes_keys(self):
        # RFC 6901: "~" is written "~0" and "/" is written "~1"
        text = serialize_document(Document("map", square_loop())).replace('"c0"', '"c/1~x"')
        raw = json.loads(text)
        raw["positions"]["c/1~x"] = ["0", "0"]
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert (err.value.pointer, err.value.message) == ("/positions/c~11~0x", "expected 3 coordinates")

    @pytest.mark.parametrize("doc, path, value, message", [
        (Document("map", square_loop()), ["positions"], ["0", "0", "0"], "unknown vertex a/b~c"),
        (Document("map", square_loop()), ["edge_data"], {"u": [1, 0, 0], "w": 1, "tail": "c0"},
         "unknown edge a/b~c"),
        (Document("type", combinatorial_type(square_loop())), ["vertex_cones"], {"rays": []},
         "unknown vertex a/b~c"),
        (Document("family", build_figure1_family(3)), ["lengths"], {"const": "1", "slope": "0"},
         "unknown edge a/b~c"),
        (Document("family", build_figure1_family(3)), ["positions"], [], "unknown vertex a/b~c"),
    ], ids=["map positions", "edge_data", "vertex_cones", "lengths", "family positions"])
    def test_unknown_key_pointer_is_escaped(self, doc, path, value, message):
        raw = json.loads(serialize_document(doc))
        target = raw
        for key in path:
            target = target.setdefault(key, {})
        target["a/b~c"] = value
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert (err.value.pointer, err.value.message) == ("/" + "/".join(path) + "/a~1b~0c", message)

    @pytest.mark.parametrize("text", ["[" * 200000, '{"a":' * 5000 + "1" + "}" * 5000], ids=["array", "object"])
    def test_deep_nesting_is_refused(self, text):
        with pytest.raises(DocumentError) as err:
            load_document(text)
        assert (err.value.pointer, err.value.message) == ("", "invalid JSON: nested too deeply")

    def test_invalid_json(self):
        with pytest.raises(DocumentError):
            load_document("{not json")

    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            load_document('{"kind": "widget"}')

    def test_float_rejected(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        raw["positions"]["c0"][0] = 0.5
        with pytest.raises(DocumentError):
            load_document(json.dumps(raw))


_DELETE = object()

# (path in the square-loop map document, new value or _DELETE, the loader's
# (pointer, message), or None when the document still loads).  Each field
# the loader reads directly gets a wrong type (a bool, an int for a string,
# a dict for a list) or is deleted; the refusals are the ones the pointered
# readers gave before the direct reads.
_FIELD_ERRORS = [
    (("curve", "vertices", 0, "id"), True, ("/curve/vertices/0/id", "expected str")),
    (("curve", "vertices", 0, "id"), 5, ("/curve/vertices/0/id", "expected str")),
    (("curve", "vertices", 0, "id"), _DELETE, ("/curve/vertices/0/id", "missing")),
    (("curve", "vertices", 0, "genus"), True, ("/curve/vertices/0/genus", "expected a natural number")),
    (("curve", "vertices", 0, "genus"), "0", ("/curve/vertices/0/genus", "expected a natural number")),
    (("curve", "vertices", 0, "genus"), -1, ("/curve/vertices/0/genus", "expected a natural number")),
    (("curve", "vertices", 0, "genus"), _DELETE, None),
    (("curve", "vertices", 0), ["c0"], ("/curve/vertices/0", "expected an object")),
    (("curve", "vertices"), {}, ("/curve/vertices", "expected list")),
    (("curve", "vertices"), _DELETE, ("/curve/vertices", "missing")),
    (("curve", "edges", 4, "id"), True, ("/curve/edges/4/id", "expected str")),
    (("curve", "edges", 4, "id"), 7, ("/curve/edges/4/id", "expected str")),
    (("curve", "edges", 4, "id"), _DELETE, ("/curve/edges/4/id", "missing")),
    (("curve", "edges", 4, "ends"), True, ("/curve/edges/4/ends", "expected list")),
    (("curve", "edges", 4, "ends"), {}, ("/curve/edges/4/ends", "expected list")),
    (("curve", "edges", 4, "ends"), "c0", ("/curve/edges/4/ends", "expected list")),
    (("curve", "edges", 4, "ends"), ["c0"], ("/curve/edges/4/ends", "expected two endpoints")),
    (("curve", "edges", 4, "ends"), _DELETE, ("/curve/edges/4/ends", "missing")),
    (("curve", "edges", 4, "ends", 1), True, ("/curve/edges/4/ends/1", "expected a vertex id")),
    (("curve", "edges", 4, "ends", 1), 5, ("/curve/edges/4/ends/1", "expected a vertex id")),
    (("curve", "edges", 4, "length"), True, ("/curve/edges/4/length", "expected a rational as string or integer")),
    (("curve", "edges", 4, "length"), {}, ("/curve/edges/4/length", "expected a rational as string or integer")),
    (("curve", "edges", 4, "length"), 1.5, ("/curve/edges/4/length", "expected a rational as string or integer")),
    (("curve", "edges", 4, "length"), _DELETE, ("/curve/edges/4/length", "missing")),
    (("curve", "edges", 4), [], ("/curve/edges/4", "expected an object")),
    (("curve", "edges"), {}, ("/curve/edges", "expected list")),
    (("curve", "edges"), _DELETE, ("/curve/edges", "missing")),
    (("curve", "markings", 0, "label"), True, ("/curve/markings/0/label", "expected str")),
    (("curve", "markings", 0, "label"), 3, ("/curve/markings/0/label", "expected str")),
    (("curve", "markings", 0, "label"), _DELETE, ("/curve/markings/0/label", "missing")),
    (("curve", "markings", 0, "vertex"), True, ("/curve/markings/0/vertex", "expected str")),
    (("curve", "markings", 0, "vertex"), 3, ("/curve/markings/0/vertex", "expected str")),
    (("curve", "markings", 0, "vertex"), _DELETE, ("/curve/markings/0/vertex", "missing")),
    (("curve", "markings", 0), [], ("/curve/markings/0", "expected an object")),
    (("curve", "markings"), {}, ("/curve/markings", "expected an array")),
    (("edge_data", "s0", "u"), True, ("/edge_data/s0/u", "expected an array of integers")),
    (("edge_data", "s0", "u"), {}, ("/edge_data/s0/u", "expected an array of integers")),
    (("edge_data", "s0", "u"), [1, 0], ("/edge_data/s0/u", "expected length 3")),
    (("edge_data", "s0", "u"), [1, True, 0], ("/edge_data/s0/u/1", "expected an integer")),
    (("edge_data", "s0", "u"), [1, "0", 0], ("/edge_data/s0/u/1", "expected an integer")),
    (("edge_data", "s0", "u"), _DELETE, ("/edge_data/s0/u", "missing")),
    (("edge_data", "s0", "w"), True, ("/edge_data/s0/w", "expected int")),
    (("edge_data", "s0", "w"), "1", ("/edge_data/s0/w", "expected int")),
    (("edge_data", "s0", "w"), -1, ("/edge_data/s0/w", "negative weight")),
    (("edge_data", "s0", "w"), _DELETE, ("/edge_data/s0/w", "missing")),
    (("edge_data", "s0", "tail"), True, ("/edge_data/s0/tail", "expected str")),
    (("edge_data", "s0", "tail"), 0, ("/edge_data/s0/tail", "expected str")),
    (("edge_data", "s0", "tail"), _DELETE, ("/edge_data/s0/tail", "missing")),
    # the first failing field in reading order decides, whatever follows it
    (("edge_data", "s0"), {"u": [1, 0, 0], "w": -1, "tail": 5}, ("/edge_data/s0/w", "negative weight")),
    (("edge_data", "s0"), {"u": "x", "w": True}, ("/edge_data/s0/u", "expected an array of integers")),
    (("edge_data", "s0"), {"u": [1, 0, 0], "w": 1, "tail": "c2"}, ("/edge_data/s0/tail", "tail is not an endpoint")),
    (("edge_data", "s0"), {"u": [0, 0, 0], "w": 1, "tail": "c0"},
     ("/edge_data/s0", "weight must be zero exactly when the direction is zero")),
    (("edge_data", "s0"), {"u": [2, 0, 0], "w": 1, "tail": "c0"}, ("/edge_data/s0/u", "direction is not primitive")),
    (("edge_data", "s0"), [], ("/edge_data/s0", "expected an object")),
    (("edge_data", "s0"), _DELETE, ("/edge_data/s0", "missing edge data")),
    (("edge_data",), [], ("/edge_data", "expected an object")),
    (("positions", "c0", 0), True, ("/positions/c0/0", "expected a rational as string or integer")),
    (("positions", "c0", 0), {}, ("/positions/c0/0", "expected a rational as string or integer")),
    (("positions", "c0", 0), 0.5, ("/positions/c0/0", "expected a rational as string or integer")),
    (("positions", "c0", 0), _DELETE, ("/positions/c0", "expected 3 coordinates")),
    (("positions", "c0"), True, ("/positions/c0", "expected 3 coordinates")),
    (("positions", "c0"), {}, ("/positions/c0", "expected 3 coordinates")),
    (("positions", "c0"), _DELETE, ("/positions/c0", "missing position")),
    (("positions",), [], ("/positions", "expected an object")),
]


class TestVertexCones:
    """A type document's vertex cones are canonicalized once, by
    ``make_type``, and a refusal of one points at its ``vertex_cones`` entry."""

    @staticmethod
    def _strict_type_raw():
        strict = load_document(STRICT_ORTHANT_FAN_MAP.read_text()).document.payload
        return json.loads(serialize_document(Document("type", combinatorial_type(strict))))

    def test_loading_canonicalizes_each_nonzero_cone_once(self, monkeypatch):
        text = json.dumps(self._strict_type_raw())
        calls = []
        real = maps._canonical_pointed

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(maps, "_canonical_pointed", counting)
        for _ in range(2):
            load_document(text)
        # three nonzero vertex cones (c1, c2, c3) per load; the loader
        # itself holds no binding of the canonicalizer
        assert len(calls) == 6
        assert not hasattr(documents, "_canonical_pointed")

    def test_a_cone_outside_the_fan_is_refused_at_its_entry(self):
        raw = self._strict_type_raw()
        raw["vertex_cones"]["c1"] = {"rays": [[1, 1, 0]]}
        with pytest.raises(DocumentError) as info:
            load_document(json.dumps(raw))
        assert (info.value.pointer, info.value.message) == (
            "/vertex_cones/c1", "vertex cone of c1 is not a cone of the fan"
        )


class TestDirectReads:
    @pytest.mark.parametrize("path, value, expected", _FIELD_ERRORS,
                             ids=["/".join(map(str, path)) + (" deleted" if value is _DELETE else f"={value!r}")
                                  for path, value, _ in _FIELD_ERRORS])
    def test_field_refusals(self, path, value, expected):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        node = raw
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        if expected is None:
            load_document(json.dumps(raw))
            return
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert (err.value.pointer, err.value.message) == expected

    def test_repeated_spellings_warn_each_time(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        raw["positions"]["c0"] = ["0/2", "0/2", "2/2"]
        raw["positions"]["c1"][1] = "0/2"
        raw["curve"]["edges"][4]["length"] = "02"
        raw["curve"]["edges"][5]["length"] = "02"
        assert load_document(json.dumps(raw)).warnings == [
            "/curve/edges/4/length: normalized '02' to '2'",
            "/curve/edges/5/length: normalized '02' to '2'",
            "/positions/c0/0: normalized '0/2' to '0'",
            "/positions/c0/1: normalized '0/2' to '0'",
            "/positions/c0/2: normalized '2/2' to '1'",
            "/positions/c1/1: normalized '0/2' to '0'",
        ]

    def test_unsorted_curve_is_read_sorted(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        curve = raw["curve"]
        for key in ("vertices", "edges", "markings"):
            curve[key].reverse()
        for e in curve["edges"]:
            e["ends"].reverse()
        assert load_document(json.dumps(raw)).document.payload == square_loop()


def _mutate(rng: random.Random, raw):
    """One structural mutation of a JSON value."""
    data = json.loads(json.dumps(raw))
    ops = rng.randint(0, 6)
    path = []
    node = data
    while isinstance(node, (dict, list)) and rng.random() < 0.7:
        if isinstance(node, dict) and node:
            key = rng.choice(sorted(node))
            path.append(key)
            node = node[key]
        elif isinstance(node, list) and node:
            idx = rng.randrange(len(node))
            path.append(idx)
            node = node[idx]
        else:
            break

    def parent():
        cur = data
        for step in path[:-1]:
            cur = cur[step]
        return cur

    if not path:
        return rng.choice(["[]", "42", '"x"', "{", '{"kind": "widget"}'])
    target = parent()
    key = path[-1]
    if ops == 0:
        del target[key]
    elif ops == 1:
        target[key] = None
    elif ops == 2:
        target[key] = 1.5
    elif ops == 3:
        target[key] = "garbage/0"
    elif ops == 4:
        target[key] = [True]
    elif ops == 5:
        target[key] = {"oops": 1}
    else:
        target[key] = -7
    return json.dumps(data)


class TestFuzz:
    def test_mutations_never_crash(self):
        rng = random.Random(2024)
        seeds = [
            json.loads(serialize_document(d))
            for d in _gallery_documents()
        ]
        for i in range(120):
            text = _mutate(rng, rng.choice(seeds))
            try:
                load_document(text)
            except DocumentError as err:
                assert isinstance(err.pointer, str)


_VALUES = (0, 1, -1, 2, 3, "0", "1", "-1", "2", "1/2", "-3/2")


def _mutate_semantics(rng: random.Random, raw):
    """One change that keeps a document well formed but may break an axiom
    of its type or family.  In half the family documents, one part of one
    length or position function is replaced by a small number.  Otherwise
    a number is replaced by a small one or respelled with a factor 2 on
    both sides of its fraction, a vertex is given genus 1 or one more
    marking, an edge is reversed or only its tail or its direction is
    turned, or else the document gets a structural mutation
    (:func:`_mutate`)."""
    data = json.loads(json.dumps(raw))
    doc = data.get("type", data)
    curve, edge_data = doc["curve"], doc["edge_data"]
    op = rng.choice(("number", "number", "spelling", "genus", "marking", "reverse", "tail", "negate", "structure"))
    if "lengths" in data and rng.random() < 0.5:
        # a family: one part of one length or position function
        fns = [*data["lengths"].values(), *(fn for fns in data["positions"].values() for fn in fns)]
        rng.choice(fns)[rng.choice(("const", "slope"))] = rng.choice(_VALUES)
    elif op in ("number", "spelling"):
        leaves = []

        def collect(node, parent, key):
            if isinstance(node, dict):
                for k in sorted(node):
                    collect(node[k], node, k)
            elif isinstance(node, list):
                for i, x in enumerate(node):
                    collect(x, node, i)
            elif type(node) is int or (isinstance(node, str) and node.lstrip("-").split("/")[0].isdigit()):
                leaves.append((parent, key))

        collect(data, None, None)
        parent, key = rng.choice(leaves)
        if op == "number":
            parent[key] = rng.choice(_VALUES)
        else:
            x = Fraction(parent[key])
            parent[key] = f"{2 * x.numerator}/{2 * x.denominator}"
    elif op == "genus":
        rng.choice(curve["vertices"])["genus"] = 1
    elif op == "marking":
        curve["markings"].append({"label": "extra", "vertex": rng.choice(curve["vertices"])["id"]})
    elif op in ("reverse", "tail", "negate"):
        eid = rng.choice(sorted(edge_data))
        d = edge_data[eid]
        if op != "tail":
            d["u"] = [-x for x in d["u"]]
        if op != "negate":
            ends = next(e["ends"] for e in curve["edges"] if e["id"] == eid)
            d["tail"] = ends[1] if d["tail"] == ends[0] else ends[0]
    else:
        return _mutate(rng, data)
    return json.dumps(data)


def _fuzz_seeds():
    """(document, limit map document or None) pairs: maps and types for
    the type commands, families with their t = 1 limits for ``limit`` and
    ``verdict --family``."""
    strict_map = load_document(STRICT_ORTHANT_FAN_MAP.read_text())
    maps = [square_loop(), speyer_tree(), three_rays(), strict_map.document.payload]
    families = [
        build_figure1_family(3),
        strict_unstable_member_family(),
        collinear_chain_family(3, {"c1"}),
        rectangle_family(1, 2, {"s1", "s5"}),
    ]
    seeds = [(Document("map", m), None) for m in maps]
    seeds += [(Document("type", combinatorial_type(m)), None) for m in maps]
    seeds += [(Document("type", fam.type), None) for fam in families]
    seeds += [
        (Document("family", fam), serialize_document(Document("map", limit_of_family(fam, 1).map)))
        for fam in families
    ]
    return [(json.loads(serialize_document(doc)), limit) for doc, limit in seeds]


def _derived_parts(t, lengths, positions):
    """The family parts the member reference reads: the positions given,
    or else walked from the first finite vertex on the constant and the
    slope parts of the lengths, as ``make_family`` derives them."""
    if positions is not None:
        return t, lengths, positions
    base = t.graph.unmarked_vertex_ids()[0]
    origin = (0,) * t.fan.ambient_dim
    try:
        walks = [ref_positions_from_lengths(t, {e: part(fn) for e, fn in lengths.items()}, base, origin)
                 for part in (lambda fn: fn.const, lambda fn: fn.slope)]
    except KeyError:  # a bounded edge without a length
        return t, lengths, {}
    return t, lengths, {v: tuple(map(AffineFn, walks[0][v], walks[1][v])) for v in walks[0]}


def test_mutated_types_and_families_through_the_cli(monkeypatch, tmp_path):
    """Seeded mutations of type and family documents (and of maps, for
    ``type``) through ``type``, ``cone``, ``superabundant``, ``limit --t 1``
    and ``verdict --family``.  A run exits 2 with a pointer, or every type
    it loaded passes ``make_type`` again and every family it loaded has
    members that the reference accepts at each of its probes (t = 0, 1/2
    and 1 among them).  A family that construction refuses has a member,
    at one of those probes, that the reference refuses."""
    built_types, built_families, refused = [], [], []

    def recording(build):
        def call(*args):
            built_types.append(build(*args))
            return built_types[-1]
        return call

    def recording_family(t, lengths, positions=None):
        try:
            built_families.append(real_family(t, lengths, positions))
        except ValueError:
            refused.append(_derived_parts(canonical_type(t), lengths, positions))
            raise
        return built_families[-1]

    real_family = documents.make_family
    monkeypatch.setattr(documents, "make_type", recording(documents.make_type))
    monkeypatch.setattr(documents, "make_family", recording_family)
    monkeypatch.setattr(tropmap.cli, "combinatorial_type", recording(tropmap.cli.combinatorial_type))
    rng = random.Random(2310)
    seeds = _fuzz_seeds()
    runs = Counter()
    while sum(runs.values()) < 300:
        raw, limit = rng.choice(seeds)
        text = _mutate_semantics(rng, raw)
        if limit is not None:
            # verdict reads the family from a file and its limit map from stdin
            path = tmp_path / "family.json"
            path.write_text(text)
            commands = [(["limit", "--t", "1"], text), (["verdict", "--family", str(path)], limit)]
        else:
            commands = [(["type"], text)] if raw["kind"] == "map" else []
            commands += [(["cone"], text), (["superabundant"], text)]
        for args, stdin in commands:
            del built_types[:], built_families[:]
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(args)
            report = json.loads(out.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert isinstance(report["diagnostics"][0]["pointer"], str)
                runs[args[0], "refused"] += 1
                continue
            for t in built_types:
                assert make_type(t.graph, t.fan, t.edge_data, t.vertex_cones) == t, text
            for fam in built_families:
                assert ref_invalid_member(fam.type, fam.lengths, fam.positions) is None, text
            runs[args[0], "answered"] += 1
    for parts in refused:
        assert ref_invalid_member(*parts) is not None, parts
    # every command both answers and refuses, and construction refuses families
    assert {(c, a) for c in ("type", "cone", "superabundant", "limit", "verdict") for a in ("refused", "answered")} <= set(runs), runs
    assert len(refused) >= 10, runs


def test_load_outcomes_match_the_recorded_diagnostics():
    import load_diagnostics  # it imports this module

    recorded = json.loads(DIAGNOSTICS.read_text(encoding="utf-8"))
    computed = load_diagnostics.compute()
    assert sorted(computed) == sorted(recorded)
    for name, records in recorded.items():
        for i, (want, got) in enumerate(zip(records, computed[name], strict=True)):
            assert got == want, f"{name} #{i}"
