"""Document I/O: round trips, pointered diagnostics, fuzz robustness."""

import io
import json
import random
from types import SimpleNamespace

import pytest

from tropmap import combinatorial_type, documents
from tropmap.cli import main
from tropmap.documents import (
    Document,
    DocumentError,
    load_document,
    serialize_document,
)
from tropmap.gallery import hat_demo, speyer_tree, square_loop
from tropmap.wellspaced import build_figure1_family


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


class TestDiagnostics:
    def test_non_canonical_rational_warns(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        entry = next(e for e in raw["curve"]["edges"] if e["id"] == "s0")
        entry["length"] = "2/2"
        loaded = load_document(json.dumps(raw))
        assert any("normalized" in w for w in loaded.warnings)
        assert loaded.document.payload == square_loop()

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

    def test_missing_position(self):
        raw = json.loads(serialize_document(Document("map", square_loop())))
        del raw["positions"]["c0"]
        with pytest.raises(DocumentError) as err:
            load_document(json.dumps(raw))
        assert err.value.pointer == "/positions/c0"

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
