"""CLI: commands, exit codes, pipelines."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropmap
from tropmap.cli import main
from tropmap.documents import Document, load_document, map_json, serialize_document
from tropmap.exactgeom import complete_orthant_fan
from tropmap.gallery import square_loop
from tropmap.maps import combinatorial_type, validate_map
from tropmap.moduli import moduli_cone, sample_interior

from builders import rectangle_cycle, strict_unstable_member_family
from oracles import lp_cone_locate


def run_cli(capsys, monkeypatch, args, stdin=""):
    monkeypatch.setattr("sys.stdin", _FakeStdin(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text


@pytest.fixture()
def square_loop_doc(tmp_path):
    path = tmp_path / "square-loop.json"
    path.write_text(serialize_document(Document("map", square_loop())))
    return str(path)


class TestCommands:
    def test_validate_ok(self, capsys, monkeypatch, square_loop_doc):
        code, out, err = run_cli(capsys, monkeypatch, ["validate", square_loop_doc])
        assert code == 0
        report = json.loads(out)
        assert report["results"]["valid"] is True
        assert report["exit_code"] == 0
        assert report["inputs"]["input"].startswith("sha256:")

    def test_cone_metrics(self, capsys, monkeypatch, square_loop_doc):
        code, out, _ = run_cli(capsys, monkeypatch, ["cone", square_loop_doc])
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["dim"], results["expected_dim"]) == (5, 4)
        assert results["superabundant"] is True
        assert results["equations"] == [
            {"edge": "s0", "head": "c1", "tail": "c0", "wu": [1, 0, 0]},
            {"edge": "s1", "head": "c2", "tail": "c1", "wu": [0, 1, 0]},
            {"edge": "s2", "head": "c3", "tail": "c2", "wu": [-1, 0, 0]},
            {"edge": "s3", "head": "c0", "tail": "c3", "wu": [0, -1, 0]},
        ]

    def test_cone_sample_seed(self, capsys, monkeypatch, square_loop_doc):
        code, out, _ = run_cli(capsys, monkeypatch, ["cone", square_loop_doc, "--sample", "--seed", "4"])
        assert code == 0
        sample = json.loads(out)["results"]["sample"]
        want = sample_interior(moduli_cone(combinatorial_type(square_loop())), 4)
        assert sample == json.loads(json.dumps(map_json(want)))

    def test_moduli_cone_built_once(self, capsys, monkeypatch, square_loop_doc):
        calls = []
        real = tropmap.moduli.moduli_cone

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(tropmap.moduli, "moduli_cone", counting)
        monkeypatch.setattr(tropmap.cli, "moduli_cone", counting)
        for argv in (["cone"], ["cone", "--sample"], ["superabundant"]):
            calls.clear()
            code, _, _ = run_cli(capsys, monkeypatch, [argv[0], square_loop_doc] + argv[1:])
            assert code == 0
            assert len(calls) == 1, argv

    def test_sample_reuses_the_cone_support_lp(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "rectangle.json"
        path.write_text(serialize_document(Document("map", rectangle_cycle(4, 4))))
        calls = []

        def counting(name):
            real = getattr(tropmap.moduli, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("_closing_rows", "_tree_steps", "solve_nonneg"):
            monkeypatch.setattr(tropmap.moduli, name, counting(name))
        code, _, _ = run_cli(capsys, monkeypatch, ["cone", str(path), "--sample"])
        assert code == 0
        # the cycle rows and the all-positive support LP, once each, and one
        # tree walk for the cycle rows and one for the sample's positions
        assert sorted(calls) == ["_closing_rows", "_tree_steps", "_tree_steps", "solve_nonneg"]

    def test_superabundant_exit_codes(self, capsys, monkeypatch, square_loop_doc, tmp_path):
        code, _, _ = run_cli(capsys, monkeypatch, ["superabundant", square_loop_doc])
        assert code == 0
        from builders import three_rays

        flat = tmp_path / "rays.json"
        flat.write_text(serialize_document(Document("map", three_rays(3))))
        code, _, _ = run_cli(capsys, monkeypatch, ["superabundant", str(flat)])
        assert code == 1

    def test_wellspaced_pipeline(self, capsys, monkeypatch):
        code, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "3", "--t", "1/2"])
        assert code == 0
        code, out, _ = run_cli(capsys, monkeypatch, ["wellspaced"], stdin=doc)
        assert code == 0
        assert json.loads(out)["results"]["well_spaced"] is True

    def test_wellspaced_limit_fails(self, capsys, monkeypatch):
        _, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--t", "1"])
        code, out, _ = run_cli(capsys, monkeypatch, ["wellspaced"], stdin=doc)
        assert code == 1
        assert json.loads(out)["results"]["well_spaced"] is False

    def test_limit_command(self, capsys, monkeypatch):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1"])
        code, out, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1"], stdin=fam_doc)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["contracted"] == ["et", "etp"]
        # the limit map report can be piped onwards
        code, out2, _ = run_cli(capsys, monkeypatch, ["wellspaced"], stdin=out)
        assert code == 1

    def test_verdict_with_family(self, capsys, monkeypatch, tmp_path):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1"])
        fam_path = tmp_path / "family.json"
        fam_path.write_text(fam_doc)
        _, limit_doc, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1"], stdin=fam_doc)
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["verdict", "--family", str(fam_path)],
            stdin=limit_doc,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results == {"verdict": "Realizable", "rule": "R4", "reason": "Theorem A"}

    def test_verdict_family_with_unstable_members(self, capsys, monkeypatch, tmp_path):
        fam = strict_unstable_member_family()
        fam_path = tmp_path / "family.json"
        fam_path.write_text(serialize_document(Document("family", fam)))
        limit_doc = serialize_document(Document("map", tropmap.limit_of_family(fam, 1).map))
        code, out, _ = run_cli(
            capsys, monkeypatch, ["verdict", "--family", str(fam_path)], stdin=limit_doc
        )
        assert code == 0
        assert json.loads(out)["results"]["rule"] == "R4"

    def test_verdict_member(self, capsys, monkeypatch):
        _, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--t", "1/2"])
        code, out, _ = run_cli(capsys, monkeypatch, ["verdict"], stdin=doc)
        assert code == 0
        assert json.loads(out)["results"]["reason"] == "Speyer sufficiency"

    def test_star_and_hat(self, capsys, monkeypatch):
        _, doc, _ = run_cli(capsys, monkeypatch, ["example", "hat-demo"])
        code, out, _ = run_cli(capsys, monkeypatch, ["hat", "--t", "1/2"], stdin=doc)
        assert code == 0
        code, out2, _ = run_cli(capsys, monkeypatch, ["star", "--vertex", "v"], stdin=out)
        assert code == 0
        assert json.loads(out2)["results"]["map"]["positions"] == {"v": ["0", "0"]}

    def test_type_command(self, capsys, monkeypatch, square_loop_doc):
        code, out, _ = run_cli(capsys, monkeypatch, ["type", square_loop_doc])
        assert code == 0
        t = json.loads(out)["results"]["type"]
        assert "positions" not in t
        assert t["vertex_cones"]["c0"] == {"rays": []}

    def test_plot(self, capsys, monkeypatch, square_loop_doc, tmp_path):
        out_path = tmp_path / "plot.svg"
        code, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["plot", square_loop_doc, "--axes", "0,1", "-o", str(out_path)],
        )
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg") and "<circle" in svg

    def test_fan_override(self, capsys, monkeypatch, square_loop_doc):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["validate", square_loop_doc, "--fan", "complete"]
        )
        assert code == 0

    def test_example_names(self, capsys, monkeypatch):
        for name in ("square-loop", "speyer-tree", "hat-demo"):
            code, out, _ = run_cli(capsys, monkeypatch, ["example", name])
            assert code == 0
            assert json.loads(out)["kind"] == "map"

    def test_figure1_members_validate_across_interval(self, capsys, monkeypatch):
        for t in ("0", "1/7", "2/3", "9/10", "1"):
            _, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--t", t])
            code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin=doc)
            assert code == 0, (t, out)
            assert json.loads(out)["results"]["valid"] is True


class TestPerCommandWork:
    def test_parser_is_built_once_and_serves_every_command(self, capsys, monkeypatch, square_loop_doc):
        assert tropmap.cli._build_parser() is tropmap.cli._build_parser()
        code, out, _ = run_cli(capsys, monkeypatch, ["validate", square_loop_doc])
        assert (code, json.loads(out)["command"]) == (0, "validate")
        code, out, _ = run_cli(capsys, monkeypatch, ["cone", square_loop_doc])
        assert (code, json.loads(out)["command"]) == (0, "cone")
        assert json.loads(out)["results"]["dim"] == 5


class TestUnbalancedTypes:
    @staticmethod
    def _unbalanced_type(capsys, monkeypatch, square_loop_doc) -> str:
        _, out, _ = run_cli(capsys, monkeypatch, ["type", square_loop_doc])
        raw = json.loads(out)["results"]["type"]
        raw["edge_data"]["m0"]["w"] = 2
        return json.dumps(raw)

    @pytest.mark.parametrize("command", ["cone", "superabundant"])
    def test_cone_commands_refuse(self, capsys, monkeypatch, square_loop_doc, command):
        doc = self._unbalanced_type(capsys, monkeypatch, square_loop_doc)
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2
        diag = json.loads(out)["diagnostics"][0]
        assert diag["pointer"] == "/curve/vertices/0"
        assert diag["message"].startswith("balancing violated at vertex c0")
        assert "superabundant" not in err

    def test_limit_refuses_a_family_of_unbalanced_type(self, capsys, monkeypatch):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1"])
        raw = json.loads(fam_doc)
        raw["type"]["edge_data"]["f1"]["w"] = 3
        code, out, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1/2"], stdin=json.dumps(raw))
        assert code == 2
        vertices = [v["id"] for v in raw["type"]["curve"]["vertices"]]
        diag = json.loads(out)["diagnostics"][0]
        assert diag["pointer"] == f"/type/curve/vertices/{vertices.index('a')}"
        assert "balancing violated at vertex a" in diag["message"]


class TestMarkedVertexDefects:
    """A figure1 family whose marked vertex q01 is given genus 1 or a
    second marking: its type is refused on load, at q01's entry, so no
    command answers it with exit 0."""

    @staticmethod
    def _family(capsys, monkeypatch, defect):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "3"])
        raw = json.loads(fam_doc)
        curve = raw["type"]["curve"]
        if defect == "genus":
            next(v for v in curve["vertices"] if v["id"] == "q01")["genus"] = 1
        else:
            curve["markings"].append({"label": "p99", "vertex": "q01"})
        return raw, curve["vertices"].index(next(v for v in curve["vertices"] if v["id"] == "q01"))

    MESSAGES = {"genus": "marked vertex q01 has nonzero genus", "marking": "vertex q01 carries more than one marking"}

    @pytest.mark.parametrize("defect", MESSAGES)
    def test_family_commands_and_cone_refuse(self, capsys, monkeypatch, tmp_path, defect):
        raw, index = self._family(capsys, monkeypatch, defect)
        family = tmp_path / "family.json"
        family.write_text(json.dumps(raw))
        _, limit_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "3", "--t", "1"])
        runs = [
            (["limit", "--t", "1", str(family)], "", "/type"),
            (["verdict", "--family", str(family)], limit_doc, "/type"),
            (["cone"], json.dumps({"kind": "type", **raw["type"]}), ""),
        ]
        for args, stdin, prefix in runs:
            code, out, err = run_cli(capsys, monkeypatch, args, stdin=stdin)
            assert code == 2 and "Traceback" not in err, args
            assert json.loads(out)["diagnostics"] == [
                {"pointer": f"{prefix}/curve/vertices/{index}", "message": self.MESSAGES[defect]}
            ], args


class TestFamilyParsedOnlyForR4:
    """``verdict --family`` reads the file up front but parses and checks it
    only when rules R0-R3 leave the map undecided: a bad family file cannot
    change an R1 answer, and is refused as before when R4 needs it."""

    @pytest.fixture()
    def files(self, capsys, monkeypatch, tmp_path):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "3"])
        _, member, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "3", "--t", "1/2"])
        _, limit, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1"], stdin=fam_doc)
        genus, index = TestMarkedVertexDefects._family(capsys, monkeypatch, "genus")
        paths = {}
        for name, text in (
            ("valid", fam_doc), ("truncated", fam_doc[:200]), ("map", member), ("genus", json.dumps(genus)),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        return paths, member, limit, index

    BAD = ("truncated", "map", "genus")

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_family_leaves_an_r1_verdict_alone(self, capsys, monkeypatch, files, bad):
        paths, member, _, _ = files
        _, valid, _ = run_cli(capsys, monkeypatch, ["verdict", "--family", str(paths["valid"])], stdin=member)
        code, out, err = run_cli(capsys, monkeypatch, ["verdict", "--family", str(paths[bad])], stdin=member)
        assert code == 0
        report = json.loads(out)
        assert report["results"] == json.loads(valid)["results"]
        assert report["results"]["rule"] == "R1"
        # read up front: its digest is reported
        assert report["inputs"]["family"] == "sha256:" + hashlib.sha256(paths[bad].read_bytes()).hexdigest()
        assert err == "Realizable [R1] Speyer sufficiency\n"

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_family_is_refused_when_r4_needs_it(self, capsys, monkeypatch, files, bad):
        paths, _, limit, index = files
        code, out, err = run_cli(capsys, monkeypatch, ["verdict", "--family", str(paths[bad])], stdin=limit)
        assert code == 2 and "Traceback" not in err
        diagnostics = json.loads(out)["diagnostics"]
        # the same refusal as ``limit`` gives for the same file
        _, limit_out, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1", str(paths[bad])])
        assert diagnostics == json.loads(limit_out)["diagnostics"]
        (diag,) = diagnostics
        if bad == "truncated":
            assert diag["pointer"] == "" and diag["message"].startswith("invalid JSON: ")
        else:
            assert diag == {
                "map": {"pointer": "", "message": "expected a family document, got map"},
                "genus": {"pointer": f"/type/curve/vertices/{index}", "message": "marked vertex q01 has nonzero genus"},
            }[bad]

    def test_family_is_parsed_only_for_r4(self, capsys, monkeypatch, files):
        paths, member, limit, _ = files
        calls = []
        real = tropmap.documents._PARSERS["family"]

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setitem(tropmap.documents._PARSERS, "family", counting)
        for stdin, rule, parsed in ((member, "R1", 0), (limit, "R4", 1)):
            calls.clear()
            code, out, _ = run_cli(capsys, monkeypatch, ["verdict", "--family", str(paths["valid"])], stdin=stdin)
            assert (code, json.loads(out)["results"]["rule"]) == (0, rule)
            assert len(calls) == parsed


def _unbalanced_square_loop(square_loop_doc, vertex="c0") -> str:
    """The square loop with marked ray m0 at c0 turned to -e1, so c0 is not
    balanced, and c0 renamed to ``vertex``."""
    raw = json.loads(Path(square_loop_doc).read_text())
    raw["edge_data"]["m0"]["u"] = [-1, 0, 0]
    return json.dumps(raw).replace('"c0"', f'"{vertex}"')


def _unbalanced_square_loop_type() -> str:
    """The type document of :func:`_unbalanced_square_loop`'s map, which
    ``combinatorial_type`` refuses: the square loop's type with m0 turned
    to -e1."""
    raw = json.loads(serialize_document(Document("type", combinatorial_type(square_loop()))))
    raw["edge_data"]["m0"]["u"] = [-1, 0, 0]
    return json.dumps(raw)


def _square_loop_with(square_loop_doc, defect: str) -> str:
    """The square loop with an uncontracted self-loop zz at c0 (u = e1,
    w = 1), or with an isolated finite vertex."""
    raw = json.loads(Path(square_loop_doc).read_text())
    if defect == "self-loop":
        raw["curve"]["edges"].append({"id": "zz", "ends": ["c0", "c0"], "length": "1"})
        raw["edge_data"]["zz"] = {"u": [1, 0, 0], "w": 1, "tail": "c0"}
    else:
        raw["curve"]["vertices"].append({"id": "lone", "genus": 0})
        raw["positions"]["lone"] = ["0", "0", "0"]
    return json.dumps(raw)


class TestInvalidMapsGetNoType:
    MESSAGES = {
        "self-loop": "self-loop zz must be contracted (zero direction and weight)",
        "isolated vertex": "curve is disconnected",
    }

    @pytest.mark.parametrize("defect", MESSAGES)
    @pytest.mark.parametrize("command", ["type", "cone", "superabundant"])
    def test_type_commands_refuse(self, capsys, monkeypatch, square_loop_doc, command, defect):
        doc = _square_loop_with(square_loop_doc, defect)
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": self.MESSAGES[defect]}]
        assert "superabundant" not in err and "Traceback" not in err

    @pytest.mark.parametrize("defect", MESSAGES)
    def test_validate_reports_the_defect(self, capsys, monkeypatch, square_loop_doc, defect):
        doc = _square_loop_with(square_loop_doc, defect)
        code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin=doc)
        assert code == 1
        assert any(d.endswith(self.MESSAGES[defect]) for d in json.loads(out)["results"]["diagnostics"])


class TestNoVertices:
    """A map or type with no vertices: ``validate`` reports it, every other
    command refuses it, none with a traceback."""

    MAP = json.dumps({
        "kind": "map", "fan": {"ambient_dim": 2, "cones": []},
        "curve": {"vertices": [], "edges": []}, "edge_data": {}, "positions": {},
    })
    TYPE = json.dumps({
        "kind": "type", "fan": {"ambient_dim": 1, "cones": []},
        "curve": {"vertices": [], "edges": []}, "edge_data": {},
    })

    def test_validate_reports_it(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["validate"], stdin=self.MAP)
        assert code == 1
        assert json.loads(out)["results"]["diagnostics"] == ["curve: curve has no vertices"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, message", [
        ("verdict", "verdict requires a valid map: curve: curve has no vertices"),
        ("wellspaced", "map invalid: curve: curve has no vertices"),
        ("cone", "curve has no vertices"),
        ("type", "curve has no vertices"),
        ("superabundant", "curve has no vertices"),
    ])
    def test_map_commands_refuse_it(self, capsys, monkeypatch, command, message):
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=self.MAP)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["cone", "superabundant"])
    def test_type_document_is_refused(self, capsys, monkeypatch, command):
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=self.TYPE)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": "curve has no vertices"}]
        assert "Traceback" not in err


class TestStabilityWaiver:
    @pytest.mark.parametrize("vertex", ["c0", "stability0"])
    def test_sample_of_an_unbalanced_map_is_refused(self, capsys, monkeypatch, square_loop_doc, vertex):
        # the map is refused before it is sampled; the sampler's own waiver
        # is tested on the library in test_moduli
        doc = _unbalanced_square_loop(square_loop_doc, vertex)
        code, out, err = run_cli(capsys, monkeypatch, ["cone", "--sample"], stdin=doc)
        assert code == 2
        message = json.loads(out)["diagnostics"][0]["message"]
        assert message.startswith(f"balancing violated at vertex {vertex}")
        assert "Traceback" not in err


class TestUnbalancedMaps:
    @pytest.mark.parametrize("command", ["cone", "superabundant", "type"])
    def test_map_commands_refuse(self, capsys, monkeypatch, square_loop_doc, command):
        doc = _unbalanced_square_loop(square_loop_doc)
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2
        diag = json.loads(out)["diagnostics"][0]
        assert diag["pointer"] == "/curve/vertices/0"
        assert diag["message"].startswith("balancing violated at vertex c0")
        assert "superabundant" not in err and "Traceback" not in err

    @pytest.mark.parametrize(("kind", "command"), [
        ("map", "cone"), ("map", "superabundant"), ("map", "type"), ("type", "cone"), ("type", "superabundant"),
    ])
    def test_pointer_names_the_documents_own_entry(self, capsys, monkeypatch, square_loop_doc, kind, command):
        # the loader sorts the curve by id; the pointer indexes the list as
        # the document gives it, here reversed, so c0 is its last entry
        doc = _unbalanced_square_loop(square_loop_doc) if kind == "map" else _unbalanced_square_loop_type()
        raw = json.loads(doc)
        raw["curve"]["vertices"].reverse()
        vertices = [v["id"] for v in raw["curve"]["vertices"]]
        assert vertices.index("c0") == len(vertices) - 1
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=json.dumps(raw))
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{
            "pointer": f"/curve/vertices/{vertices.index('c0')}",
            "message": "balancing violated at vertex c0: net weighted direction ('0', '1', '0')",
        }]
        assert f"error at /curve/vertices/{vertices.index('c0')}: balancing violated at vertex c0" in err

    def test_map_and_its_type_get_the_same_answer(self, capsys, monkeypatch, square_loop_doc):
        doc = _unbalanced_square_loop(square_loop_doc)
        answers = []
        for stdin in (doc, _unbalanced_square_loop_type()):
            code, out, _ = run_cli(capsys, monkeypatch, ["cone"], stdin=stdin)
            answers.append((code, json.loads(out)["diagnostics"]))
        assert answers[0] == answers[1]
        assert answers[0][0] == 2
        # the piped form stops at `type`, whose refusal `cone` cannot read as a document
        code, out, _ = run_cli(capsys, monkeypatch, ["type"], stdin=doc)
        assert code == 2
        assert run_cli(capsys, monkeypatch, ["cone"], stdin=out)[0] == 2


def _split_square_loop(square_loop_doc, kind: str) -> str:
    """The square loop with edge s0 split through a new 2-valent genus-0
    vertex x at its midpoint, as a map document or as the type document
    of that map, where x has the zero cone."""
    raw = json.loads(Path(square_loop_doc).read_text())
    a, b = next(e["ends"] for e in raw["curve"]["edges"] if e["id"] == "s0")
    data = raw["edge_data"].pop("s0")
    raw["curve"]["edges"] = [e for e in raw["curve"]["edges"] if e["id"] != "s0"]
    raw["curve"]["edges"] += [{"id": "s0a", "ends": [a, "x"], "length": "1/2"},
                              {"id": "s0b", "ends": ["x", b], "length": "1/2"}]
    raw["curve"]["vertices"].append({"id": "x", "genus": 0})
    raw["edge_data"].update(s0a={**data, "tail": a}, s0b={**data, "tail": "x"})
    raw["positions"]["x"] = [str(p + Fraction(u, 2)) for p, u in zip(map(Fraction, raw["positions"][a]), data["u"])]
    m = load_document(json.dumps(raw)).document.payload
    return json.dumps(raw) if kind == "map" else serialize_document(Document("type", combinatorial_type(m)))


class TestUnstableDocuments:
    """A map or type with a 2-valent vertex whose star lies in the relative
    interior of one cone is refused by ``cone`` and ``superabundant`` with
    the diagnostic ``validate_map`` gives the map, at the vertex."""

    @pytest.mark.parametrize("kind", ["map", "type"])
    @pytest.mark.parametrize("command", ["cone", "superabundant"])
    def test_cone_commands_refuse(self, capsys, monkeypatch, square_loop_doc, command, kind):
        doc = _split_square_loop(square_loop_doc, kind)
        code, out, err = run_cli(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2
        vertices = [v["id"] for v in json.loads(doc)["curve"]["vertices"]]
        assert json.loads(out)["diagnostics"] == [{
            "pointer": f"/curve/vertices/{vertices.index('x')}",
            "message": "stability violated at 2-valent vertex x",
        }]
        assert "superabundant" not in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["map", "type"])
    def test_pointer_names_the_documents_own_entry(self, capsys, monkeypatch, square_loop_doc, kind):
        raw = json.loads(_split_square_loop(square_loop_doc, kind))
        raw["curve"]["vertices"].reverse()
        vertices = [v["id"] for v in raw["curve"]["vertices"]]
        code, out, _ = run_cli(capsys, monkeypatch, ["cone"], stdin=json.dumps(raw))
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{
            "pointer": f"/curve/vertices/{vertices.index('x')}",
            "message": "stability violated at 2-valent vertex x",
        }]
        assert vertices.index("x") != sorted(vertices).index("x")

    def test_type_refuses_the_map_as_cone_does(self, capsys, monkeypatch, square_loop_doc):
        raw = json.loads(_split_square_loop(square_loop_doc, "map"))
        raw["curve"]["vertices"].reverse()
        answers = [run_cli(capsys, monkeypatch, [command], stdin=json.dumps(raw)) for command in ("type", "cone")]
        vertices = [v["id"] for v in raw["curve"]["vertices"]]
        for code, out, err in answers:
            assert code == 2 and "Traceback" not in err
            assert json.loads(out)["diagnostics"] == [{
                "pointer": f"/curve/vertices/{vertices.index('x')}",
                "message": "stability violated at 2-valent vertex x",
            }]

    @pytest.mark.parametrize("command", ["wellspaced", "verdict"])
    def test_map_commands_give_the_same_diagnostic(self, capsys, monkeypatch, square_loop_doc, command):
        doc = _split_square_loop(square_loop_doc, "map")
        code, out, _ = run_cli(capsys, monkeypatch, [command], stdin=doc)
        assert code == 2
        assert json.loads(out)["diagnostics"][0]["message"].endswith("stability violated at 2-valent vertex x")

    def test_strict_types(self, capsys, monkeypatch):
        # in a strict fan the rule reads the vertex cone: the members of
        # this family have d in the open quadrant, its limit has d on a ray
        # with its star leaving the ray's span; the family type itself
        # still loads, as families waive the axiom
        fam = strict_unstable_member_family()
        answers = []
        for t in (fam.type, combinatorial_type(tropmap.limit_of_family(fam, 1).map)):
            code, out, _ = run_cli(capsys, monkeypatch, ["cone"], stdin=serialize_document(Document("type", t)))
            answers.append((code, json.loads(out).get("diagnostics")))
        vertices = [v.id for v in fam.type.graph.vertices]
        assert answers == [
            (2, [{"pointer": f"/curve/vertices/{vertices.index('d')}",
                  "message": "stability violated at 2-valent vertex d"}]),
            (0, None),
        ]
        family_doc = serialize_document(Document("family", fam))
        assert run_cli(capsys, monkeypatch, ["limit", "--t", "1/2"], stdin=family_doc)[0] == 0


OVERLAPPING_STRICT_FAN_MAP = Path(__file__).parent / "data" / "overlapping_strict_fan_map.json"


class TestOverlappingStrictFan:
    """A tripod at the origin on a strict fan of two cones that share no ray
    yet overlap.  A strict map's vertex cones are read off its fan, so the
    fan is refused on load; an embedded fan's cones are never read."""

    @pytest.mark.parametrize("command", ["validate", "type", "cone", "superabundant"])
    def test_refused(self, capsys, monkeypatch, command):
        code, out, err = run_cli(capsys, monkeypatch, [command, str(OVERLAPPING_STRICT_FAN_MAP)])
        assert code == 2
        [diag] = json.loads(out)["diagnostics"]
        assert diag["pointer"] == "/fan/cones"
        assert diag["message"].startswith("not a fan: cones ")
        assert diag["message"].endswith(" do not meet in a common face")
        assert "Traceback" not in err

    def test_embedded_copy_is_accepted(self, capsys, monkeypatch):
        raw = json.loads(OVERLAPPING_STRICT_FAN_MAP.read_text())
        raw["fan"]["embedded"] = True
        code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin=json.dumps(raw))
        assert code == 0
        assert json.loads(out)["results"]["valid"] is True


STRICT_PENTAGON_FAN_MAP = Path(__file__).parent / "data" / "strict_pentagon_fan_map.json"
OVERLAPPING_PENTAGON_FAN_MAP = Path(__file__).parent / "data" / "overlapping_pentagon_fan_map.json"


class TestStrictPentagonFanMap:
    """A two-vertex line on the strict complete fan of R^2 with the five
    maximal cones (1,0)(1,1), (1,1)(0,1), (0,1)(-1,0), (-1,0)(0,-1) and
    (0,-1)(1,0).  Two pairs of them are separated by no covector read off
    either cone's elimination, so validating the fan poses the common-face
    LP; in the overlapping copy the second cone's (0,1) is (-1,1)."""

    def test_validates(self, capsys, monkeypatch):
        doc = load_document(STRICT_PENTAGON_FAN_MAP.read_text()).document
        assert {vid: c.rays for vid, c in doc.payload.located_cones.items()} == {"c0": (), "c1": ((1, 1),)}
        code, out, err = run_cli(capsys, monkeypatch, ["validate", str(STRICT_PENTAGON_FAN_MAP)])
        assert code == 0
        assert json.loads(out)["results"]["valid"] is True
        assert "Traceback" not in err

    def test_overlapping_copy_is_refused(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["validate", str(OVERLAPPING_PENTAGON_FAN_MAP)])
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{
            "pointer": "/fan/cones",
            "message": "not a fan: cones ((-1, 1),) and ((-1, 0), (0, 1)) do not meet in a common face",
        }]
        assert "Traceback" not in err


STRICT_SQUARE_CONE_FAN_MAP = Path(__file__).parent / "data" / "strict_square_cone_fan_map.json"


class TestStrictSquareConeFanMap:
    """Two bounded edges from an interior vertex on the strict fan of the
    cone over a square in R^3, with rays (1,0,1), (0,1,1), (-1,0,1) and
    (0,-1,1): its one maximal cone is not simplicial, so locating a vertex
    tests it by an LP and then each of its faces.  The finite vertices lie
    in its interior (c0), on its ray (1,0,1) (c1) and in the relative
    interior of its facet on (0,1,1) and (1,0,1) (c2)."""

    def test_validates(self, capsys, monkeypatch):
        m = load_document(STRICT_SQUARE_CONE_FAN_MAP.read_text()).document.payload
        assert validate_map(m) == []
        assert {vid: lp_cone_locate(m.fan, m.positions[vid]) for vid in m.located_cones} == m.located_cones
        code, out, err = run_cli(capsys, monkeypatch, ["validate", str(STRICT_SQUARE_CONE_FAN_MAP)])
        assert code == 0
        assert json.loads(out)["results"]["valid"] is True
        assert "Traceback" not in err

    def test_type_pins_the_vertex_cones(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, ["type", str(STRICT_SQUARE_CONE_FAN_MAP)])
        assert code == 0
        assert json.loads(out)["results"]["type"]["vertex_cones"] == {
            "c0": {"rays": [[-1, 0, 1], [0, -1, 1], [0, 1, 1], [1, 0, 1]]},
            "c1": {"rays": [[1, 0, 1]]},
            "c2": {"rays": [[0, 1, 1], [1, 0, 1]]},
        }
        assert "Traceback" not in err


STRICT_ORTHANT_FAN_MAP = Path(__file__).parent / "data" / "strict_orthant_fan_map.json"

# every command that reads a map and applies --fan to it, with its extra arguments
_MAP_COMMANDS = {
    "validate": [], "type": [], "cone": [], "superabundant": [], "wellspaced": [], "verdict": [],
    "star": ["--vertex", "c0"], "hat": [], "plot": ["-o", "plot.svg"],
}


class TestStrictOrthantFanMap:
    """The square loop on the strict complete orthant fan of R^3."""

    def test_loads_and_validates(self, capsys, monkeypatch):
        doc = load_document(STRICT_ORTHANT_FAN_MAP.read_text()).document
        assert doc.kind == "map"
        assert doc.payload.fan == complete_orthant_fan(3, embedded=False)
        assert validate_map(doc.payload) == []
        code, out, err = run_cli(capsys, monkeypatch, ["validate", str(STRICT_ORTHANT_FAN_MAP)])
        assert code == 0
        assert json.loads(out)["results"]["valid"] is True
        assert "Traceback" not in err


class TestFanFile:
    """``--fan file:PATH`` replaces the map's fan by a fan document of the
    same ambient dimension, and refuses one of another."""

    @staticmethod
    def _fan_file(tmp_path, n, embedded):
        path = tmp_path / f"fan{n}{'e' if embedded else 's'}.json"
        path.write_text(serialize_document(Document("fan", complete_orthant_fan(n, embedded=embedded))))
        return f"file:{path}"

    def test_matching_strict_fan(self, capsys, monkeypatch, square_loop_doc, tmp_path):
        strict = self._fan_file(tmp_path, 3, embedded=False)
        code, out, _ = run_cli(capsys, monkeypatch, ["validate", square_loop_doc, "--fan", strict])
        assert (code, json.loads(out)["results"]["valid"]) == (0, True)
        # the same answers as the map that carries the fan itself
        for command in ("type", "cone", "superabundant", "wellspaced", "verdict"):
            got = run_cli(capsys, monkeypatch, [command, square_loop_doc, "--fan", strict])
            want = run_cli(capsys, monkeypatch, [command, str(STRICT_ORTHANT_FAN_MAP)])
            assert (got[0], json.loads(got[1])["results"]) == (want[0], json.loads(want[1])["results"]), command

    def test_matching_embedded_fan(self, capsys, monkeypatch, square_loop_doc, tmp_path):
        embedded = self._fan_file(tmp_path, 3, embedded=True)
        for command in ("cone", "superabundant"):
            got = run_cli(capsys, monkeypatch, [command, square_loop_doc, "--fan", embedded])
            want = run_cli(capsys, monkeypatch, [command, square_loop_doc, "--fan", "complete"])
            assert got[0] == want[0] == 0
            assert json.loads(got[1])["results"] == json.loads(want[1])["results"]

    @pytest.mark.parametrize("embedded", [True, False], ids=["embedded", "strict"])
    @pytest.mark.parametrize("command", list(_MAP_COMMANDS))
    def test_mismatched_dimension_is_refused(
        self, capsys, monkeypatch, square_loop_doc, tmp_path, command, embedded
    ):
        monkeypatch.chdir(tmp_path)
        fan = self._fan_file(tmp_path, 2, embedded)
        argv = [command, square_loop_doc, "--fan", fan, *_MAP_COMMANDS[command]]
        code, out, err = run_cli(capsys, monkeypatch, argv)
        assert code == 2
        [diag] = json.loads(out)["diagnostics"]
        assert diag == {
            "pointer": "",
            "message": "fan of ambient dimension 2 given for a map in ambient dimension 3",
        }
        assert "Traceback" not in err
        assert not (tmp_path / "plot.svg").exists()

    @pytest.mark.parametrize("command", ["cone", "superabundant"])
    def test_type_documents_refuse_every_fan_choice(self, capsys, monkeypatch, square_loop_doc, tmp_path, command):
        # a type's vertex cones are cones of its own fan: before the refusal
        # a 2-dimensional fan answered "dim=5 expected=4" with exit 0
        _, type_doc, _ = run_cli(capsys, monkeypatch, ["type", square_loop_doc])
        fans = [self._fan_file(tmp_path, 2, embedded=False), self._fan_file(tmp_path, 3, embedded=True),
                "complete", "auto-rays", "bogus"]
        for fan in fans:
            code, out, err = run_cli(capsys, monkeypatch, [command, "--fan", fan], stdin=type_doc)
            assert code == 2, fan
            assert json.loads(out)["diagnostics"] == [{
                "pointer": "",
                "message": "--fan applies to map documents; a type's vertex cones lie on its own fan",
            }], fan
            assert "Traceback" not in err
        # without --fan the type document is answered on its own fan
        assert run_cli(capsys, monkeypatch, [command], stdin=type_doc)[0] == 0

    def test_limit_takes_no_fan(self, capsys, monkeypatch, tmp_path):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1"])
        fan = self._fan_file(tmp_path, 2, embedded=True)
        code, out, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1", "--fan", fan], stdin=fam_doc)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": "invalid command line"}]


class TestErrorHandling:
    def test_malformed_input_exit_two(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin="{broken")
        assert code == 2
        report = json.loads(out)
        assert report["exit_code"] == 2
        assert "pointer" in report["diagnostics"][0]

    def test_pointer_surfaces(self, capsys, monkeypatch, square_loop_doc):
        raw = json.loads(Path(square_loop_doc).read_text())
        raw["curve"]["edges"][0]["ends"][1] = "ghost"
        code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin=json.dumps(raw))
        assert code == 2
        assert json.loads(out)["diagnostics"][0]["pointer"] == "/curve/edges/0/ends/1"

    def test_unknown_example(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, monkeypatch, ["example", "nope"])
        assert code == 2

    def test_wrong_kind(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["wellspaced"], stdin='{"ambient_dim": 2, "cones": []}'
        )
        assert code == 2

    def test_uncertified_flat_is_a_diagnostic(self, capsys, monkeypatch):
        # with every pairing forced to zero no normal certifies a flat, so
        # the bounded search falls through
        _, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--t", "1/2"])
        monkeypatch.setattr(tropmap.wellspaced, "vdot", lambda a, b: 0)
        code, out, err = run_cli(capsys, monkeypatch, ["wellspaced"], stdin=doc)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [
            {"pointer": "", "message": "failed to certify flat with a generic normal"}
        ]
        assert "Traceback" not in err


    def test_plot_to_an_unwritable_path_exit_two(self, capsys, monkeypatch, square_loop_doc, tmp_path):
        # the missing directory made `plot` print a FileNotFoundError
        # traceback and exit 1, the predicate-false code
        out_path = tmp_path / "missing" / "x.svg"
        code, out, err = run_cli(capsys, monkeypatch, ["plot", square_loop_doc, "-o", str(out_path)])
        assert code == 2
        message = f"cannot write {out_path}: {os.strerror(errno.ENOENT)}"
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert err == f"error at /: {message}\n"

    @pytest.mark.parametrize("radius", ["-2", "0", "-1/3"])
    def test_plot_radius_not_positive_exit_two(self, capsys, monkeypatch, square_loop_doc, tmp_path, radius):
        # a negative radius drew each ray backwards from its vertex and a
        # zero radius drew the rays as points, both with exit 0
        out_path = tmp_path / "x.svg"
        code, out, err = run_cli(capsys, monkeypatch, ["plot", square_loop_doc, f"--radius={radius}", "-o", str(out_path)])
        assert code == 2
        message = f"--radius must be positive, got {radius}"
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert err == f"error at /: {message}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("axes", ["a,b", "0", "0,1,2"])
    def test_plot_malformed_axes_exit_two(self, capsys, monkeypatch, square_loop_doc, tmp_path, axes):
        # "a,b" printed int()'s message and "0" an unpacking error, neither
        # naming --axes
        out_path = tmp_path / "x.svg"
        code, out, err = run_cli(capsys, monkeypatch, ["plot", square_loop_doc, "--axes", axes, "-o", str(out_path)])
        assert code == 2
        message = f"--axes must be two coordinate indices such as 0,2, got {axes}"
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert err == f"error at /: {message}\n"
        assert not out_path.exists()

    def test_complete_fan_above_the_cap_exit_two(self, capsys, monkeypatch):
        # the complete orthant fan's build grows like 4^n: figure1 at n = 12
        # ran for minutes before the cap
        cap = tropmap.cli.MAX_COMPLETE_FAN_DIM
        _, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", str(cap + 1), "--t", "1/2"])
        code, out, err = run_cli(capsys, monkeypatch, ["cone", "--fan", "complete"], stdin=doc)
        assert code == 2
        message = f"--fan complete is capped at ambient dimension {cap}, got {cap + 1}"
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert err == f"error at /: {message}\n"
        # the cap itself is allowed
        monkeypatch.setattr(tropmap.cli, "MAX_COMPLETE_FAN_DIM", 3)
        _, doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "3", "--t", "1/2"])
        assert run_cli(capsys, monkeypatch, ["cone", "--fan", "complete"], stdin=doc)[0] == 0

    @pytest.mark.parametrize("name", ["square-loop", "speyer-tree", "hat-demo"])
    def test_example_t_on_an_example_without_members_exit_two(self, capsys, monkeypatch, name):
        # --t was ignored, so the caller got the plain example with exit 0
        code, out, err = run_cli(capsys, monkeypatch, ["example", name, "--t", "1/2"])
        assert code == 2
        message = f"--t applies to the figure1 example only, not to {name}"
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert err == f"error at /: {message}\n"

    @pytest.mark.parametrize("name", ["square-loop", "speyer-tree", "hat-demo"])
    def test_example_n_on_an_example_without_a_dimension_exit_two(self, capsys, monkeypatch, name):
        # --n was ignored, so the caller got the plain example with exit 0
        for n in ("3", "5"):
            code, out, err = run_cli(capsys, monkeypatch, ["example", name, "--n", n])
            assert code == 2
            message = f"--n applies to the figure1 example only, not to {name}"
            assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
            assert err == f"error at /: {message}\n"

    @pytest.mark.parametrize("t", [None, "1/2"])
    def test_example_figure1_above_the_dimension_cap_exit_two(self, capsys, monkeypatch, t):
        # --n 100000 wrote a 31.8 MB family, and nothing bounded larger values
        cap = tropmap.cli.MAX_EXAMPLE_DIM
        argv = ["example", "figure1"] + (["--t", t] if t else [])
        code, out, err = run_cli(capsys, monkeypatch, argv + ["--n", str(cap + 1)])
        assert code == 2
        message = f"--n is capped at ambient dimension {cap}, got {cap + 1}"
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": message}]
        assert err == f"error at /: {message}\n"
        # the cap itself is allowed, and figure1 without --n is n = 3
        code, doc, _ = run_cli(capsys, monkeypatch, argv + ["--n", str(cap)])
        raw = json.loads(doc)
        assert code == 0 and (raw["type"] if t is None else raw)["fan"]["ambient_dim"] == cap
        assert run_cli(capsys, monkeypatch, argv) == run_cli(capsys, monkeypatch, argv + ["--n", "3"])

    def test_deeply_nested_input_exit_two(self, capsys, monkeypatch):
        text = '{"a":' * 5000 + "1" + "}" * 5000
        code, out, err = run_cli(capsys, monkeypatch, ["cone"], stdin=text)
        assert code == 2
        assert json.loads(out)["diagnostics"] == [{"pointer": "", "message": "invalid JSON: nested too deeply"}]
        assert "Traceback" not in err


def _subprocess_env():
    """The environment under which a subprocess imports the same tropmap as
    this test run."""
    src = str(Path(tropmap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestSubprocess:
    def test_deeply_nested_input_exit_two(self):
        run = subprocess.run(
            [sys.executable, "-m", "tropmap.cli", "cone"],
            input="[" * 200000,
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )
        assert run.returncode == 2
        assert json.loads(run.stdout)["diagnostics"][0]["message"] == "invalid JSON: nested too deeply"
        assert "Traceback" not in run.stderr

    def test_entry_point_pipe(self, tmp_path):
        env = _subprocess_env()
        first = subprocess.run(
            [sys.executable, "-m", "tropmap.cli", "example", "figure1", "--t", "1/2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert first.returncode == 0
        second = subprocess.run(
            [sys.executable, "-m", "tropmap.cli", "wellspaced"],
            input=first.stdout,
            capture_output=True,
            text=True,
            env=env,
        )
        assert second.returncode == 0
        assert json.loads(second.stdout)["results"]["well_spaced"] is True
        assert "well_spaced=true" in second.stderr
