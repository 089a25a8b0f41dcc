"""CLI: commands, exit codes, pipelines."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropmap
from tropmap.cli import main
from tropmap.documents import Document, serialize_document
from tropmap.gallery import square_loop

from builders import rectangle_cycle, strict_unstable_member_family


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

    def test_cone_sample_env_seed(self, capsys, monkeypatch, square_loop_doc):
        monkeypatch.setenv("TROPMAP_SEED", "4")
        code, out, _ = run_cli(capsys, monkeypatch, ["cone", square_loop_doc, "--sample"])
        assert code == 0
        sample = json.loads(out)["results"]["sample"]
        assert sample["positions"]

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

        for name in ("_length_constraints", "solve_nonneg"):
            monkeypatch.setattr(tropmap.moduli, name, counting(name))
        code, _, _ = run_cli(capsys, monkeypatch, ["cone", str(path), "--sample"])
        assert code == 0
        # the cycle rows and the all-positive support LP, once each
        assert sorted(calls) == ["_length_constraints", "solve_nonneg"]

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

    def test_each_fan_is_built_once_per_command(self, capsys, monkeypatch, tmp_path):
        _, fam_doc, _ = run_cli(capsys, monkeypatch, ["example", "figure1", "--n", "4"])
        fam_path = tmp_path / "family.json"
        fam_path.write_text(fam_doc)
        _, limit_doc, _ = run_cli(capsys, monkeypatch, ["limit", "--t", "1"], stdin=fam_doc)
        calls = []
        real = tropmap.documents.build_fan

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tropmap.documents, "build_fan", counting)
        for expected in (1, 2):
            # the map and the family carry the same fan; a new command
            # parses it again
            code, _, _ = run_cli(capsys, monkeypatch, ["verdict", "--family", str(fam_path)], stdin=limit_doc)
            assert code == 0
            assert len(calls) == expected


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


class TestStabilityWaiver:
    @pytest.mark.parametrize("vertex", ["c0", "stability0"])
    def test_sample_of_an_unbalanced_map_is_refused(self, capsys, monkeypatch, square_loop_doc, vertex):
        # the sample waives the stability diagnostic by its exact prefix,
        # not every diagnostic that names a vertex called "stability..."
        raw = json.loads(Path(square_loop_doc).read_text())
        raw["edge_data"]["m0"]["u"] = [-1, 0, 0]
        doc = json.dumps(raw).replace('"c0"', f'"{vertex}"')
        code, out, err = run_cli(capsys, monkeypatch, ["cone", "--sample"], stdin=doc)
        assert code == 2
        message = json.loads(out)["diagnostics"][0]["message"]
        assert message.startswith(f"sampled point does not realize the type: balancing violated at vertex {vertex}")
        assert "Traceback" not in err


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
