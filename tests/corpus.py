"""A fixed corpus of CLI invocations and their recorded outputs.

Each case is a short pipeline of ``tropmap`` commands run in process: the
figure1 degeneration pipelines, the gallery maps, rectangle cycles, strict
fan families, and seeded random genus-one maps rescaled to rational
positions and lengths.  For every command the record keeps the exit code,
the full stderr, and the length and SHA-256 of stdout (and of any file the
command writes), so a recomputation can be compared byte for byte.

Regenerate the recorded file only from a commit whose outputs are known to
be right:

    PYTHONPATH=src python tests/corpus.py tests/data/cli_corpus.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from builders import (  # noqa: E402
    bent_square,
    random_feasible_map,
    rectangle_cycle,
    strict_unstable_member_family,
    tilted_parallel_pair,
)
from tropmap.cli import main  # noqa: E402
from tropmap.curves import Edge, betti_and_genus, tropical_curve  # noqa: E402
from tropmap.documents import Document, serialize_document  # noqa: E402
from tropmap.exactgeom import complete_orthant_fan  # noqa: E402
from tropmap.maps import combinatorial_type, stable_map  # noqa: E402
from tropmap.moduli import affine, make_family  # noqa: E402

FIGURE1_T = ("0", "2/7", "5/11", "99/100", "1")
RANDOM_GENUS_ONE = 44


def _doc(kind: str, payload) -> str:
    return serialize_document(Document(kind, payload))


def _rescaled(m, factor: Fraction, offset: tuple[Fraction, ...]):
    """The same map with every length and position multiplied by ``factor``
    and the positions translated by ``offset``; it stays valid."""
    edges = [
        e if e.ends[0] in m.curve.marked_vertex_ids or e.ends[1] in m.curve.marked_vertex_ids
        else Edge(e.id, e.ends, e.length * factor)
        for e in m.curve.edges
    ]
    curve = tropical_curve(m.curve.vertices, edges, m.curve.markings)
    positions = {
        vid: tuple(factor * x + o for x, o in zip(p, offset)) for vid, p in m.positions.items()
    }
    return stable_map(curve, m.fan, positions, m.edge_data)


def _moved(m, vid: str, delta: Fraction):
    """The map with one coordinate of one position moved (invalid)."""
    positions = dict(m.positions)
    positions[vid] = (positions[vid][0] + delta,) + tuple(positions[vid][1:])
    return stable_map(m.curve, m.fan, positions, m.edge_data)


def _random_genus_one_maps(count: int):
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        m = random_feasible_map(rng, max_vertices=5)
        if betti_and_genus(m.curve)[1] != 1:
            continue
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 7))
        offset = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m.fan.ambient_dim))
        out.append(_rescaled(m, factor, offset))
    return out


def _scaled_family(m, const: Fraction, slope: Fraction):
    """The family whose member at t is ``m`` with lengths scaled by
    const + slope * t (positions derived from the lengths)."""
    t = combinatorial_type(m)
    lengths = {
        e.id: affine(e.length * const, e.length * slope)
        for e in m.curve.edges
        if not m.curve.is_marked_leaf_edge(e)
    }
    return make_family(t, lengths)


def cases() -> list[tuple[str, list[dict]]]:
    """(name, steps).  A step has ``argv`` and optionally ``stdin`` (text, or
    an int: the stdout of that earlier step) and ``files`` (name -> text or
    earlier step index) written before it runs."""
    out: list[tuple[str, list[dict]]] = []
    for n in (3, 4, 5, 6):
        for t in FIGURE1_T:
            out.append((f"figure1 n={n} t={t}", [
                {"argv": ["example", "figure1", "--n", str(n)]},
                {"argv": ["limit", "--t", t], "stdin": 0},
                {"argv": ["verdict", "--family", "family.json"], "stdin": 1, "files": {"family.json": 0}},
            ]))
    gallery = [
        ["example", "figure1", "--t", "1/2"],
        ["example", "figure1", "--n", "4", "--t", "1"], ["example", "square-loop"],
        ["example", "speyer-tree"], ["example", "hat-demo"],
    ]
    for argv in gallery:
        steps = [{"argv": argv}]
        for cmd in (["validate"], ["wellspaced"], ["verdict"], ["verdict", "--assume-star-realizable"],
                    ["type"], ["cone", "--sample"], ["superabundant"], ["hat"],
                    ["plot", "--axes", "0,1", "-o", "plot.svg"]):
            steps.append({"argv": cmd, "stdin": 0})
        steps.append({"argv": ["plot", "--axes", "0,2", "--radius", "7/3", "-o", "plot.svg"], "stdin": 0})
        out.append(("gallery " + " ".join(argv[1:]), steps))
    for a in range(1, 5):
        for b in range(1, 5):
            doc = _doc("map", rectangle_cycle(a, b))
            out.append((f"rectangle {a}x{b}", [
                {"argv": ["cone", "--sample", "--seed", str(7 * a + b)], "stdin": doc},
                {"argv": ["superabundant"], "stdin": doc},
                {"argv": ["wellspaced"], "stdin": doc},
            ]))
    for a, b in ((1, 1), (2, 1)):
        m = rectangle_cycle(a, b)
        strict = stable_map(m.curve, complete_orthant_fan(3, embedded=False), m.positions, m.edge_data)
        doc = _doc("map", strict)
        out.append((f"strict rectangle {a}x{b}", [
            {"argv": ["validate"], "stdin": doc},
            {"argv": ["cone", "--sample"], "stdin": doc},
            {"argv": ["wellspaced"], "stdin": doc},
        ]))
    fam = _doc("family", strict_unstable_member_family())
    for t in ("1/3", "1"):
        out.append((f"strict family t={t}", [
            {"argv": ["limit", "--t", t], "stdin": fam},
            {"argv": ["verdict", "--family", "family.json"], "stdin": 0, "files": {"family.json": fam}},
        ]))
    for name, m in (("bent square", bent_square((Fraction(1, 3), Fraction(1, 3), Fraction(5, 2)))),
                    ("tilted pair", tilted_parallel_pair())):
        doc = _doc("map", m)
        out.append((name, [
            {"argv": ["validate"], "stdin": doc},
            {"argv": ["wellspaced"], "stdin": doc},
            {"argv": ["verdict"], "stdin": doc},
            {"argv": ["cone", "--sample", "--seed", "5"], "stdin": doc},
        ]))
    for i, m in enumerate(_random_genus_one_maps(RANDOM_GENUS_ONE)):
        doc = _doc("map", m)
        steps = [
            {"argv": ["validate"], "stdin": doc},
            {"argv": ["wellspaced"], "stdin": doc},
            {"argv": ["verdict"], "stdin": doc},
            {"argv": ["cone", "--sample", "--seed", str(i)], "stdin": doc},
        ]
        if i % 4 == 0:
            fam = _doc("family", _scaled_family(m, Fraction(3, 2), Fraction(-5, 4)))
            steps += [
                {"argv": ["limit", "--t", "2/3"], "stdin": fam},
                {"argv": ["verdict"], "stdin": len(steps)},
                {"argv": ["limit", "--t", "1"], "stdin": fam},
            ]
        if i % 4 == 1:
            vid = sorted(m.positions)[-1]
            steps.append({"argv": ["validate"], "stdin": _doc("map", _moved(m, vid, Fraction(1, 3)))})
        out.append((f"random genus one #{i}", steps))
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _invoke(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_case(steps: list[dict]) -> list[dict]:
    """Run one case in a fresh working directory; one record per step."""
    records: list[dict] = []
    outputs: list[str] = []

    def text(source) -> str:
        return outputs[source] if isinstance(source, int) else source

    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        for step in steps:
            for name, source in step.get("files", {}).items():
                Path(name).write_text(text(source), encoding="utf-8")
            code, stdout, stderr = _invoke(step["argv"], text(step.get("stdin", "")))
            outputs.append(stdout)
            record = {
                "argv": step["argv"],
                "exit": code,
                "stdout_bytes": len(stdout.encode("utf-8")),
                "stdout_sha256": _sha(stdout),
                "stderr": stderr,
            }
            if "-o" in step["argv"] and Path("plot.svg").exists():
                record["svg_sha256"] = _sha(Path("plot.svg").read_text(encoding="utf-8"))
                Path("plot.svg").unlink()
            records.append(record)
    return records


def compute() -> dict[str, list[dict]]:
    return {name: run_case(steps) for name, steps in cases()}


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
