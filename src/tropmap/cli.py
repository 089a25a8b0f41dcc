"""Command-line front end.

Every command writes a JSON report envelope to stdout (command, input
digests, results, exit code) and a human-readable summary to stderr.  Exit
codes: 0 success / predicate true, 1 predicate false, 2 input error.  The
document loader unwraps report envelopes, so commands compose in pipelines:

    tropmap example figure1 --n 3 --t 1/2 | tropmap wellspaced
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from . import documents, gallery, plot
from .curves import curve_lints
from .documents import Document, DocumentError, dumps, serialize_document
from .exactgeom import auto_rays_fan, complete_orthant_fan, format_rational, parse_rational
from .maps import combinatorial_type, star, stable_map, validate_map
from .moduli import (
    cone_metrics,
    limit_of_family,
    moduli_cone,
    sample_interior,
)
from .wellspaced import (
    Assumptions,
    CertificateError,
    build_figure1_family,
    hat_curve,
    is_well_spaced,
    realizability_verdict,
)

EXIT_OK = 0
EXIT_PREDICATE_FALSE = 1
EXIT_INPUT_ERROR = 2


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Io:
    def __init__(self, args):
        self.pretty = getattr(args, "format", "json") == "pretty"
        self.inputs: dict[str, str] = {}

    def read(self, path: str | None, name: str = "input") -> str:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise DocumentError("", f"cannot read {path}: {exc.strerror}") from None
        self.inputs[name] = _digest(text)
        return text

    def report(self, command: str, results: dict, exit_code: int, summary: str) -> int:
        envelope = {
            "command": command,
            "inputs": self.inputs,
            "results": results,
            "exit_code": exit_code,
        }
        sys.stdout.write(dumps(envelope, self.pretty))
        print(summary, file=sys.stderr)
        return exit_code

    def fail(self, command: str, diagnostics: list[dict]) -> int:
        envelope = {
            "command": command,
            "inputs": self.inputs,
            "diagnostics": diagnostics,
            "exit_code": EXIT_INPUT_ERROR,
        }
        sys.stdout.write(dumps(envelope, self.pretty))
        for d in diagnostics:
            print(f"error at {d['pointer'] or '/'}: {d['message']}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _read_document(io: _Io, path, name: str = "input") -> Document:
    result = documents.load_document(io.read(path, name))
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return result.document


def _load(io: _Io, path, kind: str, name: str = "input"):
    doc = _read_document(io, path, name)
    if doc.kind != kind:
        raise DocumentError("", f"expected a {kind} document, got {doc.kind}")
    return doc.payload


def _apply_fan_choice(m, choice: str | None, io: _Io):
    if choice is None:
        return m
    if choice == "auto-rays":
        dirs = [d.u for d in m.edge_data.values()]
        fan = auto_rays_fan(m.fan.ambient_dim, [u for u in dirs if any(u)], embedded=True)
    elif choice == "complete":
        fan = complete_orthant_fan(m.fan.ambient_dim, embedded=True)
    elif choice.startswith("file:"):
        fan = _load(io, choice[5:], "fan", name="fan")
    else:
        raise DocumentError("", f"unknown fan choice {choice!r} (auto-rays|complete|file:PATH)")
    return stable_map(m.curve, fan, m.positions, m.edge_data)


# ---------------------------------------------------------------------------
# per-command result builders

def _wellspaced_json(report) -> dict:
    return {
        "well_spaced": report.overall,
        "flats": [
            {
                "normal": list(rec.flat.normal),
                "zero_set": [list(v) for v in rec.flat.zero_set],
                "rank": rec.flat.rank,
                "boundary": [
                    {"vertex": vid, "distance": format_rational(d)}
                    for vid, d in rec.subcurve.boundary
                ],
                "pass": rec.passes,
            }
            for rec in report.flats
        ],
    }


def _cone_json(mc, metrics) -> dict:
    return {
        "dim": metrics.dim,
        "expected_dim": metrics.expected_dim,
        "overvalence": metrics.overvalence,
        "b1": metrics.b1,
        "superabundant": metrics.superabundant,
        "variables": list(mc.variables),
        "equations": [
            {"edge": eq.edge, "head": eq.head, "tail": eq.tail, "wu": list(eq.wu)} for eq in mc.equations
        ],
        "forced_zero_lengths": list(mc.forced_zero_lengths),
        "has_positive_point": mc.has_positive_point,
    }


def _doc_result(kind: str, payload) -> dict:
    return {kind: documents._SERIALIZERS[kind](payload)}


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    diags = validate_map(m)
    lints = curve_lints(m.curve)
    results = {"valid": not diags, "diagnostics": diags, "lints": lints}
    code = EXIT_OK if not diags else EXIT_PREDICATE_FALSE
    summary = "valid map" if not diags else f"invalid map ({len(diags)} diagnostics)"
    return io.report("validate", results, code, summary)


def _cmd_type(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    t = combinatorial_type(m)
    return io.report("type", _doc_result("type", t), EXIT_OK, "combinatorial type extracted")


def _require_type(io: _Io, args):
    doc = _read_document(io, args.path)
    if doc.kind == "map":
        m = _apply_fan_choice(doc.payload, args.fan, io)
        return combinatorial_type(m)
    if doc.kind == "type":
        return doc.payload
    raise DocumentError("", f"expected a map or type document, got {doc.kind}")


def _cmd_cone(args, io: _Io) -> int:
    t = _require_type(io, args)
    mc = moduli_cone(t)
    metrics = cone_metrics(mc)
    results = _cone_json(mc, metrics)
    if args.sample:
        seed = int(os.environ.get("TROPMAP_SEED", args.seed))
        results["sample"] = documents.map_json(sample_interior(mc, seed))
    summary = (
        f"dim={metrics.dim} expected={metrics.expected_dim} "
        f"superabundant={str(metrics.superabundant).lower()}"
    )
    return io.report("cone", results, EXIT_OK, summary)


def _cmd_superabundant(args, io: _Io) -> int:
    t = _require_type(io, args)
    mc = moduli_cone(t)
    metrics = cone_metrics(mc)
    results = _cone_json(mc, metrics)
    code = EXIT_OK if metrics.superabundant else EXIT_PREDICATE_FALSE
    return io.report(
        "superabundant",
        results,
        code,
        f"superabundant={str(metrics.superabundant).lower()}",
    )


def _cmd_wellspaced(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    diags = validate_map(m)
    if diags:
        raise DocumentError("", f"map invalid: {diags[0]}")
    report = is_well_spaced(m)
    results = _wellspaced_json(report)
    code = EXIT_OK if report.overall else EXIT_PREDICATE_FALSE
    return io.report("wellspaced", results, code, f"well_spaced={str(report.overall).lower()}")


def _cmd_verdict(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    family = None
    if args.family:
        family = _load(io, args.family, "family", name="family")
    assume = Assumptions(star_realizable=args.assume_star_realizable, family=family)
    try:
        verdict = realizability_verdict(m, assume)
    except CertificateError as exc:
        raise DocumentError("", f"bad certificate: {exc}") from None
    results = {"verdict": verdict.verdict, "rule": verdict.rule, "reason": verdict.reason}
    code = EXIT_OK if verdict.verdict == "Realizable" else EXIT_PREDICATE_FALSE
    return io.report("verdict", results, code, f"{verdict.verdict} [{verdict.rule}] {verdict.reason}")


def _cmd_limit(args, io: _Io) -> int:
    fam = _load(io, args.path, "family")
    limit = limit_of_family(fam, parse_rational(args.t))
    results = {
        "t": format_rational(limit.t),
        "contracted": list(limit.contracted_edges),
        "map": documents.map_json(limit.map),
        "type": documents.type_json(limit.type),
    }
    summary = (
        f"limit at t={format_rational(limit.t)}: contracted "
        f"{list(limit.contracted_edges) or 'nothing'}"
    )
    return io.report("limit", results, EXIT_OK, summary)


def _cmd_star(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    result = star(m, args.vertex)
    return io.report("star", _doc_result("map", result), EXIT_OK, f"star at {args.vertex}")


def _cmd_hat(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    result = hat_curve(m, parse_rational(args.t))
    return io.report("hat", _doc_result("map", result), EXIT_OK, f"hat with loop length {args.t}")


def _cmd_example(args, io: _Io) -> int:
    name = args.name
    if name not in gallery.GALLERY_NAMES:
        raise DocumentError("", f"unknown example {name!r}; available: {', '.join(gallery.GALLERY_NAMES)}")
    if name == "figure1" and args.t is None:
        fam = build_figure1_family(args.n)
        doc = Document("family", fam)
        sys.stdout.write(serialize_document(doc, io.pretty))
        print(f"example figure1 family (n={args.n})", file=sys.stderr)
        return EXIT_OK
    t = parse_rational(args.t) if args.t is not None else None
    m = gallery.gallery_map(name, n=args.n, t=t)
    doc = Document("map", m)
    sys.stdout.write(serialize_document(doc, io.pretty))
    print(f"example {name}", file=sys.stderr)
    return EXIT_OK


def _cmd_plot(args, io: _Io) -> int:
    m = _apply_fan_choice(_load(io, args.path, "map"), args.fan, io)
    i, j = (int(x) for x in args.axes.split(","))
    svg = plot.render_svg(m, (i, j), radius=parse_rational(args.radius))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return io.report("plot", {"out": args.out, "axes": [i, j]}, EXIT_OK, f"wrote {args.out}")


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser; it does not depend on the input, so it is
    built once per process."""
    parser = argparse.ArgumentParser(
        prog="tropmap",
        description="Combinatorics of parametrized tropical stable maps: "
        "validation, moduli cones, degenerations, and well-spacedness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, with_input=True, with_fan=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if with_input:
            p.add_argument("path", nargs="?", default=None, help="input document (default: stdin)")
        if with_fan:
            p.add_argument("--fan", default=None, metavar="CHOICE",
                           help="override the map's fan: auto-rays|complete|file:PATH")
        p.add_argument("--format", choices=("json", "pretty"), default="json")
        return p

    add("validate", _cmd_validate, "check the map axioms")
    add("type", _cmd_type, "extract the combinatorial type")
    p = add("cone", _cmd_cone, "moduli cone presentation and metrics")
    p.add_argument("--sample", action="store_true", help="include an interior sample map")
    p.add_argument("--seed", type=int, default=0, help="sample seed (env TROPMAP_SEED overrides)")
    add("superabundant", _cmd_superabundant, "exit 0 iff the type is superabundant")
    add("wellspaced", _cmd_wellspaced, "exit 0 iff the map is well-spaced")
    p = add("verdict", _cmd_verdict, "realizability verdict by the rule cascade")
    p.add_argument("--assume-star-realizable", action="store_true")
    p.add_argument("--family", default=None, help="family certificate document")
    p = add("limit", _cmd_limit, "evaluate a family, contracting at t = 1")
    p.add_argument("--t", required=True, help="parameter in [0, 1], e.g. 1/2")
    p = add("star", _cmd_star, "one-vertex star map")
    p.add_argument("--vertex", required=True)
    p = add("hat", _cmd_hat, "swap the genus-one vertex for a contracted self-loop")
    p.add_argument("--t", default="1", help="self-loop length (default 1)")
    p = add("example", _cmd_example, "emit a builtin example document", with_input=False, with_fan=False)
    p.add_argument("name", choices=gallery.GALLERY_NAMES)
    p.add_argument("--n", type=int, default=3, help="ambient dimension for figure1")
    p.add_argument("--t", default=None, help="parameter: emit the figure1 member at t")
    p = add("plot", _cmd_plot, "write an SVG projection")
    p.add_argument("--axes", default="0,1", help="coordinate pair, e.g. 0,2")
    p.add_argument("--radius", default="3", help="ray truncation radius")
    p.add_argument("-o", "--out", default="tropmap.svg")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        envelope = {
            "command": None,
            "inputs": {},
            "diagnostics": [{"pointer": "", "message": "invalid command line"}],
            "exit_code": EXIT_INPUT_ERROR,
        }
        sys.stdout.write(dumps(envelope))
        return EXIT_INPUT_ERROR
    io = _Io(args)
    try:
        with documents.shared_fans():
            return args.fn(args, io)
    except DocumentError as exc:
        return io.fail(args.command, [{"pointer": exc.pointer, "message": exc.message}])
    except (ValueError, KeyError) as exc:
        return io.fail(args.command, [{"pointer": "", "message": str(exc)}])


if __name__ == "__main__":
    sys.exit(main())
