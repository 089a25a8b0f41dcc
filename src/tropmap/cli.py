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
import sys

from . import documents, gallery, plot
from .curves import curve_lints
from .documents import Document, DocumentError, dumps, serialize_document
from .exactgeom import auto_rays_fan, complete_orthant_fan, format_rational, parse_rational
from .maps import InvalidType, combinatorial_type, star, stable_map, validate_map
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

# ``--fan complete`` closes 2^n orthants under their 2^n faces: about 4^n steps
MAX_COMPLETE_FAN_DIM = 8
# ``example figure1 --n N`` pads its three active coordinates with N - 3
# zeros in every position and direction, so its output grows like N
MAX_EXAMPLE_DIM = 64


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Io:
    def __init__(self, pretty: bool = False):
        self.pretty = pretty
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

    def envelope(self, command: str | None, exit_code: int, **body) -> int:
        """Write the JSON report envelope: the command, the digests of the
        inputs read so far, ``body`` (results or diagnostics) and the exit
        code, which it returns."""
        envelope = {"command": command, "inputs": self.inputs, **body, "exit_code": exit_code}
        sys.stdout.write(dumps(envelope, self.pretty))
        return exit_code

    def report(self, command: str, results: dict, exit_code: int, summary: str) -> int:
        self.envelope(command, exit_code, results=results)
        print(summary, file=sys.stderr)
        return exit_code

    def fail(self, command: str, diagnostics: list[dict]) -> int:
        self.envelope(command, EXIT_INPUT_ERROR, diagnostics=diagnostics)
        for d in diagnostics:
            print(f"error at {d['pointer'] or '/'}: {d['message']}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _load(io: _Io, path, kinds: tuple[str, ...], name: str = "input") -> Document:
    """The document at ``path`` (stdin for None or "-"), its load warnings
    printed to stderr; a document of another kind is refused."""
    return _parse(io.read(path, name), kinds)


def _parse(text: str, kinds: tuple[str, ...]) -> Document:
    """The document in ``text``, as :func:`_load` reads it."""
    result = documents.load_document(text)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    doc = result.document
    if doc.kind not in kinds:
        raise DocumentError("", f"expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _on_fan(io: _Io, m, choice: str | None):
    """The map ``m`` on the fan that ``--fan`` chooses (``m`` itself when
    there is no choice)."""
    if choice is None:
        return m
    if choice == "auto-rays":
        dirs = [d.u for d in m.edge_data.values()]
        fan = auto_rays_fan(m.fan.ambient_dim, [u for u in dirs if any(u)], embedded=True)
    elif choice == "complete":
        if m.fan.ambient_dim > MAX_COMPLETE_FAN_DIM:
            raise DocumentError("", f"--fan complete is capped at ambient dimension {MAX_COMPLETE_FAN_DIM}, "
                                    f"got {m.fan.ambient_dim}")
        fan = complete_orthant_fan(m.fan.ambient_dim, embedded=True)
    elif choice.startswith("file:"):
        fan = _load(io, choice[5:], ("fan",), name="fan").payload
        if fan.ambient_dim != m.fan.ambient_dim:
            raise DocumentError("", f"fan of ambient dimension {fan.ambient_dim} given for a map "
                                    f"in ambient dimension {m.fan.ambient_dim}")
    else:
        raise DocumentError("", f"unknown fan choice {choice!r} (auto-rays|complete|file:PATH)")
    return stable_map(m.curve, fan, m.positions, m.edge_data)


def _map(io: _Io, args):
    """The input map document's map, on the fan ``--fan`` chooses."""
    return _on_fan(io, _load(io, args.path, ("map",)).payload, args.fan)


def _type(io: _Io, args, kinds: tuple[str, ...] = ("map", "type")):
    """The type of the input map or type document, refused when it breaks
    the stability axiom, as ``validate_map`` refuses the map.  ``--fan`` is
    refused for a type document, whatever the choice: its vertex cones are
    cones of its own fan and mean nothing on another.  A map's type is
    refused as a type document is, at the vertex ``make_type`` names, so a
    map and its type get the same answer."""
    doc = _load(io, args.path, kinds)
    if doc.kind == "type":
        if args.fan is not None:
            raise DocumentError("", "--fan applies to map documents; a type's vertex cones lie on its own fan")
        t = doc.payload
    else:
        m = _on_fan(io, doc.payload, args.fan)
        try:
            t = combinatorial_type(m)
        except InvalidType as exc:
            documents.refuse_type(exc, "", doc.vertex_entries)
    documents.require_stable(t, "", doc.vertex_entries)
    return t


def _cone(io: _Io, args):
    """(moduli cone, its metrics, the result fields ``cone`` and
    ``superabundant`` share) of the input's type."""
    mc = moduli_cone(_type(io, args))
    metrics = cone_metrics(mc)
    results = {
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
    return mc, metrics, results


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


# ---------------------------------------------------------------------------
# commands

def _cmd_validate(args, io: _Io) -> int:
    m = _map(io, args)
    diags = validate_map(m)
    lints = curve_lints(m.curve)
    results = {"valid": not diags, "diagnostics": diags, "lints": lints}
    code = EXIT_OK if not diags else EXIT_PREDICATE_FALSE
    summary = "valid map" if not diags else f"invalid map ({len(diags)} diagnostics)"
    return io.report("validate", results, code, summary)


def _cmd_type(args, io: _Io) -> int:
    t = _type(io, args, ("map",))
    return io.report("type", {"type": documents.type_json(t)}, EXIT_OK, "combinatorial type extracted")


def _cmd_cone(args, io: _Io) -> int:
    mc, metrics, results = _cone(io, args)
    if args.sample:
        results["sample"] = documents.map_json(sample_interior(mc, args.seed))
    summary = (
        f"dim={metrics.dim} expected={metrics.expected_dim} "
        f"superabundant={str(metrics.superabundant).lower()}"
    )
    return io.report("cone", results, EXIT_OK, summary)


def _cmd_superabundant(args, io: _Io) -> int:
    _, metrics, results = _cone(io, args)
    code = EXIT_OK if metrics.superabundant else EXIT_PREDICATE_FALSE
    return io.report("superabundant", results, code, f"superabundant={str(metrics.superabundant).lower()}")


def _cmd_wellspaced(args, io: _Io) -> int:
    m = _map(io, args)
    diags = validate_map(m)
    if diags:
        raise DocumentError("", f"map invalid: {diags[0]}")
    report = is_well_spaced(m)
    results = _wellspaced_json(report)
    code = EXIT_OK if report.overall else EXIT_PREDICATE_FALSE
    return io.report("wellspaced", results, code, f"well_spaced={str(report.overall).lower()}")


def _cmd_verdict(args, io: _Io) -> int:
    """The rule cascade's verdict on the input map.  The ``--family`` file
    is read (and its digest recorded) up front, but parsed and checked only
    if the cascade reaches rule R4: when R0-R3 decide, it is not looked at."""
    m = _map(io, args)
    family = None
    if args.family:
        text = io.read(args.family, "family")
        family = lambda: _parse(text, ("family",)).payload
    assume = Assumptions(star_realizable=args.assume_star_realizable, family=family)
    try:
        verdict = realizability_verdict(m, assume)
    except CertificateError as exc:
        raise DocumentError("", f"bad certificate: {exc}") from None
    results = {"verdict": verdict.verdict, "rule": verdict.rule, "reason": verdict.reason}
    code = EXIT_OK if verdict.verdict == "Realizable" else EXIT_PREDICATE_FALSE
    return io.report("verdict", results, code, f"{verdict.verdict} [{verdict.rule}] {verdict.reason}")


def _cmd_limit(args, io: _Io) -> int:
    fam = _load(io, args.path, ("family",)).payload
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
    result = star(_map(io, args), args.vertex)
    return io.report("star", {"map": documents.map_json(result)}, EXIT_OK, f"star at {args.vertex}")


def _cmd_hat(args, io: _Io) -> int:
    result = hat_curve(_map(io, args), parse_rational(args.t))
    return io.report("hat", {"map": documents.map_json(result)}, EXIT_OK, f"hat with loop length {args.t}")


def _cmd_example(args, io: _Io) -> int:
    """Write the named example as a bare document (no envelope): the
    figure1 family, or a map (the figure1 member at ``--t``).  ``--t`` and
    ``--n`` are refused for the other examples, which have no members and
    no dimension to choose, and ``--n`` above :data:`MAX_EXAMPLE_DIM`."""
    for option, value in (("--t", args.t), ("--n", args.n)):
        if args.name != "figure1" and value is not None:
            raise DocumentError("", f"{option} applies to the figure1 example only, not to {args.name}")
    n = 3 if args.n is None else args.n
    if n > MAX_EXAMPLE_DIM:
        raise DocumentError("", f"--n is capped at ambient dimension {MAX_EXAMPLE_DIM}, got {n}")
    if args.name == "figure1" and args.t is None:
        doc = Document("family", build_figure1_family(n))
        summary = f"example figure1 family (n={n})"
    else:
        t = parse_rational(args.t) if args.t is not None else None
        doc = Document("map", gallery.gallery_map(args.name, n=n, t=t))
        summary = f"example {args.name}"
    sys.stdout.write(serialize_document(doc, io.pretty))
    print(summary, file=sys.stderr)
    return EXIT_OK


def _cmd_plot(args, io: _Io) -> int:
    m = _map(io, args)
    try:
        i, j = (int(x) for x in args.axes.split(","))
    except ValueError:
        raise DocumentError("", f"--axes must be two coordinate indices such as 0,2, got {args.axes}") from None
    radius = parse_rational(args.radius)
    if radius <= 0:
        raise DocumentError("", f"--radius must be positive, got {args.radius}")
    svg = plot.render_svg(m, (i, j), radius=radius)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise DocumentError("", f"cannot write {args.out}: {exc.strerror}") from None
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
    p.add_argument("--seed", type=int, default=0, help="sample seed")
    add("superabundant", _cmd_superabundant, "exit 0 iff the type is superabundant")
    add("wellspaced", _cmd_wellspaced, "exit 0 iff the map is well-spaced")
    p = add("verdict", _cmd_verdict, "realizability verdict by the rule cascade")
    p.add_argument("--assume-star-realizable", action="store_true")
    p.add_argument("--family", default=None, help="family certificate document")
    p = add("limit", _cmd_limit, "evaluate a family, contracting at t = 1", with_fan=False)
    p.add_argument("--t", required=True, help="parameter in [0, 1], e.g. 1/2")
    p = add("star", _cmd_star, "one-vertex star map")
    p.add_argument("--vertex", required=True)
    p = add("hat", _cmd_hat, "swap the genus-one vertex for a contracted self-loop")
    p.add_argument("--t", default="1", help="self-loop length (default 1)")
    p = add("example", _cmd_example, "emit a builtin example document", with_input=False, with_fan=False)
    p.add_argument("name", choices=gallery.GALLERY_NAMES)
    p.add_argument(
        "--n", type=int, default=None, help=f"ambient dimension for figure1, 3 to {MAX_EXAMPLE_DIM} (default 3)"
    )
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
        return _Io().envelope(
            None, EXIT_INPUT_ERROR, diagnostics=[{"pointer": "", "message": "invalid command line"}]
        )
    io = _Io(args.format == "pretty")
    try:
        return args.fn(args, io)
    except DocumentError as exc:
        return io.fail(args.command, [{"pointer": exc.pointer, "message": exc.message}])
    except (ValueError, KeyError) as exc:
        return io.fail(args.command, [{"pointer": "", "message": str(exc)}])


if __name__ == "__main__":
    sys.exit(main())
