"""JSON documents for fans, curves, maps, combinatorial types, and families.

Rationals travel as canonical strings "p/q" (integers may drop the
denominator), infinite lengths as "inf".  Loading is strict and every
failure carries a JSON pointer; non-canonical rationals are accepted with a
warning and normalized, so serialize(load(s)) is bit-exact on canonical
input.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, Optional

from . import curves
from .curves import Edge, InfiniteLength, Marking, TropicalCurve, Vertex, tropical_curve
from .exactgeom import (
    Fan,
    cone,
    build_fan,
    format_rational,
    parse_rational,
    vector_content,
)
from .maps import (
    CombinatorialType,
    EdgeMapData,
    TropicalStableMap,
    balancing_diagnostics,
    make_type,
    stable_map,
)
from .moduli import AffineFn, Family, make_family

FORMAT_VERSION = "1"

KINDS = ("fan", "curve", "map", "type", "family")


class DocumentError(ValueError):
    """A document failed to parse; ``pointer`` is a JSON pointer to the
    offending spot."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
        self.message = message


@dataclass(frozen=True)
class Document:
    kind: str
    payload: Any
    format_version: str = FORMAT_VERSION


@dataclass
class LoadResult:
    document: Document
    warnings: list[str]


# ---------------------------------------------------------------------------
# small checked readers

def _expect(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise DocumentError(pointer, message)


def _get(obj: Mapping, key: str, pointer: str, typ=None):
    _expect(isinstance(obj, dict), pointer, "expected an object")
    if key not in obj:
        raise DocumentError(f"{pointer}/{key}", "missing")
    val = obj[key]
    if typ is not None:
        _expect(isinstance(val, typ) and not isinstance(val, bool), f"{pointer}/{key}",
                f"expected {typ.__name__}")
    return val


def _read_rational(raw, pointer: str, warnings: list[str]) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise DocumentError(pointer, "expected a rational as string or integer")
    try:
        val = parse_rational(raw)
    except ValueError as exc:
        raise DocumentError(pointer, str(exc)) from None
    if isinstance(raw, str) and raw != format_rational(val):
        warnings.append(f"{pointer}: normalized {raw!r} to {format_rational(val)!r}")
    return val


def _read_int_vector(raw, pointer: str, ambient: Optional[int]) -> tuple[int, ...]:
    _expect(isinstance(raw, list), pointer, "expected an array of integers")
    out = []
    for i, x in enumerate(raw):
        _expect(isinstance(x, int) and not isinstance(x, bool), f"{pointer}/{i}", "expected an integer")
        out.append(x)
    if ambient is not None:
        _expect(len(out) == ambient, pointer, f"expected length {ambient}")
    return tuple(out)


# ---------------------------------------------------------------------------
# fans

# fans parsed inside the innermost ``shared_fans`` block, by their raw JSON
_shared_fans: ContextVar[Optional[dict[str, Fan]]] = ContextVar("tropmap_shared_fans", default=None)


@contextmanager
def shared_fans() -> Iterator[None]:
    """Within the block, each distinct fan document is built once: a map
    and a family that carry the same fan share one :class:`Fan`.  The CLI
    opens one block per command, so nothing is kept across commands."""
    token = _shared_fans.set({})
    try:
        yield
    finally:
        _shared_fans.reset(token)


def parse_fan(raw, pointer: str, warnings: list[str]) -> Fan:
    memo = _shared_fans.get()
    if memo is None:
        return _parse_fan(raw, pointer)
    key = json.dumps(raw, sort_keys=True)
    if key not in memo:
        memo[key] = _parse_fan(raw, pointer)
    return memo[key]


def _parse_fan(raw, pointer: str) -> Fan:
    ambient = _get(raw, "ambient_dim", pointer, int)
    _expect(ambient >= 0, f"{pointer}/ambient_dim", "expected a natural number")
    cones_raw = _get(raw, "cones", pointer, list)
    embedded = raw.get("embedded", False)
    _expect(isinstance(embedded, bool), f"{pointer}/embedded", "expected a boolean")
    ray_lists = []
    for i, c in enumerate(cones_raw):
        cp = f"{pointer}/cones/{i}"
        rays_raw = _get(c, "rays", cp, list)
        rays = []
        for j, r in enumerate(rays_raw):
            ray = _read_int_vector(r, f"{cp}/rays/{j}", ambient)
            _expect(any(x != 0 for x in ray), f"{cp}/rays/{j}", "zero ray generator")
            _expect(vector_content(ray) == 1, f"{cp}/rays/{j}",
                    f"non-primitive ray (content {vector_content(ray)})")
            rays.append(ray)
        ray_lists.append(rays)
    try:
        return build_fan(ambient, ray_lists, embedded=embedded)
    except ValueError as exc:
        raise DocumentError(f"{pointer}/cones", str(exc)) from None


def fan_json(f: Fan) -> dict:
    return {
        "ambient_dim": f.ambient_dim,
        "embedded": f.embedded,
        "cones": [{"rays": [list(r) for r in c.rays]} for c in f.cones],
    }


# ---------------------------------------------------------------------------
# curves

def parse_curve(raw, pointer: str, warnings: list[str], lengths_required: bool = True) -> TropicalCurve:
    verts_raw = _get(raw, "vertices", pointer, list)
    vertices = []
    ids = set()
    for i, v in enumerate(verts_raw):
        vp = f"{pointer}/vertices/{i}"
        vid = _get(v, "id", vp, str)
        genus = v.get("genus", 0)
        _expect(isinstance(genus, int) and not isinstance(genus, bool) and genus >= 0,
                f"{vp}/genus", "expected a natural number")
        _expect(vid not in ids, f"{vp}/id", f"duplicate vertex id {vid}")
        ids.add(vid)
        vertices.append(Vertex(vid, genus))
    edges_raw = _get(raw, "edges", pointer, list)
    edges = []
    eids = set()
    for i, e in enumerate(edges_raw):
        ep = f"{pointer}/edges/{i}"
        eid = _get(e, "id", ep, str)
        _expect(eid not in eids, f"{ep}/id", f"duplicate edge id {eid}")
        eids.add(eid)
        ends_raw = _get(e, "ends", ep, list)
        _expect(len(ends_raw) == 2, f"{ep}/ends", "expected two endpoints")
        ends = []
        for j, end in enumerate(ends_raw):
            _expect(isinstance(end, str), f"{ep}/ends/{j}", "expected a vertex id")
            _expect(end in ids, f"{ep}/ends/{j}", f"unknown vertex {end}")
            ends.append(end)
        if "length" not in e:
            _expect(not lengths_required, f"{ep}/length", "missing")
            length: curves.Length = Fraction(1)
        elif e["length"] == "inf":
            length = curves.INF
        else:
            length = _read_rational(e["length"], f"{ep}/length", warnings)
            _expect(length >= 0, f"{ep}/length", "negative length")
        edges.append(Edge(eid, (ends[0], ends[1]), length))
    markings = []
    labels = set()
    markings_raw = raw.get("markings", [])
    _expect(isinstance(markings_raw, list), f"{pointer}/markings", "expected an array")
    for i, mk in enumerate(markings_raw):
        mp = f"{pointer}/markings/{i}"
        label = _get(mk, "label", mp, str)
        vid = _get(mk, "vertex", mp, str)
        _expect(vid in ids, f"{mp}/vertex", f"unknown vertex {vid}")
        _expect(label not in labels, f"{mp}/label", f"duplicate label {label}")
        labels.add(label)
        markings.append(Marking(label, vid))
    return tropical_curve(vertices, edges, markings)


def curve_json(c: TropicalCurve, with_lengths: bool = True) -> dict:
    edges = []
    for e in c.edges:
        entry: dict[str, Any] = {"id": e.id, "ends": list(e.ends)}
        if with_lengths or c.is_marked_leaf_edge(e):
            entry["length"] = (
                "inf" if isinstance(e.length, InfiniteLength) else format_rational(e.length)
            )
        edges.append(entry)
    return {
        "vertices": [{"id": v.id, "genus": v.genus} for v in c.vertices],
        "edges": edges,
        "markings": [{"label": m.label, "vertex": m.vertex} for m in c.markings],
    }


# ---------------------------------------------------------------------------
# edge data shared by maps and types

def _parse_edge_data(raw, pointer: str, curve: TropicalCurve, ambient: int) -> dict[str, EdgeMapData]:
    _expect(isinstance(raw, dict), pointer, "expected an object")
    data = {}
    for eid, d in raw.items():
        ep = f"{pointer}/{eid}"
        _expect(curve.has_edge(eid), ep, f"unknown edge {eid}")
        u = _read_int_vector(_get(d, "u", ep), f"{ep}/u", ambient)
        w = _get(d, "w", ep, int)
        _expect(w >= 0, f"{ep}/w", "negative weight")
        tail = _get(d, "tail", ep, str)
        _expect(tail in curve.edge(eid).ends, f"{ep}/tail", "tail is not an endpoint")
        zero = all(x == 0 for x in u)
        _expect(zero == (w == 0), ep, "weight must be zero exactly when the direction is zero")
        if not zero:
            _expect(vector_content(u) == 1, f"{ep}/u", "direction is not primitive")
        data[eid] = EdgeMapData(u, w, tail)
    for e in curve.edges:
        _expect(e.id in data, f"{pointer}/{e.id}", "missing edge data")
    return data


def _edge_data_json(data: Mapping[str, EdgeMapData]) -> dict:
    return {
        eid: {"u": list(d.u), "w": d.w, "tail": d.tail}
        for eid, d in sorted(data.items())
    }


# ---------------------------------------------------------------------------
# maps

def parse_map(raw, pointer: str, warnings: list[str]) -> TropicalStableMap:
    f = parse_fan(_get(raw, "fan", pointer), f"{pointer}/fan", warnings)
    c = parse_curve(_get(raw, "curve", pointer), f"{pointer}/curve", warnings)
    data = _parse_edge_data(_get(raw, "edge_data", pointer), f"{pointer}/edge_data", c, f.ambient_dim)
    pos_raw = _get(raw, "positions", pointer)
    _expect(isinstance(pos_raw, dict), f"{pointer}/positions", "expected an object")
    positions = {}
    marked = c.marked_vertex_ids
    for vid, coords in pos_raw.items():
        vp = f"{pointer}/positions/{vid}"
        _expect(c.has_vertex(vid), vp, f"unknown vertex {vid}")
        _expect(vid not in marked, vp, "marked vertices carry no position")
        _expect(isinstance(coords, list) and len(coords) == f.ambient_dim, vp,
                f"expected {f.ambient_dim} coordinates")
        positions[vid] = tuple(
            _read_rational(x, f"{vp}/{k}", warnings) for k, x in enumerate(coords)
        )
    for vid in c.unmarked_vertex_ids():
        _expect(vid in positions, f"{pointer}/positions/{vid}", "missing position")
    return stable_map(c, f, positions, data)


def map_json(m: TropicalStableMap) -> dict:
    return {
        "fan": fan_json(m.fan),
        "curve": curve_json(m.curve),
        "positions": {
            vid: [format_rational(x) for x in p]
            for vid, p in sorted(m.positions.items())
        },
        "edge_data": _edge_data_json(m.edge_data),
    }


# ---------------------------------------------------------------------------
# combinatorial types (a map document with lengths and positions forgotten)

def parse_type(raw, pointer: str, warnings: list[str]) -> CombinatorialType:
    f = parse_fan(_get(raw, "fan", pointer), f"{pointer}/fan", warnings)
    c = parse_curve(_get(raw, "curve", pointer), f"{pointer}/curve", warnings, lengths_required=False)
    data = _parse_edge_data(_get(raw, "edge_data", pointer), f"{pointer}/edge_data", c, f.ambient_dim)
    cones_raw = raw.get("vertex_cones", {})
    _expect(isinstance(cones_raw, dict), f"{pointer}/vertex_cones", "expected an object")
    vertex_cones = {}
    for vid, craw in cones_raw.items():
        vp = f"{pointer}/vertex_cones/{vid}"
        _expect(c.has_vertex(vid), vp, f"unknown vertex {vid}")
        rays = [
            _read_int_vector(r, f"{vp}/rays/{j}", f.ambient_dim)
            for j, r in enumerate(_get(craw, "rays", vp, list))
        ]
        vertex_cones[vid] = cone(f.ambient_dim, rays)
    _expect("positions" not in raw, f"{pointer}/positions", "types carry no positions")
    for vid, message in balancing_diagnostics(c, data, f.ambient_dim):
        index = next(i for i, v in enumerate(c.vertices) if v.id == vid)
        raise DocumentError(f"{pointer}/curve/vertices/{index}", message)
    return make_type(c, f, data, vertex_cones)


def type_json(t: CombinatorialType) -> dict:
    return {
        "fan": fan_json(t.fan),
        "curve": curve_json(t.graph, with_lengths=False),
        "edge_data": _edge_data_json(t.edge_data),
        "vertex_cones": {
            vid: {"rays": [list(r) for r in c.rays]}
            for vid, c in sorted(t.vertex_cones.items())
        },
    }


# ---------------------------------------------------------------------------
# families

def _parse_affine(raw, pointer: str, warnings: list[str]) -> AffineFn:
    const = _read_rational(_get(raw, "const", pointer), f"{pointer}/const", warnings)
    slope = _read_rational(_get(raw, "slope", pointer), f"{pointer}/slope", warnings)
    return AffineFn(const, slope)


def _affine_json(fn: AffineFn) -> dict:
    return {"const": format_rational(fn.const), "slope": format_rational(fn.slope)}


def parse_family(raw, pointer: str, warnings: list[str]) -> Family:
    t = parse_type(_get(raw, "type", pointer), f"{pointer}/type", warnings)
    lengths_raw = _get(raw, "lengths", pointer)
    _expect(isinstance(lengths_raw, dict), f"{pointer}/lengths", "expected an object")
    lengths = {}
    for eid, fn in lengths_raw.items():
        lp = f"{pointer}/lengths/{eid}"
        _expect(t.graph.has_edge(eid), lp, f"unknown edge {eid}")
        lengths[eid] = _parse_affine(fn, lp, warnings)
    positions = None
    if "positions" in raw:
        pos_raw = raw["positions"]
        _expect(isinstance(pos_raw, dict), f"{pointer}/positions", "expected an object")
        positions = {}
        for vid, coords in pos_raw.items():
            vp = f"{pointer}/positions/{vid}"
            _expect(t.graph.has_vertex(vid), vp, f"unknown vertex {vid}")
            _expect(isinstance(coords, list) and len(coords) == t.fan.ambient_dim, vp,
                    f"expected {t.fan.ambient_dim} coordinate functions")
            positions[vid] = tuple(
                _parse_affine(x, f"{vp}/{k}", warnings) for k, x in enumerate(coords)
            )
    try:
        return make_family(t, lengths, positions)
    except ValueError as exc:
        raise DocumentError(pointer, str(exc)) from None


def family_json(fam: Family) -> dict:
    return {
        "type": type_json(fam.type),
        "lengths": {eid: _affine_json(fn) for eid, fn in sorted(fam.lengths.items())},
        "positions": {
            vid: [_affine_json(fn) for fn in fns]
            for vid, fns in sorted(fam.positions.items())
        },
    }


# ---------------------------------------------------------------------------
# top level

_PARSERS: dict[str, Callable] = {
    "fan": parse_fan,
    "curve": parse_curve,
    "map": parse_map,
    "type": parse_type,
    "family": parse_family,
}

_SERIALIZERS: dict[str, Callable] = {
    "fan": fan_json,
    "curve": curve_json,
    "map": map_json,
    "type": type_json,
    "family": family_json,
}


def _infer_kind(raw: Mapping) -> str:
    if "kind" in raw:
        kind = raw["kind"]
        _expect(isinstance(kind, str) and kind in KINDS, "/kind",
                f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
        return kind
    if "lengths" in raw and "type" in raw:
        return "family"
    if "positions" in raw and "edge_data" in raw:
        return "map"
    if "edge_data" in raw:
        return "type"
    if "vertices" in raw and "edges" in raw:
        return "curve"
    if "cones" in raw:
        return "fan"
    raise DocumentError("", "cannot infer document kind")


def load_document(text: str) -> LoadResult:
    """Parse a document from JSON text.

    Accepts bare payloads (kind inferred structurally), payloads wrapped with
    explicit ``kind``/``format_version`` keys, and CLI report envelopes whose
    results contain a single document.  Raises DocumentError with a JSON
    pointer on any malformed input.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("", f"invalid JSON: {exc.msg} at offset {exc.pos}") from None
    if not isinstance(raw, dict):
        raise DocumentError("", "expected a JSON object")
    while "command" in raw and "results" in raw:
        results = raw["results"]
        _expect(isinstance(results, dict), "/results", "expected an object")
        key = next((k for k in ("map", "family", "type", "curve", "fan") if k in results), None)
        _expect(key is not None, "/results", "report contains no document to extract")
        _expect(isinstance(results[key], dict), f"/results/{key}", "expected an object")
        # error pointers below are relative to the inner document
        raw = {"kind": key, **results[key]}
    warnings: list[str] = []
    kind = _infer_kind(raw)
    version = raw.get("format_version", FORMAT_VERSION)
    _expect(version == FORMAT_VERSION, "/format_version",
            f"unsupported format version {version!r}")
    payload_raw = {k: v for k, v in raw.items() if k not in ("kind", "format_version")}
    payload = _PARSERS[kind](payload_raw, "", warnings)
    return LoadResult(Document(kind, payload), warnings)


def document_json(doc: Document) -> dict:
    body = _SERIALIZERS[doc.kind](doc.payload)
    return {"kind": doc.kind, "format_version": doc.format_version, **body}


def serialize_document(doc: Document, pretty: bool = False) -> str:
    return dumps(document_json(doc), pretty)


def dumps(obj, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
