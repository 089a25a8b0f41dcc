"""JSON documents for fans, curves, maps, combinatorial types, and families.

Rationals travel as canonical strings "p/q" (integers may drop the
denominator), infinite lengths as "inf".  Loading is strict and every
failure carries an RFC 6901 JSON pointer ("~" and "/" in a key are written
"~0" and "~1"), which is built only when the failure is raised.  Canonical
rationals and JSON integers are read straight into a ``Fraction``; any other
spelling is accepted with a warning and normalized, so serialize(load(s)) is
bit-exact on canonical input.  Input nested too deeply for the JSON decoder
is refused with a DocumentError, which the CLI reports with exit 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Any, Callable, Mapping, NoReturn, Sequence

from . import curves
from .curves import Edge, InfiniteLength, Marking, TropicalCurve, Vertex
from .exactgeom import (
    Fan,
    IntVec,
    cone,
    build_fan,
    fan_validate,
    format_rational,
    parse_rational,
    vector_content,
)
from .maps import (
    PLACEHOLDER_LENGTH,
    STABILITY_VIOLATED,
    CombinatorialType,
    EdgeMapData,
    InvalidType,
    TropicalStableMap,
    _orient_leaves,
    _unstable_vertices,
    make_type,
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
    # a map or type document read by load_document: the entries of its
    # curve's vertex list as the document lists them, which a refusal of a
    # vertex points into (the loaded curve is sorted by id)
    vertex_entries: Sequence[Mapping[str, Any]] = field(default=(), repr=False, compare=False)


@dataclass
class LoadResult:
    document: Document
    warnings: list[str]


# ---------------------------------------------------------------------------
# small checked readers
#
# A reader is told where its value sits as a parent pointer and the tokens
# below it, and builds the pointer with ``_at`` only when it raises, so a
# value that passes costs no string formatting.

# what the direct reads compare against
_ABSENT = object()
_INT = frozenset((int,))
_ID = attrgetter("id")
_LABEL = attrgetter("label")


def _at(pointer: str, *tokens) -> str:
    """``pointer`` extended by object keys (str) and array indices (int), as
    an RFC 6901 JSON pointer: "~" in a key becomes "~0" and "/" becomes "~1"."""
    for token in tokens:
        if isinstance(token, str):
            token = token.replace("~", "~0").replace("/", "~1")
        pointer = f"{pointer}/{token}"
    return pointer


def _get(obj, key: str, pointer: str, *tokens, typ=None):
    """``obj[key]`` for the object ``obj`` at ``_at(pointer, *tokens)``,
    checked to be a ``typ`` (never a bool) when one is given."""
    if not isinstance(obj, dict):
        raise DocumentError(_at(pointer, *tokens), "expected an object")
    try:
        val = obj[key]
    except KeyError:
        raise DocumentError(_at(pointer, *tokens, key), "missing") from None
    if typ is not None and (not isinstance(val, typ) or isinstance(val, bool)):
        raise DocumentError(_at(pointer, *tokens, key), f"expected {typ.__name__}")
    return val


def _read_rational(raw, warnings: list[str], pointer: str, *tokens) -> Fraction:
    """A JSON integer, or a string ``p`` or ``p/q``.  Canonical text, as
    :func:`format_rational` writes it, is read without a round trip; any
    other spelling is normalized by :func:`parse_rational`, with a warning."""
    if isinstance(raw, str):
        num, slash, den = raw.partition("/")
        try:
            p = int(num)
            q = int(den) if slash else 1
        except ValueError:
            pass
        else:
            if str(p) == num:
                if not slash:
                    return Fraction(p)
                if q > 1 and str(q) == den and gcd(p, q) == 1:
                    return Fraction(p, q)
    elif isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    else:
        raise DocumentError(_at(pointer, *tokens), "expected a rational as string or integer")
    # not canonical, so the normalized spelling differs from ``raw``
    try:
        val = parse_rational(raw)
    except ValueError as exc:
        raise DocumentError(_at(pointer, *tokens), str(exc)) from None
    warnings.append(f"{_at(pointer, *tokens)}: normalized {raw!r} to {format_rational(val)!r}")
    return val


def _read_known(raw, known: dict[str, Fraction], warnings: list[str], pointer: str, *tokens) -> Fraction:
    """:func:`_read_rational`, looked up first in ``known``: the strings
    read so far without a warning, so a repeated canonical spelling is read
    once per document and its ``Fraction`` shared."""
    val = known.get(raw) if type(raw) is str else None
    if val is None:
        count = len(warnings)
        val = _read_rational(raw, warnings, pointer, *tokens)
        if type(raw) is str and len(warnings) == count:
            known[raw] = val
    return val


def _read_int_vector(raw, ambient: int, pointer: str, *tokens) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise DocumentError(_at(pointer, *tokens), "expected an array of integers")
    for i, x in enumerate(raw):
        if not isinstance(x, int) or isinstance(x, bool):
            raise DocumentError(_at(pointer, *tokens, i), "expected an integer")
    if len(raw) != ambient:
        raise DocumentError(_at(pointer, *tokens), f"expected length {ambient}")
    return tuple(raw)


# ---------------------------------------------------------------------------
# fans

def parse_fan(raw, pointer: str, warnings: list[str]) -> Fan:
    ambient = _get(raw, "ambient_dim", pointer, typ=int)
    if ambient < 0:
        raise DocumentError(_at(pointer, "ambient_dim"), "expected a natural number")
    cones_raw = _get(raw, "cones", pointer, typ=list)
    embedded = raw.get("embedded", False)
    if not isinstance(embedded, bool):
        raise DocumentError(_at(pointer, "embedded"), "expected a boolean")
    ray_lists = []
    for i, c in enumerate(cones_raw):
        rays = []
        for j, r in enumerate(_get(c, "rays", pointer, "cones", i, typ=list)):
            ray = _read_int_vector(r, ambient, pointer, "cones", i, "rays", j)
            if not any(ray):
                raise DocumentError(_at(pointer, "cones", i, "rays", j), "zero ray generator")
            content = vector_content(ray)
            if content != 1:
                raise DocumentError(_at(pointer, "cones", i, "rays", j), f"non-primitive ray (content {content})")
            rays.append(ray)
        ray_lists.append(rays)
    try:
        f = build_fan(ambient, ray_lists, embedded=embedded)
    except ValueError as exc:
        raise DocumentError(_at(pointer, "cones"), str(exc)) from None
    # a strict map's vertex cones are read off its fan, so the cones must
    # meet in common faces; an embedded fan's cones are never read
    if not embedded:
        diags = fan_validate(f)
        if diags:
            raise DocumentError(_at(pointer, "cones"), f"not a fan: {diags[0]}")
    return f


def fan_json(f: Fan) -> dict:
    return {
        "ambient_dim": f.ambient_dim,
        "embedded": f.embedded,
        "cones": [{"rays": [list(r) for r in c.rays]} for c in f.cones],
    }


# ---------------------------------------------------------------------------
# curves

def parse_curve(raw, pointer: str, warnings: list[str], lengths_required: bool = True) -> TropicalCurve:
    """Each field is read with one lookup and one exact type test; the
    pointered readers (:func:`_get`, :func:`_read_ends`), which word the
    errors, run only when that test fails.  The curve is built once,
    sorted, from the ids this reader has already found distinct."""
    vertices = []
    ids = set()
    for i, v in enumerate(_get(raw, "vertices", pointer, typ=list)):
        vid = v.get("id") if type(v) is dict else None
        if type(vid) is not str:
            vid = _get(v, "id", pointer, "vertices", i, typ=str)
        genus = v.get("genus", 0)
        if type(genus) is not int or genus < 0:
            raise DocumentError(_at(pointer, "vertices", i, "genus"), "expected a natural number")
        if vid in ids:
            raise DocumentError(_at(pointer, "vertices", i, "id"), f"duplicate vertex id {vid}")
        ids.add(vid)
        vertices.append(Vertex(vid, genus))
    edges = []
    eids = set()
    known: dict[str, Fraction] = {}
    for i, e in enumerate(_get(raw, "edges", pointer, typ=list)):
        eid = e.get("id") if type(e) is dict else None
        if type(eid) is not str:
            eid = _get(e, "id", pointer, "edges", i, typ=str)
        if eid in eids:
            raise DocumentError(_at(pointer, "edges", i, "id"), f"duplicate edge id {eid}")
        eids.add(eid)
        ends = e.get("ends")
        a, b = ends if type(ends) is list and len(ends) == 2 else (None, None)
        if type(a) is not str or type(b) is not str or a not in ids or b not in ids:
            a, b = _read_ends(e, ids, pointer, i)
        length_raw = e.get("length", _ABSENT)
        if length_raw is _ABSENT:
            if lengths_required:
                raise DocumentError(_at(pointer, "edges", i, "length"), "missing")
            length: curves.Length = PLACEHOLDER_LENGTH
        elif length_raw == "inf":
            length = curves.INF
        else:
            length = _read_known(length_raw, known, warnings, pointer, "edges", i, "length")
            if length < 0:
                raise DocumentError(_at(pointer, "edges", i, "length"), "negative length")
        edges.append(Edge(eid, (a, b) if a <= b else (b, a), length))
    markings = []
    labels = set()
    markings_raw = raw.get("markings", [])
    if not isinstance(markings_raw, list):
        raise DocumentError(_at(pointer, "markings"), "expected an array")
    for i, mk in enumerate(markings_raw):
        label, vid = (mk.get("label"), mk.get("vertex")) if type(mk) is dict else (None, None)
        if type(label) is not str or type(vid) is not str:
            label = _get(mk, "label", pointer, "markings", i, typ=str)
            vid = _get(mk, "vertex", pointer, "markings", i, typ=str)
        if vid not in ids:
            raise DocumentError(_at(pointer, "markings", i, "vertex"), f"unknown vertex {vid}")
        if label in labels:
            raise DocumentError(_at(pointer, "markings", i, "label"), f"duplicate label {label}")
        labels.add(label)
        markings.append(Marking(label, vid))
    return TropicalCurve(
        tuple(sorted(vertices, key=_ID)), tuple(sorted(edges, key=_ID)), tuple(sorted(markings, key=_LABEL))
    )


def _read_ends(e, ids: set[str], pointer: str, i: int) -> tuple[str, str]:
    """The two endpoint ids of edge ``i``, each a known vertex."""
    ends = _get(e, "ends", pointer, "edges", i, typ=list)
    if len(ends) != 2:
        raise DocumentError(_at(pointer, "edges", i, "ends"), "expected two endpoints")
    for j, end in enumerate(ends):
        if not isinstance(end, str):
            raise DocumentError(_at(pointer, "edges", i, "ends", j), "expected a vertex id")
        if end not in ids:
            raise DocumentError(_at(pointer, "edges", i, "ends", j), f"unknown vertex {end}")
    return ends[0], ends[1]


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

def _parse_edge_data(raw, curve: TropicalCurve, ambient: int, pointer: str) -> dict[str, EdgeMapData]:
    """Each field is read with one lookup and one exact type test;
    :func:`_read_edge_datum` reads an entry again, and raises, only when a
    test fails."""
    if not isinstance(raw, dict):
        raise DocumentError(pointer, "expected an object")
    data = {}
    for eid, d in raw.items():
        if not curve.has_edge(eid):
            raise DocumentError(_at(pointer, eid), f"unknown edge {eid}")
        u, w, tail = (d.get("u"), d.get("w"), d.get("tail")) if type(d) is dict else (None, None, None)
        if not (type(u) is list and len(u) == ambient and _INT.issuperset(map(type, u))
                and type(w) is int and w >= 0 and type(tail) is str):
            u, w, tail = _read_edge_datum(d, ambient, pointer, eid)
        if tail not in curve.edge(eid).ends:
            raise DocumentError(_at(pointer, eid, "tail"), "tail is not an endpoint")
        zero = not any(u)
        if zero != (w == 0):
            raise DocumentError(_at(pointer, eid), "weight must be zero exactly when the direction is zero")
        if not zero and vector_content(u) != 1:
            raise DocumentError(_at(pointer, eid, "u"), "direction is not primitive")
        data[eid] = EdgeMapData(tuple(u), w, tail)
    if len(data) != len(curve.edges):
        for e in curve.edges:
            if e.id not in data:
                raise DocumentError(_at(pointer, e.id), "missing edge data")
    return data


def _read_edge_datum(d, ambient: int, pointer: str, eid: str) -> tuple[IntVec, int, str]:
    """The direction, weight and tail of edge ``eid``, each checked."""
    u = _read_int_vector(_get(d, "u", pointer, eid), ambient, pointer, eid, "u")
    w = _get(d, "w", pointer, eid, typ=int)
    if w < 0:
        raise DocumentError(_at(pointer, eid, "w"), "negative weight")
    tail = _get(d, "tail", pointer, eid, typ=str)
    return u, w, tail


def _edge_data_json(data: Mapping[str, EdgeMapData]) -> dict:
    return {
        eid: {"u": list(d.u), "w": d.w, "tail": d.tail}
        for eid, d in sorted(data.items())
    }


# ---------------------------------------------------------------------------
# maps

def parse_map(raw, pointer: str, warnings: list[str]) -> TropicalStableMap:
    """The map is built once, from its exact positions, with the marked
    leaf-edges oriented as :func:`stable_map` orients them."""
    f = parse_fan(_get(raw, "fan", pointer), _at(pointer, "fan"), warnings)
    c = parse_curve(_get(raw, "curve", pointer), _at(pointer, "curve"), warnings)
    ambient = f.ambient_dim
    data = _parse_edge_data(_get(raw, "edge_data", pointer), c, ambient, _at(pointer, "edge_data"))
    pos_raw = _get(raw, "positions", pointer)
    if not isinstance(pos_raw, dict):
        raise DocumentError(_at(pointer, "positions"), "expected an object")
    positions = {}
    known: dict[str, Fraction] = {}
    marked = c.marked_vertex_ids
    for vid, coords in pos_raw.items():
        if not c.has_vertex(vid):
            raise DocumentError(_at(pointer, "positions", vid), f"unknown vertex {vid}")
        if vid in marked:
            raise DocumentError(_at(pointer, "positions", vid), "marked vertices carry no position")
        if type(coords) is not list or len(coords) != ambient:
            raise DocumentError(_at(pointer, "positions", vid), f"expected {ambient} coordinates")
        positions[vid] = tuple([
            _read_known(x, known, warnings, pointer, "positions", vid, k) for k, x in enumerate(coords)
        ])
    finite = c.unmarked_vertex_ids()
    if len(positions) != len(finite):
        for vid in finite:
            if vid not in positions:
                raise DocumentError(_at(pointer, "positions", vid), "missing position")
    return TropicalStableMap(c, f, positions, _orient_leaves(c, data))


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
    f = parse_fan(_get(raw, "fan", pointer), _at(pointer, "fan"), warnings)
    c = parse_curve(_get(raw, "curve", pointer), _at(pointer, "curve"), warnings, lengths_required=False)
    ambient = f.ambient_dim
    data = _parse_edge_data(_get(raw, "edge_data", pointer), c, ambient, _at(pointer, "edge_data"))
    cones_raw = raw.get("vertex_cones", {})
    if not isinstance(cones_raw, dict):
        raise DocumentError(_at(pointer, "vertex_cones"), "expected an object")
    vertex_cones = {}
    for vid, craw in cones_raw.items():
        if not c.has_vertex(vid):
            raise DocumentError(_at(pointer, "vertex_cones", vid), f"unknown vertex {vid}")
        rays = [
            _read_int_vector(r, ambient, pointer, "vertex_cones", vid, "rays", j)
            for j, r in enumerate(_get(craw, "rays", pointer, "vertex_cones", vid, typ=list))
        ]
        vertex_cones[vid] = cone(ambient, rays)
    if "positions" in raw:
        raise DocumentError(_at(pointer, "positions"), "types carry no positions")
    try:
        return make_type(c, f, data, vertex_cones)
    except InvalidType as exc:
        refuse_type(exc, pointer, raw["curve"]["vertices"])


def refuse_type(exc: InvalidType, pointer: str, entries: Sequence[Mapping[str, Any]]) -> NoReturn:
    """Raise the DocumentError for a type that ``make_type`` refused: at the
    vertex's entry in ``vertex_cones`` when the refusal is of the cone a
    type document gave the vertex, else at the entry in ``entries``, the
    vertex list of the document's curve as the document lists it, of the
    vertex the refusal names, or at ``pointer`` when it names none."""
    if exc.vertex is None:
        raise DocumentError(pointer, str(exc))
    if exc.field == "vertex_cones":
        raise DocumentError(_at(pointer, "vertex_cones", exc.vertex), str(exc))
    _refuse_vertex(entries, exc.vertex, pointer, str(exc))


def require_stable(t: CombinatorialType, pointer: str, entries: Sequence[Mapping[str, Any]]) -> None:
    """Raise DocumentError at the first finite vertex that breaks the
    stability axiom, by the rule ``validate_map`` applies to a map, with
    the type's vertex cones, pointing at its entry in ``entries`` as
    :func:`refuse_type` does.  Families waive the axiom, so ``make_type``
    leaves it to the commands that read a type."""
    for vid in _unstable_vertices(t.graph, t.fan, t.vertex_cones, t):
        _refuse_vertex(entries, vid, pointer, f"{STABILITY_VIOLATED}{vid}")


def _refuse_vertex(entries: Sequence[Mapping[str, Any]], vid: str, pointer: str, message: str) -> None:
    """Raise DocumentError pointing at the vertex's entry in the vertex list
    of the document's curve."""
    index = next(i for i, v in enumerate(entries) if v["id"] == vid)
    raise DocumentError(_at(pointer, "curve", "vertices", index), message)


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

def _read_affine(raw, warnings: list[str], known: dict, pointer: str, *tokens) -> AffineFn:
    """An affine function.  ``known`` maps the (const, slope) strings read
    so far without a warning to the function they gave, so a repeated
    canonical pair is looked up, not read again, and its ``AffineFn`` is
    shared."""
    key = (raw.get("const"), raw.get("slope")) if type(raw) is dict else None
    if key is not None and type(key[0]) is str and type(key[1]) is str:
        if key in known:
            return known[key]
    else:
        key = None
    count = len(warnings)
    const = _read_rational(_get(raw, "const", pointer, *tokens), warnings, pointer, *tokens, "const")
    slope = _read_rational(_get(raw, "slope", pointer, *tokens), warnings, pointer, *tokens, "slope")
    fn = AffineFn(const, slope)
    if key is not None and len(warnings) == count:
        known[key] = fn
    return fn


def _affine_json(fn: AffineFn) -> dict:
    return {"const": format_rational(fn.const), "slope": format_rational(fn.slope)}


def parse_family(raw, pointer: str, warnings: list[str]) -> Family:
    """Each distinct canonical (const, slope) spelling is read once
    (:func:`_read_affine`)."""
    t = parse_type(_get(raw, "type", pointer), _at(pointer, "type"), warnings)
    lengths_raw = _get(raw, "lengths", pointer)
    if not isinstance(lengths_raw, dict):
        raise DocumentError(_at(pointer, "lengths"), "expected an object")
    lengths = {}
    known: dict[tuple[str, str], AffineFn] = {}
    for eid, fn in lengths_raw.items():
        if not t.graph.has_edge(eid):
            raise DocumentError(_at(pointer, "lengths", eid), f"unknown edge {eid}")
        lengths[eid] = _read_affine(fn, warnings, known, pointer, "lengths", eid)
    positions = None
    if "positions" in raw:
        pos_raw = raw["positions"]
        if not isinstance(pos_raw, dict):
            raise DocumentError(_at(pointer, "positions"), "expected an object")
        ambient = t.fan.ambient_dim
        positions = {}
        for vid, coords in pos_raw.items():
            if not t.graph.has_vertex(vid):
                raise DocumentError(_at(pointer, "positions", vid), f"unknown vertex {vid}")
            if not isinstance(coords, list) or len(coords) != ambient:
                raise DocumentError(_at(pointer, "positions", vid), f"expected {ambient} coordinate functions")
            positions[vid] = tuple([
                _read_affine(x, warnings, known, pointer, "positions", vid, k) for k, x in enumerate(coords)
            ])
    try:
        return make_family(t, lengths, positions)
    except ValueError as exc:
        raise DocumentError(pointer, str(exc)) from None


def family_json(fam: Family) -> dict:
    """Each distinct function object is spelled once: a family shares one
    per (const, slope) pair of its walk or per spelling of its document."""
    spelled: dict[int, dict] = {}

    def spell(fn: AffineFn) -> dict:
        if id(fn) not in spelled:
            spelled[id(fn)] = _affine_json(fn)
        return spelled[id(fn)]

    return {
        "type": type_json(fam.type),
        "lengths": {eid: spell(fn) for eid, fn in sorted(fam.lengths.items())},
        "positions": {vid: [spell(fn) for fn in fns] for vid, fns in sorted(fam.positions.items())},
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
        if not isinstance(kind, str) or kind not in KINDS:
            raise DocumentError("/kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
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
    except RecursionError:
        raise DocumentError("", "invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("", "expected a JSON object")
    while "command" in raw and "results" in raw:
        results = raw["results"]
        if not isinstance(results, dict):
            raise DocumentError("/results", "expected an object")
        key = next((k for k in ("map", "family", "type", "curve", "fan") if k in results), None)
        if key is None:
            raise DocumentError("/results", "report contains no document to extract")
        if not isinstance(results[key], dict):
            raise DocumentError(_at("/results", key), "expected an object")
        # error pointers below are relative to the inner document
        raw = {"kind": key, **results[key]}
    warnings: list[str] = []
    kind = _infer_kind(raw)
    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise DocumentError("/format_version", f"unsupported format version {version!r}")
    payload_raw = {k: v for k, v in raw.items() if k not in ("kind", "format_version")}
    payload = _PARSERS[kind](payload_raw, "", warnings)
    entries = payload_raw["curve"]["vertices"] if kind in ("map", "type") else ()
    return LoadResult(Document(kind, payload, vertex_entries=entries), warnings)


def document_json(doc: Document) -> dict:
    body = _SERIALIZERS[doc.kind](doc.payload)
    return {"kind": doc.kind, "format_version": doc.format_version, **body}


def serialize_document(doc: Document, pretty: bool = False) -> str:
    return dumps(document_json(doc), pretty)


def dumps(obj, pretty: bool = False) -> str:
    """The JSON text of a document or envelope.  Each is a tree that this
    module has just built, so the encoder's check for circular references
    is skipped."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2, check_circular=False) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
