"""SVG snapshots of a map's coordinate-pair projection.

Pure projection, no layout: finite vertices become dots, bounded edges
segments, unbounded rays truncated stubs, and (for superabundant genus-one
maps) the trace of the first containing hyperplane is overlaid as a dashed
line.  Coordinates are computed exactly and rounded to four decimals when
written; only the length of a ray stub involves a square root, which is
taken to twenty decimals.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .exactgeom import is_zero_vec, vdot
from .maps import TropicalStableMap

_STYLE = {
    "edge": "stroke:#333;stroke-width:0.04",
    "ray": "stroke:#888;stroke-width:0.03",
    "h": "stroke:#b40;stroke-width:0.03;stroke-dasharray:0.12,0.08",
    "vertex": "fill:#06c",
}
_MARGIN = Fraction(1, 2)
_SQRT_DIGITS = 20


def _fmt(x: Fraction) -> str:
    """``x`` rounded half to even to four decimals."""
    r = round(x * 10**4)
    whole, frac = divmod(abs(r), 10**4)
    return f"{'-' if r < 0 else ''}{whole}.{frac:04d}"


def _sqrt(n: int) -> Fraction:
    """The square root of a natural number, to ``_SQRT_DIGITS`` decimals."""
    scale = 10**_SQRT_DIGITS
    return Fraction(isqrt(n * scale * scale), scale)


def render_svg(m: TropicalStableMap, axes: tuple[int, int] = (0, 1), radius=Fraction(3)) -> str:
    i, j = axes
    n = m.fan.ambient_dim
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"axes {axes} out of range for ambient dimension {n}")
    radius = Fraction(radius)

    def project(p) -> tuple[Fraction, Fraction]:
        return Fraction(p[i]), Fraction(p[j])

    points = [project(p) for p in m.positions.values()] or [(Fraction(0), Fraction(0))]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    lo_x, hi_x = min(xs) - radius - _MARGIN, max(xs) + radius + _MARGIN
    lo_y, hi_y = min(ys) - radius - _MARGIN, max(ys) + radius + _MARGIN

    def svg_y(y: Fraction) -> Fraction:
        return hi_y + lo_y - y  # flip so larger coordinates point up

    lines = []
    marked = m.curve.marked_vertex_ids
    for e in m.curve.edges:
        a, b = e.ends
        d = m.edge_data[e.id]
        if a in marked or b in marked:
            finite = b if a in marked else a
            if is_zero_vec(d.u):
                continue
            p = project(m.positions[finite])
            u = (d.u[i], d.u[j])
            if u == (0, 0):
                continue
            norm = _sqrt(u[0] ** 2 + u[1] ** 2)
            q = (p[0] + radius * u[0] / norm, p[1] + radius * u[1] / norm)
            lines.append(_line(p, q, "ray", svg_y))
        elif a != b:
            lines.append(_line(project(m.positions[a]), project(m.positions[b]), "edge", svg_y))

    h_trace = _hyperplane_trace(m, (i, j))
    if h_trace is not None:
        (p, q) = _clip_line(h_trace, (lo_x, lo_y, hi_x, hi_y))
        if p is not None:
            lines.append(_line(p, q, "h", svg_y))

    for vid, pos in sorted(m.positions.items()):
        x, y = project(pos)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(svg_y(y))}" r="0.08" style="{_STYLE["vertex"]}">'
            f"<title>{vid}</title></circle>"
        )

    width = hi_x - lo_x
    height = hi_y - lo_y
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(lo_x)} {_fmt(lo_y)} {_fmt(width)} {_fmt(height)}" '
        'width="640" height="640">'
    )
    return "\n".join([header, *lines, "</svg>"]) + "\n"


def _line(p, q, style, svg_y) -> str:
    return (
        f'<line x1="{_fmt(p[0])}" y1="{_fmt(svg_y(p[1]))}" '
        f'x2="{_fmt(q[0])}" y2="{_fmt(svg_y(q[1]))}" style="{_STYLE[style]}"/>'
    )


def _hyperplane_trace(m: TropicalStableMap, axes):
    """(a, b, c) with a*x + b*y = c: the projected trace of the first
    hyperplane containing the cycle span, when one exists."""
    from .wellspaced import cycle_data, enumerate_flats

    try:
        cd = cycle_data(m)  # ValueError unless the genus is one
        if cd.frame.codim == 0:
            return None
        flats = enumerate_flats(cd)
    except ValueError:
        return None
    normal = flats[0].normal
    i, j = axes
    a, b = normal[i], normal[j]
    if a == 0 and b == 0:
        return None
    base = m.positions[cd.frame.cycle_vertices[0]]
    c = vdot(normal, base)
    # the trace of {normal . x = normal . base} in the (i, j)-plane through base
    off = sum(normal[k] * base[k] for k in range(len(normal)) if k not in (i, j))
    return (a, b, c - off)


def _clip_line(trace, box):
    a, b, c = trace
    lo_x, lo_y, hi_x, hi_y = box
    pts = []
    if b != 0:
        for x in (lo_x, hi_x):
            y = Fraction(c - a * x) / b
            if lo_y <= y <= hi_y:
                pts.append((x, y))
    if a != 0:
        for y in (lo_y, hi_y):
            x = Fraction(c - b * y) / a
            if lo_x <= x <= hi_x:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if p not in uniq:
            uniq.append(p)
    if len(uniq) < 2:
        return None, None
    return uniq[0], uniq[1]
