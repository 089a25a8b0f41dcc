"""Exact rational vectors, matrices, cones, and fans.

Everything in this module is computed over the rationals with
:class:`fractions.Fraction`; no floating point is used anywhere.  Cones are
stored by their generating rays only, and membership questions are answered
by solving the non-negative combination problem exactly with a small
phase-one simplex.  Face lattices are computed on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

RatVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
RatMatrix = tuple[RatVec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# rationals and vectors

def parse_rational(value) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a plain int into a Fraction.

    Floats are rejected: rounding would silently break every discrete
    predicate downstream.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        num, sep, den = text.partition("/")
        try:
            if sep:
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(x: Fraction) -> str:
    """Serialize canonically: ``p/q`` with q > 0 and gcd(|p|, q) = 1;
    integers omit the denominator."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def ratvec(values: Iterable) -> RatVec:
    return tuple(parse_rational(v) for v in values)


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> RatVec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> RatVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, a: Sequence) -> RatVec:
    c = Fraction(c)
    return tuple(c * Fraction(x) for x in a)


def _exact(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def vdot(a: Sequence, b: Sequence) -> Fraction:
    """Exact dot product.  ``int`` and ``Fraction`` entries are used as they
    are (integer vectors multiply in ``int``); anything else is converted."""
    total = sum(_exact(x) * _exact(y) for x, y in zip(a, b, strict=True))
    return total if isinstance(total, Fraction) else Fraction(total)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def vector_content(vec: Sequence[int]) -> int:
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    return g


def primitive(vec: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = vector_content(vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in vec)


def primitive_rational(vec: Sequence[Fraction]) -> IntVec:
    """Scale a nonzero rational vector to its primitive integer multiple."""
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    lcm = 1
    for x in fracs:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fracs]
    return primitive(ints)


# ---------------------------------------------------------------------------
# exact elimination

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with exact pivots; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals, by exact-pivot elimination.

    The empty matrix has rank 0.
    """
    return len(rref(rows)[1])


def transpose(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[RatVec]:
    """Basis of the right kernel {x : Ax = 0}."""
    if not rows:
        if ncols is None:
            return []
        return [tuple(ONE if j == i else ZERO for j in range(ncols)) for i in range(ncols)]
    n = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * n
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# exact linear feasibility (phase-one simplex with Bland's rule)

def solve_nonneg(a_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Find y >= 0 with Ay = b, exactly; None when infeasible."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    tableau: list[list[Fraction]] = []
    for row, b in zip(a_rows, rhs, strict=True):
        row = [Fraction(x) for x in row]
        b = Fraction(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        tableau.append(row + [ZERO] * m + [b])
    for i in range(m):
        tableau[i][n + i] = ONE
    width = n + m
    basis = [n + i for i in range(m)]

    while True:
        art_rows = [i for i in range(m) if basis[i] >= n]
        if not art_rows:
            break
        entering = -1
        for j in range(n):
            # reduced cost of column j for "minimize sum of artificials"
            if sum(tableau[i][j] for i in art_rows) > 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][width] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            break
        piv = tableau[leaving][entering]
        tableau[leaving] = [x / piv for x in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering

    for i in range(m):
        if basis[i] >= n and tableau[i][width] != 0:
            return None
    y = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            y[basis[i]] = tableau[i][width]
    return y


def lp_feasible(
    num_vars: int,
    eqs: Sequence[tuple[Sequence, object]] = (),
    geqs: Sequence[tuple[Sequence, object]] = (),
    nonneg: Iterable[int] = (),
) -> Optional[list[Fraction]]:
    """Exact feasibility of {eqs hold, geqs hold, x_i >= 0 for i in nonneg}.

    ``eqs`` and ``geqs`` are (coefficients, rhs) pairs meaning c.x = rhs and
    c.x >= rhs.  Variables not listed in ``nonneg`` are free.  Returns a
    witness or None.
    """
    nonneg_set = set(nonneg)
    cols: list[tuple[int, Optional[int]]] = []
    ncols = 0
    for v in range(num_vars):
        if v in nonneg_set:
            cols.append((ncols, None))
            ncols += 1
        else:
            cols.append((ncols, ncols + 1))
            ncols += 2
    slack_base = ncols
    ncols += len(geqs)

    a_rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def emit(coeffs, b, slack_idx=None):
        row = [ZERO] * ncols
        for v, c in enumerate(coeffs):
            c = Fraction(c)
            if c == 0:
                continue
            pos, neg = cols[v]
            row[pos] += c
            if neg is not None:
                row[neg] -= c
        if slack_idx is not None:
            row[slack_base + slack_idx] = Fraction(-1)
        a_rows.append(row)
        rhs.append(Fraction(b))

    for coeffs, b in eqs:
        emit(coeffs, b)
    for k, (coeffs, b) in enumerate(geqs):
        emit(coeffs, b, slack_idx=k)

    y = solve_nonneg(a_rows, rhs)
    if y is None:
        return None
    out = []
    for v in range(num_vars):
        pos, neg = cols[v]
        val = y[pos] if pos < len(y) else ZERO
        if neg is not None:
            val -= y[neg]
        out.append(val)
    return out


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone given by integer generating rays.

    The zero cone is the cone with no rays.  Generators are stored as given;
    :func:`canonical_cone` reduces to sorted primitive extreme rays.
    """

    ambient_dim: int
    rays: tuple[IntVec, ...]

    def dim(self) -> int:
        if not self.rays:
            return 0
        return rank([[Fraction(x) for x in r] for r in self.rays])

    def is_zero(self) -> bool:
        return not self.rays


def cone(ambient_dim: int, rays: Iterable[Sequence[int]]) -> Cone:
    rays_t = tuple(sorted({tuple(int(x) for x in r) for r in rays}))
    return Cone(ambient_dim, rays_t)


def zero_cone(ambient_dim: int) -> Cone:
    return Cone(ambient_dim, ())


def cone_contains(c: Cone, p: Sequence[Fraction]) -> bool:
    """Exact membership: is p a non-negative rational combination of the rays?"""
    if len(p) != c.ambient_dim:
        raise ValueError(f"point of length {len(p)} in ambient dimension {c.ambient_dim}")
    if not c.rays:
        return is_zero_vec(p)
    k = len(c.rays)
    eqs = [([c.rays[i][coord] for i in range(k)], p[coord]) for coord in range(c.ambient_dim)]
    return lp_feasible(k, eqs=eqs, nonneg=range(k)) is not None


def cone_is_pointed(c: Cone) -> bool:
    """Pointed (no line through the origin): the rays admit no nonzero
    non-negative dependence."""
    if not c.rays:
        return True
    k = len(c.rays)
    eqs = [([c.rays[i][coord] for i in range(k)], 0) for coord in range(c.ambient_dim)]
    geqs = [([1] * k, 1)]
    return lp_feasible(k, eqs=eqs, geqs=geqs, nonneg=range(k)) is None


def canonical_cone(c: Cone) -> Cone:
    """Sorted primitive extreme rays; the canonical form used for equality."""
    prim = []
    seen = set()
    for r in c.rays:
        if all(x == 0 for x in r):
            continue
        pr = primitive(r)
        if pr not in seen:
            seen.add(pr)
            prim.append(pr)
    extreme = []
    for i, r in enumerate(prim):
        others = Cone(c.ambient_dim, tuple(prim[:i] + prim[i + 1:]))
        if not cone_contains(others, ratvec(r)):
            extreme.append(r)
    return Cone(c.ambient_dim, tuple(sorted(extreme)))


def cone_contains_cone(big: Cone, small: Cone) -> bool:
    return all(cone_contains(big, ratvec(r)) for r in small.rays) if small.rays else True


def _face_functional_exists(ambient: int, zero_rays: Sequence[IntVec], pos_rays: Sequence[IntVec]) -> bool:
    # exists a covector vanishing on zero_rays and >= 1 on pos_rays
    eqs = [(list(r), 0) for r in zero_rays]
    geqs = [(list(r), 1) for r in pos_rays]
    return lp_feasible(ambient, eqs=eqs, geqs=geqs) is not None


def cone_is_face(face: Cone, c: Cone) -> bool:
    """Is ``face`` a face of ``c``?  Both are compared in canonical form."""
    cc = canonical_cone(c)
    fc = canonical_cone(face)
    if fc == cc:
        return True
    if not cone_contains_cone(cc, fc):
        return False
    inside = [r for r in cc.rays if cone_contains(fc, ratvec(r))]
    outside = [r for r in cc.rays if r not in inside]
    # the face must be generated by the rays of c it contains
    span_cone = Cone(cc.ambient_dim, tuple(inside))
    if not cone_contains_cone(span_cone, fc):
        return False
    return _face_functional_exists(cc.ambient_dim, inside, outside)


def cone_faces(c: Cone) -> list[Cone]:
    """All faces of a pointed cone, in canonical form (the cone included)."""
    cc = canonical_cone(c)
    if not cone_is_pointed(cc):
        raise ValueError("face enumeration requires a pointed cone")
    faces = {cc}
    n = len(cc.rays)
    for size in range(n):
        for subset in itertools.combinations(range(n), size):
            zero = [cc.rays[i] for i in subset]
            pos = [cc.rays[i] for i in range(n) if i not in subset]
            if _face_functional_exists(cc.ambient_dim, zero, pos):
                faces.add(canonical_cone(Cone(cc.ambient_dim, tuple(zero))))
    return sorted(faces, key=lambda f: (len(f.rays), f.rays))


def _pair_intersects_in_common_face(c1: Cone, c2: Cone) -> bool:
    # Separating-functional criterion: phi vanishing on the candidate common
    # face, <= -1 on the remaining rays of c1 and >= 1 on those of c2.
    s = [r for r in c1.rays if cone_contains(c2, ratvec(r))]
    t = [r for r in c2.rays if cone_contains(c1, ratvec(r))]
    eqs = [(list(r), 0) for r in s + t]
    geqs = [([-x for x in r], 1) for r in c1.rays if r not in s]
    geqs += [(list(r), 1) for r in c2.rays if r not in t]
    return lp_feasible(c1.ambient_dim, eqs=eqs, geqs=geqs) is not None


# ---------------------------------------------------------------------------
# fans

@dataclass(frozen=True)
class Fan:
    """A finite collection of cones; valid fans are closed under faces and
    meet pairwise in common faces.

    ``embedded`` marks fans used for maps into the full vector space (the
    torus workflows): vertex positions then roam the whole space and the
    combinatorial type records the zero cone at every vertex.
    """

    ambient_dim: int
    cones: tuple[Cone, ...]
    embedded: bool = False


def fan(ambient_dim: int, cones_: Iterable[Cone], embedded: bool = False) -> Fan:
    """Raw fan constructor: no face completion, no canonicalization."""
    return Fan(ambient_dim, tuple(sorted(set(cones_), key=lambda c: (len(c.rays), c.rays))), embedded)


def build_fan(ambient_dim: int, ray_lists: Iterable[Iterable[Sequence[int]]], embedded: bool = False) -> Fan:
    """Fan from generator lists; rays are primitivized and all faces added."""
    all_cones: set[Cone] = {zero_cone(ambient_dim)}
    for rays in ray_lists:
        c = canonical_cone(cone(ambient_dim, rays))
        if len(c.rays) > 14:
            raise ValueError("cone with more than 14 extreme rays: out of desk scale")
        for f in cone_faces(c):
            all_cones.add(f)
    return fan(ambient_dim, all_cones, embedded)


def auto_rays_fan(ambient_dim: int, directions: Iterable[Sequence[int]], embedded: bool = True) -> Fan:
    """The minimal fan with the zero cone plus one ray per given direction."""
    rays = sorted({primitive(d) for d in directions if any(x != 0 for x in d)})
    return build_fan(ambient_dim, ([r] for r in rays), embedded)


def complete_orthant_fan(ambient_dim: int, embedded: bool = True) -> Fan:
    """The complete fan whose maximal cones are the 2^n closed orthants."""
    axes = []
    for signs in itertools.product((-1, 1), repeat=ambient_dim):
        rays = []
        for i, s in enumerate(signs):
            e = [0] * ambient_dim
            e[i] = s
            rays.append(e)
        axes.append(rays)
    return build_fan(ambient_dim, axes, embedded)


def cone_locate(f: Fan, p: Sequence[Fraction]) -> Optional[Cone]:
    """The unique minimal cone of the fan whose relative interior contains p,
    or None when p is outside the support.

    Raises ValueError on a dimension mismatch.
    """
    if len(p) != f.ambient_dim:
        raise ValueError(f"point of length {len(p)} located in fan of ambient dimension {f.ambient_dim}")
    candidates = [c for c in f.cones if cone_contains(c, p)]
    if not candidates:
        return None
    minimal = [c for c in candidates if all(cone_contains_cone(d, c) for d in candidates)]
    if len(minimal) != 1:
        raise ValueError("fan is not closed under faces near the given point")
    return minimal[0]


def fan_cone_intersection(f: Fan, cones_: Sequence[Cone]) -> Cone:
    """Intersection of cones of a valid fan (their largest common face).

    Two fan cones meet in a common face generated by the rays of either one
    lying in the other; the result is verified to be a face of every input.
    """
    result = canonical_cone(cones_[0])
    for other in cones_[1:]:
        other = canonical_cone(other)
        s = [r for r in result.rays if cone_contains(other, ratvec(r))]
        t = [r for r in other.rays if cone_contains(result, ratvec(r))]
        result = canonical_cone(Cone(f.ambient_dim, tuple(s + t)))
    for c in cones_:
        if not cone_is_face(result, c):
            raise ValueError(
                "cones do not meet in a common face (fan is not valid)"
            )
    return result


def fan_validate(f: Fan) -> list[str]:
    """Diagnostics for the fan invariants; empty list iff valid.

    Checks: nonzero primitive rays, pointedness, presence of the zero cone,
    closure under faces, and pairwise intersection in common faces.
    """
    diags: list[str] = []
    usable: list[Cone] = []
    for c in f.cones:
        bad = False
        for r in c.rays:
            if len(r) != f.ambient_dim:
                diags.append(f"ray {r} has length {len(r)}, expected {f.ambient_dim}")
                bad = True
            elif all(x == 0 for x in r):
                diags.append(f"zero ray generator in cone {c.rays}")
                bad = True
            elif vector_content(r) != 1:
                diags.append(f"non-primitive ray {r} (content {vector_content(r)})")
        if bad:
            continue
        if not cone_is_pointed(c):
            diags.append(f"cone {c.rays} is not pointed")
            continue
        usable.append(c)
    canon = {canonical_cone(c) for c in usable}
    if zero_cone(f.ambient_dim) not in canon:
        diags.append("missing zero cone")
    if len(canon) != len(usable):
        diags.append("duplicate cones (equal after canonicalization)")
    for c in usable:
        for face in cone_faces(c):
            if face not in canon:
                diags.append(f"missing face {face.rays} of cone {c.rays}")
    ordered = sorted(canon, key=lambda c: (len(c.rays), c.rays))
    for c1, c2 in itertools.combinations(ordered, 2):
        if not _pair_intersects_in_common_face(c1, c2):
            diags.append(f"cones {c1.rays} and {c2.rays} do not meet in a common face")
    return diags
