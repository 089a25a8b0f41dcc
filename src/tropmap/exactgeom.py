"""Exact rational vectors, matrices, cones, and fans.

No floating point is used anywhere.  Values are rationals: ``int`` where
they are integral and :class:`fractions.Fraction` otherwise.  Elimination
(:func:`rref`, :func:`rank`, :func:`integer_nullspace`) scales each row to integers
and runs fraction-free Gauss-Jordan elimination (Bareiss, *Math. Comp.* 22,
1968), so the per-map layers, which hold each map at one common
denominator, compute on integers throughout and build a ``Fraction`` only
for a result that leaves them.  Cones are stored by their generating rays
only.  A cone question on linearly independent rays needs no LP.  Each
cone caches one elimination of [R^T | I], R^T the matrix whose columns are
its rays (:attr:`Cone._frame`): its rays are independent exactly when the
first pivots fall on them, which settles pointedness, extreme rays and
faces of a simplicial cone, and membership in it is then a few dot
products with the rows of that elimination (:func:`cone_contains`).
Whether two cones whose rays together are independent meet in a common
face is one :func:`rank`; when they are dependent, the rows of either
cone's elimination often give a separating covector outright.  Every
other question (those on dependent rays, membership included) is one
non-negative combination problem, solved exactly by an
integer-preserving phase-one simplex (:func:`solve_nonneg`),
the only LP in the package and the LP counterpart of that elimination:
every row of the LP is scaled by one common denominator, and the tableau
is kept in ints as T = d * R, with R the rational tableau and d > 0 the
last pivot.  The denominator is common to all rows because Bland's rule
reads sums of rows, so each pivot, and each witness, is the one the
rational simplex would choose.  Faces, intersections and point locations
are read off canonical ray sets (sorted primitive extreme rays), with one
rank test, covector or common-face LP deciding whether two cones meet in a
face of both.  Two cones meet in a common face whenever two cones that
have them as faces do, so :func:`fan_validate` tests the pairs of maximal
cones and scans all pairs only to list a failure.  A fan that
:func:`build_fan` made keeps each enumerated cone's face list, so no cone
of it is enumerated again and only those pairs are checked; a raw
collection gets every check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

RatVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
RatMatrix = tuple[RatVec, ...]

ZERO = Fraction(0)


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


def _exact(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def vdot(a: Sequence, b: Sequence):
    """Exact dot product of vectors of ``int`` and ``Fraction`` entries: an
    ``int`` when both vectors are integral, else a ``Fraction``."""
    if len(a) != len(b):
        raise ValueError(f"dot product of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def is_zero_vec(a: Sequence) -> bool:
    return not any(a)


def vector_content(vec: Sequence[int]) -> int:
    """The gcd of the integer entries, in one call (0 for the zero vector)."""
    return gcd(*vec)


def primitive(vec: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = vector_content(vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(int(x) // g for x in vec)


# ---------------------------------------------------------------------------
# exact elimination

def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators; an all-``int``
    row is copied as it is."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        row = [_exact(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _eliminate(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the rows scaled to integers.

    Returns (m, pivots, d): row i < len(pivots) of ``m`` is d times row i of
    the reduced row echelon form, and the remaining rows are zero.  Every
    entry stays a minor of the scaled matrix, so each division is exact.
    """
    m = _integer_rows(rows)
    prev = 1
    pivots: list[int] = []
    if not m:
        return m, pivots, prev
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, prev


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    m, pivots, d = _eliminate(rows)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals.  The empty matrix has rank 0."""
    return len(_eliminate(rows)[1])


def _kernel(rows: Sequence[Sequence], ncols: Optional[int]) -> tuple[list[IntVec], int]:
    """The :func:`integer_nullspace` basis and its common positive scale s."""
    n = (len(rows[0]) if rows else 0) if ncols is None else ncols
    return _kernel_of(*_eliminate(rows), n)


def _kernel_of(m: list[list[int]], pivots: list[int], d: int, n: int) -> tuple[list[IntVec], int]:
    """:func:`_kernel` on ``n`` columns of rows that :func:`_eliminate`
    reduced to (m, pivots, d)."""
    sign = 1 if d > 0 else -1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = sign * d
        for r, pc in enumerate(pivots):
            vec[pc] = -sign * m[r][fc]
        basis.append(tuple(vec))
    return basis, sign * d


def integer_nullspace(rows: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[IntVec]:
    """Basis of the right kernel {x : Ax = 0}, in ints: one vector per
    non-pivot column, with one common positive integer s there and 0 in
    every other non-pivot column.  Over s it is the rational basis with 1
    on its non-pivot column."""
    return _kernel(rows, ncols)[0]


# ---------------------------------------------------------------------------
# exact linear feasibility (integer-preserving phase-one simplex, Bland's rule)
#
# Every row of [A | b] is scaled by one common positive integer L, the lcm
# of all denominators, and the tableau is kept in ints with T = d * R: R is
# the rational tableau of the scaled LP and d > 0 the last pivot (1 before
# the first).  A pivot on (r, c) with p = T[r][c] maps every other row to
# (p * T[i] - T[i][c] * T[r]) // d, rows with T[i][c] = 0 included, and
# makes p the new d.  T is then the adjugate of the basis times the scaled
# LP and d the basis's determinant, so every division is exact (Edmonds,
# J. Res. NBS 71B, 1967).  Ratios are compared by cross-multiplying, and d
# cancels from every sign and comparison.  Against the unscaled LP, R
# differs only by the factor L on the rows that still carry an artificial,
# whose sum gives the phase-one reduced costs, so Bland's rule picks the
# same pivots and the witness is the rational simplex's.  Rows scaled apart
# would be reweighted in that sum, and another column could enter.
# Artificial columns are never read, so the tableau keeps only the
# structural columns and b.

def solve_nonneg(a_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Find y >= 0 with Ay = b, exactly; None when infeasible.

    Entries are ints or Fractions.  The witness is a basic solution, one
    ``Fraction`` per column.
    """
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    rows = [[*row, b] for row, b in zip(a_rows, rhs, strict=True)]
    den = lcm(*(x.denominator for row in rows for x in row))
    tableau: list[list[int]] = []
    for row in rows:
        row = [x.numerator * (den // x.denominator) for x in row]
        tableau.append([-x for x in row] if row[-1] < 0 else row)
    basis = [n + i for i in range(m)]  # column n + i: the artificial of row i
    d = 1

    while True:
        art_rows = [row for row, col in zip(tableau, basis) if col >= n]
        if not art_rows:
            break
        # first column with a positive reduced cost for "minimize the sum
        # of the artificials"
        sums = map(sum, zip(*art_rows))
        entering = next((j for j, s in zip(range(n), sums) if s > 0), None)
        if entering is None:
            break
        leaving = -1
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # row[-1] / a against the best ratio so far, cross-multiplied
                best = tableau[leaving]
                left, right = row[-1] * best[entering], best[-1] * a
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving = i
        top = tableau[leaving]
        p = top[entering]
        for i, row in enumerate(tableau):
            if i != leaving:
                f = row[entering]
                if f:
                    tableau[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
                elif p != d:
                    tableau[i] = [p * x // d for x in row]
        d = p
        basis[leaving] = entering

    y = [ZERO] * n
    for row, col in zip(tableau, basis):
        if col >= n:
            if row[-1]:
                return None
        else:
            y[col] = Fraction(row[-1], d)
    return y


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

    @cached_property
    def _frame(self) -> Optional[tuple[list[list[int]], list[list[int]]]]:
        """What :func:`cone_contains` reads of k linearly independent rays
        in R^n: the k coordinate rows and the n - k annihilator rows of one
        :func:`_eliminate` of [R^T | I], the coordinate rows times the sign
        of its scale.  None when the rays are dependent, one of them is zero
        or has the wrong length, or there are none or more than n."""
        k, n = len(self.rays), self.ambient_dim
        if not 0 < k <= n or any(len(r) != n for r in self.rays):
            return None
        rows = [[*coord, *[0] * i, 1, *[0] * (n - 1 - i)] for i, coord in enumerate(zip(*self.rays))]
        m, pivots, d = _eliminate(rows)
        if pivots[:k] != list(range(k)):
            return None
        coords = [row[k:] for row in m[:k]]
        if d < 0:
            coords = [[-x for x in row] for row in coords]
        return coords, [row[k:] for row in m[k:]]


def cone(ambient_dim: int, rays: Iterable[Sequence[int]]) -> Cone:
    rays_t = tuple(sorted({tuple(int(x) for x in r) for r in rays}))
    return Cone(ambient_dim, rays_t)


def zero_cone(ambient_dim: int) -> Cone:
    return Cone(ambient_dim, ())


def cone_contains(c: Cone, p: Sequence[Fraction]) -> bool:
    """Exact membership: is p a non-negative rational combination of the rays?

    On k linearly independent rays in R^n no LP is needed.  Let R^T be the
    n x k matrix whose columns are the rays.  Gauss-Jordan elimination of
    [R^T | I] applies an invertible E: E [R^T | I] = [E R^T | E].  The rays
    are independent, so the first k pivots fall in columns 0 ... k - 1 and
    E R^T = [I_k; 0]; split E into its first k rows E_top and the rest,
    E_bottom.  If p = R^T lam then E p = [lam; 0], so E_bottom p = 0 and
    lam = E_top p.  Conversely, if E_bottom p = 0, put lam = E_top p: then
    E R^T lam = [lam; 0] = E p, and R^T lam = p as E is invertible.  So p
    lies in the span exactly when E_bottom p = 0, its coefficients lam =
    E_top p are then unique, and p lies in the cone exactly when moreover
    lam >= 0.  The cone's cached :attr:`Cone._frame` holds d E in
    integers, d the elimination's scale, with the top rows times sign(d);
    p times the lcm of its denominators has the same zero and sign tests.
    Dependent rays keep one :func:`solve_nonneg`.
    """
    if len(p) != c.ambient_dim:
        raise ValueError(f"point of length {len(p)} in ambient dimension {c.ambient_dim}")
    return _contains(c, _integer_rows([p])[0])


def _contains(c: Cone, q: Sequence[int]) -> bool:
    """:func:`cone_contains` on p scaled to integers (a positive multiple
    of p, so it lies in exactly the cones that hold p)."""
    if not c.rays:
        return not any(q)
    if c._frame is None:
        return solve_nonneg([list(col) for col in zip(*c.rays)], q) is not None
    return _coordinates(c, q) is not None


def _coordinates(c: Cone, q: Sequence[int]) -> Optional[list[int]]:
    """The coordinates of q on the rays of a cone that has a
    :attr:`Cone._frame`, times |d| > 0, when q lies in the cone; else None.
    They are the coordinate rows' dot products with q, unique when q lies
    in the span (see :func:`cone_contains`)."""
    coords, annihilator = c._frame
    for row in annihilator:
        if sum(map(mul, row, q)):
            return None
    lam = []
    for row in coords:
        x = sum(map(mul, row, q))
        if x < 0:
            return None
        lam.append(x)
    return lam


def _independent(rays: Sequence[IntVec]) -> bool:
    """Are the rays linearly independent?  No rays are, and one ray is when
    it is nonzero; more rays need a :func:`rank`, unless they outnumber the
    coordinates."""
    if len(rays) <= 1:
        return all(map(any, rays))
    return len(rays) <= len(rays[0]) and rank(rays) == len(rays)


def _simplicial(c: Cone) -> bool:
    """:func:`_independent` on the rays of a cone.  Two or more rays are
    independent exactly when the cone has a :attr:`Cone._frame`, so the one
    elimination that decides it also serves every later membership test.
    Rays of a length other than the ambient dimension are never simplicial,
    so the LP paths refuse them."""
    if len(c.rays) <= 1:
        return _independent(c.rays)
    return c._frame is not None


def cone_is_pointed(c: Cone) -> bool:
    """Pointed (no line through the origin): the rays admit no nonzero
    non-negative dependence, which may be scaled to total weight 1.
    Independent rays admit no nonzero dependence at all, so they need no
    LP."""
    if _simplicial(c):
        return True
    rows = [list(col) for col in zip(*c.rays)]
    rows.append([1] * len(c.rays))
    return solve_nonneg(rows, [0] * c.ambient_dim + [1]) is None


def canonical_cone(c: Cone) -> Cone:
    """Sorted primitive extreme rays; the canonical form used for equality.

    Distinct primitive rays that are independent are all extreme: none is a
    combination of the others, so they need no membership LP.  A cone that
    is already canonical is returned as it is, with the elimination it
    caches.
    """
    prim = []
    seen = set()
    for r in c.rays:
        if all(x == 0 for x in r):
            continue
        pr = primitive(r)
        if pr not in seen:
            seen.add(pr)
            prim.append(pr)
    rays = tuple(sorted(prim))
    cc = c if rays == c.rays else Cone(c.ambient_dim, rays)
    if _simplicial(cc):
        return cc
    extreme = []
    for i, r in enumerate(prim):
        others = Cone(c.ambient_dim, tuple(prim[:i] + prim[i + 1:]))
        if not cone_contains(others, r):
            extreme.append(r)
    return Cone(c.ambient_dim, tuple(sorted(extreme)))


def _common_face(c1: Cone, c2: Cone) -> Optional[Cone]:
    """The intersection of two canonical pointed cones when it is a face of
    both, else None.

    The rays the cones share span their common face exactly when one
    covector x vanishes on those rays, has x.r <= -1 on the other rays of
    ``c1`` and x.r >= 1 on the other rays of ``c2``; the cone on the shared
    rays is then the intersection.  By Farkas' lemma in Motzkin's form
    (Schrijver, *Theory of Linear and Integer Programming*, 7.8) no such x
    exists iff there are mu >= 0 on the rays of ``c1`` and nu >= 0 on those
    of ``c2`` with sum mu_r r = sum nu_r r and total weight 1 on the rays
    that are not shared (a shared ray carries mu_r - nu_r, of either sign).
    That is one non-negative combination problem over the rays of ``c1``
    and the negated rays of ``c2``.  When every ray is shared the cones are
    equal and need no LP.  Nor do they when the rays of ``c1`` and the
    unshared rays of ``c2`` are independent: a covector then takes any
    prescribed values on them, 0 on the shared rays, -1 on the other rays
    of ``c1`` and +1 on the other rays of ``c2``.

    Otherwise a candidate covector is read off the cached elimination of
    either cone, and the LP is posed only when neither is one.  The
    coordinate rows l_r of ``c1``'s :attr:`Cone._frame`, one per ray r,
    are |d| times the rows of E_top (see :func:`cone_contains`), and
    E_top R^T = I_k, so they form a dual basis up to the scale |d| > 0:
    l_r . r' = |d| when r' = r and 0 for every other ray r' of ``c1``.
    Hence x = -sum l_r over the rays r of ``c1`` not shared is 0 on the
    shared rays and -|d| on the others.  If moreover x . s > 0 for every
    unshared ray s of ``c2``, then x / min(|d|, min x . s) is 0 on the
    shared rays, -|d| / min(...) <= -1 on the other rays of ``c1`` and
    >= 1 on the other rays of ``c2``: the covector above, so by the same
    lemma the LP is infeasible and the answer is the LP's.  With the roles
    of the cones swapped, the negation of the covector found for ``c2``
    serves.  A cone on dependent rays has no frame and yields none.
    """
    in_c1, in_c2 = set(c1.rays), set(c2.rays)
    shared = tuple(r for r in c1.rays if r in in_c2)
    if len(shared) == len(c1.rays) == len(c2.rays):
        return c1
    if _independent(c1.rays + tuple(r for r in c2.rays if r not in in_c1)):
        return Cone(c1.ambient_dim, shared)
    if _frame_separates(c1, c2, in_c2, in_c1) or _frame_separates(c2, c1, in_c1, in_c2):
        return Cone(c1.ambient_dim, shared)
    columns = [*c1.rays, *([-x for x in r] for r in c2.rays)]
    rows = [list(coord) for coord in zip(*columns)]
    rows.append([int(r not in in_c2) for r in c1.rays] + [int(r not in in_c1) for r in c2.rays])
    if solve_nonneg(rows, [0] * c1.ambient_dim + [1]) is not None:
        return None
    return Cone(c1.ambient_dim, shared)


def _frame_separates(a: Cone, b: Cone, in_b: set[IntVec], in_a: set[IntVec]) -> bool:
    """Is minus the sum of the coordinate rows of ``a``'s elimination over
    its rays outside ``in_b`` (the rays of ``b``) positive on every ray of
    ``b`` outside ``in_a`` (the rays of ``a``)?  Then it separates the two
    cones as :func:`_common_face` requires; False decides nothing."""
    frame = a._frame
    if frame is None:
        return False
    x = [0] * a.ambient_dim
    for r, row in zip(a.rays, frame[0]):
        if r not in in_b:
            x = [xi - li for xi, li in zip(x, row)]
    return all(sum(map(mul, x, s)) > 0 for s in b.rays if s not in in_a)


def cone_is_face(face: Cone, c: Cone) -> bool:
    """Is ``face`` a face of ``c``?  Both are compared in canonical form,
    where a face of a pointed cone is the cone on a subset of its rays.
    Both are canonicalized by :func:`_canonical_pointed`, so a cone with a
    line is never read as the pointed cone on its extreme rays.  Such a
    ``face`` is a face of no pointed cone.

    Raises ValueError when ``c`` is not pointed.
    """
    cc = _canonical_pointed(c)
    if not cone_is_pointed(cc):
        raise ValueError("face test requires a pointed cone")
    try:
        fc = _canonical_pointed(face)
    except ValueError:
        return False
    return set(fc.rays) <= set(cc.rays) and _common_face(fc, cc) is not None


def cone_faces(c: Cone) -> list[Cone]:
    """All faces of a pointed cone, in canonical form (the cone included),
    sorted by number of rays, so the cone itself comes last.

    Raises ValueError when the cone is not pointed.
    """
    return _faces(_canonical_pointed(c))


NOT_POINTED = "face enumeration requires a pointed cone"


def _canonical_pointed(c: Cone) -> Cone:
    """:func:`canonical_cone` of a cone that must be pointed; raises
    ValueError when it is not.

    A pointed cone is generated by its extreme rays, but a cone with a line
    can lose rays to :func:`canonical_cone` and come out pointed, so when a
    ray is dropped the given rays are tested.  When the canonical form has
    as many rays as were given, none was dropped.
    """
    cc = canonical_cone(c)
    if len(cc.rays) == len(c.rays):
        return cc
    prim = {primitive(r) for r in c.rays if any(r)}
    if len(cc.rays) < len(prim) and not cone_is_pointed(Cone(c.ambient_dim, tuple(sorted(prim)))):
        raise ValueError(NOT_POINTED)
    return cc


def _faces(cc: Cone) -> list[Cone]:
    """:func:`cone_faces` of a cone already in canonical form.

    Every ray subset of a simplicial cone (independent rays) is a face: a
    covector that is 0 on the subset and 1 on the other rays exists.  So
    those cones need no LP.
    """
    simplicial = _simplicial(cc)
    if not simplicial and not cone_is_pointed(cc):
        raise ValueError(NOT_POINTED)
    faces = {zero_cone(cc.ambient_dim), cc}  # pointed: the empty ray set is a face
    for size in range(1, len(cc.rays)):
        for subset in itertools.combinations(cc.rays, size):
            face = Cone(cc.ambient_dim, subset)
            if not simplicial:
                face = _common_face(face, cc)
            if face is not None:
                faces.add(face)
    return sorted(faces, key=lambda f: (len(f.rays), f.rays))


# ---------------------------------------------------------------------------
# fans

@dataclass(frozen=True)
class Fan:
    """A finite collection of cones; valid fans are closed under faces and
    meet pairwise in common faces.

    ``embedded`` marks fans used for maps into the full vector space (the
    torus workflows): vertex positions then roam the whole space and the
    combinatorial type records the zero cone at every vertex.

    ``face_lists``, None on a raw collection and outside equality, maps
    the cones whose faces :func:`build_fan` recorded, the heads, to their
    :func:`cone_faces` lists, each with its head last; every cone of the
    fan is in one of them.  :func:`fan_validate` reads the maximal cones
    off them, and :func:`cone_locate` tests a point against the heads.
    """

    ambient_dim: int
    cones: tuple[Cone, ...]
    embedded: bool = False
    face_lists: Optional[Mapping[Cone, list[Cone]]] = field(default=None, compare=False, repr=False)


def build_fan(ambient_dim: int, ray_lists: Iterable[Iterable[Sequence[int]]], embedded: bool = False) -> Fan:
    """Fan from generator lists; rays are primitivized and all faces added.
    A ray of a length other than ``ambient_dim`` raises ValueError.  The
    fan keeps in :attr:`Fan.face_lists` the face list of each listed cone
    that no other kept list holds, and ``[zero]`` for the zero cone.  A
    one-ray cone is the cone on its primitive ray, with faces the zero
    cone and itself, and needs no canonical form or face enumeration.

    The listed cones are checked and put in canonical form in list order.
    A cone that is not simplicial is enumerated there, as its enumeration
    is what tests it for pointedness, so a refusal is the one a build in
    list order raises; a simplicial cone is pointed.  The cones are then
    taken from the most rays to the fewest, and one already in a recorded
    face list gets no list of its own: its faces are faces of the recorded
    cone.  So a document that lists every face of a simplicial fan has
    only its maximal cones enumerated."""
    zero = zero_cone(ambient_dim)
    listed: list[Cone] = []
    enumerated: dict[Cone, list[Cone]] = {}  # the cones that are not simplicial
    for rays in ray_lists:
        rays = list(rays)
        for r in rays:
            if len(r) != ambient_dim:
                raise ValueError(f"ray {tuple(r)} has length {len(r)}, expected {ambient_dim}")
        if len(rays) == 1:
            if any(rays[0]):
                listed.append(Cone(ambient_dim, (primitive(rays[0]),)))
            continue
        c = _canonical_pointed(cone(ambient_dim, rays))
        if len(c.rays) > 14:
            raise ValueError("cone with more than 14 extreme rays: out of desk scale")
        if not _simplicial(c) and c not in enumerated:
            enumerated[c] = _faces(c)
        listed.append(c)
    face_lists: dict[Cone, list[Cone]] = {zero: [zero]}
    recorded = {zero}
    for c in sorted(listed, key=lambda c: len(c.rays), reverse=True):
        if c not in recorded:
            face_lists[c] = faces = enumerated.get(c) or ([zero, c] if len(c.rays) == 1 else _faces(c))
            recorded.update(faces)
    return Fan(ambient_dim, tuple(sorted(recorded, key=lambda c: (len(c.rays), c.rays))), embedded, face_lists)


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

    The fan's cones must be canonical, as :func:`build_fan` makes them: the
    minimal cone is the one whose rays every cone containing p shares.
    Raises ValueError on a dimension mismatch, and when no such cone exists
    because cones of the fan overlap or a face is missing.  A raw
    collection that lacks a face can also yield a cone that holds p only on
    its boundary; :func:`fan_validate` reports such a collection.

    p is scaled to integers once and tested against the heads of
    :attr:`Fan.face_lists`; on a raw collection each cone heads the list
    of itself alone.  The cones found to contain p are exactly those a
    test of every cone finds (Cox, Little and Schenck, *Toric Varieties*,
    1.2, for the faces of a simplicial cone):

    - every cone of the fan is in some head's list, and each cone of a
      list is a face of its head, so it lies inside the head: when the head
      misses p, so does every cone of its list;
    - a simplicial head (independent rays r_1 ... r_k, with a
      :attr:`Cone._frame`) is tested by the dot products of its frame.
      When it holds p, these give p's coordinates lam >= 0 on its rays
      (times a positive scale), unique as the rays are independent.  Its
      faces are the cones on subsets S of its rays.  If p is in the face on
      S, p = sum mu_i r_i over i in S with mu >= 0, and uniqueness gives
      lam = mu on S and 0 elsewhere, so the support of lam lies in S.
      Conversely, if it does, p = sum lam_i r_i over i in S lies in that
      face.  So no face of the head is tested on its own;
    - the zero head gets the zero test, and a head on dependent rays one
      LP; only when it holds p is each cone of its list tested as
      :func:`cone_contains` tests it.
    """
    if len(p) != f.ambient_dim:
        raise ValueError(f"point of length {len(p)} located in fan of ambient dimension {f.ambient_dim}")
    q = _integer_rows([p])[0]
    heads = f.face_lists.items() if f.face_lists is not None else ((c, [c]) for c in f.cones)
    found: list[Cone] = []  # the cones that hold p; a face of two heads may come twice
    for head, faces in heads:
        if head._frame is None:  # the zero cone, or dependent rays
            if _contains(head, q):
                found.append(head)
                found += [c for c in faces[:-1] if _contains(c, q)]
            continue
        lam = _coordinates(head, q)
        if lam is not None:
            support = {r for r, x in zip(head.rays, lam) if x}
            found += [c for c in faces if len(c.rays) >= len(support) and support.issubset(c.rays)]
    if not found:
        return None
    shared = set(found[0].rays).intersection(*(c.rays for c in found))
    minimal = {c for c in found if shared.issuperset(c.rays)}
    if len(minimal) != 1:
        raise ValueError("fan cones overlap or miss a face near the given point")
    return minimal.pop()


def fan_cone_intersection(f: Fan, cones_: Sequence[Cone]) -> Cone:
    """Intersection of cones of a valid fan (their largest common face).

    The cones must be canonical and pointed, as :func:`build_fan` and the
    vertex cones of a type make them.  Raises ValueError when two of them
    overlap without meeting in a common face (the fan is not valid).
    """
    result = cones_[0]
    for other in cones_[1:]:
        result = _common_face(result, other)
        if result is None:
            raise ValueError("cones do not meet in a common face (fan is not valid)")
    return result


def fan_validate(f: Fan) -> list[str]:
    """Diagnostics for the fan invariants; empty list iff valid.

    Checks: nonzero primitive rays, pointedness, presence of the zero cone,
    no duplicates, closure under faces, and pairwise intersection in common
    faces.  On a fan that :func:`build_fan` made, all but the last hold by
    construction, and its :attr:`Fan.face_lists` give the maximal cones.

    Pairs are decided on maximal cones, those that are not a proper face of
    another cone of the collection.  Every cone is a face of a maximal one
    (a face of a face is a face, and climbing to larger cones ends), and if
    every two maximal cones meet in a common face, so do any two cones
    sigma' and tau'.  Take maximal cones sigma >= sigma' and tau >= tau',
    and let rho = sigma & tau, a face of both.  The faces of a cone are
    closed under intersection, and a face of a cone that lies in a face of
    it is a face of that face.  So phi = sigma' & rho is a face of sigma
    inside rho, hence a face of rho and of tau.  Then phi & tau', which is
    sigma' & tau', is a face of tau inside tau', hence a face of tau'; and
    it is a face of tau inside rho, hence a face of rho and of sigma,
    inside sigma', hence a face of sigma'.  The argument does not need the
    collection to be closed under faces, so it holds whatever the earlier
    checks found.  All pairs are scanned only when a maximal pair fails, to
    list every pair that does not meet in a common face, as on the raw
    collection of the same cones.
    """
    diags: list[str] = []
    faces_of, ordered = f.face_lists, f.cones
    if faces_of is None:
        usable: list[tuple[Cone, list[Cone]]] = []
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
            try:
                usable.append((c, cone_faces(c)))
            except ValueError:
                diags.append(f"cone {c.rays} is not pointed")
        faces_of = {faces[-1]: faces for _, faces in usable}  # by each cone's own canonical form
        if zero_cone(f.ambient_dim) not in faces_of:
            diags.append("missing zero cone")
        if len(faces_of) != len(usable):
            diags.append("duplicate cones (equal after canonicalization)")
        for c, faces in usable:
            for face in faces:
                if face not in faces_of:
                    diags.append(f"missing face {face.rays} of cone {c.rays}")
        ordered = sorted(faces_of, key=lambda c: (len(c.rays), c.rays))
    proper = {face for faces in faces_of.values() for face in faces[:-1]}
    maximal = [c for c in ordered if c in faces_of and c not in proper]
    if all(_meet_in_a_face(c1, c2, faces_of) for c1, c2 in itertools.combinations(maximal, 2)):
        return diags
    faces_of = dict(faces_of)  # filled with the face lists the scan makes
    for c1, c2 in itertools.combinations(ordered, 2):
        if not _meet_in_a_face(c1, c2, faces_of):
            diags.append(f"cones {c1.rays} and {c2.rays} do not meet in a common face")
    return diags


def _meet_in_a_face(c1: Cone, c2: Cone, faces_of: dict[Cone, list[Cone]]) -> bool:
    """Do two canonical cones, ``c1`` with no more rays than ``c2``, meet
    in a common face?  A cone on a subset of the rays of ``c2`` is its own
    intersection with ``c2``, so it meets ``c2`` in a common face exactly
    when it is a face of ``c2``; its face list is read from ``faces_of`` or,
    when that has none, made by :func:`cone_faces` and kept there."""
    if set(c1.rays) <= set(c2.rays):
        if c2 not in faces_of:
            faces_of[c2] = cone_faces(c2)
        return c1 in faces_of[c2]
    return _common_face(c1, c2) is not None
