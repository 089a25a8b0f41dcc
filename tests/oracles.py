"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: rank is computed by
fraction-free Bareiss elimination on integer matrices (and the library's
fraction-free echelon forms are checked against plain Fraction elimination), flats by brute-force
closure of every subset, automorphisms by exhaustive permutation search over
raw adjacency data, and non-negative linear systems by a phase-one simplex
over Fractions.  General linear systems (free variables, inequalities)
reach that simplex through a front end, :func:`ref_lp_feasible`, where the
library poses each cone question as a non-negative combination problem.
The cone and fan references decide faces, intersections and locations by LP
membership tests of every ray and point, where the library reads them off
canonical ray sets.  Each membership test is one LP posed through that
front end, where the library decides membership in a cone on independent
rays by dot products with the rows of one elimination cached on the cone.
The canonical form, pointedness, common face, face list and point location
are also kept in their LP-only form (``lp_*``), where the library settles
simplicial cones by that elimination or one rank and skips the cones
inside a cone that misses the point.  Edge contraction rebuilds the curve
through the normalizing constructor once per contracted edge, where the
library contracts a set of edges in one pass and builds the curve without
sorting it again.  The face search contracts every edge subset of
the right size, where the library tries only the subsets whose edge
weights and directions can match.  Decorated isomorphisms come from the
two recursive searches (vertices, then edges) that the library replaced by
one explicit-stack search; they pin its output order, and the face search
uses them, so it shares no search code with the library.  They try every
unused vertex for each vertex, where the library tries the neighbours of a
mapped neighbour's image, and they read each vertex profile and adjacency
off the vertex's own incidence list, where the library reads them all in
one pass over the edges.
The R4 family certificate builds the limit and each probe member as a
map and decides each member on the member's own cycle frame, computed in
Fractions, and on trapped subcurves cut by vertex levels with Fraction distances, where
the library compares the limit on the family's integers, builds one
integer frame per family, projects each vertex offset once per family,
enumerates the flats once per distinct arrangement and reads each trapped
component off the edge directions.  The spanning tree of
a type scans every bounded edge for each frontier vertex, and connectivity
is a union-find, where the library walks incidence lists.  The cycle of a
genus-one curve is found by sweeping every vertex until none is a leaf,
where the library peels leaves from a stack.  A family's derived
positions come from one walk of the constant parts and one of the
slopes, each in Fractions, after a positivity test of every length in
Fractions, where the library walks the integer (const, slope) pairs once
and tests them.  A family's members are built unchecked as maps, in
Fractions, from each function's value at t, and judged by ``validate_map``
and membership LPs, where the library checks the family once on its
integer pairs when it is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from tropmap.curves import INF, Edge, TropicalCurve, Vertex, betti_and_genus, tropical_curve
from tropmap.exactgeom import (
    Cone,
    cone_is_face,
    primitive,
    ratvec,
    solve_nonneg,
    vector_content,
    zero_cone,
)
from tropmap.maps import (
    STABILITY_VIOLATED,
    CombinatorialType,
    canonical_map,
    canonical_type,
    stable_map,
    validate_map,
)
from tropmap.moduli import (
    MAX_FACE_SEARCH_EDGES,
    AffineFn,
    FaceWitness,
    _contract_with_map,
    affine,
    evaluate_family,
    format_affine,
    limit_of_family,
)
from tropmap.wellspaced import (
    _PROBES,
    Assumptions,
    CertificateError,
    CycleFrame,
    TrappedSubcurve,
    _first_rule,
    cycle_data,
    enumerate_flats,
)


def bareiss_rank(rows) -> int:
    """Rank of a rational matrix by integer fraction-free elimination."""
    if not rows:
        return 0
    scaled = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        lcm = 1
        for x in fracs:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        scaled.append([int(x * lcm) for x in fracs])
    m = [row[:] for row in scaled]
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(n_rows):
            if i == r:
                continue
            for j in range(n_cols):
                if j == c:
                    continue
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def ref_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions,
    dividing each pivot row by its pivot; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def subset_closure_flats(vectors, max_rank) -> set[frozenset]:
    """All flats of rank <= max_rank by closing every subset under span
    membership."""
    vectors = [tuple(v) for v in vectors]

    def vec_rank(subset):
        return bareiss_rank([list(v) for v in subset]) if subset else 0

    def closure(subset):
        base = vec_rank(subset)
        return frozenset(
            w for w in vectors if vec_rank(list(subset) + [w]) == base
        )

    flats = set()
    for size in range(len(vectors) + 1):
        for subset in itertools.combinations(vectors, size):
            cl = closure(subset)
            if vec_rank(cl) <= max_rank:
                flats.add(cl)
    return flats


def exhaustive_automorphisms(vertices, edges, markings):
    """Count decorated automorphisms by raw enumeration.

    vertices: {id: genus}; edges: {id: (a, b, u, w)} with u read a -> b;
    markings: {label: vertex}.  An automorphism is a vertex bijection fixing
    marked vertices pointwise plus an edge bijection; an edge may land on an
    edge with reversed orientation only if the direction negates, and a
    contracted loop may map to itself either way.
    """
    vids = sorted(vertices)
    marked = set(markings.values())
    free = [v for v in vids if v not in marked]
    count = 0
    for perm in itertools.permutations(free):
        vmap = {v: v for v in marked}
        vmap.update(dict(zip(free, perm)))
        if any(vertices[v] != vertices[vmap[v]] for v in vids):
            continue
        eids = sorted(edges)
        for eperm in itertools.permutations(eids):
            emap = dict(zip(eids, eperm))
            arrangements = 1
            ok = True
            for e1, e2 in emap.items():
                a1, b1, u1, w1 = edges[e1]
                a2, b2, u2, w2 = edges[e2]
                if w1 != w2:
                    ok = False
                    break
                neg = tuple(-x for x in u1)
                if a1 == b1:
                    if a2 != b2 or vmap[a1] != a2:
                        ok = False
                        break
                    forward = u1 == u2
                    backward = neg == u2
                    if forward and backward:
                        arrangements *= 2
                    elif not (forward or backward):
                        ok = False
                        break
                else:
                    if a2 == b2:
                        ok = False
                        break
                    if vmap[a1] == a2 and vmap[b1] == b2 and u1 == u2:
                        pass
                    elif vmap[a1] == b2 and vmap[b1] == a2 and neg == u2:
                        pass
                    else:
                        ok = False
                        break
            if ok:
                count += arrangements
    return count


def euler_betti(num_vertices, edge_pairs) -> int:
    """b1 = E - V + #components, for cross-checking the connected case."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = num_vertices
    for a, b in edge_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return len(edge_pairs) - num_vertices + comps


def projective_class(quotient, vec):
    """The image of ``vec`` under the rows of ``quotient``, computed in
    Fractions, as a primitive integral vector whose first nonzero entry is
    positive; None when the image is zero."""
    img = [sum((Fraction(q) * Fraction(x) for q, x in zip(row, vec)), Fraction(0)) for row in quotient]
    if all(x == 0 for x in img):
        return None
    den = 1
    for x in img:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in img]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    rep = [x // g for x in ints]
    first = next(x for x in rep if x != 0)
    return tuple(-x for x in rep) if first < 0 else tuple(rep)


def fraction_projection(m, base_point, quotient):
    """Sorted projective classes of the vertex offsets from ``base_point``
    and of the nonzero edge directions of a map."""
    vecs = [
        [Fraction(p) - Fraction(b) for p, b in zip(m.positions[vid], base_point)]
        for vid in m.curve.unmarked_vertex_ids()
    ]
    vecs += [m.edge_data[e.id].u for e in m.curve.edges]
    reps = {projective_class(quotient, v) for v in vecs}
    return tuple(sorted(reps - {None}))


def _solve(rows, rhs):
    """One solution of rows . x = rhs by Gauss-Jordan elimination over
    Fractions; the system must be consistent."""
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(row[n] != 0 for row in aug[r:]):
        raise ValueError("inconsistent system")
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def first_sources(m, base_point, quotient) -> dict:
    """Projective class -> the first vector met in it: the primitive integral
    offsets of the finite vertices from ``base_point`` in curve order, then
    the edge directions in curve order."""
    vecs = []
    for vid in m.curve.unmarked_vertex_ids():
        offset = [Fraction(p) - Fraction(b) for p, b in zip(m.positions[vid], base_point)]
        if any(offset):
            den = 1
            for x in offset:
                den = den * x.denominator // gcd(den, x.denominator)
            ints = [int(x * den) for x in offset]
            g = 0
            for x in ints:
                g = gcd(g, abs(x))
            vecs.append(tuple(x // g for x in ints))
    vecs += [tuple(m.edge_data[e.id].u) for e in m.curve.edges]
    out: dict = {}
    for vec in vecs:
        rep = projective_class(quotient, vec)
        if rep is not None and rep not in out:
            out[rep] = vec
    return out


def lift_pattern(quotient, vectors, normal):
    """The representatives annihilated by an ambient covector vanishing on
    the cycle span: lift each representative through the quotient map and
    evaluate the covector on the lift."""
    out = []
    for rep in vectors:
        lift = _solve(quotient, rep)
        if sum((Fraction(a) * b for a, b in zip(normal, lift)), Fraction(0)) == 0:
            out.append(tuple(rep))
    return tuple(sorted(out))


def dense_equations(t):
    """The edge equations of a type as a dense matrix over the (positions,
    lengths) columns: one position block per finite vertex (curve order),
    then one length per bounded edge.  For each bounded edge and coordinate
    k the row has +1 on the head's position, -1 on the tail's and -w*u[k]
    on the edge's length; a self-loop keeps the length entry only."""
    n = t.fan.ambient_dim
    marked = {mk.vertex for mk in t.graph.markings}
    finite = [v.id for v in t.graph.vertices if v.id not in marked]
    bounded = [e for e in t.graph.edges if not (set(e.ends) & marked)]
    vindex = {vid: i for i, vid in enumerate(finite)}
    width = n * len(finite) + len(bounded)
    rows = []
    for i, e in enumerate(bounded):
        d = t.edge_data[e.id]
        head = e.ends[0] if e.ends[1] == d.tail else e.ends[1]
        for k in range(n):
            row = [Fraction(0)] * width
            if head != d.tail:
                row[n * vindex[head] + k] += 1
                row[n * vindex[d.tail] + k] -= 1
            row[n * len(finite) + i] -= d.w * d.u[k]
            rows.append(tuple(row))
    return tuple(rows)


def dense_pull_back(t, equations):
    """The strict-mode edge equations over the generator coordinates y: each
    row of the (positions, lengths) equation matrix multiplied into dense
    generator columns, one per ray of each finite vertex's cone (vertices in
    curve order) and one unit column per bounded length."""
    n = t.fan.ambient_dim
    marked = {mk.vertex for mk in t.graph.markings}
    finite = [v.id for v in t.graph.vertices if v.id not in marked]
    bounded = [e.id for e in t.graph.edges if not (set(e.ends) & marked)]
    width = n * len(finite) + len(bounded)
    columns = []
    for i, vid in enumerate(finite):
        for r in t.vertex_cones[vid].rays:
            col = [Fraction(0)] * width
            for k in range(n):
                col[n * i + k] = Fraction(r[k])
            columns.append(col)
    for i in range(len(bounded)):
        col = [Fraction(0)] * width
        col[n * len(finite) + i] = Fraction(1)
        columns.append(col)
    return [
        [sum(row[j] * col[j] for j in range(width)) for col in columns]
        for row in equations
    ]


ZERO, ONE = Fraction(0), Fraction(1)


def ref_solve_nonneg(a_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Find y >= 0 with Ay = b, exactly; None when infeasible.

    The phase-one simplex with Bland's rule over ``Fraction``s that the
    library's integer-preserving simplex must agree with, witness for
    witness.
    """
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


def ref_lp_feasible(
    num_vars: int,
    eqs: Sequence[tuple[Sequence, object]] = (),
    geqs: Sequence[tuple[Sequence, object]] = (),
    nonneg: Iterable[int] = (),
) -> Optional[list[Fraction]]:
    """Exact feasibility of {eqs hold, geqs hold, x_i >= 0 for i in nonneg}.

    ``eqs`` and ``geqs`` are (coefficients, rhs) pairs meaning c.x = rhs and
    c.x >= rhs.  Variables not listed in ``nonneg`` are free.  Returns a
    witness or None.  Each free variable is split into two non-negative
    halves and each inequality gets one slack column, and the result is
    solved by :func:`ref_solve_nonneg`.
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

    a_rows: list[list] = []
    rhs: list = []

    def emit(coeffs, b, slack_idx=None):
        row = [0] * ncols
        for v, c in enumerate(coeffs):
            if c == 0:
                continue
            c = _exact(c)
            pos, neg = cols[v]
            row[pos] += c
            if neg is not None:
                row[neg] -= c
        if slack_idx is not None:
            row[slack_base + slack_idx] = -1
        a_rows.append(row)
        rhs.append(_exact(b))

    for coeffs, b in eqs:
        emit(coeffs, b)
    for k, (coeffs, b) in enumerate(geqs):
        emit(coeffs, b, slack_idx=k)

    if not a_rows:
        return [ZERO] * num_vars
    y = ref_solve_nonneg(a_rows, rhs)
    if y is None:
        return None
    out = []
    for v in range(num_vars):
        pos, neg = cols[v]
        val = y[pos]
        if neg is not None:
            val -= y[neg]
        out.append(val)
    return out


def _exact(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def ref_cone_contains(c: Cone, p) -> bool:
    """Is p a non-negative combination of the rays?  One LP through
    :func:`ref_lp_feasible`, a non-negative weight per given ray, whatever
    the rays; with no rays its rows read 0 = p_i, so only the origin lies
    in the zero cone."""
    if len(p) != c.ambient_dim:
        raise ValueError("dimension mismatch")
    k = len(c.rays)
    eqs = [([r[i] for r in c.rays], p[i]) for i in range(c.ambient_dim)]
    return ref_lp_feasible(k, eqs=eqs, nonneg=range(k)) is not None


def lp_cone_is_pointed(c: Cone) -> bool:
    """No nonzero non-negative dependence of the rays: one LP for two or
    more rays."""
    if not c.rays:
        return True
    if len(c.rays) == 1:
        return any(c.rays[0])
    rows = [list(col) for col in zip(*c.rays)]
    rows.append([1] * len(c.rays))
    return solve_nonneg(rows, [0] * c.ambient_dim + [1]) is None


def lp_canonical_cone(c: Cone) -> Cone:
    """Sorted distinct primitive rays, each kept when the others do not
    generate it (one membership LP per ray)."""
    prim = []
    for r in c.rays:
        if any(r) and primitive(r) not in prim:
            prim.append(primitive(r))
    extreme = [
        r for i, r in enumerate(prim)
        if not ref_cone_contains(Cone(c.ambient_dim, tuple(prim[:i] + prim[i + 1:])), r)
    ]
    return Cone(c.ambient_dim, tuple(sorted(extreme)))


def lp_common_face(c1: Cone, c2: Cone) -> Optional[Cone]:
    """The cone on the shared rays of two canonical pointed cones when one
    LP finds no Motzkin alternative to a separating covector (equal cones
    need none), else None."""
    in_c1, in_c2 = set(c1.rays), set(c2.rays)
    shared = tuple(r for r in c1.rays if r in in_c2)
    if len(shared) == len(c1.rays) == len(c2.rays):
        return c1
    columns = [*c1.rays, *([-x for x in r] for r in c2.rays)]
    rows = [list(coord) for coord in zip(*columns)]
    rows.append([int(r not in in_c2) for r in c1.rays] + [int(r not in in_c1) for r in c2.rays])
    if solve_nonneg(rows, [0] * c1.ambient_dim + [1]) is not None:
        return None
    return Cone(c1.ambient_dim, shared)


def lp_faces(cc: Cone) -> list[Cone]:
    """Faces of a canonical pointed cone: one common-face LP per proper
    nonempty ray subset."""
    if not lp_cone_is_pointed(cc):
        raise ValueError("face enumeration requires a pointed cone")
    faces = {zero_cone(cc.ambient_dim), cc}
    for size in range(1, len(cc.rays)):
        for subset in itertools.combinations(cc.rays, size):
            face = lp_common_face(Cone(cc.ambient_dim, subset), cc)
            if face is not None:
                faces.add(face)
    return sorted(faces, key=lambda f: (len(f.rays), f.rays))


def lp_cone_locate(f, p):
    """One membership LP per cone; the minimal cone is the one whose rays
    every cone containing p shares."""
    if len(p) != f.ambient_dim:
        raise ValueError("dimension mismatch")
    candidates = [c for c in f.cones if ref_cone_contains(c, p)]
    if not candidates:
        return None
    shared = set.intersection(*(set(c.rays) for c in candidates))
    minimal = [c for c in candidates if set(c.rays) == shared]
    if len(minimal) != 1:
        raise ValueError("fan cones overlap or miss a face near the given point")
    return minimal[0]


def _contains_cone(big, small) -> bool:
    return all(ref_cone_contains(big, ratvec(r)) for r in small.rays)


def _face_functional_exists(ambient, zero_rays, pos_rays) -> bool:
    # a covector vanishing on zero_rays and >= 1 on pos_rays
    eqs = [(list(r), 0) for r in zero_rays]
    geqs = [(list(r), 1) for r in pos_rays]
    return ref_lp_feasible(ambient, eqs=eqs, geqs=geqs) is not None


def ref_cone_is_face(face, c) -> bool:
    """Is ``face`` a face of ``c``: pointed on its given nonzero rays (a
    face of a pointed cone is pointed, and a cone with a line can come out
    pointed from its canonical form), contained in ``c``, generated by the
    rays of ``c`` it contains, and cut out by a supporting covector."""
    if not lp_cone_is_pointed(Cone(face.ambient_dim, tuple(r for r in face.rays if any(r)))):
        return False
    cc = lp_canonical_cone(c)
    fc = lp_canonical_cone(face)
    if fc == cc:
        return True
    if not _contains_cone(cc, fc):
        return False
    inside = [r for r in cc.rays if ref_cone_contains(fc, ratvec(r))]
    outside = [r for r in cc.rays if r not in inside]
    if not _contains_cone(Cone(cc.ambient_dim, tuple(inside)), fc):
        return False
    return _face_functional_exists(cc.ambient_dim, inside, outside)


def ref_cone_faces(c) -> list:
    """Faces of a pointed cone: every ray subset cut out by a supporting
    covector, each canonicalized again."""
    cc = lp_canonical_cone(c)
    if not lp_cone_is_pointed(cc):
        raise ValueError("face enumeration requires a pointed cone")
    faces = {cc}
    n = len(cc.rays)
    for size in range(n):
        for subset in itertools.combinations(range(n), size):
            zero = [cc.rays[i] for i in subset]
            pos = [cc.rays[i] for i in range(n) if i not in subset]
            if _face_functional_exists(cc.ambient_dim, zero, pos):
                faces.add(lp_canonical_cone(Cone(cc.ambient_dim, tuple(zero))))
    return sorted(faces, key=lambda f: (len(f.rays), f.rays))


def ref_pair_meets_in_common_face(c1, c2) -> bool:
    """A covector vanishing on the rays of either cone lying in the other,
    <= -1 on the remaining rays of ``c1`` and >= 1 on those of ``c2``."""
    s = [r for r in c1.rays if ref_cone_contains(c2, ratvec(r))]
    t = [r for r in c2.rays if ref_cone_contains(c1, ratvec(r))]
    eqs = [(list(r), 0) for r in s + t]
    geqs = [([-x for x in r], 1) for r in c1.rays if r not in s]
    geqs += [(list(r), 1) for r in c2.rays if r not in t]
    return ref_lp_feasible(c1.ambient_dim, eqs=eqs, geqs=geqs) is not None


def ref_fan_cone_intersection(f, cones_):
    """The cone on the rays of either cone lying in the other, folded over
    the inputs, then checked to be a face of every input."""
    result = lp_canonical_cone(cones_[0])
    for other in cones_[1:]:
        other = lp_canonical_cone(other)
        s = [r for r in result.rays if ref_cone_contains(other, ratvec(r))]
        t = [r for r in other.rays if ref_cone_contains(result, ratvec(r))]
        result = lp_canonical_cone(Cone(f.ambient_dim, tuple(s + t)))
    for c in cones_:
        if not ref_cone_is_face(result, c):
            raise ValueError("cones do not meet in a common face (fan is not valid)")
    return result


def ref_cone_locate(f, p):
    """The fan cone containing p that every cone containing p contains."""
    if len(p) != f.ambient_dim:
        raise ValueError("dimension mismatch")
    candidates = [c for c in f.cones if ref_cone_contains(c, p)]
    if not candidates:
        return None
    minimal = [c for c in candidates if all(_contains_cone(d, c) for d in candidates)]
    if len(minimal) != 1:
        raise ValueError("fan is not closed under faces near the given point")
    return minimal[0]


def ref_fan_validate(f) -> list[str]:
    """The fan diagnostics, with faces and pairwise intersections decided by
    the references above."""
    diags: list[str] = []
    usable = []
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
        if not lp_cone_is_pointed(c):
            diags.append(f"cone {c.rays} is not pointed")
            continue
        usable.append(c)
    canon = {lp_canonical_cone(c) for c in usable}
    if zero_cone(f.ambient_dim) not in canon:
        diags.append("missing zero cone")
    if len(canon) != len(usable):
        diags.append("duplicate cones (equal after canonicalization)")
    for c in usable:
        for face in ref_cone_faces(c):
            if face not in canon:
                diags.append(f"missing face {face.rays} of cone {c.rays}")
    ordered = sorted(canon, key=lambda c: (len(c.rays), c.rays))
    for c1, c2 in itertools.combinations(ordered, 2):
        if not ref_pair_meets_in_common_face(c1, c2):
            diags.append(f"cones {c1.rays} and {c2.rays} do not meet in a common face")
    return diags


def ref_contract_edge(c: TropicalCurve, edge_id: str) -> TropicalCurve:
    """Contract one edge.

    Distinct endpoints merge into a vertex (the lexicographically smaller id)
    of summed genus; a self-loop is deleted and bumps its vertex's genus by
    one.  Either way the total genus is preserved.  Marked leaf-edges cannot
    be contracted.
    """
    if not c.has_edge(edge_id):
        raise ValueError(f"unknown edge {edge_id}")
    e = c.edge(edge_id)
    if c.is_marked_leaf_edge(e):
        raise ValueError(f"cannot contract marked leaf-edge {edge_id}")
    a, b = e.ends
    if a == b:
        vertices = [
            Vertex(v.id, v.genus + 1) if v.id == a else v for v in c.vertices
        ]
        edges = [f for f in c.edges if f.id != edge_id]
        return tropical_curve(vertices, edges, c.markings)
    keep, drop = (a, b) if a < b else (b, a)
    merged_genus = c.vertex(a).genus + c.vertex(b).genus
    vertices = [Vertex(keep, merged_genus) if v.id == keep else v
                for v in c.vertices if v.id != drop]
    edges = []
    for f in c.edges:
        if f.id == edge_id:
            continue
        ends = tuple(keep if x == drop else x for x in f.ends)
        edges.append(Edge(f.id, ends, f.length))  # type: ignore[arg-type]
    return tropical_curve(vertices, edges, c.markings)


def ref_is_connected(c: TropicalCurve) -> bool:
    """Union-find over the vertex ids; an edge naming an unlisted vertex
    joins nothing."""
    parent = {v.id: v.id for v in c.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            x = parent[x]
        return x

    for e in c.edges:
        a, b = e.ends
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    return len({find(v) for v in parent}) <= 1


def ref_spanning_tree(t: CombinatorialType) -> tuple[dict[str, tuple[str, Edge, int]], list[Edge]]:
    """BFS tree over the finite vertices along bounded non-loop edges, one
    level at a time, each frontier vertex scanning every bounded edge in
    curve order: (vertex -> (parent, edge, sign), non-tree bounded edges),
    sign +1 when the edge's tail is the parent."""
    finite = list(t.graph.unmarked_vertex_ids())
    bounded = [t.graph.edge(eid) for eid in t.bounded_edge_ids()]
    parent: dict[str, tuple[str, Edge, int]] = {}
    seen = {finite[0]}
    frontier = [finite[0]]
    used: set[str] = set()
    while frontier:
        new_frontier = []
        for vid in frontier:
            for e in bounded:
                if e.id in used or e.ends[0] == e.ends[1]:
                    continue
                a, b = e.ends
                if a == vid and b not in seen:
                    child = b
                elif b == vid and a not in seen:
                    child = a
                else:
                    continue
                parent[child] = (vid, e, 1 if t.edge_data[e.id].tail == vid else -1)
                used.add(e.id)
                seen.add(child)
                new_frontier.append(child)
        frontier = new_frontier
    return parent, [e for e in bounded if e.id not in used]


def ref_positions_from_lengths(
    t: CombinatorialType, lengths: Mapping[str, Fraction], base_vertex: str, base_point: Sequence
) -> dict[str, tuple[Fraction, ...]]:
    """Vertex positions fixed by the lengths along the spanning tree
    (:func:`ref_spanning_tree`), walked in Fractions and shifted so that
    ``base_vertex`` lands on ``base_point``, in finite vertex order."""
    finite = t.graph.unmarked_vertex_ids()
    if base_vertex not in finite:
        raise ValueError(f"base vertex {base_vertex} is not a finite vertex of the type")
    parent = ref_spanning_tree(t)[0]
    if len(parent) != len(finite) - 1:
        raise ValueError("could not derive positions: finite graph not spanned")
    walk = {finite[0]: (Fraction(0),) * t.fan.ambient_dim}
    for vid, (up, e, sign) in parent.items():
        step = sign * Fraction(lengths[e.id])
        walk[vid] = tuple(a + step * x for a, x in zip(walk[up], t.weighted_direction(e.id)))
    shift = [Fraction(x) - a for x, a in zip(base_point, walk[base_vertex])]
    return {vid: tuple(a + b for a, b in zip(walk[vid], shift)) for vid in finite}


def ref_family_positions(
    t: CombinatorialType,
    lengths: Mapping[str, AffineFn],
    base_vertex: Optional[str] = None,
    base_position: Optional[Sequence[AffineFn]] = None,
) -> dict[str, tuple[AffineFn, ...]]:
    """``make_family``'s derived positions on the Fraction path: each length
    tested positive on [0, 1) in Fractions, in the order of ``lengths``, then
    one walk of the constant parts and one of the slopes."""
    t = canonical_type(t)
    for eid, fn in lengths.items():
        if not (fn.const > 0 and fn.const + fn.slope >= 0):
            raise ValueError(f"length of {eid} is not positive on [0,1): {format_affine(fn)}")
    base = base_vertex if base_vertex is not None else t.graph.unmarked_vertex_ids()[0]
    base_pos = tuple(base_position) if base_position is not None else (affine(0),) * t.fan.ambient_dim
    consts = ref_positions_from_lengths(
        t, {eid: fn.const for eid, fn in lengths.items()}, base, [fn.const for fn in base_pos]
    )
    slopes = ref_positions_from_lengths(
        t, {eid: fn.slope for eid, fn in lengths.items()}, base, [fn.slope for fn in base_pos]
    )
    return {vid: tuple(map(AffineFn, consts[vid], slopes[vid])) for vid in consts}


def ref_is_face(ta: CombinatorialType, tb: CombinatorialType) -> Optional[FaceWitness]:
    """The face search over every subset of as many bounded edges as ``tb``
    has beyond ``ta``, in ``itertools.combinations`` order: the first subset
    whose contraction is decorated-isomorphic to ``ta``, with the vertex
    cones of each merged class having the image vertex's cone as a face,
    gives the witness."""
    ta = canonical_type(ta)
    tb = canonical_type(tb)
    bounded = tb.bounded_edge_ids()
    if len(bounded) > MAX_FACE_SEARCH_EDGES:
        raise ValueError(
            f"face search capped at {MAX_FACE_SEARCH_EDGES} bounded edges, got {len(bounded)}"
        )
    needed = len(bounded) - len(ta.bounded_edge_ids())
    if needed < 0 or len(tb.graph.markings) != len(ta.graph.markings):
        return None
    for subset in itertools.combinations(bounded, needed):
        tc, vmap, classes = _contract_with_map(tb, subset)

        def vertex_ok(vc: str, va: str) -> bool:
            target = ta.vertex_cones[va]
            return all(
                cone_is_face(target, tb.vertex_cones[old])
                for old in classes[vc]
                if old in tb.vertex_cones
            )

        for c_vmap, c_emap in ref_decorated_isomorphisms(tc, ta, vertex_ok=vertex_ok):
            full_vmap = {old: c_vmap[new] for old, new in vmap.items() if new in c_vmap}
            return FaceWitness(tuple(sorted(subset)), full_vmap, c_emap)
    return None


def compatible_subsets(ta: CombinatorialType, tb: CombinatorialType) -> list[tuple[str, ...]]:
    """The subsets of ``tb``'s bounded edges, in ``itertools.combinations``
    order, that hold exactly what ``tb``'s (weight, ±direction) edge classes
    have beyond ``ta``'s: the subsets the library's face search tries."""
    def signature(t: CombinatorialType, eid: str) -> tuple:
        d = t.edge_data[eid]
        return d.w, max(d.u, tuple(-x for x in d.u))

    bounded = tb.bounded_edge_ids()
    surplus = Counter(signature(tb, e) for e in bounded)
    surplus.subtract(signature(ta, e) for e in ta.bounded_edge_ids())
    if min(surplus.values(), default=0) < 0:
        return []
    size = len(bounded) - len(ta.bounded_edge_ids())
    return [s for s in itertools.combinations(bounded, size) if Counter(signature(tb, e) for e in s) == +surplus]


def _edge_signature(t: CombinatorialType, e: Edge, vid: str) -> tuple:
    """(weight, direction read outward from ``vid``) of the edge."""
    d = t.edge_data[e.id]
    return d.w, d.u if d.tail == vid else tuple(-x for x in d.u)


def ref_adjacency(t: CombinatorialType) -> dict[tuple[str, str], tuple]:
    """The sorted signatures of the edges joining each vertex to each
    neighbour, each read off one of the vertex's own edges."""
    g = t.graph
    out: dict[tuple[str, str], list] = {}
    for v in g.vertices:
        for e in g.edges_at(v.id):
            a, b = e.ends
            out.setdefault((v.id, b if a == v.id else a), []).append(_edge_signature(t, e, v.id))
    return {pair: tuple(sorted(sigs)) for pair, sigs in out.items()}


def ref_neighbours(t: CombinatorialType) -> dict[str, tuple[str, ...]]:
    """The other ends of each vertex's own edges, sorted."""
    g = t.graph
    return {v.id: tuple(sorted({x for e in g.edges_at(v.id) for x in e.ends} - {v.id})) for v in g.vertices}


def ref_vertex_profiles(t: CombinatorialType) -> dict[str, tuple]:
    """(genus, valence, sorted edge signatures) of each finite vertex, each
    signature read off one of the vertex's own edges."""
    g = t.graph
    return {
        vid: (g.vertex(vid).genus, g.valence(vid), tuple(sorted(_edge_signature(t, e, vid) for e in g.edges_at(vid))))
        for vid in g.unmarked_vertex_ids()
    }


def ref_decorated_isomorphisms(
    t1: CombinatorialType,
    t2: CombinatorialType,
    vertex_ok: Optional[Callable[[str, str], bool]] = None,
) -> Iterator[tuple[dict[str, str], dict[str, tuple[str, bool]]]]:
    """Recursive reference for ``maps.decorated_isomorphisms``: one
    recursion over the vertices, then one over the edges of each vertex map.

    All isomorphisms graph(t1) -> graph(t2) fixing markings pointwise and
    preserving genus, weights, directions up to reorientation (a reversed
    edge negates its direction), and — via ``vertex_ok`` — the vertex cones.

    The default ``vertex_ok`` demands equal vertex cones, which types hold
    in canonical form.
    """
    if vertex_ok is None:
        def vertex_ok(v1: str, v2: str) -> bool:
            return t1.vertex_cones[v1] == t2.vertex_cones[v2]

    g1, g2 = t1.graph, t2.graph
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return
    labels1 = {m.label: m.vertex for m in g1.markings}
    labels2 = {m.label: m.vertex for m in g2.markings}
    if set(labels1) != set(labels2):
        return

    vmap: dict[str, str] = {}
    used: set[str] = set()
    for label, v1 in labels1.items():
        v2 = labels2[label]
        d1 = t1.edge_data[t1.marked_edges[label].id]
        d2 = t2.edge_data[t2.marked_edges[label].id]
        if (d1.u, d1.w) != (d2.u, d2.w):
            return
        vmap[v1] = v2
        used.add(v2)

    free1 = sorted(g1.unmarked_vertex_ids(), key=lambda v: (-g1.valence(v), v))
    free2 = set(g2.unmarked_vertex_ids())
    profiles1, profiles2 = ref_vertex_profiles(t1), ref_vertex_profiles(t2)

    def edges_between(t: CombinatorialType, a: str, b: str) -> list[Edge]:
        return [e for e in t.graph.edges_at(a) if set(e.ends) == ({a, b} if a != b else {a})]

    def extend(idx: int) -> Iterator[dict[str, str]]:
        if idx == len(free1):
            yield dict(vmap)
            return
        v1 = free1[idx]
        for v2 in sorted(free2 - used):
            if profiles2[v2] != profiles1[v1] or not vertex_ok(v1, v2):
                continue
            ok = True
            for u1, u2 in vmap.items():
                sig1 = sorted(
                    _edge_signature(t1, e, v1) for e in edges_between(t1, v1, u1)
                )
                sig2 = sorted(
                    _edge_signature(t2, e, v2) for e in edges_between(t2, v2, u2)
                )
                if sig1 != sig2:
                    ok = False
                    break
            if not ok:
                continue
            vmap[v1] = v2
            used.add(v2)
            yield from extend(idx + 1)
            del vmap[v1]
            used.discard(v2)

    for full_vmap in extend(0):
        yield from _ref_match_edges(t1, t2, full_vmap)


def _ref_match_edges(
    t1: CombinatorialType,
    t2: CombinatorialType,
    vmap: dict[str, str],
) -> Iterator[tuple[dict[str, str], dict[str, tuple[str, bool]]]]:
    g1, g2 = t1.graph, t2.graph
    emap = {e1.id: (t2.marked_edges[label].id, False) for label, e1 in t1.marked_edges.items()}

    groups: dict[tuple[str, str], list[Edge]] = {}
    for e in g1.edges:
        if g1.is_marked_leaf_edge(e):
            continue
        a, b = sorted((vmap[e.ends[0]], vmap[e.ends[1]]))
        groups.setdefault((a, b), []).append(e)
    targets: dict[tuple[str, str], list[Edge]] = {}
    for e in g2.edges:
        if g2.is_marked_leaf_edge(e):
            continue
        a, b = sorted(e.ends)
        targets.setdefault((a, b), []).append(e)
    if set(groups) != set(targets):
        return

    def candidates(e1: Edge, e2: Edge) -> list[bool]:
        # possible "reversed" flags sending e1 to e2 compatibly with vmap
        out = []
        d1, d2 = t1.edge_data[e1.id], t2.edge_data[e2.id]
        if d1.w != d2.w:
            return out
        a1, b1 = d1.tail, d1.head(e1)
        neg = d1.reversed(e1).u
        if e1.ends[0] == e1.ends[1]:
            if e2.ends[0] != e2.ends[1] or vmap[a1] != e2.ends[0]:
                return out
            if d1.u == d2.u:
                out.append(False)
            if neg == d2.u:
                out.append(True)
            return out  # a contracted loop matches in both orientations
        if {vmap[a1], vmap[b1]} != set(e2.ends):
            return out
        if d2.tail == vmap[a1] and d1.u == d2.u:
            out.append(False)
        if d2.tail == vmap[b1] and neg == d2.u:
            out.append(True)
        return out

    group_list = sorted(groups)

    def assign(gi: int) -> Iterator[dict[str, tuple[str, bool]]]:
        if gi == len(group_list):
            yield dict(emap)
            return
        key = group_list[gi]
        sources = groups[key]
        sinks = targets.get(key, [])
        if len(sources) != len(sinks):
            return

        def match(si: int, remaining: list[Edge]) -> Iterator[None]:
            if si == len(sources):
                yield None
                return
            e1 = sources[si]
            for e2 in list(remaining):
                for flip in candidates(e1, e2):
                    emap[e1.id] = (e2.id, flip)
                    rest = [x for x in remaining if x.id != e2.id]
                    yield from match(si + 1, rest)
                emap.pop(e1.id, None)

        for _ in match(0, sinks):
            yield from assign(gi + 1)

    for final_emap in assign(0):
        yield dict(vmap), final_emap


def ref_unique_cycle(c: TropicalCurve) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The 2-core of a connected graph with first Betti number one, by
    sweeping every vertex again and again and dropping each one whose
    valence among the remaining edges is one, until a sweep drops none."""
    alive_v = {v.id for v in c.vertices}
    alive_e = {e.id for e in c.edges}
    changed = True
    while changed:
        changed = False
        for vid in list(alive_v):
            incident = [
                e for e in c.edges_at(vid)
                if e.id in alive_e and (e.ends[0] != e.ends[1])
            ]
            loops = [e for e in c.edges_at(vid) if e.id in alive_e and e.ends[0] == e.ends[1]]
            if len(incident) + 2 * len(loops) == 1:
                alive_v.discard(vid)
                alive_e.discard(incident[0].id)
                changed = True
    return tuple(sorted(alive_v)), tuple(sorted(alive_e))


def _lcm_rows(rows) -> tuple:
    """Rational rows times the lcm of all their denominators."""
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    return tuple(tuple(int(x * den) for x in row) for row in rows)


def ref_cycle_frame(m) -> tuple[CycleFrame, tuple, tuple]:
    """The cycle frame on the Fraction path, with the Fraction basis and
    quotient rows it was built from: the vertex offsets as Fractions, the
    span's reduced row echelon form by Gauss-Jordan elimination over
    Fractions (:func:`ref_rref`), the quotient rows read off it (1 in a free
    column, minus the echelon entries in the pivot columns), each set of
    rows times the lcm of all its denominators, and every edge direction
    projected in Fractions on its own."""
    b1, g = betti_and_genus(m.curve)
    if g != 1:
        return CycleFrame(b1, g), (), ()
    if b1 == 1:
        cyc_v, cyc_e = ref_unique_cycle(m.curve)
    else:
        cyc_v, cyc_e = (next(v.id for v in m.curve.vertices if v.genus == 1),), ()
    den, positions = m.scaled.denominator, m.scaled.positions
    base = positions[cyc_v[0]]
    dirs = [[Fraction(a - b, den) for a, b in zip(positions[vid], base)] for vid in cyc_v]
    dirs += [[Fraction(x) for x in m.edge_data[eid].u] for eid in cyc_e]
    rows, pivots = ref_rref([d for d in dirs if any(d)])
    basis = tuple(tuple(row) for row in rows[:len(pivots)])
    n = m.fan.ambient_dim
    quotient = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(int(c == fc)) for c in range(n)]
        for r, pc in enumerate(pivots):
            vec[pc] = -basis[r][fc]
        quotient.append(tuple(vec))
    quotient = tuple(quotient)
    projected = []
    for e in m.curve.edges:
        u = m.edge_data[e.id].u
        rep = projective_class(quotient, u)
        if rep is not None:
            projected.append((tuple(u), rep))
    frame = CycleFrame(
        b1,
        g,
        all(v.genus == 0 for v in m.curve.vertices),
        all(m.curve.valence(vid) == 3 for vid in m.curve.unmarked_vertex_ids()),
        cyc_v,
        cyc_e,
        _lcm_rows(basis),
        n - len(basis),
        _lcm_rows(quotient),
        tuple(projected),
    )
    return frame, basis, quotient


def ref_level_cut(m, frame: CycleFrame, phi) -> TrappedSubcurve:
    """The trapped subcurve of the hyperplane H through the cycle with
    normal ``phi``, cut by vertex levels: a finite vertex lies in H when phi
    takes the first cycle vertex's value at its position, a marked vertex
    always, and an edge when both its ends do and phi annihilates its
    direction.  The cycle grows over such edges, and the boundary vertices'
    distances to the cycle are relaxed in Fractions, until nothing changes."""
    curve, marked = m.curve, m.curve.marked_vertex_ids
    level = {vid: sum(a * b for a, b in zip(phi, p)) for vid, p in m.scaled.positions.items()}
    in_h = marked | {vid for vid, x in level.items() if x == level[frame.cycle_vertices[0]]}
    flat = {eid for eid, d in m.edge_data.items() if sum(a * b for a, b in zip(phi, d.u)) == 0}
    edges_in_h = [e for e in curve.edges if set(e.ends) <= in_h and e.id in flat]
    vertices, edges = set(frame.cycle_vertices), set(frame.cycle_edges)
    while grown := [e for e in edges_in_h if e.id not in edges and vertices.intersection(e.ends)]:
        edges.update(e.id for e in grown)
        vertices.update(v for e in grown for v in e.ends if v not in marked)
    dist = {vid: Fraction(0) for vid in frame.cycle_vertices}
    bounded = [(e.ends, Fraction(m.scaled.lengths[e.id], m.scaled.denominator))
               for e in curve.edges if e.id in edges and not curve.is_marked_leaf_edge(e)]
    relaxed = True
    while relaxed:
        relaxed = False
        for (a, b), length in bounded + [(ends[::-1], length) for ends, length in bounded]:
            if a in dist and (b not in dist or dist[a] + length < dist[b]):
                dist[b], relaxed = dist[a] + length, True
    boundary = sorted(vid for vid in vertices if any(e.id not in edges for e in curve.edges_at(vid)))
    return TrappedSubcurve(tuple(sorted(vertices)), tuple(sorted(edges)), tuple((v, dist[v]) for v in boundary))


def ref_well_spaced(m, frame: CycleFrame) -> bool:
    """Whether a genus-one map passes the spacing rule (its least boundary
    distance occurs at least twice, or it has none) on the level cut of each
    flat normal :func:`enumerate_flats` gives; vacuously when codim is 0."""
    if frame.codim == 0:
        return True
    for flat in enumerate_flats(cycle_data(m)):
        distances = [d for _, d in ref_level_cut(m, frame, flat.normal).boundary]
        if distances and distances.count(min(distances)) < 2:
            return False
    return True


def ref_check_family_certificate(m, assume: Assumptions) -> None:
    """The R4 family certificate with every probe member built as a map,
    validated with stability waived, and decided on a cycle frame of its
    own, on the Fraction path (:func:`ref_cycle_frame`), and on level cuts
    (:func:`ref_well_spaced`): the limit, built as a map, must be ``m`` up
    to edge orientation and each member realizable by R1 or R3."""
    fam = assume.family
    limit = limit_of_family(fam, Fraction(1))
    if canonical_map(limit.map) != canonical_map(m):
        raise CertificateError("family limit at t = 1 differs from the given map")
    direct = Assumptions(star_realizable=assume.star_realizable)
    for t in _PROBES:
        member = evaluate_family(fam, t)
        member_diags = [d for d in validate_map(member) if not d.startswith(STABILITY_VIOLATED)]
        if member_diags:
            raise CertificateError(f"family member at t={t} invalid: {member_diags[0]}")
        frame, _, _ = ref_cycle_frame(member)
        verdict = _first_rule(member, direct, frame, frame.genus == 1 and ref_well_spaced(member, frame))
        if verdict.rule not in ("R1", "R3"):
            raise CertificateError(
                f"family member at t={t} is not realizable by the direct rules ({verdict.rule})"
            )


# The parameter values at which the family references judge members.
FAMILY_PROBES = tuple(map(Fraction, ("0", "1/4", "1/3", "1/2", "3/4", "7/8", "99/100", "1")))


def ref_member_defect(t: CombinatorialType, lengths, positions, t_val: Fraction) -> Optional[str]:
    """Why the member at ``t_val`` of the family with this type, these
    length functions and these position functions is not a map of the
    family's type, or None.  The member is built unchecked, as a map in
    Fractions from each function's value (a function on a marked leaf-edge
    gives that leaf a finite length, and a bounded edge without one is a
    diagnostic of its own), and judged in this order:
    - each ``validate_map`` diagnostic but stability;
    - for t < 1, a bounded length that is not positive, as the member
      would be a map of a contracted type;
    - in strict mode, a position outside its vertex cone, or a vertex cone
      that is not a cone of the fan, each decided by membership LPs."""
    graph = t.graph
    unknown = sorted(set(lengths) - {e.id for e in graph.edges})
    if unknown:
        return f"length for unknown edge {unknown[0]}"
    edges = []
    for e in graph.edges:
        if e.id in lengths:
            edges.append(Edge(e.id, e.ends, lengths[e.id].at(t_val)))
        elif graph.is_marked_leaf_edge(e):
            edges.append(Edge(e.id, e.ends, INF))
        else:
            return f"edge {e.id} has no length"
    points = {vid: tuple(fn.at(t_val) for fn in fns) for vid, fns in positions.items()}
    member = stable_map(tropical_curve(graph.vertices, edges, graph.markings), t.fan, points, t.edge_data)
    diags = [d for d in validate_map(member) if not d.startswith(STABILITY_VIOLATED)]
    if diags:
        return diags[0]
    if t_val < 1:
        for e in edges:
            if not graph.is_marked_leaf_edge(e) and e.length <= 0:
                return f"edge {e.id} has length {e.length} before t = 1"
    if not t.fan.embedded:
        for vid, p in member.positions.items():
            c = t.vertex_cones[vid]
            if not ref_cone_contains(c, p):
                return f"vertex {vid}: position outside its vertex cone"
            if not any(_contains_cone(c, f) and _contains_cone(f, c) for f in t.fan.cones):
                return f"vertex {vid}: vertex cone is not a cone of the fan"
    return None


def ref_invalid_member(t: CombinatorialType, lengths, positions) -> Optional[tuple[Fraction, str]]:
    """The first of :data:`FAMILY_PROBES` whose member is not a map of the
    family's type (:func:`ref_member_defect`), with its diagnostic, or
    None."""
    for t_val in FAMILY_PROBES:
        diag = ref_member_defect(t, lengths, positions, t_val)
        if diag is not None:
            return t_val, diag
    return None
