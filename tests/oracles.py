"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own algorithms: rank is computed by
fraction-free Bareiss elimination on integer matrices (and the library's
fraction-free echelon forms are checked against plain Fraction elimination), flats by brute-force
closure of every subset, automorphisms by exhaustive permutation search over
raw adjacency data, and non-negative linear systems by a phase-one simplex
over Fractions.  General linear systems (free variables, inequalities)
reach that simplex through a front end, :func:`ref_lp_feasible`, where the
library poses each cone question as a non-negative combination problem.
The cone and fan references decide faces,
intersections and locations by LP membership tests of every ray and point,
where the library reads them off canonical ray sets.  Edge contraction
rebuilds the curve once per contracted edge, where the library contracts a
set of edges in one pass.  The face search contracts every edge subset of
the right size, where the library tries only the subsets whose edge
weights and directions can match.  Decorated isomorphisms come from the
two recursive searches (vertices, then edges) that the library replaced by
one explicit-stack search; they pin its output order, and the face search
uses them, so it shares no search code with the library.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from tropmap.curves import Edge, TropicalCurve, Vertex, tropical_curve
from tropmap.exactgeom import (
    Cone,
    canonical_cone,
    cone_contains,
    cone_is_face,
    cone_is_pointed,
    ratvec,
    vector_content,
    zero_cone,
)
from tropmap.maps import CombinatorialType, _edge_signature, canonical_type
from tropmap.moduli import MAX_FACE_SEARCH_EDGES, FaceWitness, _contract_with_map


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


def _contains_cone(big, small) -> bool:
    return all(cone_contains(big, ratvec(r)) for r in small.rays)


def _face_functional_exists(ambient, zero_rays, pos_rays) -> bool:
    # a covector vanishing on zero_rays and >= 1 on pos_rays
    eqs = [(list(r), 0) for r in zero_rays]
    geqs = [(list(r), 1) for r in pos_rays]
    return ref_lp_feasible(ambient, eqs=eqs, geqs=geqs) is not None


def ref_cone_is_face(face, c) -> bool:
    """Is ``face`` a face of ``c``: contained in ``c``, generated by the rays
    of ``c`` it contains, and cut out by a supporting covector."""
    cc = canonical_cone(c)
    fc = canonical_cone(face)
    if fc == cc:
        return True
    if not _contains_cone(cc, fc):
        return False
    inside = [r for r in cc.rays if cone_contains(fc, ratvec(r))]
    outside = [r for r in cc.rays if r not in inside]
    if not _contains_cone(Cone(cc.ambient_dim, tuple(inside)), fc):
        return False
    return _face_functional_exists(cc.ambient_dim, inside, outside)


def ref_cone_faces(c) -> list:
    """Faces of a pointed cone: every ray subset cut out by a supporting
    covector, each canonicalized again."""
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


def ref_pair_meets_in_common_face(c1, c2) -> bool:
    """A covector vanishing on the rays of either cone lying in the other,
    <= -1 on the remaining rays of ``c1`` and >= 1 on those of ``c2``."""
    s = [r for r in c1.rays if cone_contains(c2, ratvec(r))]
    t = [r for r in c2.rays if cone_contains(c1, ratvec(r))]
    eqs = [(list(r), 0) for r in s + t]
    geqs = [([-x for x in r], 1) for r in c1.rays if r not in s]
    geqs += [(list(r), 1) for r in c2.rays if r not in t]
    return ref_lp_feasible(c1.ambient_dim, eqs=eqs, geqs=geqs) is not None


def ref_fan_cone_intersection(f, cones_):
    """The cone on the rays of either cone lying in the other, folded over
    the inputs, then checked to be a face of every input."""
    result = canonical_cone(cones_[0])
    for other in cones_[1:]:
        other = canonical_cone(other)
        s = [r for r in result.rays if cone_contains(other, ratvec(r))]
        t = [r for r in other.rays if cone_contains(result, ratvec(r))]
        result = canonical_cone(Cone(f.ambient_dim, tuple(s + t)))
    for c in cones_:
        if not ref_cone_is_face(result, c):
            raise ValueError("cones do not meet in a common face (fan is not valid)")
    return result


def ref_cone_locate(f, p):
    """The fan cone containing p that every cone containing p contains."""
    if len(p) != f.ambient_dim:
        raise ValueError("dimension mismatch")
    candidates = [c for c in f.cones if cone_contains(c, p)]
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
    profiles1, profiles2 = t1.vertex_profiles, t2.vertex_profiles

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
