"""Exact convex geometry of Weyl-orbit polytopes in affine dimension <= 4.

Everything is computed over the rationals.  Weight polytopes conv(W.lambda)
are read off the root datum: every orbit point is a vertex, the affine span is
spanned by the simple roots of the Dynkin components that meet supp(lambda),
the facets are, in closed form, the W-orbits of the fundamental weights
omega_i whose node i the standard H-description keeps, and the f-vector
counts the W-translates of the standard faces conv(W_J.lambda) with parabolic
subgroup orders (weight_polytope_f_vector).  `hull` is the generic path for
arbitrary point sets: it maps the points to exact coordinates on
their affine span (`_AffineFrame`, shared with the OFF export), finds facets
by enumerating supporting hyperplanes through affinely independent point
subsets, and vertices as the points whose tight facet normals span the space.

The face lattice behind f_vector (of any RationalPolytope) and the OFF
export (`_face_dims`) is built in integers: facets are vertex-incidence
bitmasks, faces are their intersections, and each face's dimension follows
from the grading of the lattice, with no rank computation.  The idempotent
lattice of the closure of a maximal torus in a reductive monoid is
anti-isomorphic to the face lattice of a polytope of this kind; that
correspondence is background here and is not materialized as a map.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import linalg, root_weight
from ._record import no_tuple_arithmetic
from .errors import PreconditionError, ResourceLimitError
from .linalg import Mat, Vec
from .root_weight import RootSystem, Weight, _dynkin_components, _weyl_group_order

HULL_POINT_GUARD = 200
HULL_AMBIENT_GUARD = 6
FVECTOR_DIM_GUARD = 4


class RationalPolytope(
    NamedTuple(
        "RationalPolytope",
        [
            ("vertices", tuple[Weight, ...]),
            ("facets", tuple[tuple[Vec, Fraction], ...]),
            ("span", tuple[tuple[Vec, Fraction], ...]),
            ("affine_dim", int),
        ],
    )
):
    """Vertices plus a complete exact facet description: the record
    (vertices, facets, span, affine_dim).

    facets are (normal, offset) pairs meaning normal . x <= offset; span
    carries the affine-hull equalities normal . x = offset.  Facet data is
    normalized to integer, content-free normals for reproducibility.  An
    instance also has a __dict__, for the integer rows cached on it.
    """

    _int_rows = None  # set by _int_rows(p) on first use

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    def to_json(self) -> dict:
        return {
            "affine_dim": self.affine_dim,
            "vertices": [v.to_json() for v in self.vertices],
            "facets": [
                {"normal": [linalg.frac_str(c) for c in nrm], "offset": linalg.frac_str(off)}
                for nrm, off in self.facets
            ],
            "span": [
                {"normal": [linalg.frac_str(c) for c in nrm], "offset": linalg.frac_str(off)}
                for nrm, off in self.span
            ],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())


def _int_det(rows: list[tuple[int, ...]]) -> int:
    """Determinant of a small integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _int_hyperplane(points: list[tuple[int, ...]]) -> tuple[tuple[int, ...], int] | None:
    """The hyperplane a . x = beta through d affinely independent points in Z^d,
    found as the signed maximal minors of the d x (d+1) system [x | -1];
    None if the points are affinely dependent."""
    d = len(points)
    rows = [tuple(p) + (-1,) for p in points]
    kernel = []
    for drop in range(d + 1):
        minor = _int_det([tuple(r[c] for c in range(d + 1) if c != drop) for r in rows])
        kernel.append(minor if drop % 2 == 0 else -minor)
    if all(v == 0 for v in kernel):
        return None
    return tuple(kernel[:-1]), kernel[-1]


def _reduce_int_halfspace(a: tuple[int, ...], beta: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for e in list(a) + [beta]:
        g = math.gcd(g, abs(e))
    if g > 1:
        return tuple(e // g for e in a), beta // g
    return a, beta


def _int_halfspace(normal: Vec, offset: Fraction) -> tuple[tuple[int, ...], int]:
    """normal . x <= offset (or =) over the lcm of its denominators, content-free:
    a positive scaling, so the same half-space (or hyperplane) in integers."""
    lcm = math.lcm(*(c.denominator for c in normal), offset.denominator)
    return _reduce_int_halfspace(tuple(c.numerator * (lcm // c.denominator) for c in normal), int(offset * lcm))


def _normalize_halfspace(normal: Vec, offset: Fraction) -> tuple[Vec, Fraction]:
    """Scale so entries are coprime integers with a canonical sign convention."""
    a, beta = _int_halfspace(normal, offset)
    return tuple(map(Fraction, a)), Fraction(beta)


def _span_equalities(directions: Mat, origin: Vec) -> tuple[tuple[Vec, Fraction], ...]:
    """The normalized equalities nu . x = nu . origin of origin + span(directions).
    The nullspace comes from a reduced row echelon form, which depends only on
    the row space, so any spanning set of directions gives the same bytes."""
    normals = linalg.nullspace(directions) if directions else linalg.identity_mat(len(origin))
    return tuple(_normalize_halfspace(nu, linalg.dot(nu, origin)) for nu in normals)


class _AffineFrame:
    """Exact coordinates on the affine span of a point set."""

    def __init__(self, pts: list[Vec]):
        self.origin = pts[0]
        diffs = [linalg.vec_sub(p, self.origin) for p in pts[1:]]
        idx = linalg.independent_rows(diffs)
        self.basis: Mat = tuple(diffs[i] for i in idx)
        self.dim = len(self.basis)
        if self.dim:
            gram = linalg.mat(
                [[linalg.dot(a, b) for b in self.basis] for a in self.basis]
            )
            ginv = linalg.mat_inv(gram)
            # rows of H give affine coordinates: c(x) = H (x - origin)
            self.h: Mat = linalg.mat_mul(ginv, self.basis)
        else:
            self.h = ()

    def coords(self, p: Vec) -> Vec:
        return linalg.mat_vec(self.h, linalg.vec_sub(p, self.origin)) if self.dim else ()

    def lift_halfspace(self, a: Vec, beta: Fraction) -> tuple[Vec, Fraction]:
        """Translate a . c(x) <= beta into an ambient inequality."""
        normal = tuple(
            sum((a[k] * self.h[k][i] for k in range(self.dim)), Fraction(0))
            for i in range(len(self.origin))
        )
        offset = beta + linalg.dot(normal, self.origin)
        return _normalize_halfspace(normal, offset)


def _check_hull_guards(pts: list[Vec]):
    if len(pts) > HULL_POINT_GUARD:
        raise ResourceLimitError(f"hull guard: {len(pts)} points exceed the limit {HULL_POINT_GUARD}")
    if len(pts[0]) > HULL_AMBIENT_GUARD:
        raise ResourceLimitError(
            f"hull guard: ambient dimension {len(pts[0])} exceeds the limit {HULL_AMBIENT_GUARD}"
        )


def hull(points) -> RationalPolytope:
    """Irredundant vertex list and complete facet description, exact arithmetic."""
    pts = sorted({w.coords if isinstance(w, Weight) else linalg.vec(w) for w in points})
    if not pts:
        raise PreconditionError("hull of an empty point set")
    _check_hull_guards(pts)
    frame = _AffineFrame(pts)
    d = frame.dim
    span = _span_equalities(frame.basis, frame.origin)
    if d == 0:
        return RationalPolytope((Weight(pts[0]),), (), span, 0)
    coords = {p: frame.coords(p) for p in pts}
    # integer-scaled coordinates keep the facet search fraction-free
    denom_lcm = 1
    for c in coords.values():
        for e in c:
            denom_lcm = denom_lcm * e.denominator // math.gcd(denom_lcm, e.denominator)
    icoords = [tuple(int(e * denom_lcm) for e in coords[p]) for p in pts]
    facets_int: set[tuple[tuple[int, ...], int]] = set()
    for subset in itertools.combinations(range(len(pts)), d):
        kernel = _int_hyperplane([icoords[i] for i in subset])
        if kernel is None:
            continue
        a, beta = kernel
        sides = [sum(ai * ci for ai, ci in zip(a, icoords[i])) - beta for i in range(len(pts))]
        if all(s <= 0 for s in sides):
            facets_int.add(_reduce_int_halfspace(a, beta))
        elif all(s >= 0 for s in sides):
            facets_int.add(_reduce_int_halfspace(tuple(-c for c in a), -beta))
    # back to span coordinates: a . c(x) <= beta / denom_lcm
    facets_local = {
        (tuple(Fraction(c) for c in a), Fraction(beta, denom_lcm)) for a, beta in facets_int
    }
    tight: dict[Vec, list[tuple[Vec, Fraction]]] = {p: [] for p in pts}
    for a, beta in facets_local:
        for p in pts:
            if linalg.dot(a, coords[p]) == beta:
                tight[p].append((a, beta))
    vertices = []
    for p in pts:
        normals = linalg.mat([t[0] for t in tight[p]]) if tight[p] else ()
        if tight[p] and linalg.rank(normals) == d:
            vertices.append(Weight(p))
    facets = tuple(
        sorted(frame.lift_halfspace(a, beta) for a, beta in facets_local)
    )
    return RationalPolytope(tuple(sorted(vertices)), facets, span, d)


def contains(p: RationalPolytope, x: Weight) -> bool:
    """Exact membership: the affine-span equalities and all facet inequalities."""
    if p.vertices and x.dim != p.vertices[0].dim:
        raise PreconditionError("ambient dimension mismatch")
    span, facets = _int_rows(p)
    d, y = x.scaled_to_integers()
    if any(sum(map(mul, a, y)) != d * b for a, b in span):
        return False
    return p.affine_dim == 0 or all(sum(map(mul, a, y)) <= d * b for a, b in facets)


def _int_rows(p: RationalPolytope):
    """(span, facets) as _int_halfspace rows, built once per polytope and
    cached on the instance (outside the record's fields, so ==, hash and
    repr do not see it)."""
    cached = p._int_rows
    if cached is None:
        rows = (p.span, p.facets)
        cached = p._int_rows = tuple(tuple(_int_halfspace(nu, off) for nu, off in part) for part in rows)
    return cached


def _face_dims(p: RationalPolytope) -> dict[int, int]:
    """The proper faces, each an int bitmask over vertex indices, mapped to
    their dimensions.

    Vertex x lies on the facet a . x <= b (the integer row of _int_rows) iff
    a . (d x) == d b, d the common denominator of x: an integer test.  Every
    face is an intersection of facets, so the faces are the closure of the
    facet masks under &.

    The dimension needs no rank.  The face lattice is graded, and every facet
    of a face F is F & g for some facet g of the polytope, while every other
    nonempty F & g != F is a smaller face of F.  So dim F = 1 + max dim(F & g)
    over the facets g with F & g not in {0, F}, and F is a vertex when there
    is no such g.  Faces are visited by increasing vertex count, so every
    F & g is graded before F.
    """
    verts = [v.scaled_to_integers() for v in p.vertices]
    facets = [
        sum(1 << i for i, (d, x) in enumerate(verts) if sum(map(mul, a, x)) == d * b)
        for a, b in _int_rows(p)[1]
    ]
    faces = set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    new.add(h)
        frontier = new
    dims: dict[int, int] = {}
    for f in sorted(faces, key=int.bit_count):
        dims[f] = 1 + max((dims[h] for g in facets if (h := f & g) and h != f), default=-1)
    return dims


def _face_lattice(p: RationalPolytope) -> dict[int, set[frozenset[int]]]:
    """Proper faces as vertex-index sets, graded by dimension."""
    graded: dict[int, set[frozenset[int]]] = {}
    for f, dim in _face_dims(p).items():
        graded.setdefault(dim, set()).add(frozenset(i for i in range(f.bit_length()) if f >> i & 1))
    return graded


def f_vector(p: RationalPolytope) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_{d-1}) of the proper faces."""
    d = p.affine_dim
    if d > FVECTOR_DIM_GUARD:
        raise ResourceLimitError(f"f_vector guard: affine dimension <= {FVECTOR_DIM_GUARD}")
    if d == 0:
        return ()
    dims = list(_face_dims(p).values())
    return tuple(dims.count(i) for i in range(d))


def _require_dominant(rs: RootSystem, lam: Weight):
    if not rs.is_dominant(lam):
        raise PreconditionError("weight_polytope requires a dominant weight")


def weight_orbit_points(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """The Weyl orbit of chi + lambda (type A, extended coordinates) or of
    lambda itself (other families): the points weight_polytope takes the hull of."""
    _require_dominant(rs, lam)
    base = root_weight.chi(rs) + lam if rs.family == "A" else lam
    return root_weight.weyl_orbit(rs, base)


def _support_components(rs: RootSystem, lam: Weight) -> tuple[set[int], list[set[int]]]:
    """supp(lam), and the connected components of the Dynkin diagram that meet it."""
    supp = {i for i, x in enumerate(rs.labels(lam)) if x}
    return supp, [c for c in _dynkin_components(rs.cartan, range(rs.rank)) if c & supp]


def _admissible(cartan, nodes, supp: set[int]) -> bool:
    """Every connected component of the Dynkin diagram on nodes meets supp."""
    return all(c & supp for c in _dynkin_components(cartan, nodes))


def facet_nodes(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    """The simple-root indices i whose omega_i-orbit gives facets of conv(W.lam).

    The faces of conv(W.lam) are the W-translates of conv(W_J.lam) for the
    admissible J in S, those whose every connected component meets supp(lam)
    (Putcha-Renner, J. Algebra 1988); conv(W_J.lam) has dimension |J|.  The
    admissible J of size d - 1 are U - {i}, U the nodes of the Dynkin
    components that meet supp(lam), and i gives facets when U - {i} is
    admissible.  The diagram is read from rs.cartan, so D_2 is A_1 x A_1.
    """
    supp, components = _support_components(rs, lam)
    span = set().union(*components)
    return tuple(i for i in sorted(span) if _admissible(rs.cartan, span - {i}, supp))


def weight_polytope_f_vector(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    """f_vector(weight_polytope(rs, lam)) from parabolic data alone.

    The k-faces are the W-translates of conv(W_J.lam), J admissible of size k
    (see facet_nodes), and the stabilizer of conv(W_J.lam) is W_{J u K}, with
    K the nodes outside J u supp(lam) that have no edge to J.  So
    f_k = sum over those J of |W| / |W_{J u K}|.
    """
    _require_dominant(rs, lam)
    supp, components = _support_components(rs, lam)
    span = sorted(set().union(*components))
    cartan = rs.cartan
    order = _weyl_group_order(cartan, range(rs.rank))
    f = [0] * len(span)
    for k in range(len(span)):
        for nodes in itertools.combinations(span, k):
            if not _admissible(cartan, nodes, supp):
                continue
            fixed = frozenset(
                i for i in range(rs.rank)
                if i not in supp and i not in nodes and not any(cartan[i][j] for j in nodes)
            )
            f[k] += order // _weyl_group_order(cartan, fixed.union(nodes))
    return tuple(f)


def _span_roots(rs: RootSystem, lam: Weight) -> Mat:
    """The simple roots of the Dynkin components that meet supp(lam): they span
    the directions of the affine hull of W.lam, since the other components fix
    lam (and the type-A shift chi)."""
    components = _support_components(rs, lam)[1]
    return tuple(rs.simple_roots[i].coords for comp in components for i in sorted(comp))


def weight_polytope_dim(rs: RootSystem, lam: Weight) -> int:
    """The affine dimension of conv(weight_orbit_points(rs, lam)), read off the
    root datum without building the orbit."""
    _require_dominant(rs, lam)
    return len(_span_roots(rs, lam))


def weight_polytope_facets(rs: RootSystem, lam: Weight) -> tuple[tuple[Vec, Fraction], ...]:
    """The facets of conv(weight_orbit_points(rs, lam)).

    For each facet node i and each nu in W.omega_i, the facet is
    nu . x <= (omega_i, lam), normalized as hull normalizes it.  (omega_i, lam)
    is the maximum of nu over the orbit, since the form is W-invariant and
    both weights are dominant; the type-A shift chi is orthogonal to omega_i.
    nu already lies in the span of the simple roots of i's component, which
    the affine hull contains, so no projection is needed.
    """
    omega = root_weight.fundamental_weights(rs)
    facets = set()
    for i in facet_nodes(rs, lam):
        top = rs.form(omega[i], lam)
        facets.update(_normalize_halfspace(nu.coords, top) for nu in root_weight.weyl_orbit(rs, omega[i]))
    return tuple(sorted(facets))


def weight_polytope(rs: RootSystem, lam: Weight) -> RationalPolytope:
    """conv(weight_orbit_points(rs, lam)): every orbit point is a vertex, the
    affine hull is the first vertex plus the span of _span_roots, and the
    facets come from weight_polytope_facets.  Equal to hull of the orbit."""
    vertices = weight_orbit_points(rs, lam)
    _check_hull_guards([v.coords for v in vertices])
    roots = _span_roots(rs, lam)
    span = _span_equalities(roots, vertices[0].coords)
    return RationalPolytope(vertices, weight_polytope_facets(rs, lam), span, len(roots))


def require_off_dim(affine_dim: int):
    """OFF holds three coordinates; dropping the rest would print a different geometry."""
    if affine_dim > 3:
        raise PreconditionError(f"OFF export needs affine dimension <= 3, got {affine_dim}")


def _cycle_order(points3: list[tuple[float, float, float]], face: list[int]) -> list[int]:
    """Order a 2-face's vertex indices cyclically (float geometry, export only)."""
    pts = [points3[i] for i in face]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    cz = sum(p[2] for p in pts) / len(pts)
    # plane basis: u plus any centroid ray not parallel to it
    u = (pts[0][0] - cx, pts[0][1] - cy, pts[0][2] - cz)
    nrm = (0.0, 0.0, 0.0)
    for other in pts[1:]:
        w = (other[0] - cx, other[1] - cy, other[2] - cz)
        nrm = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
        if any(abs(c) > 1e-9 for c in nrm):
            break
    v = (
        nrm[1] * u[2] - nrm[2] * u[1],
        nrm[2] * u[0] - nrm[0] * u[2],
        nrm[0] * u[1] - nrm[1] * u[0],
    )

    def angle(i: int) -> float:
        d = (points3[i][0] - cx, points3[i][1] - cy, points3[i][2] - cz)
        x = sum(a * b for a, b in zip(d, u))
        y = sum(a * b for a, b in zip(d, v))
        return math.atan2(y, x)

    return sorted(face, key=angle)


def to_off(p: RationalPolytope) -> str:
    """OFF export in coordinates on the polytope's affine span, padded with
    zeros below dimension 3.  Affine dimension > 3 is rejected (require_off_dim).
    A polygon lists itself as its one face and a segment counts as one edge."""
    require_off_dim(p.affine_dim)
    frame = _AffineFrame([v.coords for v in p.vertices])
    proj = []
    for v in p.vertices:
        c = frame.coords(v.coords)
        c3 = tuple(float(c[i]) if i < len(c) else 0.0 for i in range(3))
        proj.append(c3)
    graded = _face_lattice(p)
    # the polytope is a face of itself: the polygon at dimension 2, the edge at 1
    graded[p.affine_dim] = {frozenset(range(len(proj)))}
    faces2 = sorted(sorted(f) for f in graded.get(2, ()))
    edges = graded.get(1, ())
    lines = ["OFF", f"{len(proj)} {len(faces2)} {len(edges)}"]
    for x, y, z in proj:
        lines.append(f"{x:.6f} {y:.6f} {z:.6f}")
    for face in faces2:
        ordered = _cycle_order(proj, list(face))
        lines.append(str(len(ordered)) + " " + " ".join(str(i) for i in ordered))
    return "\n".join(lines) + "\n"
