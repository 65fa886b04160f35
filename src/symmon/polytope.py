"""Exact convex geometry of Weyl-orbit polytopes in affine dimension <= 4.

Hulls are computed entirely over the rationals: points are mapped to exact
coordinates on their affine span, facets are found by enumerating supporting
hyperplanes through affinely independent point subsets, and vertices are the
points whose tight facet normals span the whole space.

The idempotent lattice of the closure of a maximal torus in a reductive
monoid is anti-isomorphic to the face lattice of a convex polytope of this
kind; that correspondence is background for the f_vector/face machinery here
but is not materialized as a map.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, root_weight
from .errors import PreconditionError, ResourceLimitError
from .linalg import Mat, Vec
from .root_weight import RootSystem, Weight

HULL_POINT_GUARD = 200
HULL_AMBIENT_GUARD = 6
FVECTOR_DIM_GUARD = 4


@dataclass(frozen=True)
class RationalPolytope:
    """Vertices plus a complete exact facet description.

    facets are (normal, offset) pairs meaning normal . x <= offset; span
    carries the affine-hull equalities normal . x = offset.  Facet data is
    normalized to integer, content-free normals for reproducibility.
    """

    vertices: tuple[Weight, ...]
    facets: tuple[tuple[Vec, Fraction], ...]
    span: tuple[tuple[Vec, Fraction], ...]
    affine_dim: int

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


def _normalize_halfspace(normal: Vec, offset: Fraction) -> tuple[Vec, Fraction]:
    """Scale so entries are coprime integers with a canonical sign convention."""
    denoms = [c.denominator for c in normal] + [offset.denominator]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // math.gcd(lcm, d)
    ints = [int(c * lcm) for c in normal] + [int(offset * lcm)]
    g = 0
    for e in ints:
        g = math.gcd(g, abs(e))
    if g:
        ints = [e // g for e in ints]
    return tuple(Fraction(e) for e in ints[:-1]), Fraction(ints[-1])


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

    def span_equalities(self) -> tuple[tuple[Vec, Fraction], ...]:
        if self.dim:
            normals = linalg.nullspace(self.basis)
        else:
            normals = tuple(linalg.identity_mat(len(self.origin)))
        return tuple(
            _normalize_halfspace(nu, linalg.dot(nu, self.origin)) for nu in normals
        )

    def lift_halfspace(self, a: Vec, beta: Fraction) -> tuple[Vec, Fraction]:
        """Translate a . c(x) <= beta into an ambient inequality."""
        normal = tuple(
            sum((a[k] * self.h[k][i] for k in range(self.dim)), Fraction(0))
            for i in range(len(self.origin))
        )
        offset = beta + linalg.dot(normal, self.origin)
        return _normalize_halfspace(normal, offset)


def hull(points) -> RationalPolytope:
    """Irredundant vertex list and complete facet description, exact arithmetic."""
    pts = sorted({w.coords if isinstance(w, Weight) else linalg.vec(w) for w in points})
    if not pts:
        raise PreconditionError("hull of an empty point set")
    if len(pts) > HULL_POINT_GUARD:
        raise ResourceLimitError(f"hull guard: at most {HULL_POINT_GUARD} points")
    if len(pts[0]) > HULL_AMBIENT_GUARD:
        raise ResourceLimitError(f"hull guard: ambient dimension <= {HULL_AMBIENT_GUARD}")
    frame = _AffineFrame(pts)
    d = frame.dim
    span = frame.span_equalities()
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
    for nu, off in p.span:
        if linalg.dot(nu, x.coords) != off:
            return False
    if p.affine_dim == 0:
        return True
    return all(linalg.dot(nrm, x.coords) <= off for nrm, off in p.facets)


def _face_lattice(p: RationalPolytope) -> dict[int, set[frozenset[int]]]:
    """Proper faces as vertex-index sets, graded by dimension."""
    verts = p.vertices
    n = len(verts)
    facet_sets = []
    for nrm, off in p.facets:
        facet_sets.append(
            frozenset(i for i in range(n) if linalg.dot(nrm, verts[i].coords) == off)
        )
    faces: set[frozenset[int]] = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    new.add(h)
        frontier = new
    graded: dict[int, set[frozenset[int]]] = {}
    for f in faces:
        pts = [verts[i].coords for i in f]
        dim = 0 if len(pts) == 1 else linalg.rank(
            linalg.mat([linalg.vec_sub(q, pts[0]) for q in pts[1:]])
        )
        graded.setdefault(dim, set()).add(f)
    return graded


def f_vector(p: RationalPolytope) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_{d-1}) of the proper faces."""
    d = p.affine_dim
    if d > FVECTOR_DIM_GUARD:
        raise ResourceLimitError(f"f_vector guard: affine dimension <= {FVECTOR_DIM_GUARD}")
    if d == 0:
        return ()
    graded = _face_lattice(p)
    return tuple(len(graded.get(i, ())) for i in range(d))


def weight_orbit_points(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """The Weyl orbit of chi + lambda (type A, extended coordinates) or of
    lambda itself (other families): the points weight_polytope takes the hull of."""
    if not rs.is_dominant(lam):
        raise PreconditionError("weight_polytope requires a dominant weight")
    base = root_weight.chi(rs) + lam if rs.family == "A" else lam
    return root_weight.weyl_orbit(rs, base)


def weight_polytope(rs: RootSystem, lam: Weight) -> RationalPolytope:
    """Hull of weight_orbit_points(rs, lam)."""
    return hull(weight_orbit_points(rs, lam))


def affine_dim(points) -> int:
    """Dimension of the affine span of a nonempty point set, without a hull."""
    pts = [w.coords for w in points]
    return linalg.rank(linalg.mat(linalg.vec_sub(p, pts[0]) for p in pts[1:]))


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
    zeros below dimension 3.  Affine dimension > 3 is rejected (require_off_dim)."""
    require_off_dim(p.affine_dim)
    frame = _AffineFrame([v.coords for v in p.vertices])
    proj = []
    for v in p.vertices:
        c = frame.coords(v.coords)
        c3 = tuple(float(c[i]) if i < len(c) else 0.0 for i in range(3))
        proj.append(c3)
    graded = _face_lattice(p) if p.affine_dim >= 2 else {}
    faces2 = sorted(sorted(f) for f in graded.get(2, ()))
    edges = graded.get(1, ())
    lines = ["OFF", f"{len(proj)} {len(faces2)} {len(edges)}"]
    for x, y, z in proj:
        lines.append(f"{x:.6f} {y:.6f} {z:.6f}")
    for face in faces2:
        ordered = _cycle_order(proj, list(face))
        lines.append(str(len(ordered)) + " " + " ".join(str(i) for i in ordered))
    return "\n".join(lines) + "\n"
