"""Exact convex geometry of Weyl-orbit polytopes in affine dimension <= 4.

Everything is exact.  Points are scaled over a common denominator, and span
equalities and facets are content-free integer rows; a RationalPolytope holds
them as Fractions and caches the integer rows.  Weight polytopes
conv(W.lambda) are read off the root datum and its integer Weyl orbits: every
orbit point is a vertex, the affine span is spanned by the simple roots of
the Dynkin components that meet supp(lambda),
the facets are, in closed form, the W-orbits of the fundamental weights
omega_i whose node i the standard H-description keeps, and the f-vector
counts the W-translates of the standard faces conv(W_J.lambda) with parabolic
subgroup orders (weight_polytope_f_vector).  `hull` is the generic path for
arbitrary point sets: it maps the points to exact coordinates on their affine
span (`_AffineFrame`, in integers, shared with the OFF export), finds facets
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
import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import linalg, root_weight
from ._record import no_tuple_arithmetic
from .errors import PreconditionError, ResourceLimitError
from .linalg import Vec
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


def _int_hyperplane(points: list[tuple[int, ...]]) -> tuple[tuple[int, ...], int] | None:
    """The hyperplane a . x = beta through d affinely independent points in Z^d,
    found as the signed maximal minors of the d x (d+1) system [x | -1];
    None if the points are affinely dependent."""
    d = len(points)
    rows = [tuple(p) + (-1,) for p in points]
    kernel = []
    for drop in range(d + 1):
        minor = linalg.int_det([tuple(r[c] for c in range(d + 1) if c != drop) for r in rows])
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


def _fraction_rows(rows) -> tuple[tuple[Vec, Fraction], ...]:
    """Integer (normal, offset) rows as the record's Fractions, one per distinct value."""
    frac = {x: Fraction(x) for a, b in rows for x in (*a, b)}
    return tuple((tuple(map(frac.__getitem__, a)), frac[b]) for a, b in rows)


def _span_rows(directions: tuple[tuple[int, ...], ...], denom: int, origin: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The rows nu . x = nu . o of o + span(directions), o = origin / denom, with
    nu the content-free integer normals of the span that linalg.nullspace reads
    off the integer echelon of the directions.  They depend only on the row
    space, so any spanning set gives them; no directions give the unit normals."""
    normals = linalg.nullspace(directions or ((0,) * len(origin),))
    return [_reduce_int_halfspace(tuple(denom * c for c in nu), sum(map(mul, nu, origin))) for nu in normals]


class _AffineFrame:
    """Exact coordinates on the affine span of a point set, in integers: with
    the points scaled to X = denom * x, origin O the first, B the differences
    X - O independent of those before them and G = B B^T, the coordinates
    c(x) = G^-1 B (X - O) are h (X - O) / det, h = adj(G) B and det = det G > 0."""

    def __init__(self, pts: list[Vec]):
        self.denom = math.lcm(*(c.denominator for p in pts for c in p))
        self.points = [tuple(c.numerator * (self.denom // c.denominator) for c in p) for p in pts]
        self.origin = origin = self.points[0]
        diffs = [tuple(a - b for a, b in zip(x, origin)) for x in self.points[1:]]
        self.basis = [diffs[i] for i in linalg.independent_rows(diffs)]
        self.dim = len(self.basis)
        gram = [[sum(map(mul, a, b)) for b in self.basis] for a in self.basis]
        self.det = linalg.int_det(gram)
        columns = list(zip(*self.basis))
        self.h = [tuple(sum(map(mul, row, col)) for col in columns) for row in linalg.adjugate(gram)]

    def scaled_coords(self, x: tuple[int, ...]) -> list[int]:
        """det * c(x), for x = denom * (a point of the span)."""
        y = [a - b for a, b in zip(x, self.origin)]
        return [sum(map(mul, row, y)) for row in self.h]

    def lift_halfspace(self, a: tuple[int, ...], beta: int) -> tuple[tuple[int, ...], int]:
        """a . (det c(x)) <= beta as an ambient row:
        (denom nu) . x <= beta + nu . O, with nu = a h."""
        nu = [sum(map(mul, a, col)) for col in zip(*self.h)]
        return _reduce_int_halfspace(tuple(self.denom * c for c in nu), beta + sum(map(mul, nu, self.origin)))


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
    span = _span_rows(tuple(frame.basis), frame.denom, frame.origin)
    if d == 0:
        return _polytope((Weight(pts[0]),), [], span, 0)
    # the integer coordinates det * c(x) keep the facet search fraction-free
    icoords = [frame.scaled_coords(x) for x in frame.points]
    facets_local: set[tuple[tuple[int, ...], int]] = set()
    for subset in itertools.combinations(range(len(pts)), d):
        kernel = _int_hyperplane([icoords[i] for i in subset])
        if kernel is None:
            continue
        a, beta = kernel
        sides = [sum(map(mul, a, c)) - beta for c in icoords]
        if all(s <= 0 for s in sides):
            facets_local.add(_reduce_int_halfspace(a, beta))
        elif all(s >= 0 for s in sides):
            facets_local.add(_reduce_int_halfspace(tuple(-c for c in a), -beta))
    vertices = []
    for p, c in zip(pts, icoords):
        normals = [a for a, beta in facets_local if sum(map(mul, a, c)) == beta]
        if normals and linalg.rank(normals) == d:
            vertices.append(Weight(p))
    facets = sorted({frame.lift_halfspace(a, beta) for a, beta in facets_local})
    return _polytope(tuple(vertices), facets, span, d)


def _polytope(vertices, facets, span, affine_dim: int) -> RationalPolytope:
    """The record of the integer facet and span rows, with the rows cached."""
    p = RationalPolytope(vertices, _fraction_rows(facets), _fraction_rows(span), affine_dim)
    p._int_rows = (tuple(span), tuple(facets))
    return p


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


def _dominant_labels(rs: RootSystem, lam: Weight) -> tuple:
    """The Dynkin labels of lam, which every weight-polytope function below
    requires dominant; each reaches this check once."""
    labels = rs.labels(lam)
    if not all(type(x) is int and x >= 0 for x in labels):
        raise PreconditionError("weight_polytope requires a dominant weight")
    return labels


def _orbit_base(rs: RootSystem, lam: Weight) -> Weight:
    """The weight whose W-orbit weight_polytope takes the hull of: chi + lam
    in type A (extended coordinates), lam itself in the other families."""
    return root_weight.chi(rs) + lam if rs.family == "A" else lam


def _support_components(rs: RootSystem, lam: Weight) -> tuple[set[int], list[set[int]]]:
    """supp(lam), and the connected components of the Dynkin diagram that meet
    it; lam must be dominant."""
    supp = {i for i, x in enumerate(_dominant_labels(rs, lam)) if x}
    return supp, [c for c in _dynkin_components(rs.cartan, range(rs.rank)) if c & supp]


def _admissible(cartan, nodes, supp: set[int]) -> bool:
    """Every connected component of the Dynkin diagram on nodes meets supp."""
    return all(c & supp for c in _dynkin_components(cartan, nodes))


def _facet_nodes(cartan, supp: set[int], components: list[set[int]]) -> tuple[int, ...]:
    """The simple-root indices i whose omega_i-orbit gives facets of conv(W.lam),
    from supp(lam) and the Dynkin components that meet it (_support_components).

    The faces of conv(W.lam) are the W-translates of conv(W_J.lam) for the
    admissible J in S, those whose every connected component meets supp(lam)
    (Putcha-Renner, J. Algebra 1988); conv(W_J.lam) has dimension |J|.  The
    admissible J of size d - 1 are U - {i}, U the nodes of the Dynkin
    components that meet supp(lam), and i gives facets when U - {i} is
    admissible.  The diagram is read from the Cartan matrix, so D_2 is A_1 x A_1.
    """
    span = set().union(*components)
    return tuple(i for i in sorted(span) if _admissible(cartan, span - {i}, supp))


def weight_polytope_f_vector(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    """f_vector(weight_polytope(rs, lam)) from parabolic data alone.

    The k-faces are the W-translates of conv(W_J.lam), J admissible of size k
    (see _facet_nodes), and the stabilizer of conv(W_J.lam) is W_{J u K}, with
    K the nodes outside J u supp(lam) that have no edge to J.  So
    f_k = sum over those J of |W| / |W_{J u K}|.
    """
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


def _span_roots(rs: RootSystem, components: list[set[int]]) -> tuple[tuple[int, ...], ...]:
    """The integer simple roots of the Dynkin components that meet supp(lam):
    they span the directions of the affine hull of W.lam, since the other
    components fix lam (and the type-A shift chi)."""
    simples = root_weight._simple_roots(rs.family, rs.rank)
    return tuple(simples[i] for comp in components for i in sorted(comp))


def weight_polytope_dim(rs: RootSystem, lam: Weight) -> int:
    """The affine dimension of weight_polytope(rs, lam), read off the root
    datum without building the orbit."""
    return len(_span_roots(rs, _support_components(rs, lam)[1]))


def _facet_rows(rs: RootSystem, lam: Weight, nodes) -> list[tuple[tuple[int, ...], int]]:
    """The facets of weight_polytope(rs, lam) as sorted _int_halfspace rows,
    the normal form hull gives.

    For each facet node i (nodes, from _facet_nodes) and each nu in W.omega_i, the facet is
    nu . x <= (omega_i, lam).  (omega_i, lam) is the maximum of nu over the
    orbit, since the form is W-invariant and both weights are dominant; the
    type-A shift chi is orthogonal to omega_i.  nu already lies in the span of
    the simple roots of i's component, which the affine hull contains, so no
    projection is needed.
    """
    omega = root_weight.fundamental_weights(rs)
    d, scaled_omega = root_weight._scaled_fundamental(rs)
    e, y = lam.scaled_to_integers()
    rows = set()
    for i in nodes:
        denom, orbit = root_weight._scaled_orbit(rs, omega[i])
        # (omega_i, lam) = p / r with r = d e
        r, offset = d * e, denom * sum(map(mul, scaled_omega[i], y))
        rows.update(_reduce_int_halfspace(tuple(r * c for c in nu), offset) for nu in orbit)
    return sorted(rows)


def weight_polytope(rs: RootSystem, lam: Weight) -> RationalPolytope:
    """conv(W.mu), mu = _orbit_base(rs, lam): every orbit point is a vertex, the
    affine hull is the first vertex plus the span of _span_roots, and the
    facets come from _facet_rows.  Equal to hull of the orbit."""
    supp, components = _support_components(rs, lam)
    denom, orbit = root_weight._scaled_orbit(rs, _orbit_base(rs, lam))
    _check_hull_guards(orbit)
    orbit.sort()
    roots = _span_roots(rs, components)
    span = _span_rows(roots, denom, orbit[0])
    facets = _facet_rows(rs, lam, _facet_nodes(rs.cartan, supp, components))
    return _polytope(root_weight._to_weights(denom, orbit), facets, span, len(roots))


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
    for x in frame.points:
        # an int true division is correctly rounded, as float(Fraction) is
        c = frame.scaled_coords(x) + [0, 0, 0]
        proj.append((c[0] / frame.det, c[1] / frame.det, c[2] / frame.det))
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
