import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import identity_mat, independent_rows, mat, mat_inv, mat_mul, mat_vec, nullspace, weight_orbit_points
from oracles import rank as fraction_rank

from symmon import involution as iv
from symmon import linalg
from symmon import polytope as pt
from symmon import root_weight as rw
from symmon.errors import PreconditionError, ResourceLimitError
from symmon.root_weight import weight

ROOT_SYSTEMS = [("A", r) for r in range(1, 5)] + [(f, r) for f in "BCD" for r in range(2, 5)]


def _face_lattice_oracle(p):
    """The Fraction face lattice that _face_lattice replaced: vertex-facet
    incidence by Fraction dot products, faces as frozensets, and each face's
    dimension as the rank of its vertex differences."""
    verts = p.vertices
    n = len(verts)
    facet_sets = []
    for nrm, off in p.facets:
        facet_sets.append(
            frozenset(i for i in range(n) if linalg.dot(nrm, verts[i].coords) == off)
        )
    faces = set(facet_sets)
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
    graded = {}
    for f in faces:
        pts = [verts[i].coords for i in f]
        dim = 0 if len(pts) == 1 else fraction_rank(
            mat([linalg.vec_sub(q, pts[0]) for q in pts[1:]])
        )
        graded.setdefault(dim, set()).add(f)
    return graded


class _FractionFrame:
    """The Fraction affine frame that the integer _AffineFrame replaced:
    c(x) = G^-1 B (x - origin), with the Gram inverse G^-1 over the rationals."""

    def __init__(self, pts):
        self.origin = pts[0]
        diffs = [linalg.vec_sub(p, self.origin) for p in pts[1:]]
        self.basis = tuple(diffs[i] for i in independent_rows(diffs))
        self.dim = len(self.basis)
        gram = mat([[linalg.dot(a, b) for b in self.basis] for a in self.basis])
        self.h = mat_mul(mat_inv(gram), self.basis) if self.dim else ()

    def coords(self, p):
        return mat_vec(self.h, linalg.vec_sub(p, self.origin)) if self.dim else ()

    def lift_halfspace(self, a, beta):
        normal = tuple(sum((a[k] * self.h[k][i] for k in range(self.dim)), Fraction(0)) for i in range(len(self.origin)))
        return _fraction_halfspace(normal, beta + linalg.dot(normal, self.origin))


def _fraction_halfspace(normal, offset):
    a, b = pt._int_halfspace(normal, offset)
    return tuple(map(Fraction, a)), Fraction(b)


def _hull_oracle(points):
    """hull as it ran on the Fraction frame: span equalities from the Fraction
    nullspace, the integer facet search on coordinates scaled by the lcm of
    their denominators, and each facet lifted back through G^-1 B."""
    pts = sorted({linalg.vec(x) for x in points})
    frame = _FractionFrame(pts)
    d = frame.dim
    normals = nullspace(frame.basis) if frame.basis else identity_mat(len(pts[0]))
    span = tuple(_fraction_halfspace(nu, linalg.dot(nu, frame.origin)) for nu in normals)
    if d == 0:
        return pt.RationalPolytope((rw.Weight(pts[0]),), (), span, 0)
    coords = [frame.coords(p) for p in pts]
    scale = math.lcm(*(e.denominator for c in coords for e in c))
    icoords = [tuple(int(e * scale) for e in c) for c in coords]
    local = set()
    for subset in itertools.combinations(range(len(pts)), d):
        kernel = pt._int_hyperplane([icoords[i] for i in subset])
        if kernel is not None:
            a, beta = kernel
            sides = [sum(x * y for x, y in zip(a, c)) - beta for c in icoords]
            if all(s <= 0 for s in sides):
                local.add((a, Fraction(beta, scale)))
            elif all(s >= 0 for s in sides):
                local.add((tuple(-x for x in a), Fraction(-beta, scale)))
    vertices = []
    for p, c in zip(pts, coords):
        tight = [a for a, beta in local if linalg.dot(a, c) == beta]
        if tight and fraction_rank(mat(tight)) == d:
            vertices.append(rw.Weight(p))
    facets = tuple(sorted({frame.lift_halfspace(a, beta) for a, beta in local}))
    return pt.RationalPolytope(tuple(vertices), facets, span, d)


def _assert_frame_matches_oracle(pts):
    """Exact coordinates, and the six-decimal strings to_off prints, of the
    integer frame against the Fraction frame."""
    frame, oracle = pt._AffineFrame(pts), _FractionFrame(pts)
    assert frame.dim == oracle.dim
    for x, p in zip(frame.points, pts):
        scaled, exact = frame.scaled_coords(x), oracle.coords(p)
        assert tuple(Fraction(c, frame.det) for c in scaled) == exact
        assert [f"{c / frame.det:.6f}" for c in scaled] == [f"{float(c):.6f}" for c in exact]


def test_hull_single_point():
    p = pt.hull([weight([1, 2, 3])])
    assert p.affine_dim == 0
    assert p.vertices == (weight([1, 2, 3]),)
    assert pt.contains(p, weight([1, 2, 3]))
    assert not pt.contains(p, weight([1, 2, 4]))
    assert pt.f_vector(p) == ()


def test_hull_segment():
    s = pt.hull([weight([0, 0]), weight([2, 2]), weight([1, 1])])
    assert s.affine_dim == 1
    assert s.vertices == (weight([0, 0]), weight([2, 2]))
    # proper faces only: the interior point is not a vertex
    assert pt.f_vector(s) == (2,)
    assert pt.contains(s, weight([Fraction(1, 2), Fraction(1, 2)]))
    assert not pt.contains(s, weight([1, 0]))
    assert not pt.contains(s, weight([3, 3]))


def test_hull_simplex_f_vector():
    p = pt.hull([weight([0, 0, 0]), weight([1, 0, 0]), weight([0, 1, 0]), weight([0, 0, 1])])
    assert p.affine_dim == 3
    assert len(p.vertices) == 4
    assert pt.f_vector(p) == (4, 6, 4)


def test_hull_discards_interior_points():
    pts = [weight([0, 0]), weight([2, 0]), weight([0, 2]), weight([2, 2]), weight([1, 1])]
    p = pt.hull(pts)
    assert len(p.vertices) == 4
    assert weight([1, 1]) not in p.vertices
    # idempotence: hulling the vertex set reproduces the polytope
    again = pt.hull(p.vertices)
    assert again.vertices == p.vertices
    assert again.facets == p.facets


def test_hull_guards():
    with pytest.raises(ResourceLimitError, match="^hull guard: 201 points exceed the limit 200$"):
        pt.hull([weight([i, 0]) for i in range(201)])
    with pytest.raises(ResourceLimitError, match="^hull guard: ambient dimension 7 exceeds the limit 6$"):
        pt.hull([weight([0] * 7), weight([1] * 7)])
    with pytest.raises(PreconditionError):
        pt.hull([])


def test_defining_representation_polytope():
    a4 = rw.root_system("A", 4)
    fw = rw.fundamental_weights(a4)
    p = pt.weight_polytope(a4, fw[0])
    assert len(p.vertices) == 5
    assert p.affine_dim == 4
    chis = {weight([1 if j == i else 0 for j in range(5)]) for i in range(5)}
    assert set(p.vertices) == chis
    assert pt.f_vector(p) == (5, 10, 10, 5)
    for w in rw.extended_weights(a4, fw[0]):
        assert pt.contains(p, w)


def test_adjoint_orbit_polytope_is_cuboctahedron():
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    p = pt.weight_polytope(a3, fw[0] + fw[2])
    assert len(p.vertices) == 12
    assert p.affine_dim == 3
    assert pt.f_vector(p) == (12, 24, 14)
    ext = rw.extended_weights(a3, fw[0] + fw[2])
    for w in ext:
        assert pt.contains(p, w)
    # the shifted zero weight lies strictly inside
    chi = rw.chi(a3)
    assert all(linalg.dot(nrm, chi.coords) < off for nrm, off in p.facets)


def test_zero_weight_polytope():
    a2 = rw.root_system("A", 2)
    p = pt.weight_polytope(a2, weight([0, 0, 0]))
    assert p.vertices == (rw.chi(a2),)
    assert p.affine_dim == 0


def test_weight_polytope_requires_dominant():
    a2 = rw.root_system("A", 2)
    with pytest.raises(PreconditionError):
        pt.weight_polytope(a2, -rw.fundamental_weights(a2)[0])
    # and so does every entry point that reads supp(lambda), the facet nodes'
    # among them: for lambda = -omega_1 the three facet rows would have offset
    # -1 and cut out the empty set
    for f in (pt._support_components, pt.weight_polytope_dim, pt.weight_polytope_f_vector):
        with pytest.raises(PreconditionError, match="requires a dominant weight"):
            f(a2, -rw.fundamental_weights(a2)[0])


def test_weight_polytope_vertices_are_one_orbit():
    for fam, rank, coeffs in (("A", 3, (1, 0, 1)), ("B", 2, (2, 0)), ("C", 2, (0, 1))):
        rs = rw.root_system(fam, rank)
        lam = rw.from_fundamental(rs, coeffs)
        p = pt.weight_polytope(rs, lam)
        base = rw.chi(rs) + lam if fam == "A" else lam
        assert set(p.vertices) == set(rw.weyl_orbit(rs, base))


def _euler_holds(p):
    f = pt.f_vector(p)
    return sum((-1) ** i * fi for i, fi in enumerate(f)) == 1 - (-1) ** p.affine_dim


def test_euler_relation():
    cases = [
        pt.hull([weight([0, 0]), weight([1, 0]), weight([0, 1])]),
        pt.hull([weight([0, 0, 0]), weight([1, 0, 0]), weight([0, 1, 0]), weight([0, 0, 1])]),
        pt.weight_polytope(rw.root_system("B", 2), rw.from_fundamental(rw.root_system("B", 2), (2, 0))),
    ]
    for p in cases:
        assert _euler_holds(p)


def _admitted_01_labels():
    """(family, rank, labels) of every weight polytope with labels in {0, 1}
    whose orbit the hull point guard admits."""
    for family, rank in ROOT_SYSTEMS:
        rs = rw.root_system(family, rank)
        for labels in itertools.product((0, 1), repeat=rank):
            points = weight_orbit_points(rs, rw.from_fundamental(rs, labels))
            if len(points) <= pt.HULL_POINT_GUARD:
                yield family, rank, labels


@pytest.mark.parametrize("family, rank, labels", list(_admitted_01_labels()))
def test_euler_relation_weight_polytopes(family, rank, labels):
    rs = rw.root_system(family, rank)
    assert _euler_holds(pt.weight_polytope(rs, rw.from_fundamental(rs, labels)))


def test_extended_weights_inside_orbit_polytope():
    # every extended weight lies in the orbit polytope, for the catalog's
    # type-A generators at rank <= 4
    for spec in iv.catalog(4):
        if spec.family not in ("AI", "AII", "AIII"):
            continue
        rs = spec.root_system()
        for lam in iv.spherical_generators(spec, rs):
            p = pt.weight_polytope(rs, lam)
            for w in rw.extended_weights(rs, lam):
                assert pt.contains(p, w), (spec.family, spec.params, lam)


def test_facets_have_integer_normal_form():
    p = pt.hull([weight([0, 0]), weight([Fraction(1, 2), 0]), weight([0, Fraction(1, 3)])])
    for nrm, off in p.facets:
        assert all(c.denominator == 1 for c in nrm)
        assert off.denominator == 1


def test_json_export():
    p = pt.hull([weight([0, 0]), weight([1, 0]), weight([0, 1])])
    data = json.loads(json.dumps(p.to_json()))
    assert data["affine_dim"] == 2
    assert len(data["vertices"]) == 3
    assert len(data["facets"]) == 3


def test_off_export():
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    p = pt.weight_polytope(a3, fw[0] + fw[2])
    off = pt.to_off(p)
    lines = off.strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = (int(x) for x in lines[1].split())
    assert (nv, nf, ne) == (12, 14, 24)
    assert len(lines) == 2 + nv + nf
    # every face line references valid vertex indices
    for line in lines[2 + nv :]:
        parts = [int(x) for x in line.split()]
        assert parts[0] == len(parts) - 1
        assert all(0 <= i < nv for i in parts[1:])
    # deterministic output
    assert off == pt.to_off(p)


@pytest.mark.parametrize(
    "family, labels, header",
    [
        ("A", (0, 0), "1 0 0"),
        ("A", (1,), "2 0 1"),
        ("A", (1, 0), "3 1 3"),
        ("A", (1, 1), "6 1 6"),
        ("D", (1, 1), "4 1 4"),
    ],
)
def test_off_export_counts_the_polytope_as_a_face(family, labels, header):
    # below dimension 3 the polytope itself is the one 2-face (a polygon,
    # listed in cyclic order) or the one edge (a segment)
    rs = rw.root_system(family, len(labels))
    p = pt.weight_polytope(rs, rw.from_fundamental(rs, labels))
    lines = pt.to_off(p).splitlines()
    assert lines[1] == header
    if p.affine_dim == 2:
        cycle = [int(x) for x in lines[-1].split()[1:]]
        assert sorted(cycle) == list(range(len(p.vertices)))
        sides = {frozenset(pair) for pair in zip(cycle, cycle[1:] + cycle[:1])}
        assert sides == pt._face_lattice(p)[1]


def test_off_export_rejects_affine_dim_above_3():
    # the 4-simplex: a 3-coordinate OFF would put two vertices at the origin
    a4 = rw.root_system("A", 4)
    simplex = pt.weight_polytope(a4, rw.fundamental_weights(a4)[0])
    with pytest.raises(PreconditionError):
        pt.to_off(simplex)


@pytest.mark.parametrize("family, rank", ROOT_SYSTEMS)
def test_weight_polytope_matches_hull(family, rank):
    # the closed-form facets against the generic facet search, and the integer
    # face lattice against the Fraction oracle, on every dominant lambda with
    # labels in {0, 1, 2} and at most 16 orbit points
    rs = rw.root_system(family, rank)
    for labels in itertools.product((0, 1, 2), repeat=rank):
        lam = rw.from_fundamental(rs, labels)
        points = weight_orbit_points(rs, lam)
        if len(points) <= 16:
            p, h = pt.weight_polytope(rs, lam), pt.hull(points)
            assert p == h, labels
            assert pt._face_lattice(p) == _face_lattice_oracle(h), labels


@pytest.mark.parametrize("family, labels", [("B", (0, 1, 0, 0)), ("B", (1, 0, 1))])
def test_weight_polytope_matches_hull_large(family, labels):
    # the 24-cell and the rhombicuboctahedron
    rs = rw.root_system(family, len(labels))
    lam = rw.from_fundamental(rs, labels)
    p, h = pt.weight_polytope(rs, lam), pt.hull(weight_orbit_points(rs, lam))
    assert p == h
    assert pt._face_lattice(p) == _face_lattice_oracle(h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            st.integers(1, 3),
            st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=10),
        )
    )
)
def test_face_lattice_matches_oracle_on_random_hulls(case):
    # a shared denominator puts fractions in the vertices, so the incidence
    # scale is exercised, not only integer coordinates
    denom, points = case
    p = pt.hull([weight([Fraction(c, denom) for c in x]) for x in points])
    assert pt._face_lattice(p) == _face_lattice_oracle(p)


def _admitted_off_polytopes():
    """(family, rank, labels) of every weight polytope of affine dimension <= 3
    with labels in {0, 1, 2} whose orbit the hull point guard admits."""
    for family, rank in ROOT_SYSTEMS:
        rs = rw.root_system(family, rank)
        for labels in itertools.product((0, 1, 2), repeat=rank):
            lam = rw.from_fundamental(rs, labels)
            if pt.weight_polytope_dim(rs, lam) <= 3 and len(weight_orbit_points(rs, lam)) <= pt.HULL_POINT_GUARD:
                yield family, rank, labels


def test_integer_frame_matches_fraction_oracle_on_weight_polytopes():
    cases = list(_admitted_off_polytopes())
    assert len(cases) == 151
    for family, rank, labels in cases:
        rs = rw.root_system(family, rank)
        p = pt.weight_polytope(rs, rw.from_fundamental(rs, labels))
        _assert_frame_matches_oracle([v.coords for v in p.vertices])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            st.integers(1, 7),
            st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=1, max_size=10),
        )
    )
)
def test_integer_frame_and_hull_match_fraction_oracle_on_random_hulls(case):
    # denominators up to 7 give coordinates with no short decimal expansion,
    # so the six-decimal rounding of to_off is exercised
    denom, points = case
    pts = sorted({tuple(Fraction(c, denom) for c in x) for x in points})
    _assert_frame_matches_oracle(pts)
    assert pt.hull([weight(x) for x in pts]) == _hull_oracle(pts)


def test_rows_are_fractions_not_ints():
    # Fraction(3) == 3 and their hashes agree, so == cannot see an int entry,
    # but repr and the record's documented types can
    polytopes = [pt.hull([weight([0, 0]), weight([Fraction(1, 2), 0]), weight([0, Fraction(1, 3)])])]
    rows = list(polytopes[0].facets + polytopes[0].span)
    for family, rank, labels in _admitted_01_labels():
        rs = rw.root_system(family, rank)
        lam = rw.from_fundamental(rs, labels)
        p = pt.weight_polytope(rs, lam)
        polytopes.append(p)
        rows += p.facets + p.span
    assert len(polytopes) > 40 and len(rows) > 1000
    for nrm, off in rows:
        assert type(off) is Fraction and all(type(c) is Fraction for c in nrm), (nrm, off)
    assert all(type(c) is Fraction for p in polytopes for v in p.vertices for c in v.coords)


@pytest.mark.parametrize("family, rank", ROOT_SYSTEMS)
def test_weight_polytope_dim_is_rank_of_orbit_span(family, rank):
    # the dimension read off the Dynkin components against the rank of the
    # differences of the orbit points
    rs = rw.root_system(family, rank)
    for labels in itertools.product((0, 1), repeat=rank):
        lam = rw.from_fundamental(rs, labels)
        pts = [p.coords for p in weight_orbit_points(rs, lam)]
        span_rank = fraction_rank(tuple(linalg.vec_sub(p, pts[0]) for p in pts[1:]))
        assert pt.weight_polytope_dim(rs, lam) == span_rank, labels
    with pytest.raises(PreconditionError, match="requires a dominant weight"):
        pt.weight_polytope_dim(rs, rw.from_fundamental(rs, (-1,) + (0,) * (rank - 1)))


def _facet_nodes(rs, labels):
    return pt._facet_nodes(rs.cartan, *pt._support_components(rs, rw.from_fundamental(rs, labels)))


def test_facet_nodes():
    a4 = rw.root_system("A", 4)
    # the 4-simplex: its five facets are the orbit of omega_4
    assert _facet_nodes(a4, (1, 0, 0, 0)) == (3,)
    assert _facet_nodes(a4, (1, 1, 1, 1)) == (0, 1, 2, 3)
    assert _facet_nodes(a4, (0, 0, 0, 0)) == ()
    b4 = rw.root_system("B", 4)
    assert _facet_nodes(b4, (0, 1, 0, 0)) == (0, 3)
    # D_2 is A_1 x A_1: a component missing supp(lambda) gives no facets
    d2 = rw.root_system("D", 2)
    assert d2.cartan == ((2, 0), (0, 2))
    assert _facet_nodes(d2, (1, 0)) == (0,)
    assert _facet_nodes(d2, (1, 1)) == (0, 1)


def test_a4_permutohedron_frontier():
    # conv(S_5 . (5, 4, 3, 2, 1)): one facet per proper nonempty subset of [5]
    a4 = rw.root_system("A", 4)
    p = pt.weight_polytope(a4, rw.from_fundamental(a4, (1, 1, 1, 1)))
    assert pt.f_vector(p) == (120, 240, 150, 2**5 - 2)
    assert p.affine_dim == 4
    # the largest polytope the hull point guard admits, conv(W(D_4) . rho):
    # f_k is the sum of |W| / |W_J| over the k-subsets J of the Dynkin nodes,
    # |W| = 192: 4 * 96, then 3 * 32 + 3 * 48 (A_2 and A_1 x A_1), then
    # 3 * 8 + 24 (A_3 and A_1^3)
    d4 = rw.root_system("D", 4)
    p = pt.weight_polytope(d4, rw.from_fundamental(d4, (1, 1, 1, 1)))
    assert pt.f_vector(p) == (192, 384, 240, 48)


@pytest.mark.parametrize("family, rank", ROOT_SYSTEMS)
def test_f_vector_formula_matches_face_lattice(family, rank):
    # the parabolic count against the bitmask face lattice of the polytope
    rs = rw.root_system(family, rank)
    for labels in itertools.product((0, 1), repeat=rank):
        lam = rw.from_fundamental(rs, labels)
        try:
            poly = pt.weight_polytope(rs, lam)
        except ResourceLimitError:
            continue
        assert pt.weight_polytope_f_vector(rs, lam) == pt.f_vector(poly), labels


@pytest.mark.parametrize("first", (0, 1))
@pytest.mark.parametrize("family, rank", [("A", 5), ("A", 6), ("B", 5), ("D", 5)])
def test_f_vector_formula_past_face_lattice(family, rank, first):
    # past the hull and f_vector guards: Euler's relation for the proper
    # faces, the vertex count against the orbit and the facet count against
    # the closed-form facets; split on the first label to keep each case short
    rs = rw.root_system(family, rank)
    for rest in itertools.product((0, 1), repeat=rank - 1):
        labels = (first,) + rest
        lam = rw.from_fundamental(rs, labels)
        f = pt.weight_polytope_f_vector(rs, lam)
        d = pt.weight_polytope_dim(rs, lam)
        assert len(f) == d
        assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1 - (-1) ** d, labels
        if d:
            assert f[-1] == len(pt._facet_rows(rs, lam, _facet_nodes(rs, labels))), labels
        if f and f[0] <= 5040:
            assert f[0] == len(weight_orbit_points(rs, lam)), labels


@pytest.mark.parametrize(
    "family, rank, order",
    [("A", 1, 2), ("A", 4, 120), ("A", 6, 5040), ("B", 2, 8), ("C", 3, 48), ("B", 6, 46080),
     ("D", 2, 4), ("D", 3, 24), ("D", 4, 192), ("D", 6, 23040)],
)
def test_weyl_group_order(family, rank, order):
    rs = rw.root_system(family, rank)
    assert pt._weyl_group_order(rs.cartan, range(rank)) == order
    # the orbit of a regular weight is a regular orbit
    if order <= 5040:
        rho = rw.from_fundamental(rs, (1,) * rank)
        assert len(weight_orbit_points(rs, rho)) == order


def test_f_vector_formula_edge_cases():
    a2 = rw.root_system("A", 2)
    with pytest.raises(PreconditionError, match="requires a dominant weight"):
        pt.weight_polytope_f_vector(a2, rw.from_fundamental(a2, (1, -1)))
    assert pt.weight_polytope_f_vector(a2, rw.from_fundamental(a2, (0, 0))) == ()
    # the 5-dimensional permutohedron: f_k = (6-k)! S(6, 6-k), ordered set partitions
    a5 = rw.root_system("A", 5)
    rho = rw.from_fundamental(a5, (1,) * 5)
    assert pt.weight_polytope_f_vector(a5, rho) == (720, 1800, 1560, 540, 62)


def _contains_oracle(p, x):
    """The Fraction membership test that contains replaced: Fraction dot
    products against the span equalities and the facet inequalities."""
    if any(linalg.dot(nu, x.coords) != off for nu, off in p.span):
        return False
    return p.affine_dim == 0 or all(linalg.dot(nrm, x.coords) <= off for nrm, off in p.facets)


def _probe_points(p):
    """(inside, outside) sample points of p: the vertices, the centroid, facet
    centroids and midpoints inside; the vertices and facet centroids pushed
    away from the centroid by 1/k, and points pushed off the span by 1/k, outside."""
    verts = list(p.vertices)
    zero = rw.Weight((Fraction(0),) * verts[0].dim)
    centroid = Fraction(1, len(verts)) * sum(verts, zero)
    on_facets = []
    for nrm, off in p.facets:
        tight = [v for v in verts if linalg.dot(nrm, v.coords) == off]
        on_facets.append(Fraction(1, len(tight)) * sum(tight, zero))
    inside = verts + [centroid] + on_facets + [Fraction(1, 2) * (a + b) for a, b in zip(verts, verts[1:])]
    outside = []
    for k in (1, 2, 7, 1000):
        for x in verts + on_facets:
            outside.append(x + Fraction(1, k) * (x - centroid))
        for nu, _ in p.span:
            outside.append(centroid + Fraction(1, k) * rw.Weight(nu))
    return inside, outside


def _probe_polytopes():
    a3, a4, b4 = rw.root_system("A", 3), rw.root_system("A", 4), rw.root_system("B", 4)
    fw3, fw4, fwb = rw.fundamental_weights(a3), rw.fundamental_weights(a4), rw.fundamental_weights(b4)
    return {
        "cuboctahedron": pt.weight_polytope(a3, fw3[0] + fw3[2]),
        "4-simplex": pt.weight_polytope(a4, fw4[0]),
        "24-cell": pt.weight_polytope(b4, fwb[1]),
        # a triangle on the plane x + y + z = 1 of R^3, off the integer lattice
        "triangle": pt.hull([weight([1, 0, 0]), weight([0, Fraction(1, 2), Fraction(1, 2)]), weight([0, 0, 1])]),
    }


@pytest.mark.parametrize("name", ["cuboctahedron", "4-simplex", "24-cell", "triangle"])
def test_integer_contains_matches_fraction_oracle(name):
    p = _probe_polytopes()[name]
    inside, outside = _probe_points(p)
    assert len(outside) > len(p.span) and any(x.coords != tuple(map(int, x.coords)) for x in inside)
    for x in inside:
        assert pt.contains(p, x) is _contains_oracle(p, x) is True, x
    for x in outside:
        assert pt.contains(p, x) is _contains_oracle(p, x) is False, x
    if name == "triangle":
        assert p.affine_dim == 2 and len(p.span) == 1


def test_integer_contains_on_unnormalized_rows():
    # rows with fractional normals and offsets, as a caller may build them
    square = pt.RationalPolytope(
        (weight([0, 0]), weight([0, 1]), weight([1, 0]), weight([1, 1])),
        (
            ((Fraction(-1, 2), Fraction(0)), Fraction(0)),
            ((Fraction(0), Fraction(-3)), Fraction(0)),
            ((Fraction(2, 3), Fraction(0)), Fraction(2, 3)),
            ((Fraction(0), Fraction(1, 5)), Fraction(1, 5)),
        ),
        (),
        2,
    )
    for x in ([Fraction(1, 3), 1], [1, 1], [0, Fraction(1, 2)], [Fraction(1, 1000), 0]):
        assert pt.contains(square, weight(x)) is _contains_oracle(square, weight(x)) is True
    for x in ([Fraction(1001, 1000), 1], [-Fraction(1, 7), 0], [0, 2]):
        assert pt.contains(square, weight(x)) is _contains_oracle(square, weight(x)) is False
    point = pt.hull([weight([Fraction(1, 3), 2])])
    assert pt.contains(point, weight([Fraction(1, 3), 2]))
    assert not pt.contains(point, weight([Fraction(1, 3), Fraction(201, 100)]))


def test_contains_cache_is_invisible():
    import copy
    import pickle

    # weight_polytope caches the integer rows it builds from; the same record
    # rebuilt from its fields has no cache until contains fills it
    cached = _probe_polytopes()["cuboctahedron"]
    fresh = pt.RationalPolytope(*cached)
    x = cached.vertices[0]
    assert pt.contains(cached, x) and "_int_rows" in cached.__dict__ and "_int_rows" not in fresh.__dict__
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) and cached.to_json() == fresh.to_json()
    assert pt.contains(fresh, x) and fresh.__dict__["_int_rows"] == cached.__dict__["_int_rows"]
    for clone in (pickle.loads(pickle.dumps(cached)), copy.copy(cached), copy.deepcopy(cached)):
        assert clone == cached and hash(clone) == hash(cached)
        assert pt.contains(clone, x) and not pt.contains(clone, 2 * x)
    # the other weight-side records round-trip too
    b3, ai2 = rw.root_system("B", 3), iv.involution_spec("AI", 2)
    records = (x, weight([]), b3, ai2, iv.involution_spec("CI", 2))
    for record in records:
        copies = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in copies + [copy.copy(record), copy.deepcopy(record)]:
            assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)
            assert tuple(clone) == tuple(record) and repr(clone) == repr(record)
    assert rw.fundamental_weights(copy.deepcopy(b3)) == rw.fundamental_weights(b3)
    with pytest.raises(PreconditionError):
        pt.contains(cached, weight([0, 0, 0]))
