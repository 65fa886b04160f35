import json
from fractions import Fraction

import pytest

from symmon import involution as iv
from symmon import linalg
from symmon import polytope as pt
from symmon import root_weight as rw
from symmon.errors import PreconditionError, ResourceLimitError
from symmon.root_weight import weight


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
    with pytest.raises(ResourceLimitError):
        pt.hull([weight([i, 0]) for i in range(201)])
    with pytest.raises(ResourceLimitError):
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


def test_weight_polytope_vertices_are_one_orbit():
    for fam, rank, coeffs in (("A", 3, (1, 0, 1)), ("B", 2, (2, 0)), ("C", 2, (0, 1))):
        rs = rw.root_system(fam, rank)
        lam = rw.from_fundamental(rs, coeffs)
        p = pt.weight_polytope(rs, lam)
        base = rw.chi(rs) + lam if fam == "A" else lam
        assert set(p.vertices) == set(rw.weyl_orbit(rs, base))


def test_euler_relation():
    cases = [
        pt.hull([weight([0, 0]), weight([1, 0]), weight([0, 1])]),
        pt.hull([weight([0, 0, 0]), weight([1, 0, 0]), weight([0, 1, 0]), weight([0, 0, 1])]),
        pt.weight_polytope(rw.root_system("A", 3), rw.from_fundamental(rw.root_system("A", 3), (1, 0, 1))),
        pt.weight_polytope(rw.root_system("A", 4), rw.from_fundamental(rw.root_system("A", 4), (1, 0, 0, 0))),
        pt.weight_polytope(rw.root_system("B", 2), rw.from_fundamental(rw.root_system("B", 2), (2, 0))),
    ]
    for p in cases:
        f = pt.f_vector(p)
        assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1 - (-1) ** p.affine_dim


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
    data = json.loads(p.to_json_str())
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


def test_off_export_rejects_affine_dim_above_3():
    # the 4-simplex: a 3-coordinate OFF would put two vertices at the origin
    a4 = rw.root_system("A", 4)
    simplex = pt.weight_polytope(a4, rw.fundamental_weights(a4)[0])
    with pytest.raises(PreconditionError):
        pt.to_off(simplex)
