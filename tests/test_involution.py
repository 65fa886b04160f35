import random
from fractions import Fraction
from operator import mul

import pytest
from oracles import (
    all_roots,
    fraction_neg_star_on_labels,
    identity_mat,
    in_restricted_cone,
    is_diagonal,
    mat,
    mat_mul,
    phi_decomposition,
    restricted_simple_roots,
    theta_an_star,
    twisted_weight,
    twisted_weight_in_support,
    two_pass_weight_set_is_stable,
)

from symmon import involution as iv
from symmon import linalg
from symmon import root_weight as rw
from symmon.errors import NotSpecialError, PreconditionError, UnsupportedFamilyError
from symmon.involution import InvolutionSpec


def identity_involution(rs):
    """theta* = id; not in the catalog, used only for self-tests."""
    n = rs.ambient_dim
    eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return InvolutionSpec("ID", (), eye)


def test_construction_rejects_degenerate_params():
    for bad in (("AI", 1), ("AII", 1), ("AIII", 0, 3), ("AIII", 3, 2), ("CI", 0),
                ("DIII", 1), ("BDI", 0, 4), ("BDI", 2, 1), ("CII", 0, 2)):
        with pytest.raises(PreconditionError):
            iv.involution_spec(*bad)
    with pytest.raises(UnsupportedFamilyError):
        iv.involution_spec("EX", 4)


def test_theta_star_is_involution_and_permutes_roots():
    for spec in iv.catalog(5):
        rs = spec.root_system()
        dim = spec.ambient_dim
        m = mat([[Fraction(e) for e in row] for row in spec.theta_star])
        assert mat_mul(m, m) == identity_mat(dim), spec
        roots = set(all_roots(rs))
        assert {spec.apply_star(a) for a in roots} == roots, spec
        sample = list(rs.simple_roots) + list(rw.fundamental_weights(rs))
        for a in sample:
            for b in sample:
                assert rs.form(spec.apply_star(a), spec.apply_star(b)) == rs.form(a, b)


def test_positivity_gate_holds_for_catalog():
    for spec in iv.catalog(5):
        assert iv.check_positive_system(spec.root_system(), spec), spec


def test_phi_decomposition():
    a3 = rw.root_system("A", 3)
    ai = iv.involution_spec("AI", 4)
    phi0, phi1 = phi_decomposition(a3, ai)
    assert phi0 == () and len(phi1) == 12
    ident = identity_involution(a3)
    phi0, phi1 = phi_decomposition(a3, ident)
    assert len(phi0) == 12 and phi1 == ()
    assert iv.check_positive_system(a3, ident)  # vacuous
    aii = iv.involution_spec("AII", 2)
    phi0, phi1 = phi_decomposition(a3, aii)
    assert len(phi0) == 4 and len(phi1) == 8
    with pytest.raises(PreconditionError):
        phi_decomposition(rw.root_system("A", 2), ai)


def test_restricted_simple_roots():
    # AI: theta* = -id, so every restricted simple root is the simple root itself
    for n in (3, 4, 5):
        rs = rw.root_system("A", n - 1)
        _, _, delta0, _, restricted, rank_l = restricted_simple_roots(rs, iv.involution_spec("AI", n))
        assert rank_l == n - 1
        assert restricted == rs.simple_roots
        assert delta0 == ()
    # AII on A_{2n-1} has l = n - 1
    for n in (2, 3):
        rs = rw.root_system("A", 2 * n - 1)
        _, _, delta0, _, _, rank_l = restricted_simple_roots(rs, iv.involution_spec("AII", n))
        assert rank_l == n - 1
        assert len(delta0) == n
    # AIII(1, n-1) has l = 1
    for n in (3, 4, 5):
        rs = rw.root_system("A", n - 1)
        assert restricted_simple_roots(rs, iv.involution_spec("AIII", 1, n - 1))[5] == 1
    # AIII(p, q) has l = p
    assert restricted_simple_roots(rw.root_system("A", 3), iv.involution_spec("AIII", 2, 2))[5] == 2
    # restricted simples are pairwise distinct and nonzero
    for spec in iv.catalog(4):
        phi0, phi1, _, _, restricted, rank_l = restricted_simple_roots(spec.root_system(), spec)
        assert len(set(restricted)) == rank_l
        assert all(any(a.coords) for a in restricted)
        assert set(phi0) | set(phi1) == set(all_roots(spec.root_system()))
        assert not set(phi0) & set(phi1)


def test_is_special_examples():
    a3 = rw.root_system("A", 3)
    ai = iv.involution_spec("AI", 4)
    fw = rw.fundamental_weights(a3)
    assert iv.is_special(ai, fw[0].scale(2), a3)
    for w in fw:
        assert iv.is_special(ai, w, a3)
    aii = iv.involution_spec("AII", 2)
    assert not iv.is_special(aii, fw[0], a3)
    assert iv.is_special(aii, fw[1], a3)
    with pytest.raises(PreconditionError):
        iv.is_special(ai, -fw[0], a3)
    # theta* = -1 negates omega_1 / 2, whose label 1/2 is not an integer
    with pytest.raises(PreconditionError, match="^is_special requires a dominant weight$"):
        iv.is_special(ai, fw[0].scale(Fraction(1, 2)), a3)


def test_is_special_additive():
    a3 = rw.root_system("A", 3)
    aii = iv.involution_spec("AII", 2)
    fw = rw.fundamental_weights(a3)
    specials = [w for w in list(fw) + [fw[1].scale(2), fw[1].scale(3)] if iv.is_special(aii, w, a3)]
    for lam in specials:
        for mu in specials:
            assert iv.is_special(aii, lam + mu, a3)


def test_theta_an_star():
    a3 = rw.root_system("A", 3)
    aii = iv.involution_spec("AII", 2)
    fw = rw.fundamental_weights(a3)
    lam = fw[1]  # special
    assert theta_an_star(aii, lam) == lam
    zero = rw.weight([0, 0, 0, 0])
    assert theta_an_star(aii, zero) == zero
    ai = iv.involution_spec("AI", 4)
    for chi in list(fw) + list(a3.simple_roots):
        assert theta_an_star(ai, chi) == chi


def test_spherical_generators_examples():
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    assert iv.spherical_generators(iv.involution_spec("AI", 4)) == (
        fw[0].scale(2), fw[1].scale(2), fw[2].scale(2),
    )
    assert iv.spherical_generators(iv.involution_spec("AII", 2)) == (fw[1],)
    c2 = rw.root_system("C", 2)
    fw2 = rw.fundamental_weights(c2)
    assert iv.spherical_generators(iv.involution_spec("CII", 1, 1)) == (
        fw2[0].scale(2), fw2[1].scale(2),
    )
    # AIII(p, q): omega_i + omega_{n-i} for i = 1..p
    gens = iv.spherical_generators(iv.involution_spec("AIII", 2, 2))
    assert gens == (fw[0] + fw[2], fw[1].scale(2))


def test_every_catalog_generator_is_special():
    for spec in iv.catalog(4):
        rs = spec.root_system()
        for lam in iv.spherical_generators(spec, rs):
            assert rs.is_dominant(lam)
            assert iv.is_special(spec, lam, rs), (spec.family, spec.params, lam)


def test_weight_set_stability():
    a2 = rw.root_system("A", 2)
    ai3 = iv.involution_spec("AI", 3)
    assert iv.check_weight_set_stability(a2, ai3, rw.fundamental_weights(a2)[0].scale(2))
    a3 = rw.root_system("A", 3)
    aii = iv.involution_spec("AII", 2)
    fw = rw.fundamental_weights(a3)
    assert iv.check_weight_set_stability(a3, aii, fw[1])
    assert iv.check_weight_set_stability(a3, aii, rw.weight([0, 0, 0, 0]))
    with pytest.raises(NotSpecialError):
        iv.check_weight_set_stability(a3, aii, fw[0])


def _stability_oracle(rs, inv, lam):
    """check_weight_set_stability on ambient coordinates: -theta* applied to
    the integer vectors D * mu of Pi(lambda)."""
    _, points = rw.scaled_weight_set(rs, lam)
    pi = set(points)
    theta = inv.theta_star
    return {tuple(-sum(map(mul, row, p)) for row in theta) for p in pi} == pi


def test_neg_star_on_labels_matches_the_fraction_construction():
    specs = iv.catalog(6)
    assert len(specs) == 81
    for spec in specs:
        rs = spec.root_system()
        star = iv._neg_star_on_labels(rs, spec)
        assert star == fraction_neg_star_on_labels(rs, spec), spec
        assert all(type(x) is int for row in star for x in row)


def test_integer_root_datum_builds_no_fraction(monkeypatch):
    specs = [(spec, spec.root_system()) for spec in iv.catalog(6)]

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    for module in (rw, iv, linalg):
        monkeypatch.setattr(module, "Fraction", no_fraction)
    datum = (rw._cartan_adjugate, rw._scaled_fundamental, rw._positive_root_data, rw.positive_root_vectors)
    for cached in (*datum, rw._positive_root_codes, iv._neg_star_on_labels):
        cached.cache_clear()
    for spec, rs in specs:
        iv._neg_star_on_labels(rs, spec)
        rw._positive_root_codes(rs, 8)
    # catalog(6) reaches every A-D root system of rank <= 6
    assert all(cached.cache_info().currsize == len({rs for _, rs in specs}) == 23 for cached in datum)


def test_weight_set_stability_matches_ambient_oracle():
    checked = 0
    for spec in iv.catalog(4):
        rs = spec.root_system()
        star = iv._neg_star_on_labels(rs, spec)
        for mu in all_roots(rs) + rw.fundamental_weights(rs):
            image = tuple(sum(map(mul, row, rs.labels(mu))) for row in star)
            assert image == rs.labels(-spec.apply_star(mu))
        for lam in iv.spherical_generators(spec, rs):
            assert iv.check_weight_set_stability(rs, spec, lam) is _stability_oracle(rs, spec, lam) is True
            checked += 1
    assert checked == 82


def test_weight_set_stability_rejects_in_order():
    """The weight's dimension first, then dominance, then the involution's
    dimension, then specialness: each case fails the named test and every
    later one."""
    a2, a3 = rw.root_system("A", 2), rw.root_system("A", 3)
    aii = iv.involution_spec("AII", 2)
    fw2, fw3 = rw.fundamental_weights(a2), rw.fundamental_weights(a3)
    dimension = "weight and root system differ in ambient dimension"
    dominant = "stability check requires a dominant weight"
    cases = [
        (a3, aii, -fw2[0], PreconditionError, dimension),
        (a3, aii, -fw3[0], PreconditionError, dominant),
        (a3, aii, fw3[0].scale(Fraction(1, 2)), PreconditionError, dominant),  # a label of 1/2
        (a2, aii, -fw2[0], PreconditionError, dominant),
        (a2, aii, fw2[0], PreconditionError, "ambient dimension mismatch"),
        (a3, aii, fw3[0], NotSpecialError, "weight is not special for this involution"),
    ]
    for rs, inv, lam, error, message in cases:
        with pytest.raises(PreconditionError) as exc:
            iv.check_weight_set_stability(rs, inv, lam)
        assert type(exc.value) is error and str(exc.value) == message
    assert iv.check_weight_set_stability(a3, aii, fw3[1]) is True


def test_weight_set_is_stable_matches_two_pass_oracle():
    """The one-pass kernel against the two-pass oracle on every spherical
    generator of catalog(4), under -theta* (stable) and under a seeded random
    {-1, 0, 1} matrix (mostly not)."""
    rng = random.Random(1)
    outcomes = {True: 0, False: 0}
    for spec in iv.catalog(4):
        rs = spec.root_system()
        star = iv._neg_star_on_labels(rs, spec)
        for lam in iv.spherical_generators(spec, rs):
            labels = rs.labels(lam)
            assert rw.weight_set_is_stable(rs, labels, star) is two_pass_weight_set_is_stable(rs, labels, star) is True
            matrix = tuple(tuple(rng.choice((-1, 0, 1)) for _ in labels) for _ in labels)
            stable = rw.weight_set_is_stable(rs, labels, matrix)
            assert stable is two_pass_weight_set_is_stable(rs, labels, matrix), (spec, lam, matrix)
            outcomes[stable] += 1
    assert outcomes == {True: 4, False: 78}


@pytest.mark.parametrize(
    "theta,lam",
    [
        (((0, 1, 1), (0, -1, 0), (0, 0, -1)), (2, 0)),  # not orthogonal
        (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0)),  # sends e_1 - e_2 off the roots
    ],
)
def test_weight_set_stability_rejects_theta_off_the_roots(theta, lam):
    a2 = rw.root_system("A", 2)
    spec = InvolutionSpec("AI", (3,), theta)
    lam = rw.from_fundamental(a2, lam)
    assert spec.apply_star(lam) == -lam
    with pytest.raises(PreconditionError) as exc:
        iv.check_weight_set_stability(a2, spec, lam)
    assert str(exc.value) == "theta* must preserve the form and map the simple roots to roots"


def test_twisted_weight():
    a3 = rw.root_system("A", 3)
    aii = iv.involution_spec("AII", 2)
    fixed = a3.simple_roots[0]  # alpha_1 is theta*-fixed for AII
    assert twisted_weight(aii, fixed) == rw.weight([0, 0, 0, 0])
    ai = iv.involution_spec("AI", 4)
    lam = rw.fundamental_weights(a3)[1].scale(2)
    assert twisted_weight(ai, lam) == lam.scale(2)


def test_twisted_weight_support_shape():
    # the twisted weights of Pi(lambda) sit at 2(lambda - nonneg combo of
    # restricted simples)
    cases = [
        (rw.root_system("A", 3), iv.involution_spec("AII", 2), (0, 1, 0)),
        (rw.root_system("A", 2), iv.involution_spec("AI", 3), (2, 0)),
        (rw.root_system("A", 3), iv.involution_spec("AIII", 1, 3), (1, 0, 1)),
    ]
    for rs, spec, coeffs in cases:
        lam = rw.from_fundamental(rs, coeffs)
        for mu in rw.weight_set(rs, lam):
            assert twisted_weight_in_support(rs, spec, lam, mu)


def test_in_restricted_cone():
    a3 = rw.root_system("A", 3)
    aii = iv.involution_spec("AII", 2)
    twice = restricted_simple_roots(a3, aii)[4][0].scale(2)
    assert in_restricted_cone(a3, aii, twice)
    assert in_restricted_cone(a3, aii, rw.weight([0, 0, 0, 0]))
    assert not in_restricted_cone(a3, aii, -twice)


def test_theta0_matches_theta_star_on_diagonal_tori():
    import itertools

    from symmon import finite_field as ff

    for spec in (iv.involution_spec("AI", 3), iv.involution_spec("AII", 2)):
        dim = spec.ambient_dim
        q = 3
        for diag in itertools.product((1, 2), repeat=dim):
            t = ff.fq_matrix(q, [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)])
            theta_t = ff.theta_an(t, spec).inverse()
            assert is_diagonal(theta_t)
            for i in range(dim):
                expected = 1
                for j in range(dim):
                    e = spec.theta_star[j][i]
                    expected = expected * pow(diag[j], e % (q - 1), q) % q
                assert theta_t.rows[i][i] == expected


def _apply_star_oracle(spec, w):
    """The Fraction formula apply_star replaced: one Fraction sum per coordinate."""
    zero = Fraction(0)
    return rw.Weight(tuple(sum((c * e for e, c in zip(row, w.coords) if e), zero) for row in spec.theta_star))


def _positivity_oracle(rs, spec):
    """check_positive_system on Fraction Weights through the oracle above."""
    positives = set(rw.positive_roots(rs))
    return not any(
        (image := _apply_star_oracle(spec, a)) != a and image in positives for a in positives
    )


def test_integer_star_kernel_matches_fraction_oracle():
    checked = 0
    for spec in iv.catalog(4):
        rs = spec.root_system()
        fw = rw.fundamental_weights(rs)
        sample = list(all_roots(rs)) + list(fw) + [om.scale(2) for om in fw]
        sample += list(iv.spherical_generators(spec, rs))
        if rs.family == "A":  # chi and the extended weights are non-integral
            sample += [rw.chi(rs), rw.chi(rs) + fw[0].scale(Fraction(1, 3))]
        for w in sample:
            image = spec.apply_star(w)
            assert image == _apply_star_oracle(spec, w), (spec, w)
            d, x = w.scaled_to_integers()
            assert iv.star_vector(spec, x) == tuple(d * c for c in image.coords)
            if rs.is_dominant(w):
                assert iv.is_special(spec, w, rs) is (_apply_star_oracle(spec, w) == -w)
            checked += 1
        assert iv.check_positive_system(rs, spec) is _positivity_oracle(rs, spec) is True
    assert checked > 500


def test_integer_star_kernel_negative_cases():
    a2, a3 = rw.root_system("A", 2), rw.root_system("A", 3)
    # swapping e_1 and e_2 sends alpha_2 = e_2 - e_3 to the positive e_1 - e_3
    swap = InvolutionSpec("X", (), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert iv.check_positive_system(a2, swap) is _positivity_oracle(a2, swap) is False
    aii, omega_1 = iv.involution_spec("AII", 2), rw.fundamental_weights(a3)[0]
    assert _apply_star_oracle(aii, omega_1) != -omega_1
    assert iv.is_special(aii, omega_1, a3) is False
    with pytest.raises(NotSpecialError):
        iv.check_weight_set_stability(a3, aii, omega_1)
    # mismatched ambient dimensions, at every entry to the kernel
    ai4, lam = iv.involution_spec("AI", 4), rw.fundamental_weights(a2)[0].scale(2)
    for call in (
        lambda: ai4.apply_star(lam),
        lambda: iv.is_special(ai4, lam, a2),
        lambda: iv.check_positive_system(a2, ai4),
        lambda: iv.check_weight_set_stability(a2, ai4, lam),
        lambda: iv._neg_star_on_labels(a2, ai4),
    ):
        with pytest.raises(PreconditionError, match="ambient dimension mismatch"):
            call()
