import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    all_roots,
    dominance_leq,
    fraction_fundamental_weights,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    nullspace,
    pairing,
    rank as fraction_rank,
    simple_root_coefficients,
    two_pass_weight_set_is_stable,
    zero_vec,
)

from symmon import linalg
from symmon import root_weight as rw
from symmon.errors import DegenerateRootError, PreconditionError, ResourceLimitError, UnsupportedFamilyError
from symmon.root_weight import Weight, weight


def frac(a, b=1):
    return Fraction(a, b)


def test_cartan_matrices():
    assert rw.root_system("A", 2).cartan == ((2, -1), (-1, 2))
    assert rw.root_system("B", 2).cartan == ((2, -2), (-1, 2))
    assert rw.root_system("C", 2).cartan == ((2, -1), (-2, 2))
    assert rw.root_system("D", 3).cartan == ((2, -1, -1), (-1, 2, 0), (-1, 0, 2))
    for fam, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        rs = rw.root_system(fam, rank)
        for i in range(rank):
            assert rs.cartan[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert rs.cartan[i][j] <= 0


def test_root_system_hash_agrees_with_eq_and_caches_hit():
    a, b = rw.root_system("D", 4), rw.root_system("d", 4)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != rw.root_system("B", 4) and a != rw.root_system("D", 5)
    assert {a: "D_4"}[b] == "D_4"
    for cached in (rw.fundamental_weights, rw.positive_roots):
        first = cached(a)
        hits = cached.cache_info().hits
        assert cached(b) is first
        assert cached.cache_info().hits == hits + 1


def test_form_positive_definite_on_root_span():
    for fam, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4)):
        rs = rw.root_system(fam, rank)
        gram = mat(
            [[rs.form(a, b) for b in rs.simple_roots] for a in rs.simple_roots]
        )
        assert fraction_rank(gram) == rank


def test_reflect_examples():
    a2 = rw.root_system("A", 2)
    a1 = a2.simple_roots[0]
    assert rw.reflect(a2, a1, a1) == -a1
    w1 = rw.fundamental_weights(a2)[0]
    assert rw.reflect(a2, a1, w1) == w1 - a1
    # in the ambient coordinates of A_4, the first reflection swaps e_1, e_2
    a4 = rw.root_system("A", 4)
    e = [weight([1 if j == i else 0 for j in range(5)]) for i in range(5)]
    s1 = a4.simple_roots[0]
    assert rw.reflect(a4, s1, e[0]) == e[1]
    assert rw.reflect(a4, s1, e[1]) == e[0]
    for i in (2, 3, 4):
        assert rw.reflect(a4, s1, e[i]) == e[i]


def test_reflect_involutive_on_roots_and_weights():
    for fam, rank in (("A", 3), ("B", 2), ("C", 3), ("D", 4)):
        rs = rw.root_system(fam, rank)
        sample = list(rs.simple_roots) + list(rw.fundamental_weights(rs))
        for alpha in all_roots(rs):
            for mu in sample:
                assert rw.reflect(rs, alpha, rw.reflect(rs, alpha, mu)) == mu


def test_reflect_zero_norm_rejected():
    a2 = rw.root_system("A", 2)
    with pytest.raises(DegenerateRootError):
        rw.reflect(a2, weight([0, 0, 0]), a2.simple_roots[0])


def test_fundamental_weights_duality():
    for fam, rank in (("A", 4), ("B", 3), ("C", 2), ("D", 4)):
        rs = rw.root_system(fam, rank)
        fw = rw.fundamental_weights(rs)
        for i, w in enumerate(fw):
            for j, a in enumerate(rs.simple_roots):
                assert pairing(rs, w, a) == (1 if i == j else 0)


def _from_fundamental_oracle(rs, coeffs):
    """The formula from_fundamental replaced: a chain of Fraction vector sums."""
    w = weight([0] * rs.ambient_dim)
    for c, omega in zip(coeffs, rw.fundamental_weights(rs)):
        w = w + omega.scale(c)
    return w


def test_from_fundamental_matches_fraction_sums():
    checked = 0
    for fam in "ABCD":
        for rank in range(2 if fam == "D" else 1, 6):
            rs = rw.root_system(fam, rank)
            samples = list(itertools.product((0, 1, 2), repeat=rank))
            # rational coefficients take the same path, over their common denominator
            samples += [(frac(1, 2),) + (0,) * (rank - 1), (frac(-2, 3),) * rank, (1,) * (rank - 1) + (frac(5, 4),)]
            for coeffs in samples:
                lam, expected = rw.from_fundamental(rs, coeffs), _from_fundamental_oracle(rs, coeffs)
                assert lam == expected and repr(lam) == repr(expected) and lam.to_json() == expected.to_json()
                assert all(type(c) is Fraction for c in lam.coords)
                checked += 1
    assert checked == 1449 + 3 * 19
    with pytest.raises(PreconditionError, match="one coefficient per fundamental weight"):
        rw.from_fundamental(rw.root_system("B", 2), (1,))


def test_fundamental_weight_examples():
    a1 = rw.root_system("A", 1)
    assert rw.fundamental_weights(a1)[0] == a1.simple_roots[0].scale(frac(1, 2))
    a2 = rw.root_system("A", 2)
    expected = (a2.simple_roots[0].scale(2) + a2.simple_roots[1]).scale(frac(1, 3))
    assert rw.fundamental_weights(a2)[0] == expected
    # omega_1 = chi_1 - (1/n)(chi_1 + ... + chi_n) in epsilon-coordinates
    for n in (3, 4, 5):
        rs = rw.root_system("A", n - 1)
        chi1 = weight([1] + [0] * (n - 1))
        assert rw.fundamental_weights(rs)[0] == chi1 - rw.chi(rs)


def _dominant_representative(rs, mu):
    """The unique dominant weight in the W-orbit of mu, and the simple-reflection
    indices applied to mu to reach it, in order: reflect at any simple root
    pairing negatively until none does (terminates by length descent)."""
    current = mu
    word = []
    while True:
        for i, alpha in enumerate(rs.simple_roots):
            if rs.form(current, alpha) < 0:
                current = rw.reflect(rs, alpha, current)
                word.append(i)
                break
        else:
            return current, tuple(word)


def _replay(rs, word, mu):
    """Apply the simple reflections of word to mu, first index first."""
    for i in word:
        mu = rw.reflect(rs, rs.simple_roots[i], mu)
    return mu


def test_dominant_representative():
    a2 = rw.root_system("A", 2)
    fw = rw.fundamental_weights(a2)
    assert _dominant_representative(a2, fw[0]) == (fw[0], ())
    dom, word = _dominant_representative(a2, -fw[0])
    assert dom == fw[1] and len(word) == 2
    assert _replay(a2, word, -fw[0]) == fw[1]
    # lowest weight of the defining representation of A_3
    a3 = rw.root_system("A", 3)
    lowest = weight([0, 0, 0, 1]) - rw.chi(a3)
    dom, word = _dominant_representative(a3, lowest)
    assert dom == rw.fundamental_weights(a3)[0]
    assert len(word) == 3 and all(0 <= i < 3 for i in word)
    assert _replay(a3, word, lowest) == dom


def test_reflection_words_preserve_form():
    for fam, rank in (("A", 3), ("B", 2), ("D", 4)):
        rs = rw.root_system(fam, rank)
        fw = rw.fundamental_weights(rs)
        word = [0, rank - 1, 0, 1]
        sample = list(fw) + list(rs.simple_roots)
        for mu in sample:
            for nu in sample:
                assert rs.form(_replay(rs, word, mu), _replay(rs, word, nu)) == rs.form(mu, nu)
            # each simple reflection is an involution, so the reversed word undoes the word
            assert _replay(rs, word[::-1], _replay(rs, word, mu)) == mu


def test_weyl_orbit_counts():
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    zero = weight([0, 0, 0, 0])
    assert rw.weyl_orbit(a3, zero) == (zero,)
    assert len(rw.weyl_orbit(a3, fw[0])) == 4
    assert len(rw.weyl_orbit(a3, fw[0] + fw[2])) == 12
    # |W . omega_1| = n in A_{n-1} up to the rank guard
    for n in range(2, 7):
        rs = rw.root_system("A", n - 1)
        assert len(rw.weyl_orbit(rs, rw.fundamental_weights(rs)[0])) == n


def test_weyl_orbit_guard(monkeypatch):
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    monkeypatch.setattr(rw, "ORBIT_GUARD", 12)
    assert len(rw.weyl_orbit(a3, fw[0] + fw[2])) == 12
    monkeypatch.setattr(rw, "ORBIT_GUARD", 11)
    with pytest.raises(ResourceLimitError) as exc:
        rw.weyl_orbit(a3, fw[0] + fw[2])
    assert str(exc.value) == "Weyl orbit: 12 points exceed the limit 11"


def test_weight_set_guard(monkeypatch):
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    # the adjoint weight set: the 12 roots and 0
    monkeypatch.setattr(rw, "ORBIT_GUARD", 13)
    assert len(rw.weight_set(a3, fw[0] + fw[2])) == 13
    monkeypatch.setattr(rw, "ORBIT_GUARD", 12)
    with pytest.raises(ResourceLimitError) as exc:
        rw.weight_set(a3, fw[0] + fw[2])
    assert str(exc.value) == "weight set: 13 points exceed the limit 12"


def test_orbit_contains_unique_dominant():
    for fam, rank in (("A", 3), ("B", 2), ("C", 2)):
        rs = rw.root_system(fam, rank)
        fw = rw.fundamental_weights(rs)
        for lam in (fw[0], fw[0] + fw[rank - 1]):
            orbit = rw.weyl_orbit(rs, lam)
            dominants = [mu for mu in orbit if rs.is_dominant(mu)]
            assert dominants == [lam]
            for mu in orbit:
                dom, word = _dominant_representative(rs, mu)
                assert dom == lam and _replay(rs, word, mu) == lam


def test_dominance_leq():
    a2 = rw.root_system("A", 2)
    fw = rw.fundamental_weights(a2)
    zero = weight([0, 0, 0])
    assert dominance_leq(a2, fw[0], fw[0])
    assert dominance_leq(a2, zero, fw[0] + fw[1])
    assert not dominance_leq(a2, fw[0], fw[1])
    assert not dominance_leq(a2, fw[1], fw[0])
    # difference of 0 <= w1 + w2 is exactly a1 + a2
    coeffs = simple_root_coefficients(a2, fw[0] + fw[1])
    assert coeffs == (1, 1)


def _coefficients_oracle(rs, mu):
    """Coefficients of mu in the simple-root basis through the Gram inverse, or
    None when a normal of the simple-root span pairs nonzero with mu."""
    basis = mat([a.coords for a in rs.simple_roots])
    if any(linalg.dot(nu, mu.coords) != 0 for nu in nullspace(basis)):
        return None
    gram = mat([[linalg.dot(a, b) for b in basis] for a in basis])
    return mat_vec(mat_mul(mat_inv(gram), basis), mu.coords)


def _below_oracle(rs, mu, lam):
    """Dominance order through _coefficients_oracle."""
    coeffs = _coefficients_oracle(rs, lam - mu)
    return coeffs is not None and all(c >= 0 and c.denominator == 1 for c in coeffs)


def _weight_set_box_oracle(rs, lam):
    """Independent saturation oracle: enumerate the full coefficient box
    lam - sum c_i alpha_i and keep points whose dominant representative sits
    below lam in dominance order."""
    lowest, _ = _dominant_representative(rs, -lam)
    bounds = [int(c) for c in _coefficients_oracle(rs, lam + lowest)]
    out = set()
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        mu = lam
        for c, alpha in zip(combo, rs.simple_roots):
            if c:
                mu = mu - alpha.scale(c)
        plus, _ = _dominant_representative(rs, mu)
        if _below_oracle(rs, plus, lam):
            out.add(mu)
    return tuple(sorted(out))


def test_weight_set_examples_and_oracle():
    a1 = rw.root_system("A", 1)
    two_w1 = rw.fundamental_weights(a1)[0].scale(2)
    assert rw.weight_set(a1, two_w1) == (
        weight([-1, 1]),
        weight([0, 0]),
        weight([1, -1]),
    )
    a3 = rw.root_system("A", 3)
    fw = rw.fundamental_weights(a3)
    zero = weight([0, 0, 0, 0])
    assert rw.weight_set(a3, zero) == (zero,)
    adjoint = rw.weight_set(a3, fw[0] + fw[2])
    assert len(adjoint) == 13
    assert set(adjoint) == set(all_roots(a3)) | {zero}
    # agreement with the independent box-saturation oracle
    for rs, lam in (
        (a1, two_w1),
        (a3, fw[0] + fw[2]),
        (rw.root_system("B", 2), rw.fundamental_weights(rw.root_system("B", 2))[0].scale(2)),
        (rw.root_system("C", 2), rw.fundamental_weights(rw.root_system("C", 2))[1]),
    ):
        assert rw.weight_set(rs, lam) == _weight_set_box_oracle(rs, lam)


def test_weight_set_requires_dominant():
    a2 = rw.root_system("A", 2)
    with pytest.raises(PreconditionError):
        rw.weight_set(a2, -rw.fundamental_weights(a2)[0])


@pytest.mark.parametrize(
    "call",
    [
        lambda rs, mu: rs.labels(mu),
        lambda rs, mu: rs.is_dominant(mu),
        lambda rs, mu: rw.weyl_orbit(rs, mu),
        lambda rs, mu: rw.weight_set(rs, mu),
        lambda rs, mu: rw.dominant_weights_below(rs, mu),
    ],
    ids=["labels", "is_dominant", "weyl_orbit", "weight_set", "dominant_weights_below"],
)
def test_weights_of_another_dimension_are_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="^weight and root system differ in ambient dimension$"):
        call(rw.root_system("A", 2), weight((1, 0)))


def test_weight_set_invariants():
    for fam, rank, coeffs in (("A", 3, (1, 0, 1)), ("B", 2, (2, 0)), ("C", 3, (0, 1, 0))):
        rs = rw.root_system(fam, rank)
        lam = rw.from_fundamental(rs, coeffs)
        pi = set(rw.weight_set(rs, lam))
        # stability under every simple reflection
        for alpha in rs.simple_roots:
            assert {rw.reflect(rs, alpha, mu) for mu in pi} == pi
        # every member's dominant representative is below lam
        for mu in pi:
            plus, _ = _dominant_representative(rs, mu)
            assert dominance_leq(rs, plus, lam)


def test_extended_weights():
    a4 = rw.root_system("A", 4)
    fw = rw.fundamental_weights(a4)
    ext = rw.extended_weights(a4, fw[0])
    chis = tuple(sorted(weight([1 if j == i else 0 for j in range(5)]) for i in range(5)))
    assert ext == chis
    zero4 = weight([0, 0, 0, 0, 0])
    assert rw.extended_weights(a4, zero4) == (rw.chi(a4),)
    a3 = rw.root_system("A", 3)
    fw3 = rw.fundamental_weights(a3)
    assert len(rw.extended_weights(a3, fw3[0] + fw3[2])) == 13
    with pytest.raises(UnsupportedFamilyError):
        rw.extended_weights(rw.root_system("B", 2), rw.from_fundamental(rw.root_system("B", 2), (1, 0)))


def test_weight_arithmetic_and_json():
    w = weight([frac(1, 2), frac(-3)])
    assert w.to_json() == ["1/2", "-3"]
    assert (w + w).coords == (frac(1), frac(-6))
    assert (2 * w) == w + w
    assert (-w) + w == weight([0, 0])
    rs = rw.root_system("A", 2)
    assert rs.to_json() == {"family": "A", "rank": 2}


def test_rank_guard():
    with pytest.raises(ResourceLimitError) as exc:
        rw.root_system("A", 7)
    assert str(exc.value) == "root system rank 7 exceeds the limit 6"
    with pytest.raises(PreconditionError):
        rw.root_system("A", 0)


# -- the former Fraction kernels, kept as oracles ----------------------------


def _weyl_orbit_oracle(rs, mu):
    """BFS closure of mu under the simple reflections, in Fraction arithmetic."""
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for w in frontier:
            for alpha in rs.simple_roots:
                img = rw.reflect(rs, alpha, w)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


def _dominant_weights_below_oracle(rs, lam):
    """BFS downward from lam by positive roots, keeping the dominant weights."""
    positives = rw.positive_roots(rs)
    found = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta in positives:
                nu = mu - beta
                if nu not in found and rs.is_dominant(nu):
                    found.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return tuple(sorted(found))


def _weight_set_oracle(rs, lam):
    out = set()
    for mu in _dominant_weights_below_oracle(rs, lam):
        out.update(_weyl_orbit_oracle(rs, mu))
    return tuple(sorted(out))


ROOT_SYSTEMS = [(fam, rank) for fam in "ABCD" for rank in range(1, 5) if (fam, rank) != ("D", 1)]
# small and reproducible: the oracles cost up to ~0.1 s per example
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def rational_weights(draw):
    rs = rw.root_system(*draw(st.sampled_from(ROOT_SYSTEMS)))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coords = draw(st.lists(coord, min_size=rs.ambient_dim, max_size=rs.ambient_dim))
    return rs, Weight(tuple(coords))


@st.composite
def small_dominant_weights(draw):
    rs = rw.root_system(*draw(st.sampled_from(ROOT_SYSTEMS)))
    labels = draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank))
    return rs, rw.from_fundamental(rs, labels)


_A3 = rw.root_system("A", 3)


@PROPERTY_SETTINGS
@given(rational_weights())
# type A off the root span: chi + omega_1 + omega_3, and a shifted generic weight
@example((_A3, rw.chi(_A3) + rw.from_fundamental(_A3, (1, 0, 1))))
@example((_A3, weight([frac(5, 2), frac(1, 3), -1, 0])))
def test_weyl_orbit_matches_reflect_oracle(case):
    rs, mu = case
    assert rw.weyl_orbit(rs, mu) == _weyl_orbit_oracle(rs, mu)


@PROPERTY_SETTINGS
@given(small_dominant_weights())
def test_dominant_weights_below_matches_oracle(case):
    rs, lam = case
    assert rw.dominant_weights_below(rs, lam) == _dominant_weights_below_oracle(rs, lam)


@PROPERTY_SETTINGS
@given(small_dominant_weights())
def test_weight_set_matches_oracle(case):
    rs, lam = case
    fast = rw.weight_set(rs, lam)
    # the largest sets (B_4, C_4 at labels 2,2,2,2: ~30,000 points) take the oracle seconds
    assume(len(fast) <= 500)
    assert fast == _weight_set_oracle(rs, lam)


# -- the integer root datum against the Fraction pairing ----------------------

ALL_ROOT_SYSTEMS = [
    (fam, rank) for fam in "ABCD" for rank in range(2 if fam == "D" else 1, rw.RANK_GUARD + 1)
]


def _labels_oracle(rs, mu):
    return tuple(pairing(rs, mu, alpha) for alpha in rs.simple_roots)


def _is_dominant_oracle(rs, mu):
    return all(p >= 0 and p.denominator == 1 for p in _labels_oracle(rs, mu))


def _check_labels(rs, mu):
    labels = rs.labels(mu)
    assert labels == _labels_oracle(rs, mu)
    # exact, and int exactly where integral
    assert all((type(x) is int) == (Fraction(x).denominator == 1) for x in labels)
    assert rs.is_dominant(mu) == _is_dominant_oracle(rs, mu)


@pytest.mark.parametrize("fam,rank", ALL_ROOT_SYSTEMS)
def test_integer_datum_matches_pairings(fam, rank):
    rs = rw.root_system(fam, rank)
    for i, a in enumerate(rs.simple_roots):
        for j, b in enumerate(rs.simple_roots):
            assert rs.cartan[i][j] == int(pairing(rs, a, b))
    fw = rw.fundamental_weights(rs)
    sample = list(rs.simple_roots) + list(all_roots(rs)) + list(fw)
    sample += [sum(fw, Weight(zero_vec(rs.ambient_dim))), fw[0].scale(frac(1, 2)), fw[-1] - rs.simple_roots[0]]
    if fam == "A":
        sample += [rw.chi(rs), rw.chi(rs) + fw[0]]
    for mu in sample:
        _check_labels(rs, mu)
        assert simple_root_coefficients(rs, mu) == _coefficients_oracle(rs, mu)
    assert all(rs.is_dominant(om) for om in fw)


@pytest.mark.parametrize("fam,rank", ALL_ROOT_SYSTEMS)
def test_fundamental_weights_match_the_cartan_inverse(fam, rank):
    rs = rw.root_system(fam, rank)
    expected = fraction_fundamental_weights(rs)
    fw = rw.fundamental_weights(rs)
    assert fw == expected and repr(fw) == repr(expected)
    assert all(type(c) is Fraction for om in fw for c in om.coords)
    d, rows = rw._scaled_fundamental(rs)
    assert d == math.lcm(*(c.denominator for om in expected for c in om.coords))
    assert rows == tuple(tuple(int(d * c) for c in om.coords) for om in expected)


def _positive_root_count(fam, rank):
    """|Phi+|: l(l+1)/2 for A_l, l^2 for B_l and C_l, l(l-1) for D_l."""
    return {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank, "D": rank * (rank - 1)}[fam]


@pytest.mark.parametrize("fam,rank", ALL_ROOT_SYSTEMS)
def test_positive_roots_match_the_gram_coefficients(fam, rank):
    rs = rw.root_system(fam, rank)
    roots = all_roots(rs)
    expected = tuple(beta for beta in roots if min(_coefficients_oracle(rs, beta)) >= 0)
    assert len(expected) == _positive_root_count(fam, rank) and len(roots) == 2 * len(expected)
    assert rw.positive_roots(rs) == expected
    assert all(type(c) is Fraction for beta in rw.positive_roots(rs) for c in beta.coords)
    assert rw.positive_root_vectors(rs) == {tuple(map(int, beta.coords)) for beta in expected}
    for k in (8, 64):
        assert rw._positive_root_codes(rs, k) == tuple(rw._plain(rs.labels(beta), k) for beta in expected)


@st.composite
def half_integer_weights(draw):
    rs = rw.root_system(*draw(st.sampled_from(ALL_ROOT_SYSTEMS)))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2)))
    return rs, Weight(tuple(draw(st.lists(coord, min_size=rs.ambient_dim, max_size=rs.ambient_dim))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(half_integer_weights())
def test_labels_and_coefficients_match_oracles(case):
    rs, mu = case
    _check_labels(rs, mu)
    assert simple_root_coefficients(rs, mu) == _coefficients_oracle(rs, mu)


def test_simple_root_coefficients_outside_span():
    a3 = rw.root_system("A", 3)
    assert simple_root_coefficients(a3, rw.chi(a3)) is None
    assert _coefficients_oracle(a3, rw.chi(a3)) is None
    assert simple_root_coefficients(a3, weight([1, 0, 0, 0])) is None
    assert not dominance_leq(a3, weight([0, 0, 0, 0]), weight([1, 0, 0, 0]))


# -- the packed Dynkin-label codes --------------------------------------------


def test_lane_width_follows_the_label_bound():
    b2 = rw.root_system("B", 2)
    bounds = (0, 127, 128, 2**15 - 1, 2**15, 2**31, 2**63 - 1, 2**63, 2**200)
    widths = [rw._label_code(b2, bound).k for bound in bounds]
    assert widths == [8, 8, 16, 16, 32, 64, 64, 128, 256]


def test_codes_round_trip_at_the_lane_limits():
    for k in (8, 16, 32, 64, 128):
        code = rw._label_code(rw.root_system("C", 3), 2 ** (k - 1) - 1)
        assert code.k == k
        extreme = 2 ** (k - 1) - 1
        for labels in ((extreme, -extreme, 0), (-extreme - 1, 0, extreme), (0, 0, 0), (1, -1, 2)):
            x = rw._plain(labels, k) + code.top
            assert code.labels(x) == labels
            # the top bit of a lane is set exactly where its label is >= 0
            assert [bool(x >> (k * i + k - 1) & 1) for i in range(3)] == [c >= 0 for c in labels]


@pytest.mark.parametrize("a", [62, 63, 64, 126, 127, 128])
def test_a1_weight_sets_across_lane_widths(a):
    a1 = rw.root_system("A", 1)
    lam = rw.from_fundamental(a1, (a,))
    pi = rw.weight_set(a1, lam)
    assert pi == _weight_set_box_oracle(a1, lam)
    assert [a1.labels(mu)[0] for mu in pi] == list(range(-a, a + 1, 2))
    assert rw.weyl_orbit(a1, lam) == _weyl_orbit_oracle(a1, lam)


@pytest.mark.parametrize(
    "fam,labels,top",
    # the largest |label| on the orbit: 2 a + b in B_2, a + 2 b in C_2
    [
        ("B", (50, 40), 140),
        ("B", (100, 0), 200),
        ("B", (63, 1), 127),
        ("B", (64, 0), 128),
        ("C", (40, 50), 140),
        ("C", (0, 100), 200),
        ("C", (1, 63), 127),
        ("C", (0, 64), 128),
    ],
)
def test_rank_two_orbits_crossing_eight_bit_lanes(fam, labels, top):
    rs = rw.root_system(fam, 2)
    lam = rw.from_fundamental(rs, labels)
    orbit = rw.weyl_orbit(rs, lam)
    assert orbit == _weyl_orbit_oracle(rs, lam)
    assert max(abs(x) for mu in orbit for x in rs.labels(mu)) == top
    assert rw.weyl_orbit(rs, -lam) == orbit


@pytest.mark.parametrize("fam,labels", [("B", (64, 0)), ("C", (0, 64))])
def test_rank_two_weight_sets_crossing_eight_bit_lanes(fam, labels):
    rs = rw.root_system(fam, 2)
    lam = rw.from_fundamental(rs, labels)
    dominants = rw.dominant_weights_below(rs, lam)
    assert dominants == _dominant_weights_below_oracle(rs, lam)
    pi = rw.weight_set(rs, lam)
    assert max(abs(x) for mu in pi for x in rs.labels(mu)) == 128
    # the orbits of the small dominant weights take 8-bit lanes, the weight set 16-bit ones
    orbits = [w for mu in dominants for w in rw.weyl_orbit(rs, mu)]
    assert len(orbits) == len(pi) and set(orbits) == set(pi)


@pytest.mark.parametrize("fam,labels", [("A", (10**20,)), ("B", (3, 2**70)), ("C", (2**64, 2**63))])
def test_orbits_past_sixty_four_bit_lanes(fam, labels):
    rs = rw.root_system(fam, len(labels))
    lam = rw.from_fundamental(rs, labels)
    assert rw.weyl_orbit(rs, lam) == _weyl_orbit_oracle(rs, lam)
    assert rw.weyl_orbit(rs, lam.scale(frac(1, 3))) == _weyl_orbit_oracle(rs, lam.scale(frac(1, 3)))


@pytest.mark.parametrize(
    "fam,rank,coords",
    [
        ("A", 2, (frac(1, 2), frac(1, 3), 0)),
        ("B", 2, (frac(3, 4), frac(-1, 6))),
        ("C", 3, (frac(1, 5), frac(-2, 5), frac(7, 10))),
        ("D", 4, (frac(1, 2), frac(1, 3), frac(-1, 4), 0)),
    ],
)
def test_non_integral_weyl_orbits_match_reflect_oracle(fam, rank, coords):
    rs = rw.root_system(fam, rank)
    mu = weight(coords)
    assert any(type(x) is not int for x in rs.labels(mu))
    assert rw.weyl_orbit(rs, mu) == _weyl_orbit_oracle(rs, mu)


def _label_map_oracle(rs, labels, matrix):
    """weight_set_is_stable through Weights: the label vectors of Pi(lam),
    mapped by matrix."""
    pi = {rs.labels(mu) for mu in _weight_set_oracle(rs, rw.from_fundamental(rs, labels))}
    return {tuple(sum(a * b for a, b in zip(row, nu)) for row in matrix) for nu in pi} == pi


STABILITY_CASES = [
    ("B", 2, (1, 0), ((2, 0), (0, 2)), False),
    ("B", 2, (1, 0), ((0, 1), (1, 0)), False),  # not a diagram symmetry of B_2
    ("B", 2, (1, 0), ((1, 0), (0, 1)), True),
    ("B", 2, (1, 0), ((-1, 0), (0, -1)), True),  # -1 is in W(B_2)
    ("A", 2, (1, 0), ((0, 1), (1, 0)), False),  # Pi(omega_1) onto Pi(omega_2)
    ("A", 2, (1, 1), ((0, 1), (1, 0)), True),
    ("A", 1, (3,), ((100,),), False),  # images far outside Pi(lam)
    ("A", 1, (3,), ((-1,),), True),
    ("C", 3, (0, 1, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 0)), False),
    # the labels fit 8-bit lanes and their images need 16
    ("A", 1, (1,), ((257,),), False),  # 257 = 1 mod 2^8
    ("B", 2, (0, 22), ((-1, 0), (2, 1)), True),  # s_1 on labels
    ("B", 2, (0, 22), ((1, 0), (2, 1)), False),
    ("C", 2, (22, 0), ((1, 2), (-1, -1)), True),  # s_2 s_1 on labels
    # the label bound 2 * 62 + 2 = 126 fits 8-bit lanes, 2 * 63 + 2 = 128 does not
    ("A", 1, (62,), ((-1,),), True),
    ("A", 1, (63,), ((-1,),), True),
    # image lanes wider than 64 bits, which struct does not read
    ("A", 1, (1,), ((2**70,),), False),
    ("A", 1, (1,), ((2**64 + 1,),), False),  # 2^64 + 1 = 1 mod 2^64
    ("B", 2, (1, 0), ((1, 2**70), (0, 1)), False),
    ("C", 2, (1, 1), ((-(2**65), 0), (0, -1)), False),
]
# the lane width of each case above
STABILITY_LANES = [8, 8, 8, 8, 8, 8, 16, 8, 8, 16, 16, 16, 16, 8, 16, 128, 128, 128, 128]


@pytest.mark.parametrize("fam,rank,labels,matrix,stable", STABILITY_CASES)
def test_weight_set_is_stable(fam, rank, labels, matrix, stable):
    rs = rw.root_system(fam, rank)
    assert rw.weight_set_is_stable(rs, labels, matrix) is stable
    assert two_pass_weight_set_is_stable(rs, labels, matrix) is stable
    assert _label_map_oracle(rs, labels, matrix) is stable


@pytest.mark.parametrize("case,k", zip(STABILITY_CASES, STABILITY_LANES))
def test_weight_set_codes_carry_their_images(case, k):
    fam, rank, labels, matrix, _ = case
    rs = rw.root_system(fam, rank)
    code, points = rw._weight_set_codes(rs, labels, matrix)
    assert code.k == k
    # the low lanes hold Pi(lam), each point once, and the lanes above them its image
    low = (1 << rank * k) - 1
    pi = [code.labels(x & low) for x in points]
    assert sorted(pi) == sorted(rs.labels(mu) for mu in rw.weight_set(rs, rw.from_fundamental(rs, labels)))
    images = [code.labels(x >> rank * k) for x in points]
    assert images == [tuple(sum(map(mul, row, nu)) for row in matrix) for nu in pi]


def test_weight_set_is_stable_rejects_bad_input():
    b2 = rw.root_system("B", 2)
    with pytest.raises(PreconditionError, match="^need one Dynkin label per simple root$"):
        rw.weight_set_is_stable(b2, (1, 0, 0), ((1, 0), (0, 1)))
    with pytest.raises(PreconditionError, match="^need a rank x rank matrix on Dynkin labels$"):
        rw.weight_set_is_stable(b2, (1, 0), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(PreconditionError, match="^need a rank x rank matrix on Dynkin labels$"):
        rw.weight_set_is_stable(b2, (1, 0), ((1, 0),))
    for labels in ((-1, 0), (0, -1), (frac(1, 2), 0), (1.0, 0)):
        with pytest.raises(PreconditionError, match="^dominant_weights_below requires a dominant weight$"):
            rw.weight_set_is_stable(b2, labels, ((1, 0), (0, 1)))


@pytest.mark.parametrize("fam,rank", ALL_ROOT_SYSTEMS)
def test_orbit_sizes_from_parabolic_orders(fam, rank):
    rs = rw.root_system(fam, rank)
    fw = rw.fundamental_weights(rs)
    rho = sum(fw, Weight(zero_vec(rs.ambient_dim)))
    order = rw._weyl_group_order(rs.cartan, range(rank))
    assert rw._orbit_size(rs, rs.labels(rho)) == order
    if rank <= 5:  # |W(B_6)| = 46080 points would take the test most of a second
        assert len(rw.weyl_orbit(rs, rho)) == order
    for om in fw:
        assert rw._orbit_size(rs, rs.labels(om)) == len(rw.weyl_orbit(rs, om))


def _no_orbits(*args):
    raise AssertionError("an orbit was enumerated past the guard")


@pytest.mark.parametrize("fam,labels", [("A", (1, 0, 1)), ("B", (2, 0, 1)), ("C", (0, 2, 1)), ("D", (1, 0, 0, 1))])
def test_guards_name_the_exact_size_before_enumerating(monkeypatch, fam, labels):
    rs = rw.root_system(fam, len(labels))
    lam = rw.from_fundamental(rs, labels)
    pi, orbit = len(rw.weight_set(rs, lam)), len(rw.weyl_orbit(rs, lam))
    monkeypatch.setattr(rw, "_extend_by_orbit", _no_orbits)
    monkeypatch.setattr(rw, "ORBIT_GUARD", orbit - 1)
    with pytest.raises(ResourceLimitError) as exc:
        rw.weyl_orbit(rs, lam)
    assert str(exc.value) == f"Weyl orbit: {orbit} points exceed the limit {orbit - 1}"
    monkeypatch.setattr(rw, "ORBIT_GUARD", pi - 1)
    with pytest.raises(ResourceLimitError) as exc:
        rw.weight_set(rs, lam)
    assert str(exc.value) == f"weight set: {pi} points exceed the limit {pi - 1}"
