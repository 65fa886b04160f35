import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    borel_size,
    identity_rook,
    is_symmetric,
    is_upper_triangular,
    partial_involution_of_rank_control,
    rook_rank,
    twisted_action,
    zero_matrix,
    zero_rook,
)

from symmon import finite_field as ff
from symmon import involution as iv
from symmon import orbits as ob
from symmon import rook as rn
from symmon.errors import InvariantViolationError, PreconditionError, ResourceLimitError
from symmon.rook import RookElement

AI2 = iv.involution_spec("AI", 2)
AI3 = iv.involution_spec("AI", 3)


def test_tau_examples():
    zero = zero_matrix(2, 3)
    assert ob.tau(zero, AI2) == zero
    e12 = ff.fq_matrix(3, [[0, 1], [0, 0]])
    e11 = ff.fq_matrix(3, [[1, 0], [0, 0]])
    assert ob.tau(e12, AI2) == e11
    for g in ff.enumerate_matrices(2, 3):
        if g.is_invertible():
            t = ob.tau(g, AI2)
            assert t == g @ g.transpose()
            assert is_symmetric(t) and t.is_invertible()


def test_is_in_MQ():
    sym = ff.fq_matrix(3, [[1, 2], [2, 0]])
    assert ff.theta_an(sym, AI2) == sym
    e12 = ff.fq_matrix(3, [[0, 1], [0, 0]])
    assert ff.theta_an(e12, AI2) != e12
    # tau always lands in M_Q, the fixed locus of theta_an, exhaustively at n = 2, q = 3
    for m in ff.enumerate_matrices(2, 3):
        t = ob.tau(m, AI2)
        assert ff.theta_an(t, AI2) == t


def test_symmetric_submonoid():
    assert ob.is_in_symmetric_submonoid(ff.identity_matrix(2, 3), AI2)
    for m in ff.enumerate_matrices(2, 3):
        if not m.is_invertible():
            assert not ob.is_in_symmetric_submonoid(m, AI2)
    man = [m for m in ff.enumerate_matrices(2, 3) if ob.is_in_symmetric_submonoid(m, AI2)]
    man_set = set(man)
    for x in man:
        for y in man:
            assert (x @ y) in man_set


def test_rank_control_examples():
    zero = zero_matrix(2, 3)
    assert all(e == 0 for row in ob.rank_control(zero).rho for e in row)
    i2 = ff.identity_matrix(2, 3)
    assert [row[:2] for row in ob.rank_control(i2).rho[:2]] == [(2, 1), (1, 1)]
    swap = ff.fq_matrix(3, [[0, 1], [1, 0]])
    assert [row[:2] for row in ob.rank_control(swap).rho[:2]] == [(2, 1), (1, 0)]
    # weakly decreasing in both directions, steps at most 1
    for m in ff.enumerate_symmetric(2, 3):
        rho = ob.rank_control(m).rho
        n = len(rho) - 1
        for i in range(n):
            for j in range(n):
                assert rho[i][j] >= rho[i + 1][j] >= 0
                assert rho[i][j] >= rho[i][j + 1] >= 0
                assert rho[i][j] - rho[i + 1][j] <= 1
                assert rho[i][j] - rho[i][j + 1] <= 1


@functools.cache
def _rank(rows, q):
    return len(ff.row_reduce([list(row) for row in rows], q)[1])


def _rank_control_oracle(a):
    """rank_control by its definition: one reduction per trailing submatrix,
    cached by the submatrix, which exhaustive spaces share between matrices."""
    n = a.n
    rho = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        rows = a.rows[i:]
        for j in range(n):
            rho[i][j] = _rank(tuple([row[j:] for row in rows]), a.q)
    return ob.RankControl(tuple(tuple(r) for r in rho))


@pytest.mark.parametrize(
    "space",
    [
        lambda: ff.enumerate_matrices(3, 2),
        lambda: ff.enumerate_symmetric(3, 5),
        lambda: ff.enumerate_skew(4, 3),
    ],
    ids=["Mat_3(F_2)", "Sym_3(F_5)", "Skew_4(F_3)"],
)
def test_rank_control_matches_oracle_exhaustive(space):
    for m in space():
        assert ob.rank_control(m) == _rank_control_oracle(m)


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
MODULI = st.sampled_from((5, 7))
SIZES = st.integers(0, 6)


@st.composite
def fq_matrices(draw, moduli=MODULI, sizes=SIZES):
    """Dense, sparse (at most n nonzero entries) or singular (last row a
    combination of the others) n x n matrices, by default n <= 6 over F_5
    or F_7."""
    q, n = draw(moduli), draw(sizes)
    cells = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("dense", "sparse", "singular"))) if n else "dense"
    if kind == "sparse":
        keep = draw(st.sets(st.integers(0, n * n - 1), max_size=n))
        rows = [[e if i * n + j in keep else 0 for j, e in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == "singular":
        coeffs = draw(st.lists(cells, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n)]
    return ff.fq_matrix(q, rows)


@st.composite
def borel_and_symmetric(draw):
    """A random invertible upper-triangular b and a random symmetric A."""
    q, n = draw(MODULI), draw(SIZES)
    b = [[0] * n for _ in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = draw(st.integers(1, q - 1))
        for j in range(i, n):
            if j > i:
                b[i][j] = draw(st.integers(0, q - 1))
            a[i][j] = a[j][i] = draw(st.integers(0, q - 1))
    return ff.fq_matrix(q, b), ff.fq_matrix(q, a)


@PROPERTY_SETTINGS
@given(fq_matrices(st.sampled_from((2, 3, 5, 7)), st.integers(0, 8)))
def test_rank_control_matches_oracle(m):
    assert ob.rank_control(m) == _rank_control_oracle(m)


def test_rank_control_byte_bound_matches_oracle():
    """n = 16 over F_7.  A reversed row 1, 6, ..., 6 reduced by an equal basis
    row reaches the kernel's largest byte, 6 + 6 * 6 = 42."""
    q, n = 7, 16
    rng = random.Random(16)
    sixes = ff.fq_matrix(q, [[6] * (n - 1) + [1]] * n)
    top = ff.fq_matrix(q, [[6] * n] * n)
    dense = ff.fq_matrix(q, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
    mixed = ff.fq_matrix(q, [[6] * (n - 1 - i) + [rng.randrange(1, q)] * (i + 1) for i in range(n)])
    for a in (sixes, top, dense, dense.transpose(), mixed):
        assert ob.rank_control(a) == _rank_control_oracle(a)


@PROPERTY_SETTINGS
@given(borel_and_symmetric())
def test_rank_control_invariant_under_random_borel_congruence(ba):
    b, a = ba
    assert ob.rank_control(b @ a @ b.transpose()) == ob.rank_control(a)


@PROPERTY_SETTINGS
@given(fq_matrices())
def test_bruhat_factor_recomposes_on_random_matrices(m):
    fac = ff.bruhat_factor(m)
    assert fac.product() == m
    assert fac.pattern_ok()
    assert rook_rank(fac.r) == m.rank()


def test_rank_control_invariant_under_borel_congruence():
    for n, form in ((2, "sym"), (3, "sym"), (2, "skew"), (3, "skew")):
        space = tuple(
            ff.enumerate_symmetric(n, 3) if form == "sym" else ff.enumerate_skew(n, 3)
        )
        for b in ff.borel_generators(n, 3):
            for a in space:
                assert ob.rank_control(b @ a @ b.transpose()) == ob.rank_control(a)


def test_invariant_to_partial_involution_examples():
    i2 = ff.identity_matrix(2, 3)
    assert ob.invariant_to_partial_involution(ob.rank_control(i2)) == identity_rook(2)
    ones = ff.fq_matrix(3, [[1, 1], [1, 1]])
    assert ob.invariant_to_partial_involution(ob.rank_control(ones)) == RookElement((0, 2))
    # explicit congruence witness: b E22 b^T = all-ones for b = [[1,1],[0,1]]
    b = ff.fq_matrix(3, [[1, 1], [0, 1]])
    e22 = ff.fq_matrix(3, [[0, 0], [0, 1]])
    assert b @ e22 @ b.transpose() == ones


def test_pipeline_fixes_partial_involutions():
    for n in (1, 2, 3):
        for p in rn.symmetric_rook_elements(n):
            m = ff.from_rook(p, 3)
            assert ob.invariant_to_partial_involution(ob.rank_control(m)) == p


def test_invariant_total_on_symmetric_inputs():
    for q in (3, 5):
        for n in (1, 2, 3):
            for m in ff.enumerate_symmetric(n, q):
                ob.invariant_to_partial_involution(ob.rank_control(m))


def _checked(r):
    """r, after the validation that the unchecked builder skips, with nothing
    but its map stored."""
    assert type(r) is RookElement and type(r.map) is tuple and tuple(r) == (r.map,) and vars(r) == {}
    return RookElement(r.map)


def test_unchecked_rook_outputs_equal_validated_elements():
    for n, q in ((1, 3), (2, 3), (3, 2)):
        for m in ff.enumerate_matrices(n, q):
            r = ff.bruhat_factor(m).r
            assert _checked(r) == r
    for q in (3, 5):
        for n in (1, 2, 3):
            for m in ff.enumerate_symmetric(n, q):
                p = ob.invariant_to_partial_involution(ob.rank_control(m))
                assert _checked(p) == p
    for n in range(1, 5):
        for r in rn.enumerate_rook(n):
            t = r.transpose()
            assert _checked(t) == t and _checked(t.transpose()) == r


def test_invariant_injective_on_partial_involutions():
    for n in (2, 3, 4):
        seen = {}
        for p in rn.symmetric_rook_elements(n):
            rc = ob.rank_control(ff.from_rook(p, 3))
            assert rc not in seen
            seen[rc] = p


def test_invariant_violation_detected():
    e12 = ff.fq_matrix(3, [[0, 1], [0, 0]])  # not symmetric: recovers E12 only
    with pytest.raises(InvariantViolationError):
        ob.invariant_to_partial_involution(ob.rank_control(e12))


def _rank_control_with_cells(cells):
    """The RankControl whose inclusion-exclusion array is cells: rho[i][j]
    sums cells over the trailing block [i.., j..]."""
    n = len(cells)
    rho = [[0] * (n + 1) for _ in range(n + 1)]
    for i in reversed(range(n)):
        for j in reversed(range(n)):
            rho[i][j] = cells[i][j] + rho[i + 1][j] + rho[i][j + 1] - rho[i + 1][j + 1]
    return ob.RankControl(tuple(map(tuple, rho)))


@pytest.mark.parametrize(
    "cells,message",
    [
        ([[2]], "rank control is not of rook type"),
        ([[0, 1], [0, 0]], "recovered array is not symmetric"),
        ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], "recovered array is not a partial permutation"),
        ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], "rank control is not of rook type"),
        # when several tests fail, the first in this order is reported
        ([[0, 1, 0], [0, 0, 0], [0, 0, 2]], "rank control is not of rook type"),
        ([[0, 1, 1], [1, 0, 0], [0, 0, 0]], "recovered array is not symmetric"),
        ([[1, 1, 0], [1, 0, 0], [0, 1, 0]], "recovered array is not symmetric"),
    ],
)
def test_invariant_violation_messages(cells, message):
    with pytest.raises(InvariantViolationError) as exc:
        ob.invariant_to_partial_involution(_rank_control_with_cells(cells))
    assert str(exc.value) == message


def _outcome(recover, rc):
    """The rook element recover(rc) returns, or the class and message of
    the InvariantViolationError it raises."""
    try:
        return recover(rc)
    except InvariantViolationError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("form", ["sym", "skew"])
def test_invariant_matches_cell_oracle_on_every_rank_control(form):
    """Every rank control of Sym_n(F_3) or Skew_n(F_3), n <= 4: the step
    lookup and the cell-by-cell oracle recover the same rook element."""
    for n in range(5):
        space = ff.enumerate_symmetric(n, 3) if form == "sym" else ff.enumerate_skew(n, 3)
        for rc in {ob.rank_control(a) for a in space}:
            want = partial_involution_of_rank_control(rc)
            assert ob.invariant_to_partial_involution(rc) == want and want.is_symmetric()


def _malformed_rank_control(rng, involutions):
    """The rank control of a partial involution's array, with a seeded
    fault: an entry outside {0, 1}, a flipped cell (an asymmetric array, or
    two 1s in a row), a symmetric pair of cells set to 1 (two 1s in a row
    when it had one), or none; and then, half the time, each row of rho
    raised by its own constant, so that the differences are no longer zero
    at j = n."""
    n = rng.randint(1, 5)
    cells = [list(row) for row in rng.choice(involutions[n]).zero_one_rows()]
    i, j = rng.randrange(n), rng.randrange(n)
    fault = rng.choice(("entry", "flip", "pair", "none"))
    if fault == "entry":
        cells[i][j] = rng.choice((-1, 2, 3))
    elif fault == "flip":
        cells[i][j] ^= 1
    elif fault == "pair":
        cells[i][j] = cells[j][i] = 1
    rho = _rank_control_with_cells(cells).rho
    if rng.random() < 0.5:
        rho = tuple(tuple(r + k for r in row) for row, k in zip(rho, [rng.randrange(3) for _ in range(n)] + [0]))
    return ob.RankControl(rho)


def test_invariant_matches_cell_oracle_on_malformed_rank_controls():
    rng = random.Random(26)
    involutions = [rn.symmetric_rook_elements(n) for n in range(6)]
    outcomes = set()
    for _ in range(2000):
        rc = _malformed_rank_control(rng, involutions)
        got = _outcome(ob.invariant_to_partial_involution, rc)
        assert got == _outcome(partial_involution_of_rank_control, rc), rc
        d_at_n = any(x[-1] != y[-1] for x, y in zip(rc.rho, rc.rho[1:]))
        outcomes.add(("recovered" if isinstance(got, RookElement) else got[1], d_at_n))
    messages = ("rank control is not of rook type", "recovered array is not symmetric")
    messages += ("recovered array is not a partial permutation", "recovered")
    assert outcomes == {(message, d_at_n) for message in messages for d_at_n in (False, True)}


def test_invariant_to_partial_fpf_examples():
    zero = zero_matrix(3, 3)
    assert ob.invariant_to_partial_fpf(ob.rank_control(zero)) == zero_rook(3)
    sk = ff.fq_matrix(3, [[0, 1], [2, 0]])
    assert ob.invariant_to_partial_fpf(ob.rank_control(sk)) == RookElement((2, 1))
    outputs = {
        ob.invariant_to_partial_fpf(ob.rank_control(m)) for m in ff.enumerate_skew(3, 3)
    }
    assert outputs == set(rn.symmetric_rook_elements(3, fpf=True))
    with pytest.raises(InvariantViolationError):
        ob.invariant_to_partial_fpf(ob.rank_control(ff.identity_matrix(2, 3)))


def test_census_skew():
    report = ob.twisted_orbit_census(3, 3, "skew")
    assert report.orbit_count == 4
    assert report.expected_parametrizer_count == 4
    assert report.match
    assert len(report.witnesses) == 4


def test_census_sym():
    report = ob.twisted_orbit_census(2, 3, "sym")
    assert report.invariant_values == 5
    assert report.expected_parametrizer_count == 5
    assert report.orbit_count >= 5
    assert report.match
    report1 = ob.twisted_orbit_census(1, 3, "sym")
    assert report1.invariant_values == 2


def test_census_sym4_f3_frontier():
    report = ob.twisted_orbit_census(4, 3, "sym")
    assert report.orbit_count == 138
    assert report.invariant_values == 43 == report.expected_parametrizer_count
    assert report.match


@pytest.mark.parametrize("n,q", [(n, 3) for n in (1, 2, 3, 4)] + [(n, q) for q in (5, 7) for n in (2, 3)])
def test_rank_control_classes_split_into_two_to_the_fixed_points(n, q):
    # over F_q the B-orbits of a rank-control class x are counted by H^1 of
    # its stabilizer, one mu_2 per fixed point: 2^f(x) orbits of one size.
    # An oracle on the engine past the BFS range (Sym_4(F_3), Sym_3(F_7)).
    decode = ff._decoder(n, q)
    sizes = {}
    for orbit in ff._borel_orbit_codes(n, q, "sym"):
        x = ob.invariant_to_partial_involution(ob.rank_control(decode(orbit[0])))
        sizes.setdefault(x, []).append(len(orbit))
    assert set(sizes) == set(rn.symmetric_rook_elements(n))
    for x, class_sizes in sizes.items():
        fixed = sum(1 for i, j in enumerate(x.map, 1) if i == j)
        assert len(class_sizes) == 2**fixed and len(set(class_sizes)) == 1
    assert sum(map(len, sizes.values())) == {1: 3, 2: 10, 3: 36, 4: 138}[n]


def test_census_skew5_f3_frontier():
    report = ob.twisted_orbit_census(5, 3, "skew")
    assert report.orbit_count == 26 == report.expected_parametrizer_count
    assert report.match
    recovered = {ob.invariant_to_partial_fpf(ob.rank_control(w)) for w in report.witnesses}
    assert recovered == set(rn.symmetric_rook_elements(5, fpf=True))


@pytest.mark.parametrize(
    "form,n,q",
    [(form, n, q) for form in ("sym", "skew") for n in (1, 2, 3) for q in (3, 5, 7)] + [("skew", 4, 3)],
)
def test_census_witnesses_are_the_orbit_representatives(form, n, q):
    # the census decodes only each orbit's first code
    report = ob.twisted_orbit_census(n, q, form)
    orbits = ff.borel_orbits(n, q, form)
    assert report.witnesses == tuple(o[0] for o in orbits)
    assert report.orbit_count == len(orbits)


def test_census_work_guard_runs_before_the_decoder(monkeypatch):
    # a decoder has q^n row vectors, so building it first would not fail fast
    def no_decoder(n, q):
        raise AssertionError("decoder built before the work guard")

    monkeypatch.setattr(ff, "_decoder", no_decoder)
    with pytest.raises(ResourceLimitError, match=r"3\^5050 points x 199 generators"):
        ob.twisted_orbit_census(100, 3, "sym")


def test_census_rejects_even_characteristic():
    with pytest.raises(PreconditionError):
        ob.twisted_orbit_census(2, 2, "sym")
    with pytest.raises(PreconditionError):
        ob.twisted_orbit_census(2, 3, "hermitian")


def test_census_serialization():
    report = ob.twisted_orbit_census(2, 3, "sym")
    data = json.loads(report.to_json_str())
    assert data["orbit_count"] == report.orbit_count
    assert data["match"] is True
    row = report.csv_row()
    assert row.startswith("Sym2,")
    assert report.CSV_HEADER.count(",") == row.count(",")


def test_borel_meets_monomial_closure():
    assert ob.verify_borel_meets_closure_N(1, 3, "sym")
    assert ob.verify_borel_meets_closure_N(2, 3, "sym")
    assert ob.verify_borel_meets_closure_N(3, 3, "skew")
    with pytest.raises(PreconditionError):
        ob.verify_borel_meets_closure_N(2, 2, "sym")


def test_twisted_equivariance_of_tau_at_invariant_level():
    borel = [b for b in ff.enumerate_matrices(2, 3) if is_upper_triangular(b) and b.is_invertible()]
    assert len(borel) == borel_size(2, 3)
    for b in borel:
        for a in ff.enumerate_matrices(2, 3):
            lhs = ob.rank_control(ob.tau(b @ a, AI2))
            rhs = ob.rank_control(twisted_action(b, ob.tau(a, AI2), AI2))
            assert lhs == rhs


def test_unrealized_family_rejected():
    ci = iv.involution_spec("CI", 2)
    with pytest.raises(Exception):
        ob.tau(ff.identity_matrix(2, 3), ci)
