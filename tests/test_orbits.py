import json

import pytest

from symmon import finite_field as ff
from symmon import involution as iv
from symmon import orbits as ob
from symmon import rook as rn
from symmon.errors import InvariantViolationError, PreconditionError
from symmon.rook import RookElement

AI2 = iv.involution_spec("AI", 2)
AI3 = iv.involution_spec("AI", 3)


def test_tau_examples():
    zero = ff.zero_matrix(2, 3)
    assert ob.tau(zero, AI2) == zero
    e12 = ff.fq_matrix(3, [[0, 1], [0, 0]])
    e11 = ff.fq_matrix(3, [[1, 0], [0, 0]])
    assert ob.tau(e12, AI2) == e11
    for g in ff.enumerate_matrices(2, 3):
        if g.is_invertible():
            t = ob.tau(g, AI2)
            assert t == g @ g.transpose()
            assert t.is_symmetric() and t.is_invertible()


def test_is_in_MQ():
    sym = ff.fq_matrix(3, [[1, 2], [2, 0]])
    assert ob.is_in_MQ(sym, AI2)
    e12 = ff.fq_matrix(3, [[0, 1], [0, 0]])
    assert not ob.is_in_MQ(e12, AI2)
    # tau always lands in M_Q, exhaustively at n = 2, q = 3
    for m in ff.enumerate_matrices(2, 3):
        assert ob.is_in_MQ(ob.tau(m, AI2), AI2)


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
    zero = ff.zero_matrix(2, 3)
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
    assert ob.invariant_to_partial_involution(ob.rank_control(i2)) == rn.identity_rook(2)
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


def test_invariant_to_partial_fpf_examples():
    zero = ff.zero_matrix(3, 3)
    assert ob.invariant_to_partial_fpf(ob.rank_control(zero)) == rn.zero_rook(3)
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


def test_census_skew5_f3_frontier():
    report = ob.twisted_orbit_census(5, 3, "skew")
    assert report.orbit_count == 26 == report.expected_parametrizer_count
    assert report.match
    recovered = {ob.invariant_to_partial_fpf(ob.rank_control(w)) for w in report.witnesses}
    assert recovered == set(rn.symmetric_rook_elements(5, fpf=True))


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
    for b in ff.enumerate_borel(2, 3):
        for a in ff.enumerate_matrices(2, 3):
            lhs = ob.rank_control(ob.tau(b @ a, AI2))
            rhs = ob.rank_control(ff.twisted_action(b, ob.tau(a, AI2), AI2))
            assert lhs == rhs


def test_unrealized_family_rejected():
    ci = iv.involution_spec("CI", 2)
    with pytest.raises(Exception):
        ob.tau(ff.identity_matrix(2, 3), ci)
