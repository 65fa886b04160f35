"""The checklist's own machinery: the table of checks and their default
cases, the one aggregation over cases, criterion 3's per-permutation
dot-criterion tables against the per-pair dot criterion, seeded faults, and
call counts that pin the per-permutation and integer designs of criteria 3
to 5."""

import itertools

import pytest

from symmon import finite_field as ff
from symmon import orbits as ob
from symmon import polytope as pt
from symmon import rook as rn
from symmon import verify
from symmon.errors import InvariantViolationError
from symmon.involution import InvolutionSpec
from symmon.rook import RookElement


def _perm_bruhat_leq_oracle(u, v):
    """Dot criterion for the symmetric-group Bruhat order, pair by pair:
    u <= v iff every northeast prefix count of u is dominated,
    |{t <= i : u(t) >= j}| <= |{t <= i : v(t) >= j}| for all i, j."""
    n = len(u)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cu = sum(1 for t in range(i) if u[t] >= j)
            cv = sum(1 for t in range(i) if v[t] >= j)
            if cu > cv:
                return False
    return True


# each row: the check, and the cases the default run gives it
DEFAULT_RUN = {
    "1 rook-monoid cardinality": (verify.rook_cardinality, (((2, 7, 34, 209),),)),
    "2 Bruhat decomposition disjointness": (verify.bruhat_decomposition, ((2, 2), (2, 3), (3, 2))),
    "3 Bruhat-Chevalley order gate": (verify.bruhat_order_gate, ((4,),)),
    "4 special weights catalog": (verify.special_weights, ((4,),)),
    "5 weight-set stability": (verify.weight_set_stability, ((4,),)),
    "6 figure polytopes": (verify.figure_polytopes, ((),)),
    "7 partial-involution parametrization": (verify.partial_involutions, ((1, 3, 2), (2, 3, 5), (3, 3, 14))),
    "8 partial-fpf parametrization": (verify.partial_fpf, ((3, 3, 4),)),
    "9 orbit invariants meet monomial closure": (
        verify.borel_meets_monomial_closure,
        ((2, 3, "sym"), (3, 3, "skew")),
    ),
    "10 symmetric submonoid": (verify.symmetric_submonoid, (("AI", 2, 3),)),
}


def test_criteria_table_pins_each_check_and_its_default_cases():
    assert [name for name, _ in verify.CRITERIA] == list(DEFAULT_RUN)
    for name, run in verify.CRITERIA:
        assert run.func is verify._each and not run.keywords, name
        assert run.args == DEFAULT_RUN[name], name


# the report of the default run, line by line
REPORT = [
    "[PASS] criterion 1 rook-monoid cardinality: |R_n| n=1..4: enumerated [2, 7, 34, 209], "
    "formula [2, 7, 34, 209], expected [2, 7, 34, 209]",
    "[PASS] criterion 2 Bruhat decomposition disjointness: Mat_2(F_2): 7 orbits (expected 7), mismatches 0; "
    "Mat_2(F_3): 7 orbits (expected 7), mismatches 0; Mat_3(F_2): 34 orbits (expected 34), mismatches 0",
    "[PASS] criterion 3 Bruhat-Chevalley order gate: S_n restriction vs dot-criterion oracle, n<=4: "
    "617 pairs, 0 mismatches",
    "[PASS] criterion 4 special weights catalog: 82 generators over the rank<=4 catalog; failures: none",
    "[PASS] criterion 5 weight-set stability: Pi(lambda) stability for 82 generators; failures: none",
    "[PASS] criterion 6 figure polytopes: adjoint orbit polytope f-vector (12, 24, 14) (expected (12, 24, 14)); "
    "defining-rep polytope 5 vertices (expected 5); containment True/True",
    "[PASS] criterion 7 partial-involution parametrization: "
    "n=1: constant True, invariants 2 (expected 2), total True, fixes parametrizers True; "
    "n=2: constant True, invariants 5 (expected 5), total True, fixes parametrizers True; "
    "n=3: constant True, invariants 14 (expected 14), total True, fixes parametrizers True",
    "[PASS] criterion 8 partial-fpf parametrization: Skew_3(F_3): 4 orbits vs 4 parametrizers; "
    "witnesses normalize onto all parametrizers: True",
    "[PASS] criterion 9 orbit invariants meet monomial closure: (2,3,sym): True; (3,3,skew): True",
    "[PASS] criterion 10 symmetric submonoid: |M^an| = 8: contains identity True, product-closed True, "
    "invertible part equals theta-fixed subgroup True",
]


def test_default_run_prints_the_pinned_report():
    assert verify.run_all() == (True, "".join(line + "\n" for line in REPORT))


def test_a_criterion_fails_when_one_case_fails(monkeypatch):
    monkeypatch.setattr(ob, "verify_borel_meets_closure_N", lambda n, q, form: (n, q, form) != (3, 3, "skew"))
    assert verify.CRITERIA[8][1]() == (False, "(2,3,sym): True; (3,3,skew): False")


@pytest.mark.parametrize("n,comparable", [(1, 1), (2, 3), (3, 19), (4, 213), (5, 3781)])
def test_dot_count_tables_match_the_pairwise_oracle(n, comparable):
    perms = list(itertools.permutations(range(1, n + 1)))
    tables = {u: verify._dot_counts(u) for u in perms}
    below = 0
    for u in perms:
        assert len(tables[u]) == n * n
        for v in perms:
            leq = all(a <= b for a, b in zip(tables[u], tables[v]))
            assert leq is _perm_bruhat_leq_oracle(u, v), (u, v)
            assert leq is rn.bruhat_leq(rn.from_permutation(u), rn.from_permutation(v))
            below += leq
    # the comparable pairs u <= v of S_n (OEIS A007767)
    assert below == comparable


def test_criterion_3_reports_a_seeded_fault(monkeypatch):
    real = rn.bruhat_leq
    flipped = (rn.from_permutation((2, 1, 3)), rn.from_permutation((1, 3, 2)))

    def faulty(x, y):
        return (not real(x, y)) if (x, y) == flipped else real(x, y)

    monkeypatch.setattr(rn, "bruhat_leq", faulty)
    ok, detail = verify.bruhat_order_gate(4)
    assert not ok
    assert detail == "S_n restriction vs dot-criterion oracle, n<=4: 617 pairs, 1 mismatches"


def test_criterion_3_builds_one_rook_element_per_permutation(monkeypatch):
    calls = []
    original = RookElement.__post_init__

    def counted(self):
        calls.append(self.map)
        original(self)

    monkeypatch.setattr(RookElement, "__post_init__", counted)
    ok, detail = verify.bruhat_order_gate(4)
    assert ok and detail.endswith("617 pairs, 0 mismatches")
    assert len(calls) == 33 == len(set(calls))


@pytest.mark.parametrize("criterion", [verify.special_weights, verify.weight_set_stability])
def test_criteria_4_and_5_make_no_apply_star_calls(monkeypatch, criterion):
    calls = []
    original = InvolutionSpec.apply_star

    def counted(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(InvolutionSpec, "apply_star", counted)
    ok, _ = criterion(4)
    assert ok and calls == []


def test_criterion_2_reports_a_wrong_rook(monkeypatch):
    real = ff.bruhat_factor
    target = ff.identity_matrix(2, 3)

    def faulty(m):
        fac = real(m)
        return fac._replace(r=rn.from_permutation((2, 1))) if m == target else fac

    monkeypatch.setattr(ff, "bruhat_factor", faulty)
    ok, detail = verify.CRITERIA[1][1]()
    assert not ok
    assert detail == (
        "Mat_2(F_2): 7 orbits (expected 7), mismatches 0; Mat_2(F_3): 7 orbits (expected 7), mismatches 1; "
        "Mat_3(F_2): 34 orbits (expected 34), mismatches 0"
    )


def test_criterion_2_reports_two_orbits_with_one_rook(monkeypatch):
    real = ff.bruhat_factor
    zero = real(ff.fq_matrix(3, [[0, 0], [0, 0]])).r

    def faulty(m):
        fac = real(m)
        return fac._replace(r=zero) if m.rank() == 1 else fac

    monkeypatch.setattr(ff, "bruhat_factor", faulty)
    ok, detail = verify.bruhat_decomposition(2, 3)
    assert not ok
    # five orbits share the zero rook: the first keeps it, the other four are mismatches
    assert detail == "Mat_2(F_3): 7 orbits (expected 7), mismatches 4"


def test_criterion_7_reports_a_kernel_that_raises(monkeypatch):
    real = ob.invariant_to_partial_involution
    bad = ob.rank_control(ff.identity_matrix(3, 3))

    def faulty(rc):
        if rc == bad:
            raise InvariantViolationError("seeded fault")
        return real(rc)

    monkeypatch.setattr(ob, "invariant_to_partial_involution", faulty)
    ok, detail = verify.CRITERIA[6][1]()
    assert not ok
    assert detail.split("; ") == [
        "n=1: constant True, invariants 2 (expected 2), total True, fixes parametrizers True",
        "n=2: constant True, invariants 5 (expected 5), total True, fixes parametrizers True",
        "n=3: constant True, invariants 14 (expected 14), total False, fixes parametrizers False",
    ]


def test_criterion_6_reports_a_wrong_f_vector(monkeypatch):
    monkeypatch.setattr(pt, "f_vector", lambda polytope: (12, 24, 13))
    assert verify.CRITERIA[5][1]() == (
        False,
        "adjoint orbit polytope f-vector (12, 24, 13) (expected (12, 24, 14)); "
        "defining-rep polytope 5 vertices (expected 5); containment True/True",
    )


def test_criterion_8_reports_a_witness_off_its_parametrizer(monkeypatch):
    real = ob.invariant_to_partial_fpf
    zero = real(ob.rank_control(ff.fq_matrix(3, [[0] * 3] * 3)))
    monkeypatch.setattr(ob, "invariant_to_partial_fpf", lambda rc: zero)
    assert verify.CRITERIA[7][1]() == (
        False,
        "Skew_3(F_3): 4 orbits vs 4 parametrizers; witnesses normalize onto all parametrizers: False",
    )


def test_criterion_10_reports_a_stray_unit(monkeypatch):
    real = ob.is_in_symmetric_submonoid
    stray = ff.fq_matrix(3, [[1, 1], [0, 1]])  # m m^T != 1, and m^2 is not in M^an either
    monkeypatch.setattr(ob, "is_in_symmetric_submonoid", lambda m, spec: m == stray or real(m, spec))
    assert verify.CRITERIA[9][1]() == (
        False,
        "|M^an| = 9: contains identity True, product-closed False, invertible part equals theta-fixed subgroup False",
    )
