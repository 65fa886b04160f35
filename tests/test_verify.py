"""The checklist's own machinery: criterion 3's per-permutation dot-criterion
tables against the per-pair dot criterion, seeded faults, and call counts
that pin the per-permutation and integer designs of criteria 3 to 5."""

import itertools

import pytest

from symmon import rook as rn
from symmon import verify
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
    ok, detail = verify.criterion_3_bruhat_order_gate()
    assert not ok
    assert detail == "S_n restriction vs dot-criterion oracle, n<=4: 617 pairs, 1 mismatches"


def test_criterion_3_builds_one_rook_element_per_permutation(monkeypatch):
    calls = []
    original = RookElement.__post_init__

    def counted(self):
        calls.append(self.map)
        original(self)

    monkeypatch.setattr(RookElement, "__post_init__", counted)
    ok, detail = verify.criterion_3_bruhat_order_gate()
    assert ok and detail.endswith("617 pairs, 0 mismatches")
    assert len(calls) == 33 == len(set(calls))


@pytest.mark.parametrize("criterion", [verify.criterion_4_special_weights, verify.criterion_5_weight_set_stability])
def test_criteria_4_and_5_make_no_apply_star_calls(monkeypatch, criterion):
    calls = []
    original = InvolutionSpec.apply_star

    def counted(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(InvolutionSpec, "apply_star", counted)
    ok, _ = criterion()
    assert ok and calls == []
