import itertools
import json

import pytest
from oracles import (
    conjugates_of_cross_section,
    cross_section,
    diagonal_idempotents,
    green_relation,
    idempotent,
    idempotent_order,
    identity_rook,
    multiply,
    rook_rank,
    w_e_w_decomposition,
    zero_rook,
)

from symmon import rook as rn
from symmon.errors import PreconditionError, ResourceLimitError
from symmon.rook import RookElement


E11 = RookElement((1, 0))
E12 = RookElement((2, 0))
E21 = RookElement((0, 1))
E22 = RookElement((0, 2))


def test_enumerate_counts():
    assert [len(rn.enumerate_rook(n)) for n in range(1, 5)] == [2, 7, 34, 209]
    for n in range(1, 5):
        assert rn.rook_count(n) == len(rn.enumerate_rook(n))
    assert len(rn.enumerate_rook(1)) == 2
    with pytest.raises(ResourceLimitError):
        rn.enumerate_rook(7)


def test_rook_element_validation():
    with pytest.raises(PreconditionError):
        RookElement((1, 1))
    with pytest.raises(PreconditionError):
        RookElement((3, 0))


def test_multiply():
    r = RookElement((2, 1, 0))
    assert multiply(r, identity_rook(3)) == r
    assert multiply(identity_rook(3), r) == r
    assert multiply(E12, E21) == E11
    # e_I e_J = e_{I cap J}, exhaustive for n <= 3
    for n in (2, 3):
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
        ))
        for i_set in subsets:
            for j_set in subsets:
                e = idempotent(n, i_set)
                f = idempotent(n, j_set)
                assert multiply(e, f) == idempotent(n, set(i_set) & set(j_set))
    with pytest.raises(PreconditionError):
        multiply(E11, identity_rook(3))


def test_inverse_semigroup_identity():
    for r in rn.enumerate_rook(3):
        assert multiply(multiply(r, r.transpose()), r) == r


def test_green_relations():
    # every rook element is H-related to itself
    for r in rn.enumerate_rook(2):
        assert green_relation(r, r, "H")
    # same rank iff J-related
    for r in rn.enumerate_rook(3):
        for s in rn.enumerate_rook(3):
            assert green_relation(r, s, "J") == (rook_rank(r) == rook_rank(s))
    assert green_relation(E11, E21, "L")
    assert not green_relation(E11, E21, "R")
    with pytest.raises(PreconditionError):
        green_relation(E11, E22, "K")


def test_green_L_matches_finite_field_left_ideal():
    # oracle: L-classes are equal left ideals {x a} over Mat_2(F_3)
    from symmon import finite_field as ff

    mats = tuple(ff.enumerate_matrices(2, 3))
    ideals = {}
    for r in rn.enumerate_rook(2):
        a = ff.from_rook(r, 3)
        ideals[r] = frozenset(x @ a for x in mats)
    for r in rn.enumerate_rook(2):
        for s in rn.enumerate_rook(2):
            assert green_relation(r, s, "L") == (ideals[r] == ideals[s])


def test_green_R_matches_finite_field_right_ideal():
    from symmon import finite_field as ff

    mats = tuple(ff.enumerate_matrices(2, 3))
    ideals = {}
    for r in rn.enumerate_rook(2):
        a = ff.from_rook(r, 3)
        ideals[r] = frozenset(a @ x for x in mats)
    for r in rn.enumerate_rook(2):
        for s in rn.enumerate_rook(2):
            assert green_relation(r, s, "R") == (ideals[r] == ideals[s])


def test_idempotent_order():
    zero = zero_rook(2)
    for e in (zero, E11, E22, identity_rook(2)):
        assert idempotent_order(zero, e)
    assert not idempotent_order(E11, E22)
    assert not idempotent_order(E22, E11)
    assert idempotent_order(E11, identity_rook(2))
    with pytest.raises(PreconditionError):
        idempotent_order(E12, E11)


def test_cross_section():
    chain = cross_section(2)
    assert len(chain) == 3
    for a, b in zip(chain, chain[1:]):
        assert idempotent_order(a, b)
    assert cross_section(1) == (zero_rook(1), identity_rook(1))
    # |E(T-bar)| = 2^n and the unit group's conjugates of the chain cover it
    for n in (2, 3):
        diag = diagonal_idempotents(n)
        assert len(diag) == 2 ** n
        assert conjugates_of_cross_section(n) == frozenset(diag)


def test_w_e_w_decomposition():
    assert [len(c) for c in w_e_w_decomposition(1)] == [1, 1]
    assert [len(c) for c in w_e_w_decomposition(2)] == [1, 4, 2]
    assert [len(c) for c in w_e_w_decomposition(3)] == [1, 9, 18, 6]
    # classes coincide with Green's J-classes
    classes = w_e_w_decomposition(3)
    for k, cls in enumerate(classes):
        for r in cls:
            assert rook_rank(r) == k
            assert green_relation(r, cross_section(3)[k], "J")


def test_bruhat_zero_bottom_and_rank_monotone():
    zero = zero_rook(3)
    for r in rn.enumerate_rook(3):
        assert rn.bruhat_leq(zero, r)
        for s in rn.enumerate_rook(3):
            if rn.bruhat_leq(r, s):
                assert rook_rank(r) <= rook_rank(s)


def test_bruhat_identity_below_longest():
    w0 = rn.from_permutation((2, 1))
    assert rn.bruhat_leq(identity_rook(2), w0)
    assert not rn.bruhat_leq(w0, identity_rook(2))


def test_bruhat_poset_axioms_exhaustive_n3():
    elems = rn.enumerate_rook(3)
    leq = {}
    for r in elems:
        for s in elems:
            leq[r, s] = rn.bruhat_leq(r, s)
    for r in elems:
        assert leq[r, r]
    for r in elems:
        for s in elems:
            if leq[r, s] and leq[s, r]:
                assert r == s
    for r in elems:
        below_r = [s for s in elems if leq[s, r]]
        for s in elems:
            if leq[r, s]:
                for t in below_r:
                    assert leq[t, s]


def _perm_bruhat_oracle(u, v):
    """Sorted-prefix dominance criterion for the symmetric group: u <= v iff
    each sorted k-prefix of u is entrywise <= the sorted k-prefix of v."""
    n = len(u)
    for k in range(1, n):
        us = sorted(u[:k])
        vs = sorted(v[:k])
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


def test_bruhat_restriction_to_symmetric_group():
    for n in range(1, 5):
        for u in itertools.permutations(range(1, n + 1)):
            for v in itertools.permutations(range(1, n + 1)):
                assert rn.bruhat_leq(rn.from_permutation(u), rn.from_permutation(v)) == _perm_bruhat_oracle(u, v)


def test_bruhat_consistent_with_idempotent_order():
    for n in (2, 3):
        idems = diagonal_idempotents(n)
        for e in idems:
            for f in idems:
                if idempotent_order(e, f):
                    assert rn.bruhat_leq(e, f)


def test_symmetric_rook_elements():
    two = rn.symmetric_rook_elements(2)
    assert set(two) == {
        zero_rook(2), E11, E22, identity_rook(2), RookElement((2, 1)),
    }
    assert len(rn.symmetric_rook_elements(3)) == 14
    fpf3 = rn.symmetric_rook_elements(3, fpf=True)
    assert len(fpf3) == 4
    assert set(fpf3) == {
        zero_rook(3),
        RookElement((2, 1, 0)),
        RookElement((3, 0, 1)),
        RookElement((0, 3, 2)),
    }
    # counts are sums of involution numbers over supports
    assert len(rn.symmetric_rook_elements(4)) == 43
    for r in rn.symmetric_rook_elements(4):
        assert r == r.transpose()


def test_symmetric_rook_elements_guard():
    """n = 8 is the largest size enumerated: 7,193 partial involutions."""
    eight = rn.symmetric_rook_elements(8)
    assert len(eight) == len(set(eight)) == 7193
    assert all(r.is_symmetric() for r in eight)
    # the maps are built unvalidated; each is a partial permutation all the same
    for n in range(9):
        assert all(RookElement(r.map) == r for r in rn.symmetric_rook_elements(n))
    with pytest.raises(ResourceLimitError, match="symmetric_rook_elements guard is n <= 8"):
        rn.symmetric_rook_elements(9)


def test_is_symmetric():
    """A rook element is symmetric exactly when its 0/1 matrix is: the
    partial involutions, and none of the other elements of R_3."""
    involutions = set(rn.symmetric_rook_elements(3))
    for r in rn.enumerate_rook(3):
        rows = r.zero_one_rows()
        assert r.is_symmetric() == (r in involutions) == (rows == tuple(zip(*rows)))
    assert zero_rook(0).is_symmetric() and E11.is_symmetric() and RookElement((2, 1)).is_symmetric()
    assert not E12.is_symmetric() and not E21.is_symmetric() and not RookElement((2, 3, 1)).is_symmetric()


def test_diagram_and_exports():
    assert E12.diagram() == "2 0"
    assert zero_rook(3).diagram() == "0 0 0"
    elems = rn.enumerate_rook(2)
    dot = rn.poset_to_dot(elems, rn.bruhat_leq)
    assert dot.startswith("digraph poset {") and dot.rstrip().endswith("}")
    assert dot.count("->") == len(rn.hasse_edges(elems, rn.bruhat_leq))
    data = json.loads(rn.poset_to_json(elems, rn.bruhat_leq))
    assert len(data["nodes"]) == 7
    # covers regenerate the order by transitive closure
    edges = rn.hasse_edges(elems, rn.bruhat_leq)
    reach = {r: {r} for r in elems}
    changed = True
    while changed:
        changed = False
        for x, y in edges:
            for src in elems:
                if x in reach[src] and y not in reach[src]:
                    reach[src].add(y)
                    changed = True
    for r in elems:
        for s in elems:
            assert (s in reach[r]) == rn.bruhat_leq(r, s)


def _hasse_edges_oracle(elements, leq):
    """Covering pairs by the cubic transitive reduction: x < y with no z
    between, on the relation table of one leq call per ordered pair."""
    elems = list(elements)
    n = len(elems)
    less = [[i != j and leq(x, y) for j, y in enumerate(elems)] for i, x in enumerate(elems)]
    edges = []
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                edges.append((elems[i], elems[j]))
    return edges


def _pairwise_up_sets(elems, leq):
    return [sum(1 << j for j, y in enumerate(elems) if j != i and leq(x, y)) for i, x in enumerate(elems)]


def test_bruhat_up_sets_match_pairwise_bruhat_leq():
    for n in range(5):
        elems = rn.enumerate_rook(n)
        assert rn._bruhat_up_sets(list(elems)) == _pairwise_up_sets(elems, rn.bruhat_leq), n
    elems = rn.symmetric_rook_elements(5)
    assert rn._bruhat_up_sets(list(elems)) == _pairwise_up_sets(elems, rn.bruhat_leq)
    assert rn._bruhat_up_sets([]) == []
    with pytest.raises(PreconditionError, match="size mismatch"):
        rn.hasse_edges([zero_rook(2), zero_rook(3)], rn.bruhat_leq)


def test_hasse_edges_make_no_bruhat_leq_calls(monkeypatch):
    # the up-sets of bruhat_leq come from the rank thresholds; a wrapped
    # bruhat_leq is a different leq and keeps the pairwise path
    calls = []
    real = rn.bruhat_leq

    def counted(x, y):
        calls.append((x, y))
        return real(x, y)

    elems = rn.enumerate_rook(2)
    fast = rn.hasse_edges(elems, rn.bruhat_leq)
    assert fast == rn.hasse_edges(elems, counted)
    assert len(calls) == 7 * 6
    monkeypatch.setattr(rn, "bruhat_leq", counted)
    calls.clear()
    assert rn.hasse_edges(elems, rn.bruhat_leq) == fast
    assert calls == []


def _divides(a, b):
    return b % a == 0


@pytest.mark.parametrize(
    "elements, leq",
    [
        (rn.enumerate_rook(3), rn.bruhat_leq),
        (rn.symmetric_rook_elements(4), rn.bruhat_leq),
        (rn.symmetric_rook_elements(5, fpf=True), rn.bruhat_leq),
        (rn.enumerate_rook(4), rn.bruhat_leq),
        (rn.symmetric_rook_elements(5), rn.bruhat_leq),
        # a poset that is not a rook monoid keeps the generic leq contract tested
        ([d for d in range(1, 361) if 360 % d == 0], _divides),
    ],
    ids=["R3", "involutions-R4", "fpf-R5", "R4", "involutions-R5", "divisors-360"],
)
def test_hasse_edges_match_cubic_oracle(elements, leq):
    assert rn.hasse_edges(elements, leq) == _hasse_edges_oracle(elements, leq)


def test_hasse_edges_counts_one_comparison_per_ordered_pair():
    calls = []

    def leq(a, b):
        calls.append((a, b))
        return _divides(a, b)

    edges = rn.hasse_edges([1, 2, 3, 4, 6, 12], leq)
    assert len(calls) == 6 * 5
    assert edges == [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]


def test_hasse_edges_work_guard():
    with pytest.raises(ResourceLimitError, match="2001\\^2 = 4004001 order comparisons exceeds the limit 4000000"):
        rn.hasse_edges(range(2001), lambda a, b: a <= b)


def test_hasse_edges_work_guard_boundary(monkeypatch):
    """N elements make N^2 comparisons: a guard of N^2 admits them, N^2 - 1
    does not."""
    elems = rn.symmetric_rook_elements(3)
    n = len(elems)
    monkeypatch.setattr(rn, "HASSE_WORK_GUARD", n * n)
    assert rn.hasse_edges(elems, rn.bruhat_leq) == _hasse_edges_oracle(elems, rn.bruhat_leq)
    monkeypatch.setattr(rn, "HASSE_WORK_GUARD", n * n - 1)
    with pytest.raises(ResourceLimitError, match=f"{n}\\^2 = {n * n} order comparisons exceeds the limit {n * n - 1}"):
        rn.hasse_edges(elems, rn.bruhat_leq)


def test_southwest_rank_table_matches_definition():
    for r in rn.enumerate_rook(3):
        n = r.n
        direct = tuple(
            sum(1 for t in range(i, n) if 0 < r.map[t] <= j + 1) for i in range(n) for j in range(n)
        )
        assert rn._southwest_ranks(r) == direct
    assert rn._southwest_ranks(zero_rook(0)) == ()
    # the cached table leaves equality, hashing and order alone
    r = RookElement((2, 0, 1))
    rn.bruhat_leq(r, r)
    assert r == RookElement((2, 0, 1)) and hash(r) == hash(RookElement((2, 0, 1)))
    assert repr(r) == "RookElement(map=(2, 0, 1))"
