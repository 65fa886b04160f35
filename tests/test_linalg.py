import random
from fractions import Fraction

import pytest
from oracles import mat, mat_inv, mat_mul, mat_vec, solve

from symmon import linalg


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 1]])
    inv = mat_inv(a)
    assert mat_mul(a, inv) == linalg.identity_mat(2)
    x = solve(a, linalg.vec([3, 2]))
    assert mat_vec(a, x) == (Fraction(3), Fraction(2))
    with pytest.raises(ValueError):
        mat_inv(mat([[1, 2], [2, 4]]))


def test_solve_inconsistent_and_underdetermined():
    a = mat([[1, 1], [2, 2]])
    assert solve(a, linalg.vec([1, 3])) is None
    x = solve(a, linalg.vec([1, 2]))
    assert x is not None and x[0] + x[1] == 1


def test_rank_and_nullspace():
    a = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(a) == 2
    for v in linalg.nullspace(a):
        assert mat_vec(a, v) == (Fraction(0),) * 3
    assert len(linalg.nullspace(a)) == 1
    assert linalg.rank(linalg.identity_mat(4)) == 4


def test_independent_rows():
    rows = [linalg.vec([1, 0]), linalg.vec([2, 0]), linalg.vec([0, 1])]
    assert linalg.independent_rows(rows) == [0, 2]
    # zero and dependent leading rows are skipped, greedily from the front
    rows = [linalg.vec(r) for r in ([0, 0], [1, 0], [2, 0], [0, 1])]
    assert linalg.independent_rows(rows) == [1, 3]
    assert linalg.independent_rows([]) == []


def test_int_det_and_adjugate_match_the_fraction_inverse():
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(20):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det, adj = linalg.int_det(m), linalg.adjugate(m)
            try:
                inv = mat_inv(mat(m))
            except ValueError:
                assert det == 0
                continue
            assert det != 0 and adj == tuple(tuple(det * x for x in row) for row in inv)
    assert linalg.int_det([[0, 1], [1, 0]]) == -1 and linalg.int_det([[1, 2], [2, 4]]) == 0
    assert linalg.adjugate([[5]]) == ((1,),)


def test_frac_str():
    assert linalg.frac_str(Fraction(3)) == "3"
    assert linalg.frac_str(Fraction(-1, 2)) == "-1/2"
