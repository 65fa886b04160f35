import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import identity_mat, independent_rows, mat, mat_inv, mat_mul, mat_vec, nullspace, rank, solve

from symmon import linalg
from symmon.errors import PreconditionError


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 1]])
    inv = mat_inv(a)
    assert mat_mul(a, inv) == identity_mat(2)
    x = solve(a, linalg.vec([3, 2]))
    assert mat_vec(a, x) == (Fraction(3), Fraction(2))
    with pytest.raises(ValueError):
        mat_inv(mat([[1, 2], [2, 4]]))


def test_dot_of_different_lengths_is_a_precondition_error():
    for x, y in (((1, 2), (1, 2, 3)), ((), (1,))):
        with pytest.raises(PreconditionError, match="^dimension mismatch$"):
            linalg.dot(linalg.vec(x), linalg.vec(y))
    assert linalg.dot(linalg.vec((1, 2)), linalg.vec((3, Fraction(1, 2)))) == 4


def test_solve_inconsistent_and_underdetermined():
    a = mat([[1, 1], [2, 2]])
    assert solve(a, linalg.vec([1, 3])) is None
    x = solve(a, linalg.vec([1, 2]))
    assert x is not None and x[0] + x[1] == 1


def test_rank_and_nullspace():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank(a) == 2
    # the reduced-row-echelon normal (-1, -1, 1), content-free with x_2 > 0
    assert linalg.nullspace(a) == ((-1, -1, 1),)
    assert linalg.nullspace([[2, 0, 4]]) == ((0, 1, 0), (-2, 0, 1))
    assert linalg.nullspace([[0, 0]]) == ((1, 0), (0, 1))
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    assert linalg.rank(ident) == 4 and linalg.nullspace(ident) == ()


def test_independent_rows():
    assert linalg.independent_rows([(1, 0), (2, 0), (0, 1)]) == [0, 2]
    # zero and dependent leading rows are skipped, greedily from the front
    assert linalg.independent_rows([(0, 0), (1, 0), (2, 0), (0, 1)]) == [1, 3]
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
    assert linalg.int_det([]) == 1 and linalg.adjugate([]) == ()
    assert linalg.adjugate([[5]]) == ((1,),)


def test_frac_str():
    assert linalg.frac_str(Fraction(3)) == "3"
    assert linalg.frac_str(Fraction(-1, 2)) == "-1/2"


@functools.cache
def _signed_permutations(n):
    return [
        (perm, (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)))
        for perm in itertools.permutations(range(n))
    ]


def _leibniz_det(m):
    """The determinant as the signed sum over permutations, no elimination."""
    return sum(sign * math.prod(row[j] for row, j in zip(m, perm)) for perm, sign in _signed_permutations(len(m)))


def _echelon_cases(rng):
    """Integer matrices of 0-6 rows and 1-7 columns: products of a rows x k
    and a k x columns factor, so of rank at most k, some with zero columns
    mixed in, a third of them square; and every size-1 and size-2 square
    shape on small entries."""
    for n in (1, 2):
        for entries in itertools.product(range(-2, 3), repeat=n * n):
            yield [list(entries[i * n : (i + 1) * n]) for i in range(n)]
    for _ in range(1000):
        nrows = rng.randint(0, 6)
        ncols = nrows or 1 if rng.random() < 1 / 3 else rng.randint(1, 7)
        k = rng.randint(0, min(nrows, ncols))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * ncols for row in left]
        for c in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
            for row in m:
                row[c] = 0
        yield m


def test_echelon_matches_the_fraction_oracle():
    checked_det = 0
    for m in _echelon_cases(random.Random(24)):
        r = rank(m)
        assert linalg.rank(m) == r, m
        assert linalg.independent_rows(m) == independent_rows(m), m
        if m:
            normals = linalg.nullspace(m)
            basis = nullspace(m)
            assert len(normals) == len(basis) == len(m[0]) - r, m
            for nu, b in zip(normals, basis):
                # a positive, content-free multiple of the reduced-row-echelon vector
                f = b.index(1)
                assert nu[f] > 0 and nu == tuple(nu[f] * x for x in b), m
                assert math.gcd(*nu) == 1, m
        if len(m) == len(m[0] if m else ()):
            assert linalg.int_det(m) == _leibniz_det(m), m
            checked_det += 1
    assert checked_det > 700
