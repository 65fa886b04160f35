"""Exact linear algebra: Fraction vectors and row reduction, and integer
determinants and adjugates.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything is immutable and hashable; no floating point anywhere.  The
determinant and adjugate of an integer matrix stay in integers, so
adj(m) / det(m) = m^-1 is read without a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def identity_mat(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column indices)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Mat) -> int:
    if not m:
        return 0
    _, pivots = _row_reduce([list(row) for row in m])
    return len(pivots)


def nullspace(m: Mat) -> tuple[Vec, ...]:
    """Basis of the right nullspace {x : m x = 0}."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    if nrows == 0:
        return tuple(identity_mat(ncols))
    reduced, pivots = _row_reduce([list(row) for row in m])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -reduced[r][f]
        basis.append(tuple(x))
    return tuple(basis)


def independent_rows(rows: Sequence[Vec]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily from the front:
    the pivot columns of the matrix whose columns are the rows."""
    return _row_reduce([list(col) for col in zip(*rows)])[1]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a small integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """adj(m) = det(m) m^-1: entry (i, j) is the signed minor of m without
    row j and column i."""
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * int_det([r[:i] + r[i + 1 :] for k, r in enumerate(m) if k != j]) for j in range(n))
        for i in range(n)
    )


def frac_str(x: Fraction) -> str:
    """Serialize exactly, "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


