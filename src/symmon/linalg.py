"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything is immutable and hashable; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


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


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(dot(row, x) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


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


def mat_inv(m: Mat) -> Mat:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(m)
    aug = [list(m[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    reduced, pivots = _row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


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


def frac_str(x: Fraction) -> str:
    """Serialize exactly, "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


