"""Exact linear algebra: Fraction vectors, and one fraction-free integer
echelon behind rank, nullspace, independent rows and determinants.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Everything is immutable and hashable; no floating point anywhere.  The
matrix routines take integer rows (a caller scales rational rows over a
common denominator first) and all run through `_echelon`, Bareiss
elimination with exact integer division, so no Fraction is built.  Nullspace
normals are content-free integer vectors, and they depend only on the row
space.  The determinant and adjugate of an integer matrix stay in integers,
so adj(m) / det(m) = m^-1 is read without a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionError

Vec = tuple[Fraction, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(e) for e in entries)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    if len(x) != len(y):
        raise PreconditionError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of an integer matrix (Bareiss): returns
    (rows, pivot columns, sign of the row swaps).

    Zero columns are skipped.  Each step replaces every row i below the pivot
    row r by (p * row_i - row_i[c] * row_r) / prev, p the new pivot and prev
    the one before it (1 at first).  By Sylvester's identity every entry is a
    minor of the row-swapped input, so the division is exact, and the last
    pivot of a square matrix of full rank is its determinant up to the sign."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f, row[c] = row[c], 0
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        pivots.append(c)
        if r + 1 == nrows:
            break
    return m, pivots, sign


def rank(m: Sequence[Sequence[int]]) -> int:
    return len(_echelon(m)[1])


def nullspace(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis of the right nullspace {x : m x = 0} of a nonempty integer matrix:
    for each free column f the content-free integer x with x_f > 0, zero on
    the other free columns, by back-substitution through the echelon form.
    x is a positive multiple of the reduced-row-echelon basis vector of f, so
    it depends only on the row space of m."""
    reduced, pivots, _ = _echelon(m)
    ncols = len(m[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = 1
        for r in reversed(range(len(pivots))):
            c, row = pivots[r], reduced[r]
            s = -sum(row[j] * x[j] for j in range(c + 1, ncols))
            # scale x by |p| / gcd(s, p) > 0, so that p divides the scaled s
            t = abs(row[c]) // math.gcd(s, row[c])
            if t != 1:
                x = [t * e for e in x]
            x[c] = t * s // row[c]
        g = math.gcd(*x)
        basis.append(tuple(e // g for e in x))
    return tuple(basis)


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily from the front:
    the pivot columns of the matrix whose columns are the rows."""
    return _echelon(list(zip(*rows)))[1]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the last pivot of its echelon
    form times the swap sign, 1 for the empty matrix."""
    m, pivots, sign = _echelon(rows)
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


def adjugate(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """adj(m) = det(m) m^-1: entry (i, j) is the signed minor of m without
    row j and column i."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * int_det([r[:i] + r[i + 1 :] for k, r in enumerate(m) if k != j]) for j in range(n))
        for i in range(n)
    )


def frac_str(x: Fraction) -> str:
    """Serialize exactly, "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


