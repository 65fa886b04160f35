"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same pass over a job list took 40-80% longer for
stretches of seconds to minutes while other tenants were busy, so raw times
of runs made half an hour apart cannot be compared.  Python code of the same
kind slows by about the same factor at the same moment, so the benchmark
times this module's kernels between every few tenths of a second of jobs
and divides the job times by them (see `normalized` in run.py).

The kernels are written in the style of symmon's hot loops (validated
immutable matrices over F_q and an orbit search over them; Fraction weight
vectors and reflections; integer determinants over point subsets), but they
import nothing from symmon: a change to symmon never changes them.  Their
results are checked, so an interpreter change that broke them would show.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class _Mat:
    q: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n or any(not 0 <= e < self.q for e in row):
                raise ValueError("rows must be reduced residues")

    def __matmul__(self, other: "_Mat") -> "_Mat":
        q = self.q
        cols = tuple(zip(*other.rows))
        return _Mat(q, tuple(tuple(sum(a * b for a, b in zip(row, col)) % q for col in cols)
                             for row in self.rows))


def fq_orbits(q: int, n: int) -> int:
    """Orbits of all n x n matrices mod q under left multiplication by
    elementary upper-triangular matrices, found by breadth-first search."""
    gens = []
    for i in range(n):
        for j in range(i, n):
            rows = [[int(a == b) for b in range(n)] for a in range(n)]
            rows[i][j] = 2 if i == j else 1
            gens.append(_Mat(q, tuple(map(tuple, rows))))
    seen: set[_Mat] = set()
    orbits = 0
    for entries in itertools.product(range(q), repeat=n * n):
        m = _Mat(q, tuple(tuple(entries[r * n:(r + 1) * n]) for r in range(n)))
        if m in seen:
            continue
        orbits += 1
        seen.add(m)
        frontier = [m]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = g @ x
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
    return orbits


def weyl_orbit_size(rank: int) -> int:
    """Size of the Weyl orbit of (1, 2, ..., rank) in type B, with Fraction
    coordinates and reflections s_a(v) = v - 2(v, a)/(a, a) a."""
    roots = [tuple(Fraction(int(k == i)) - Fraction(int(k == i + 1)) for k in range(rank))
             for i in range(rank - 1)]
    roots.append(tuple(Fraction(int(k == rank - 1)) for k in range(rank)))

    def reflect(v, a):
        c = 2 * sum(x * y for x, y in zip(v, a)) / sum(y * y for y in a)
        return tuple(x - c * y for x, y in zip(v, a))

    start = tuple(Fraction(k + 1) for k in range(rank))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for a in roots:
                w = reflect(v, a)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def _det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def affine_bases(vertex: tuple[int, ...]) -> int:
    """How many (d+1)-subsets of the permutations of `vertex` and the origin,
    d = len(vertex), are affinely independent."""
    dim = len(vertex)
    pts = sorted(set(itertools.permutations(vertex)) | {(0,) * dim})
    count = 0
    for subset in itertools.combinations(pts, dim + 1):
        base = subset[0]
        if _det([[a - b for a, b in zip(p, base)] for p in subset[1:]]):
            count += 1
    return count


# each kernel with its arguments and the value it must return; about 10-30 ms
# each on the machine described in run.py
KERNELS = (
    (fq_orbits, (5, 2), 19),
    (weyl_orbit_size, (3,), 48),
    (affine_bases, ((1, 1, 0, 0, 0),), 162),
)
