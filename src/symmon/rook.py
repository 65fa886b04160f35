"""The rook monoid: partial permutation matrices of [n].

Within the monoid of all n x n matrices these play the role the Weyl group
plays inside the general linear group.  Elements are stored as row maps, not
matrices: map[i] = j > 0 places a 1 at row i+1, column j, and map[i] = 0
leaves row i+1 empty.  Conversions to finite-field matrices are explicit
(see finite_field.from_rook).
"""

from __future__ import annotations

import itertools
import json
import math
from functools import reduce
from operator import and_, getitem, gt, or_
from typing import NamedTuple

from ._record import no_tuple_arithmetic
from .errors import PreconditionError, ResourceLimitError

ENUM_GUARD_N = 6
SYMMETRIC_GUARD_N = 8
HASSE_WORK_GUARD = 4 * 10**6


class RookElement(NamedTuple("RookElement", [("map", tuple[int, ...])])):
    """A partial permutation of [n], injective on its domain: the record
    (map,), validated on construction.  An instance also has a __dict__, for
    the southwest-rank table cached on it."""

    _southwest = None  # set by _southwest_ranks on first use

    def __new__(cls, map: tuple[int, ...]):
        self = tuple.__new__(cls, (map,))
        self.__post_init__()
        return self

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    def __post_init__(self):
        """Validate map: once per RookElement(map), never for _rook."""
        n = len(self.map)
        nonzero = [j for j in self.map if j != 0]
        if any(not 0 <= j <= n for j in self.map) or len(set(nonzero)) != len(nonzero):
            raise PreconditionError(f"not a partial permutation: {self.map}")

    @property
    def n(self) -> int:
        return len(self.map)

    def transpose(self) -> "RookElement":
        m = [0] * self.n
        for i, j in enumerate(self.map):
            if j != 0:
                m[j - 1] = i + 1
        return _rook(tuple(m))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def zero_one_rows(self) -> tuple[tuple[int, ...], ...]:
        """The element as a 0/1 matrix (tuple of rows)."""
        n = self.n
        return tuple(tuple(1 if c == j + 1 else 0 for j in range(n)) for c in self.map)

    def diagram(self) -> str:
        """One-line rook diagram "j_1 j_2 ... j_n" with 0 for empty rows."""
        return " ".join(str(j) for j in self.map)


def _rook(m: tuple[int, ...]) -> RookElement:
    """A RookElement from a map already known to be a partial permutation,
    built without re-validating it."""
    return tuple.__new__(RookElement, (m,))


def from_permutation(perm) -> RookElement:
    """Rook element of a permutation given in one-line notation (1-based values)."""
    return RookElement(tuple(perm))


def rook_count(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def _check_size(n: int):
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")


def enumerate_rook(n: int) -> tuple[RookElement, ...]:
    """All partial permutation matrices of [n], in canonical (map-lex) order."""
    _check_size(n)
    if n > ENUM_GUARD_N:
        raise ResourceLimitError(f"enumerate_rook guard is n <= {ENUM_GUARD_N}")
    out = []
    for k in range(n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(1, n + 1), k):
                m = [0] * n
                for i, j in zip(rows, cols):
                    m[i] = j
                out.append(RookElement(tuple(m)))
    return tuple(sorted(out))


def _southwest_ranks(r: RookElement) -> tuple[int, ...]:
    """Flat row-major table t[i*n + j] = rank of the submatrix on rows >= i+1,
    columns <= j+1, built once per element as cumulative row counts from the
    bottom row up, and then cached on the instance."""
    cached = r._southwest
    if cached is not None:
        return cached
    n = r.n
    row = [0] * n
    rows = []
    for j in reversed(r.map):
        if j:
            for c in range(j - 1, n):
                row[c] += 1
        rows.append(tuple(row))
    table = tuple(itertools.chain.from_iterable(reversed(rows)))
    r._southwest = table
    return table


def bruhat_leq(r: RookElement, s: RookElement) -> bool:
    """Bruhat-Chevalley order via southwest-rank dominance (Borel = upper triangular).

    r <= s iff rank r[i..n, 1..j] <= rank s[i..n, 1..j] for all i, j.
    """
    if r.n != s.n:
        raise PreconditionError("size mismatch")
    return not any(map(gt, _southwest_ranks(r), _southwest_ranks(s)))


def symmetric_rook_elements(n: int, fpf: bool = False) -> tuple[RookElement, ...]:
    """All r with r equal to its transpose; with fpf also a zero diagonal."""
    _check_size(n)
    if n > SYMMETRIC_GUARD_N:
        raise ResourceLimitError(f"symmetric_rook_elements guard is n <= {SYMMETRIC_GUARD_N}")
    out = []
    for r in _partial_involutions(n):
        if fpf and any(j == i + 1 for i, j in enumerate(r.map)):
            continue
        out.append(r)
    return tuple(sorted(out))


def _partial_involutions(n: int) -> list[RookElement]:
    found: list[RookElement] = []

    def rec(i: int, m: list[int]):
        if i == n:
            found.append(_rook(tuple(m)))
            return
        if m[i] != 0:
            rec(i + 1, m)
            return
        rec(i + 1, m)  # row stays empty
        m[i] = i + 1  # fixed point
        rec(i + 1, m)
        m[i] = 0
        for j in range(i + 1, n):
            if m[j] == 0:
                m[i], m[j] = j + 1, i + 1
                rec(i + 1, m)
                m[i], m[j] = 0, 0

    rec(0, [0] * n)
    return found


def _bruhat_up_sets(elems: list[RookElement]) -> list[int]:
    """Strict Bruhat up-sets as bitmasks over the indices of elems.

    x <= y iff every southwest rank of y is at least that of x.  So, with
    at_least[c][v] the mask of the elements whose rank at cell c is >= v, the
    up-set of x is the AND over the cells c of at_least[c][rank of x at c]:
    N n^2 big-int ANDs in place of N^2 bruhat_leq calls.
    """
    if len({x.n for x in elems}) > 1:
        raise PreconditionError("size mismatch")
    tables = [_southwest_ranks(x) for x in elems]
    at_least = []
    for column in zip(*tables):
        masks = [0] * (max(column) + 2)
        for j, v in enumerate(column):
            masks[v] |= 1 << j
        for v in range(len(masks) - 2, -1, -1):
            masks[v] |= masks[v + 1]
        at_least.append(masks)
    everything = (1 << len(elems)) - 1
    return [
        reduce(and_, map(getitem, at_least, t), everything) & ~(1 << i)
        for i, t in enumerate(tables)
    ]


def hasse_edges(elements, leq) -> list[tuple]:
    """Covering pairs (x, y) of a finite poset, in the order of the elements.

    Each element's strict up-set is a bitmask: for bruhat_leq it comes from
    the southwest-rank thresholds (_bruhat_up_sets), for any other leq from
    one call per ordered pair.  The covers of x are then up[x] minus
    everything above a member of up[x].  The work is bounded by
    HASSE_WORK_GUARD comparisons.
    """
    elems = list(elements)
    n = len(elems)
    if n * n > HASSE_WORK_GUARD:
        raise ResourceLimitError(
            f"Hasse diagram work estimate {n}^2 = {n * n} order comparisons "
            f"exceeds the limit {HASSE_WORK_GUARD}"
        )
    if leq is bruhat_leq:
        up = _bruhat_up_sets(elems)
    else:
        up = [
            sum(1 << j for j, y in enumerate(elems) if j != i and leq(x, y))
            for i, x in enumerate(elems)
        ]
    edges = []
    for i, x in enumerate(elems):
        above = reduce(or_, _members(up[i], up), 0)
        edges.extend((x, y) for y in _members(up[i] & ~above, elems))
    return edges


_BINARY_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int, items: list):
    """The items at the set bits of mask >= 0, in index order: the binary
    digits, least significant first, as 0/1 bytes select them, all in C."""
    return itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BINARY_DIGIT))


def poset_to_dot(elements, leq) -> str:
    """Hasse diagram of a poset over rook elements as DOT source."""
    elems = sorted(elements)
    lines = ["digraph poset {", "  rankdir=BT;"]
    index = {x: i for i, x in enumerate(elems)}
    for x in elems:
        lines.append(f'  n{index[x]} [label="{x.diagram()}"];')
    for x, y in sorted(hasse_edges(elems, leq), key=lambda e: (e[0], e[1])):
        lines.append(f"  n{index[x]} -> n{index[y]};")
    lines.append("}")
    return "\n".join(lines)


def poset_to_json(elements, leq) -> str:
    """Edge list {"nodes": [...], "edges": [[lo, hi], ...]} of the Hasse diagram."""
    elems = sorted(elements)
    edges = sorted(hasse_edges(elems, leq), key=lambda e: (e[0], e[1]))
    nodes = [x.diagram() for x in elems]
    label = dict(zip(elems, nodes))
    return json.dumps({"nodes": nodes, "edges": [[label[x], label[y]] for x, y in edges]})
