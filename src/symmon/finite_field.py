"""Exhaustive matrix machinery over small prime fields.

Everything here is desk scale by design: the supported moduli are 2, 3, 5, 7
and every enumeration is guarded.  Matrices are immutable (q, rows) tuples,
so they hash and sort canonically (by modulus, then row-major).
"""

from __future__ import annotations

import itertools
from itertools import repeat
from operator import add, eq, floordiv, itemgetter, mod, mul, sub
from typing import NamedTuple

from ._record import no_tuple_arithmetic
from .errors import PreconditionError, ResourceLimitError, UnsupportedFamilyError
from .rook import RookElement, _rook

SUPPORTED_PRIMES = (2, 3, 5, 7)
SPACE_GUARD = 10**6


def _check_prime(q: int):
    if not isinstance(q, int) or q not in SUPPORTED_PRIMES:
        raise PreconditionError(f"modulus {q} not supported (use one of {SUPPORTED_PRIMES})")


def _check_n(n: int):
    if not isinstance(n, int):
        raise PreconditionError(f"n must be an int, got {n!r}")
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")


# The spaces: Mat_n ("bxb", acted on by B x B), Sym_n and Skew_n (acted on
# by B through congruence).  A point has one base-q digit per stored entry
# (_stored_entries), q^dim points in all.
BOREL_ACTIONS = ("bxb", "sym", "skew")
_SPACE_NAMES = {"bxb": "matrix", "sym": "symmetric", "skew": "skew"}


def _dimension(n: int, action: str) -> int:
    return {"bxb": n * n, "sym": n * (n + 1) // 2, "skew": n * (n - 1) // 2}[action]


def _check_space(n: int, q: int, action: str):
    """Bound an enumeration of the q^dim points of a space by SPACE_GUARD."""
    _check_prime(q)
    _check_n(n)
    dim = _dimension(n, action)
    if dim > 64:  # q^dim alone is far beyond the limit; do not build the integer
        size = f"{q}^{dim}"
    elif q**dim <= SPACE_GUARD:
        return
    else:
        size = f"{q}^{dim} = {q**dim}"
    raise ResourceLimitError(f"{_SPACE_NAMES[action]} space: {size} matrices exceed the limit {SPACE_GUARD}")


# _INVERSE[q][a] is the inverse of a mod q, and 0 for a = 0
_INVERSE = {q: (0,) + tuple(pow(a, q - 2, q) for a in range(1, q)) for q in SUPPORTED_PRIMES}


def inv_mod(a: int, q: int) -> int:
    """The inverse of a mod q, for q in SUPPORTED_PRIMES."""
    _check_prime(q)
    inverse = _INVERSE[q][a % q]
    if not inverse:
        raise ZeroDivisionError("no inverse of 0")
    return inverse


def row_reduce(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form mod q; returns (rows, pivot column indices)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = inv_mod(rows[r][c], q)
        rows[r] = [e * inv % q for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(e - f * p) % q for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def primitive_root(q: int) -> int:
    """A generator of the cyclic group F_q^*."""
    _check_prime(q)
    for g in range(2, q):
        order, x = 1, g
        while x != 1:
            x = x * g % q
            order += 1
        if order == q - 1:
            return g
    return 1  # q == 2


# kernel: a b is one C-level sum over k of colpack_k(a) times rowpack_k(b).
# rowpack_k(b) is row k of b packed one byte per entry,
# int.from_bytes(bytes(row), "little"); colpack_k(a) is column k of a with
# entry a[i][k] at byte n i, cut from the row-major bytes of a by a shift of
# k bytes and the mask _COLUMN_MASK[n] (byte n i set for every i).  Byte
# n i + j of the sum is then the unreduced (a b)[i][j], as long as no byte
# reaches 256 and carries into the next.  A term adds at most (q - 1)^2 to a
# byte, so a sum takes at most _CHUNK[q] = 255 // (q - 1)^2 terms: n <= 255,
# 63, 15, 7 for q = 2, 3, 5, 7 is one sum.  Past that, the sum is reduced
# after every chunk and carried as one more term of the next.
# bytes.translate(_MOD_TABLE[q]) reduces every byte mod q in one C call, and
# the n^2 reduced bytes, read n at a time, are the rows of the product.
_MOD_TABLE = {q: bytes(b % q for b in range(256)) for q in SUPPORTED_PRIMES}
_CHUNK = {q: 255 // (q - 1) ** 2 for q in SUPPORTED_PRIMES}
_NEGATE_TABLE = {q: bytes(-b % q for b in range(256)) for q in SUPPORTED_PRIMES}
_COLUMN_MASK = {}  # n -> the int whose byte n i is 0xff for each i < n, filled on first use


def _row_packs(rows) -> tuple[int, ...]:
    return tuple([int.from_bytes(bytes(row), "little") for row in rows])


def _column_packs(rows, n: int) -> tuple[int, ...]:
    flat = int.from_bytes(b"".join(map(bytes, rows)), "little")
    mask = _COLUMN_MASK.get(n)
    if mask is None:
        mask = _COLUMN_MASK[n] = int.from_bytes(b"\xff".ljust(n, b"\0") * n, "little")
    return tuple([flat >> s & mask for s in range(0, 8 * n, 8)])


def _packed_product(q: int, n: int, columns, packed) -> tuple[tuple[int, ...], ...]:
    """The rows of a b from the column packs of a and the row packs of b."""
    table, step, size = _MOD_TABLE[q], _CHUNK[q], n * n
    total, k = sum(map(mul, columns[:step], packed)), step
    while k < n:  # the reduced sum is the first term of the next chunk
        carry = int.from_bytes(total.to_bytes(size, "little").translate(table), "little")
        total = carry + sum(map(mul, columns[k : k + step - 1], packed[k : k + step - 1]))
        k += step - 1
    out = total.to_bytes(size, "little").translate(table)
    return tuple(zip(*[iter(out)] * n))


# Reuse: the Borel generators, their inverses and their transposes are
# multiplied by every point of a space, so _reusable gives each a row table,
# v -> v b, and a b becomes one lookup per row of a.  It also keeps the
# transpose of b, with the row table of that transpose, and b x looks up the
# columns of x there: b x = (x^T b^T)^T.  A table fills on demand, so it
# holds only the rows it has met.  No table is built when q^n n^2 exceeds
# SPACE_GUARD, so a full one holds at most about 3.5 MB (n = 6 over F_5,
# n = 5 over F_7), and n = 6 over F_7 (26 MB) or n >= 7 over F_5 and F_7
# never gets one.  Tables and the kept transpose stay with their instance:
# pickles and copies leave them out.
_REUSE_STATE = {"_table", "_transpose"}


def _reusable(m: "FqMatrix") -> "FqMatrix":
    """m, with a row table on each side when they fit under SPACE_GUARD."""
    q, rows = m
    n = len(rows)
    if q**n * n * n <= SPACE_GUARD:
        t = _reduced(q, tuple(zip(*rows)))
        t._table, m._table, m._transpose = _RowTable(t), _RowTable(m), t
    return m


class FqMatrix(tuple):
    """A dense square matrix of residues mod q: the pair (q, rows), rows a
    tuple of residue tuples.  Equality, hashing and the (q, rows) order are
    the tuple's own, so they run in C; the pair is also what len() and
    iteration see."""

    q = property(itemgetter(0))
    rows = property(itemgetter(1))
    _inverse = None  # the cached inverse
    _transpose = None  # the transpose, with its row table, of a reusable matrix
    _packed = None  # the cached row packs of a right operand
    _columns = None  # the cached column packs of a left operand
    _table = None  # the row table v -> v self of a reusable matrix

    def __new__(cls, q: int, rows: tuple[tuple[int, ...], ...]):
        self = tuple.__new__(cls, (q, rows))
        self.__post_init__()
        return self

    def __post_init__(self):
        """Validate q and rows: once per FqMatrix(q, rows), never for the
        products and views built by _reduced."""
        q, rows = self
        _check_prime(q)
        try:  # bytes(row) takes only ints in range(256); rows must hash, as set members and table keys
            ok = isinstance(rows, tuple) and all(
                isinstance(row, tuple) and len(row) == len(rows) and max(bytes(row)) < q for row in rows
            )
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise PreconditionError("rows must be reduced residues of a square matrix")

    def __getnewargs__(self):  # pickle and copy rebuild through __new__(cls, q, rows)
        return tuple(self)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _REUSE_STATE}

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        if other.__class__ is not FqMatrix:
            return NotImplemented
        q, rows = self
        n = len(rows)
        if q != other[0] or n != len(other[1]):
            raise PreconditionError("size or modulus mismatch")
        table = other._table
        if table is not None:
            return tuple.__new__(FqMatrix, (q, tuple(map(table.__getitem__, rows))))
        t = self._transpose
        if t is not None:
            return tuple.__new__(FqMatrix, (q, tuple(zip(*map(t._table.__getitem__, zip(*other[1]))))))
        # both operands are validated, so every entry is a residue below 256;
        # the matrices are immutable, so the caches never go stale
        columns = self._columns
        if columns is None:
            columns = self._columns = _column_packs(rows, n)
        packed = other._packed
        if packed is None:
            packed = other._packed = _row_packs(other[1])
        return tuple.__new__(FqMatrix, (q, _packed_product(q, n, columns, packed)))

    def transpose(self) -> "FqMatrix":
        """The transpose: the one a reusable matrix keeps with its row
        table, else a fresh one."""
        t = self._transpose
        return _reduced(self.q, tuple(zip(*self.rows))) if t is None else t

    def rank(self) -> int:
        return len(row_reduce([list(r) for r in self.rows], self.q)[1])

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def inverse(self) -> "FqMatrix":
        """The inverse, computed once per instance and then cached; reusable
        when self is."""
        cached = self._inverse
        if cached is not None:
            return cached
        q, n = self.q, self.n
        aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.rows)]
        reduced, pivots = row_reduce(aug, q)
        if pivots != list(range(n)):
            raise PreconditionError("matrix is singular")
        inverse = _reduced(q, tuple(tuple(row[n:]) for row in reduced))
        if self._table is not None:
            _reusable(inverse)
        self._inverse, inverse._inverse = inverse, self
        return inverse

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(e) for e in row) for row in self.rows)
        return f"[{body}] (mod {self.q})"


class _RowTable(dict):
    """v -> v b for the row vectors v met so far.  b has q^n n^2 <=
    SPACE_GUARD, so n <= _CHUNK[q]: a missing row is one packed sum, the
    v[k] times the row packs of b, its bytes reduced by one translate."""

    __slots__ = ("_packed", "_n", "_mod")

    def __init__(self, b: FqMatrix):
        self._packed, self._n, self._mod = b._packed or _row_packs(b[1]), len(b[1]), _MOD_TABLE[b[0]]

    def __missing__(self, v):
        row = self[v] = tuple(sum(map(mul, v, self._packed)).to_bytes(self._n, "little").translate(self._mod))
        return row


def _reduced(q: int, rows: tuple[tuple[int, ...], ...]) -> FqMatrix:
    """An FqMatrix from rows already known to be square and reduced mod a
    supported q, built without re-validating them."""
    return tuple.__new__(FqMatrix, (q, rows))


def fq_matrix(q: int, rows) -> FqMatrix:
    _check_prime(q)  # before any entry is reduced mod q
    return FqMatrix(q, tuple([tuple([e % q for e in row]) for row in rows]))


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def identity_matrix(n: int, q: int) -> FqMatrix:
    return FqMatrix(q, _identity_rows(n))


def from_rook(r: RookElement, q: int) -> FqMatrix:
    """The rook element as a 0/1 matrix over F_q."""
    return fq_matrix(q, r.zero_one_rows())


def enumerate_matrices(n: int, q: int):
    """All of Mat_n(F_q), row-major lexicographic order."""
    _check_space(n, q, "bxb")
    return map(_decoder(n, q), range(q ** (n * n)))


def borel_generators(n: int, q: int) -> tuple[FqMatrix, ...]:
    """A small generating set of the Borel subgroup: one diagonal generator per
    slot (a primitive root) and the elementary unipotents E_ij(1), i < j.
    Each is reusable: it carries row tables for both sides."""
    _check_prime(q)

    def identity_with(i: int, j: int, e: int) -> FqMatrix:  # entry (i, j) set to the residue e
        return _reduced(q, tuple([tuple([e if (a, b) == (i, j) else int(a == b) for b in range(n)]) for a in range(n)]))

    g = primitive_root(q)
    diagonal = [identity_with(i, i, g) for i in range(n)] if g != 1 else []
    return tuple(map(_reusable, diagonal + [identity_with(i, j, 1) for i in range(n) for j in range(i + 1, n)]))


def enumerate_symmetric(n: int, q: int):
    """All symmetric n x n matrices over F_q, in increasing order."""
    _check_space(n, q, "sym")
    return map(_decoder(n, q), _codes(n, q, "sym"))


def enumerate_skew(n: int, q: int):
    """All skew-symmetric n x n matrices (zero diagonal) over F_q, in increasing order."""
    _check_space(n, q, "skew")
    return map(_decoder(n, q), _codes(n, q, "skew"))


class BorelFactorization(NamedTuple):
    """m = u . (t . r) . v with u, v unipotent upper triangular in the
    echelon-pattern subgroups determined by r, and t diagonal invertible."""

    u: FqMatrix
    t: FqMatrix
    r: RookElement
    v: FqMatrix

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    def product(self) -> FqMatrix:
        u, (q, t), r, v = self
        n = len(t)
        reduce, packed = _MOD_TABLE[q], v._packed or _row_packs(v[1])
        # (t r) v is monomial: its row i is t_ii times row r(i) of v, or zero when r(i) = 0;
        # no byte of t_ii times a row pack exceeds (q - 1)^2
        trv = [
            int.from_bytes((t[i][i] * packed[c - 1]).to_bytes(n, "little").translate(reduce), "little") if c else 0
            for i, c in enumerate(r.map)
        ]
        return _reduced(q, _packed_product(q, n, u._columns or _column_packs(u[1], n), trv))

    def pattern_ok(self) -> bool:
        """Check the uniqueness pattern: u is supported on (a, b) with b a pivot
        row and a not a pivot row of an earlier column; v on (a, b) with a a
        pivot column."""
        col = self.r.map  # col[a] is the pivot column of row a, or 0
        n, pivot_cols = len(col), set(col)
        for a, (urow, vrow) in enumerate(zip(self.u.rows, self.v.rows)):
            if a + 1 not in pivot_cols and any(vrow[a + 1 :]):
                return False
            for b in range(a + 1, n):
                if urow[b] and (not col[b] or 0 < col[a] < col[b]):
                    return False
        return True


def bruhat_factor(m: FqMatrix) -> BorelFactorization:
    """Bruhat normal form m = u (t r) v over the Borel of upper-triangular
    matrices; singular m is allowed.

    Pivot rule: scan columns left to right, pick the lowest nonzero entry in
    the unused rows, clear its row rightward by column operations, then its
    column upward by row operations.  The rook component is a complete
    invariant of the B x B orbit.

    The operations only copy values into u and v, so they are written
    directly.  Unused rows are zero left of the current column j.  With
    pivot piv = a[i0][j] and f_i = a[i][j] / piv for the other unused rows
    i nonzero in column j (all above i0), row j of v is row i0 of a times
    piv^-1; column i0 of u is e_i0 + sum of the f_i e_i (their columns of u
    are still unit columns); and the column and row operations add
    (q - f_i) times row i0 to each row i.  Neither row i0 nor column j is
    read again.

    a, u, t and v are each one int, entry (i, k) at byte n i + k, as in the
    packed product.  Column j of the unused rows is one shift and one mask,
    the f_i one multiply and one bytes.translate(_MOD_TABLE[q]) of it, and
    the row operations of all the rows i one multiply-add and one translate:
    no byte exceeds (q - 1)^2 + (q - 1) = 42 < 256.
    """
    q, rows = m
    n = len(rows)
    size = n * n
    reduce, negate, inverse, from_bytes = _MOD_TABLE[q], _NEGATE_TABLE[q], _INVERSE[q], int.from_bytes
    unused = from_bytes(b"\xff".ljust(n, b"\0") * n, "little")  # byte n i: row i is not yet a pivot row
    u = t = v = from_bytes(b"\x01".ljust(n + 1, b"\0") * n, "little")  # the identity: byte (n + 1) i
    row_mask = (1 << 8 * n) - 1
    a = from_bytes(b"".join(map(bytes, rows)), "little")
    rook_map = [0] * n
    for j in range(n):
        column = a >> 8 * j & unused  # byte n i is a[i][j]
        if not column:
            continue
        shift = (column.bit_length() - 1) >> 3 << 3  # the lowest nonzero entry: 8 n i0
        i0 = shift // (8 * n)
        piv = column >> shift
        piv_inv = inverse[piv]
        pivot_row = a >> shift & row_mask
        rest = column - (piv << shift)  # the other rows i nonzero in column j
        if rest:
            f = (rest * piv_inv).to_bytes(size, "little")  # byte n i is f_i, unreduced
            u += from_bytes(f.translate(reduce), "little") << 8 * i0
            a += from_bytes(f.translate(negate), "little") * pivot_row
            a = from_bytes(a.to_bytes(size, "little").translate(reduce), "little")
        w = from_bytes((pivot_row * piv_inv).to_bytes(n, "little").translate(reduce), "little")
        v += w - (1 << 8 * j) << 8 * n * j  # row j of v: w, whose byte j is 1
        t += piv - 1 << 8 * (n + 1) * i0
        unused -= 255 << shift
        rook_map[i0] = j + 1
    # every entry is already reduced mod q, and each row and column is used once in rook_map
    u, t, v = [_reduced(q, tuple(zip(*[iter(x.to_bytes(size, "little"))] * n))) for x in (u, t, v)]
    return BorelFactorization(u, t, _rook(tuple(rook_map)), v)


def orbit_enumerate(act, space, generators):
    """Partition a finite space into orbits of the group generated by generators.

    act(g, x) -> x applies one generator and must stay in the space.  The
    sorted, distinct points are numbered, and _merge joins each to its image
    under each generator.  The roots are the least points, so the orbits,
    grouped by root, are sorted tuples in the order of their minimal
    elements, and output is deterministic.  At most SPACE_GUARD points are held.
    """
    guard = SPACE_GUARD
    points = sorted(space)
    if len(points) > guard:
        raise ResourceLimitError(f"orbit space: {len(points)} points exceed the limit {guard}")
    points = list(dict.fromkeys(points))  # distinct, in increasing order
    index = dict(zip(points, itertools.count()))
    parent = list(range(len(points)))
    for g in generators:
        images = list(map(index.get, map(act, repeat(g), points)))
        if None in images:  # index.get, not index[...]: act may raise KeyError itself
            x = points[images.index(None)]
            raise PreconditionError(f"orbit enumeration: generator {g!r} maps {x!r} outside the space")
        _merge(parent, itertools.count(), images)
    return tuple(map(tuple, _groups(parent, points)))


def _merge(parent: list[int], xs, ys):
    """Join each x to its y in the union-find forest parent, by path halving.  The lesser
    root becomes the parent, so a root, its own parent, is its tree's least number."""
    for x, y in zip(xs, ys):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if y < x:
            parent[x] = y
        elif y > x:
            parent[y] = x


def _roots(parent: list[int]) -> list[int]:
    """The roots of the forest, the least numbers of its trees, in increasing order."""
    return list(itertools.compress(itertools.count(), map(eq, parent, itertools.count())))


def _groups(parent: list[int], items) -> list[list]:
    """items[x] grouped by the root of x, in the order of items, the groups in root order."""
    groups: dict[int, list] = {}
    for x, item in enumerate(items):  # parent[x] <= x already points at its root
        parent[x] = root = parent[parent[x]]
        groups.setdefault(root, []).append(item)
    return list(groups.values())


ORBIT_WORK_GUARD = 10**6


def _check_orbit_work(n: int, q: int, action: str):
    """Bound the work of borel_orbits by |space| x |generators| applications,
    before any generator, table or decoder is built.  An application is the
    point's number plus a few table lookups.  This is an upper bound: the
    diagonal generators act once per U-orbit, not once per point."""
    dim = _dimension(n, action)
    gens = (n if q > 2 else 0) + max(n - 1, 0)  # the _simple_generators per side
    if action == "bxb":
        gens *= 2
    if dim > 64:  # q^dim alone is far beyond the limit; do not build the integer
        estimate = f"{q}^{dim} points x {gens} generators"
    else:
        points = q**dim
        if points * gens <= ORBIT_WORK_GUARD:
            return
        estimate = f"{points} points x {gens} generators = {points * gens}"
    raise ResourceLimitError(
        f"Borel orbit work estimate {estimate} applications exceeds the limit {ORBIT_WORK_GUARD}"
    )


def _stored_entries(n: int, action: str) -> list[tuple[int, int]]:
    """The entries whose base-q digits, read in this order, are a point's
    number: every entry of a matrix ("bxb"), where the number is the code,
    and the entries on and above the diagonal ("sym") or above it ("skew"),
    which determine a form.  Both are row-major, so number order is FqMatrix
    order."""
    return [(i, j) for i in range(n) for j in range(n) if action == "bxb" or j > i or (j == i and action == "sym")]


def _decoder(n: int, q: int, action: str = "bxb"):
    """number -> FqMatrix.  A matrix's code is the integer whose base-q
    digits are its entries read row-major (so integer order is FqMatrix
    order); a form's code is the sum, over its rows, of the code of the form
    whose stored entries are that row's."""
    size = q**n
    vectors = list(itertools.product(range(q), repeat=n))  # indexed by row code
    place = [size ** (n - 1 - i) for i in range(n)]  # row i of a code is code // place[i] % size

    def decode(x):
        return _reduced(q, tuple([vectors[x // p % size] for p in place]))

    if action == "bxb":
        return decode
    entries, blocks, after = _stored_entries(n, action), [], 0  # per row: its digits x // w % s, and their codes
    for i in reversed(range(n)):
        row = [e for e in entries if e[0] == i]
        blocks.append((q**after, q ** len(row), _form_codes(n, q, action, row)))
        after += len(row)
    return lambda x: decode(sum([codes[x // w % s] for w, s, codes in blocks]))


def _form_codes(n: int, q: int, action: str, entries) -> list[int]:
    """The codes of the forms in Sym_n(F_q) or Skew_n(F_q) that are zero off
    the stored entries `entries` and their mirrors, in increasing order of
    the digits of `entries` (their lexicographic product)."""
    codes = [0]
    for i, j in entries:
        up, down = q ** (n * n - 1 - i * n - j), q ** (n * n - 1 - j * n - i)
        if i == j:
            slot = [v * up for v in range(q)]
        elif action == "sym":
            slot = [v * (up + down) for v in range(q)]
        else:
            slot = [v * up + (-v % q) * down for v in range(q)]
        codes = [c + d for c in codes for d in slot]
    return codes


def _codes(n: int, q: int, action: str):
    """The codes of a space's points, in number order."""
    return range(q ** (n * n)) if action == "bxb" else _form_codes(n, q, action, _stored_entries(n, action))


def borel_orbits(n: int, q: int, action: str) -> tuple[tuple[FqMatrix, ...], ...]:
    """Orbits of the Borel subgroup B of invertible upper-triangular matrices:
    B x B on Mat_n(F_q) by m -> b m c^-1 (action "bxb"), or B on Sym_n(F_q) or
    Skew_n(F_q) by congruence A -> b A b^T ("sym", "skew").  The result is
    what orbit_enumerate returns for the same action: sorted orbits, ordered
    by their minimal elements.

    A point is its number x, the base-q value of its stored entries
    (_stored_entries).  A simple generator g = I + c E_ab moves a few
    digits, each to a linear form in digits of its own row and of row b, so
    its image of x is x plus one table lookup per block of rows
    (_generator_blocks): rows k and k + 1 for E_k,k+1(1) on the left, and by
    congruence also each row i < k (its entry (i, k)); row k for the
    diagonal generator at k on the left, and each row up to k by
    congruence; each row alone for every generator on the right.  Over all
    points at once, a lookup is a table repeated in a fixed period.

    B = T U, with U the unipotent subgroup, generated by the E_k,k+1(1), and
    T the torus of diagonal matrices.  A union-find whose roots are minimal
    points first merges every point with its image, one E_k,k+1(1) at a
    time, which leaves the U-orbits (U x U for "bxb").  T normalizes U, so
    t (U x) = U (t x): the torus only permutes the U-orbits, and a second
    pass merges one point of each U-orbit, its root, with its images under
    the diagonal generators (T x T for "bxb").  Over F_2, T is trivial and
    the second pass is skipped.
    """
    codes = _borel_orbit_codes(n, q, action)
    decode = _decoder(n, q)
    return tuple(tuple(map(decode, orbit)) for orbit in codes)


def _borel_orbit_codes(n: int, q: int, action: str) -> list[list[int]]:
    """The orbits of borel_orbits as increasing lists of codes, in its order."""
    return _groups(_borel_parents(n, q, action), _codes(n, q, action))


def _simple_generators(n: int, q: int, action: str) -> tuple[list, list]:
    """The simple Borel generators g = I + c E_ab as (side, a, b, c), on the
    left and on the right ("bxb") or by congruence: the E_k,k+1(1), and
    diag(.., g, ..) at k with g a primitive root, c = g - 1 (none over F_2).
    They generate B: the torus conjugates E_k,k+1(1) to every E_k,k+1(t),
    t != 0, and commutators of those give the other E_ij(t)."""
    sides = ("left", "right") if action == "bxb" else ("congruence",)
    c = primitive_root(q) - 1
    unipotent = [(side, k, k + 1, 1) for k in range(n - 1) for side in sides]
    return unipotent, [(side, k, k, c) for k in range(n) for side in sides if c]


def _generator_forms(n: int, q: int, action: str, generator) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """The stored entries that the generator (side, a, b, c) moves, each with
    its new value as a linear form {stored entry: coefficient mod q} in the
    old ones: row a of g m ("left"), column b of m g ("right"), or row and
    column a of g A g^T ("congruence").  Only g's one off-identity entry
    enters: at most n forms of at most three terms."""
    side, a, b, c = generator
    if side == "left":  # (g m)[a][j] = m[a][j] + c m[b][j]
        moved = [((a, j), [((b, j), c)]) for j in range(n)]
    elif side == "right":  # (m g)[i][b] = m[i][b] + c m[i][a]
        moved = [((i, b), [((i, a), c)]) for i in range(n)]
    else:  # (g A g^T)[i][j] = A[i][j] + c [i = a] A[b][j] + c [j = a] A[i][b] + c^2 [i = j = a] A[b][b]
        # a <= b, so each entry read is on or above the diagonal, but for A[b][a] in
        # entry (a, a): that is A[a][b] on Sym_n, and Skew_n stores no (a, a)
        moved = [((i, a), [((i, b), c)]) for i in range(a)]
        moved += [((a, a), [((a, b), 2 * c), ((b, b), c * c)])]
        moved += [((a, j), [((b, j), c)]) for j in range(a + 1, n)]
    stored = set(_stored_entries(n, action))
    forms = {}
    for out, terms in moved:
        form = {out: 1}
        for entry, f in terms:
            form[entry] = (form.get(entry, 0) + f) % q
        form = {entry: f for entry, f in form.items() if f and entry in stored}  # A[i][i] = 0 on Skew_n: not stored
        if out in stored and form != {out: 1}:
            forms[out] = form
    return forms


# _DIGITS[q] maps a byte b to the ASCII digit of b mod q, so that
# int(packed.translate(_DIGITS[q]), q) reads reduced bytes as one base-q number
_DIGITS = {q: bytes(48 + b % q for b in range(256)) for q in SUPPORTED_PRIMES}


def _linear_table(q: int, terms) -> list[int]:
    """sum(v[k] * terms[k]) for every vector v over F_q, in base-q order of
    v: the sums are extended one coordinate at a time."""
    sums = [0]
    for term in terms:
        steps = [a * term for a in range(q)]
        sums = [s + step for s in sums for step in steps]
    return sums


def _generator_blocks(n: int, q: int, action: str, generator) -> list[tuple[int, int, list[int]]]:
    """The generator maps a point x to x + sum(delta[x // w % s]) over the
    (w, s, delta) returned, one per block of whole rows: the rows of a moved
    entry and of the entries its form reads.  A form reads its own row, and
    only row a's forms read row b too, so these spans are disjoint.

    delta comes from packed sums: byte t of the packed term of the block's
    digit u is u's coefficient in the new digit t, so byte t of the sum over
    the digits of a block value is the unreduced new digit t, at most three
    terms of (q - 1)^2 each and so below 256 (no byte carries).  One
    translate to digit characters and one int(.., q) read the new value."""
    entries = _stored_entries(n, action)
    position = {entry: k for k, entry in enumerate(entries)}
    forms = _generator_forms(n, q, action, generator)
    blocks = []
    for low, high in sorted({(out[0], max(e[0] for e in form)) for out, form in forms.items()}):
        digits = [k for k, (i, j) in enumerate(entries) if low <= i <= high]
        first, end = digits[0], digits[-1] + 1
        m = end - first
        terms = [1 << 8 * (m - 1 - u) for u in range(m)]  # an unmoved digit is itself
        for out, form in forms.items():
            t = position[out] - first
            if 0 <= t < m:
                shift = 8 * (m - 1 - t)
                terms[t] -= 1 << shift
                for entry, f in form.items():
                    terms[position[entry] - first] += f << shift
        packed = map(int.to_bytes, _linear_table(q, terms), repeat(m), repeat("big"))
        new = map(int, map(bytes.translate, packed, repeat(_DIGITS[q])), repeat(q))
        w = q ** (len(entries) - end)
        blocks.append((w, q**m, list(map(mul, map(sub, new, itertools.count()), repeat(w)))))
    return blocks


def _borel_parents(n: int, q: int, action: str) -> list[int]:
    """The union-find forest of the orbits of borel_orbits on the point
    numbers: each parent is at most its child, so a root, its own parent,
    is its orbit's least point."""
    _check_prime(q)
    _check_n(n)
    if action not in BOREL_ACTIONS:
        raise PreconditionError(f"action must be one of {BOREL_ACTIONS}, got {action!r}")
    _check_orbit_work(n, q, action)
    size = q ** _dimension(n, action)
    points = range(size)
    parent = list(points)

    def images(generator, xs):
        ys = xs
        for w, s, delta in _generator_blocks(n, q, action, generator):
            if xs is points:  # delta[x // w % s] over all points: each entry w times, the period w s repeated
                deltas = delta if w == 1 else itertools.chain.from_iterable(map(repeat, delta, repeat(w)))
                deltas = deltas if w * s == size else itertools.cycle(deltas)
            else:
                deltas = map(delta.__getitem__, map(mod, map(floordiv, xs, repeat(w)), repeat(s)))
            ys = map(add, ys, deltas)
        return ys

    unipotent, torus = _simple_generators(n, q, action)
    for generator in unipotent:
        _merge(parent, points, images(generator, points))
    if torus:  # it permutes the U-orbits, so their roots suffice
        roots = _roots(parent)
        for generator in torus:
            _merge(parent, roots, images(generator, roots))
    return parent


def theta_an(m: FqMatrix, inv) -> FqMatrix:
    """The monoid antiinvolution m -> m^T of AI, the one catalog involution
    that `symmon verify` realizes over F_q (AII's -J m^T J is a test oracle)."""
    if inv.family != "AI":
        raise UnsupportedFamilyError(f"theta_an realizes AI only, not {inv.family}")
    return m.transpose()
