"""Exhaustive matrix machinery over small prime fields.

Everything here is desk scale by design: the supported moduli are 2, 3, 5, 7
and every enumeration is guarded.  Matrices are immutable tuples of residue
rows, so they hash and sort canonically (row-major).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem, mul

from .errors import PreconditionError, ResourceLimitError, UnsupportedFamilyError
from .rook import RookElement

SUPPORTED_PRIMES = (2, 3, 5, 7)
SPACE_GUARD = 10**6


def _check_prime(q: int):
    if q not in SUPPORTED_PRIMES:
        raise PreconditionError(f"modulus {q} not supported (use one of {SUPPORTED_PRIMES})")


def inv_mod(a: int, q: int) -> int:
    a %= q
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, q - 2, q)


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


@dataclass(frozen=True, order=True)
class FqMatrix:
    """A dense square matrix of residues mod q."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_prime(self.q)
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n or any(not 0 <= e < self.q for e in row):
                raise PreconditionError("rows must be reduced residues of a square matrix")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "FqMatrix") -> "FqMatrix":
        if self.q != other.q or self.n != other.n:
            raise PreconditionError("size or modulus mismatch")
        q = self.q
        cols = tuple(zip(*other.rows))
        # both operands are validated and every entry is reduced mod q
        return _reduced(
            q, tuple(tuple(sum(map(mul, row, col)) % q for col in cols) for row in self.rows)
        )

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.q, tuple(zip(*self.rows)))

    def __neg__(self) -> "FqMatrix":
        return FqMatrix(self.q, tuple(tuple(-e % self.q for e in row) for row in self.rows))

    def rank(self) -> int:
        work = [list(r) for r in self.rows]
        q, n = self.q, self.n
        rank = 0
        for c in range(n):
            pivot = next((r for r in range(rank, n) if work[r][c]), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            inv = inv_mod(work[rank][c], q)
            work[rank] = [e * inv % q for e in work[rank]]
            for r in range(n):
                if r != rank and work[r][c]:
                    f = work[r][c]
                    work[r] = [(e - f * p) % q for e, p in zip(work[r], work[rank])]
            rank += 1
        return rank

    def is_invertible(self) -> bool:
        return self.rank() == self.n

    def inverse(self) -> "FqMatrix":
        """The inverse, computed once per instance and then cached."""
        cached = self.__dict__.get("_inverse")
        if cached is not None:
            return cached
        q, n = self.q, self.n
        work = [list(self.rows[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, n) if work[i][c]), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv = inv_mod(work[r][c], q)
            work[r] = [e * inv % q for e in work[r]]
            for i in range(n):
                if i != r and work[i][c]:
                    f = work[i][c]
                    work[i] = [(e - f * p) % q for e, p in zip(work[i], work[r])]
            r += 1
        if r != n:
            raise PreconditionError("matrix is singular")
        inverse = _reduced(q, tuple(tuple(row[n:]) for row in work))
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(inverse, "_inverse", self)
        return inverse

    def is_upper_triangular(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.n) for j in range(i))

    def is_upper_unitriangular(self) -> bool:
        return self.is_upper_triangular() and all(self.rows[i][i] == 1 for i in range(self.n))

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j] == 0 for i in range(self.n) for j in range(self.n) if i != j)

    def is_symmetric(self) -> bool:
        return self.rows == tuple(zip(*self.rows))

    def is_skew(self) -> bool:
        n = self.n
        return all(self.rows[i][i] == 0 for i in range(n)) and all(
            self.rows[i][j] == -self.rows[j][i] % self.q for i in range(n) for j in range(n)
        )

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(e) for e in row) for row in self.rows)
        return f"[{body}] (mod {self.q})"


def _reduced(q: int, rows: tuple[tuple[int, ...], ...]) -> FqMatrix:
    """An FqMatrix from rows already known to be square and reduced mod a
    supported q, built without re-validating them."""
    m = object.__new__(FqMatrix)
    object.__setattr__(m, "q", q)
    object.__setattr__(m, "rows", rows)
    return m


def fq_matrix(q: int, rows) -> FqMatrix:
    return FqMatrix(q, tuple(tuple(e % q for e in row) for row in rows))


def identity_matrix(n: int, q: int) -> FqMatrix:
    return FqMatrix(q, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zero_matrix(n: int, q: int) -> FqMatrix:
    return FqMatrix(q, ((0,) * n,) * n)


def from_rook(r: RookElement, q: int, diag=None) -> FqMatrix:
    """The rook element as an F_q matrix, optionally with scaled pivot rows.

    diag, when given, is a length-n sequence; row i is scaled by diag[i].
    """
    n = r.n
    rows = [list(row) for row in r.zero_one_rows()]
    if diag is not None:
        for i in range(n):
            rows[i] = [e * (diag[i] % q) % q for e in rows[i]]
    return fq_matrix(q, rows)


def enumerate_matrices(n: int, q: int):
    """All of Mat_n(F_q), row-major lexicographic order."""
    _check_prime(q)
    if q ** (n * n) > SPACE_GUARD:
        raise ResourceLimitError("matrix space exceeds guard")
    for flat in itertools.product(range(q), repeat=n * n):
        yield FqMatrix(q, tuple(flat[i * n : (i + 1) * n] for i in range(n)))


def borel_size(n: int, q: int) -> int:
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


def enumerate_borel(n: int, q: int):
    """All invertible upper-triangular matrices, each exactly once."""
    _check_prime(q)
    if borel_size(n, q) > SPACE_GUARD:
        raise ResourceLimitError("Borel group exceeds size guard")
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(range(1, q), repeat=n):
        for vals in itertools.product(range(q), repeat=len(above)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), v in zip(above, vals):
                rows[i][j] = v
            yield FqMatrix(q, tuple(tuple(r) for r in rows))


def borel_generators(n: int, q: int) -> tuple[FqMatrix, ...]:
    """A small generating set of the Borel subgroup: one diagonal generator per
    slot (a primitive root) and the elementary unipotents E_ij(1), i < j."""
    _check_prime(q)
    gens = []
    g = primitive_root(q)
    if g != 1:
        for i in range(n):
            rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            rows[i][i] = g
            gens.append(fq_matrix(q, rows))
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            rows[i][j] = 1
            gens.append(fq_matrix(q, rows))
    return tuple(gens)


def enumerate_symmetric(n: int, q: int):
    """All symmetric n x n matrices over F_q."""
    _check_prime(q)
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    if q ** len(slots) > SPACE_GUARD:
        raise ResourceLimitError("symmetric space exceeds guard")
    for vals in itertools.product(range(q), repeat=len(slots)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(slots, vals):
            rows[i][j] = rows[j][i] = v
        yield FqMatrix(q, tuple(tuple(r) for r in rows))


def enumerate_skew(n: int, q: int):
    """All skew-symmetric n x n matrices (zero diagonal) over F_q."""
    _check_prime(q)
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if q ** len(slots) > SPACE_GUARD:
        raise ResourceLimitError("skew space exceeds guard")
    for vals in itertools.product(range(q), repeat=len(slots)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(slots, vals):
            rows[i][j] = v
            rows[j][i] = -v % q
        yield FqMatrix(q, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class BorelFactorization:
    """m = u . (t . r) . v with u, v unipotent upper triangular in the
    echelon-pattern subgroups determined by r, and t diagonal invertible."""

    u: FqMatrix
    t: FqMatrix
    r: RookElement
    v: FqMatrix

    def product(self) -> FqMatrix:
        tr = self.t @ from_rook(self.r, self.t.q)
        return self.u @ tr @ self.v

    def pattern_ok(self) -> bool:
        """Check the uniqueness pattern: u is supported on (a, b) with b a pivot
        row and a not a pivot row of an earlier column; v on (a, b) with a a
        pivot column."""
        n = self.u.n
        col_of_row = {i + 1: j for i, j in enumerate(self.r.map) if j != 0}
        pivot_cols = set(self.r.map) - {0}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if self.u.rows[a - 1][b - 1] != 0:
                    if b not in col_of_row:
                        return False
                    if a in col_of_row and col_of_row[a] < col_of_row[b]:
                        return False
                if self.v.rows[a - 1][b - 1] != 0 and a not in pivot_cols:
                    return False
        return True


def bruhat_factor(m: FqMatrix) -> BorelFactorization:
    """Bruhat normal form m = u (t r) v over the Borel of upper-triangular
    matrices; singular m is allowed.

    Pivot rule: scan columns left to right, pick the lowest nonzero entry in
    the unused rows, clear its row rightward by column operations, then its
    column upward by row operations.  The rook component is a complete
    invariant of the B x B orbit.
    """
    q, n = m.q, m.n
    a = [list(row) for row in m.rows]
    # accumulated inverse operations: m = U . a . V throughout
    big_u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    big_v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row_of_col: dict[int, int] = {}
    used_rows: set[int] = set()
    for j in range(n):
        cand = [i for i in range(n) if i not in used_rows and a[i][j]]
        if not cand:
            continue
        i0 = max(cand)  # lowest nonzero entry
        piv = a[i0][j]
        piv_inv = inv_mod(piv, q)
        # clear row i0 rightward: col_k -= (a[i0][k]/piv) * col_j,
        # i.e. a <- a . (I - f E_{jk}); v accumulates (I + f E_{jk}) on the left
        for k in range(j + 1, n):
            if a[i0][k]:
                f = a[i0][k] * piv_inv % q
                for r_ in range(n):
                    a[r_][k] = (a[r_][k] - f * a[r_][j]) % q
                for c in range(n):
                    big_v[j][c] = (big_v[j][c] + f * big_v[k][c]) % q
        # clear column j upward: row_i -= (a[i][j]/piv) * row_i0,
        # i.e. a <- (I - f E_{i,i0}) . a; u accumulates (I + f E_{i,i0}) on the right
        for i in range(i0):
            if a[i][j]:
                f = a[i][j] * piv_inv % q
                for k in range(n):
                    a[i][k] = (a[i][k] - f * a[i0][k]) % q
                for r_ in range(n):
                    big_u[r_][i0] = (big_u[r_][i0] + f * big_u[r_][i]) % q
        pivot_row_of_col[j] = i0
        used_rows.add(i0)
    rook_map = [0] * n
    tdiag = [1] * n
    for j, i0 in pivot_row_of_col.items():
        rook_map[i0] = j + 1
        tdiag[i0] = a[i0][j]
    r = RookElement(tuple(rook_map))
    t = fq_matrix(q, [[tdiag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return BorelFactorization(
        u=fq_matrix(q, big_u), t=t, r=r, v=fq_matrix(q, big_v)
    )


def orbit_enumerate(act, space, generators, seeds=None, guard: int = SPACE_GUARD):
    """Partition a finite space into orbits of the group generated by generators.

    act(g, x) -> x applies one generator.  When seeds is given, only the orbits
    of the seed points are returned (they must be closed within the space hash
    universe).  Orbits are sorted tuples; the partition is sorted by the orbit
    representatives (minimal elements), so output is deterministic.
    """
    points = list(space) if space is not None else None
    if points is not None and len(points) > guard:
        raise ResourceLimitError("orbit space exceeds guard")
    todo = points if seeds is None else list(seeds)
    seen_orbit: dict = {}
    orbits = []
    for start in todo:
        if start in seen_orbit:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in generators:
                    y = act(g, x)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
                        if len(seen_orbit) + len(orbit) > guard:
                            raise ResourceLimitError("orbit enumeration exceeds guard")
            frontier = nxt
        orbit_t = tuple(sorted(orbit))
        for x in orbit_t:
            seen_orbit[x] = orbit_t[0]
        orbits.append(orbit_t)
    return tuple(sorted(orbits, key=lambda o: o[0]))


ORBIT_WORK_GUARD = 10**6
BOREL_ACTIONS = ("bxb", "sym", "skew")


def _simple_borel_generators(n: int, q: int) -> tuple[FqMatrix, ...]:
    """The diagonal generators and the E_i,i+1(1).  They generate the Borel
    subgroup too: the torus conjugates E_i,i+1(1) to every E_i,i+1(t), t != 0,
    and commutators of those give the other E_ij(t)."""
    return tuple(
        b for b in borel_generators(n, q) if not any(any(row[i + 2 :]) for i, row in enumerate(b.rows))
    )


def _check_orbit_work(n: int, q: int, action: str):
    """Bound the estimated work of borel_orbits, |space| x |generators|
    applications, before any generator or table is built."""
    dim = {"bxb": n * n, "sym": n * (n + 1) // 2, "skew": n * (n - 1) // 2}[action]
    gens = (n if q > 2 else 0) + max(n - 1, 0)  # len(_simple_borel_generators(n, q))
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


def _form_codes(n: int, q: int, action: str) -> list[int]:
    """The codes of Sym_n(F_q) or Skew_n(F_q) in increasing order.  The entries
    on and above the diagonal, read row-major, determine the matrix and order
    it, so their lexicographic product is increasing."""
    weight = [q ** (n * n - 1 - k) for k in range(n * n)]
    codes = [0]
    for i in range(n):
        for j in range(i if action == "sym" else i + 1, n):
            up, down = weight[i * n + j], weight[j * n + i]
            if i == j:
                slot = [v * up for v in range(q)]
            elif action == "sym":
                slot = [v * (up + down) for v in range(q)]
            else:
                slot = [v * up + (-v % q) * down for v in range(q)]
            codes = [c + d for c in codes for d in slot]
    return codes


def borel_orbits(n: int, q: int, action: str) -> tuple[tuple[FqMatrix, ...], ...]:
    """Orbits of the Borel subgroup B of invertible upper-triangular matrices:
    B x B on Mat_n(F_q) by m -> b m c^-1 (action "bxb"), or B on Sym_n(F_q) or
    Skew_n(F_q) by congruence A -> b A b^T ("sym", "skew").  The result is
    what orbit_enumerate returns for the same action: sorted orbits, ordered
    by their minimal elements.

    A matrix is coded as the integer whose base-q digits are its entries read
    row-major, so integer order is FqMatrix order, and each row is a code
    below Q = q^n.  A generator acts through tables over the Q row vectors:
    m -> m c maps each row through v -> v c, and the transpose T(m c) is a sum
    of one lookup per row.  Left multiplication is b m = T(T(m) b^T), and
    congruence is b A b^T = T(T(A b^T) b^T).  Each point is merged with every
    image in a union-find whose roots are the orbits' minimal codes.
    """
    _check_prime(q)
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")
    if action not in BOREL_ACTIONS:
        raise PreconditionError(f"action must be one of {BOREL_ACTIONS}, got {action!r}")
    _check_orbit_work(n, q, action)
    gens = _simple_borel_generators(n, q)
    size = q**n
    digit = [q ** (n - 1 - k) for k in range(n)]  # entry k of a row code is code // digit[k] % q
    place = [size ** (n - 1 - i) for i in range(n)]  # row i of a code is code // place[i] % size
    vectors = list(itertools.product(range(q), repeat=n))  # indexed by row code
    spread = [sum(map(mul, v, place)) for v in vectors]  # a row's digits put down column 0

    def times(c: FqMatrix) -> list[int]:
        """v -> v c on row codes."""
        cols = list(zip(*c.rows))
        return [sum(sum(map(mul, v, col)) % q * d for col, d in zip(cols, digit)) for v in vectors]

    def placed(c: FqMatrix) -> list[list[int]]:
        """Per row position i, the tables whose sum over the rows is m c."""
        table = times(c)
        return [[w * p for w in table] for p in place]

    def transposed(c: FqMatrix) -> list[list[int]]:
        """Per row position i, the tables whose sum over the rows is T(m c)."""
        table = times(c)
        return [[spread[w] * d for w in table] for d in digit]

    if action == "bxb":
        points = range(q ** (n * n))
        flip = transposed(identity_matrix(n, q))
        on_rows = [placed(b) for b in gens]  # m -> m b
        on_cols = [transposed(b.transpose()) for b in gens]  # m -> b m

        def images(x):
            rows = [x // p % size for p in place]
            for tables in on_rows:
                yield sum(map(getitem, tables, rows))
            t = sum(map(getitem, flip, rows))
            cols = [t // p % size for p in place]
            for tables in on_cols:
                yield sum(map(getitem, tables, cols))

    else:
        points = _form_codes(n, q, action)
        moves = [transposed(b.transpose()) for b in gens]  # A -> T(A b^T)

        def images(x):
            rows = [x // p % size for p in place]
            for tables in moves:
                t = sum(map(getitem, tables, rows))
                yield sum(map(getitem, tables, [t // p % size for p in place]))

    parent = list(points) if action == "bxb" else {x: x for x in points}
    for x in points:
        root = x
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        for y in images(x):
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if y < root:
                parent[root] = root = y
            elif y > root:
                parent[y] = root
    orbits: dict[int, list[int]] = {}
    for x in points:  # increasing, so each orbit starts at its root
        root = parent[x]
        while parent[root] != root:
            root = parent[root]
        orbits.setdefault(root, []).append(x)
    return tuple(
        tuple([_reduced(q, tuple([vectors[x // p % size] for p in place])) for x in orbit])
        for orbit in orbits.values()
    )


def theta_an(m: FqMatrix, inv) -> FqMatrix:
    """Apply the monoid antiinvolution of a catalog involution with a matrix
    realization: transpose for AI, -J m^T J for AII."""
    if inv.theta0 == "transpose":
        return m.transpose()
    if inv.theta0 == "symplectic":
        j = symplectic_j(m.n, m.q)
        return -(j @ m.transpose() @ j)
    raise UnsupportedFamilyError(f"family {inv.family} has no matrix realization")


def symplectic_j(n: int, q: int) -> FqMatrix:
    """The block-diagonal matrix diag(J_2, ..., J_2) with J_2 = [[0,1],[-1,0]]."""
    if n % 2:
        raise PreconditionError("symplectic J needs even size")
    rows = [[0] * n for _ in range(n)]
    for b in range(0, n, 2):
        rows[b][b + 1] = 1
        rows[b + 1][b] = q - 1
    return FqMatrix(q, tuple(tuple(r) for r in rows))


def twisted_action(b: FqMatrix, m: FqMatrix, inv) -> FqMatrix:
    """b * m = b . m . theta_an(b); for AI this is b m b^T."""
    return b @ m @ theta_an(b, inv)
