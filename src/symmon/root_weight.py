"""Exact root-system, weight-lattice, and Weyl-group arithmetic.

Classical families A, B, C, D in epsilon-coordinates:

* type A_{l} lives in the ambient space R^{l+1}, simple roots e_i - e_{i+1};
  the extra dimension carries the determinant direction chi = (1/n)(e_1+...+e_n)
  used by the extended weights chi_i = e_i and chi~_i = chi_i - chi;
* types B_l, C_l, D_l live in R^l with the standard orthonormal coordinates.

Weights cross the API as `Weight`s with exact `Fraction` coordinates, and
equality of weights is exact.  The Weyl-orbit and weight-set kernels work on
Dynkin labels instead: mu is the vector (<mu, alpha_j^vee>)_j, integers for
every integral weight (and scaled by their common denominator otherwise),
read by `RootSystem.labels` off the integer coroots and packed into one int
(see the kernel note at `_LabelCode`).  The simple reflection is
s_i(mu) = mu - mu_i * (row i of the Cartan matrix), and mu is dominant when
every label is a nonnegative integer.  Orbits and weight sets leave the
kernels as integer vectors over a common denominator (`_scaled_orbit`, which
`polytope` reads, and `scaled_weight_set`), and `Fraction`s are built only
where those become `Weight`s.

The root datum is integral too.  The labels of mu = sum_i c_i alpha_i are
c C, for C the Cartan matrix, so c = labels adj(C) / det C, with det C > 0
and the adjugate adj(C) = det C * C^-1 computed once in integers
(`_cartan_adjugate`).  Row j of adj(C) gives det C * omega_j, and the sign
of labels adj(C) tells a positive root from a negative one.
"""

from __future__ import annotations

import functools
import math
import struct
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import linalg
from ._record import no_tuple_arithmetic
from .errors import (
    DegenerateRootError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedFamilyError,
)

ORBIT_GUARD = 10**6
RANK_GUARD = 6


class Weight(NamedTuple):
    """A vector of exact rationals in the ambient epsilon-coordinate space:
    the record (coords,).  Its + and - are vector sums and c * w scales it;
    w * c raises TypeError, as on every record."""

    coords: tuple[Fraction, ...]

    __mul__ = no_tuple_arithmetic

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(linalg.vec_add(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(linalg.vec_sub(self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.coords))

    def scale(self, c) -> "Weight":
        return Weight(linalg.vec_scale(c, self.coords))

    def __rmul__(self, c) -> "Weight":
        return self.scale(c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def scaled_to_integers(self) -> tuple[int, list[int]]:
        """(d, x): the common denominator d of the coordinates, and x = d * self in integers."""
        d = math.lcm(*(c.denominator for c in self.coords))
        return d, [c.numerator * (d // c.denominator) for c in self.coords]

    def to_json(self) -> list[str]:
        return [linalg.frac_str(c) for c in self.coords]

    def __repr__(self) -> str:
        return "(" + ", ".join(linalg.frac_str(c) for c in self.coords) + ")"


def weight(entries) -> Weight:
    return Weight(linalg.vec(entries))


class RootSystem(NamedTuple):
    """Simple-root data for one classical family at a fixed rank: the integer
    coroots 2 alpha_j / (alpha_j, alpha_j) and cartan[i][j] = <alpha_i, alpha_j^vee>."""

    family: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[Weight, ...]
    cartan: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    # root_system builds every other field from (family, rank), so comparing
    # and hashing those alone spares every lru_cache lookup a hash and a
    # comparison of the Fraction simple roots
    def __eq__(self, other):
        if other.__class__ is not RootSystem:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def form(self, mu: Weight, nu: Weight) -> Fraction:
        """The W-invariant bilinear form (standard dot product in our coordinates)."""
        return linalg.dot(mu.coords, nu.coords)

    def pairings(self, mu: Weight) -> tuple[int, list[int], list[int]]:
        """(d, x, p): x = d * mu in integers (Weight.scaled_to_integers) and
        its coroot pairings p_j = <x, alpha_j^vee>, so the labels of mu are p / d."""
        if len(mu.coords) != self.ambient_dim:
            raise PreconditionError("weight and root system differ in ambient dimension")
        d, x = mu.scaled_to_integers()
        return d, x, [sum(map(mul, coroot, x)) for coroot in self.coroots]

    def labels(self, mu: Weight) -> tuple:
        """The Dynkin labels (<mu, alpha_j^vee>)_j: exact, and int where integral."""
        d, _, pairings = self.pairings(mu)
        return tuple([Fraction(p, d) if p % d else p // d for p in pairings])

    def is_dominant(self, mu: Weight) -> bool:
        """Dominant abstract weight: all Dynkin labels are nonnegative integers."""
        return all(type(x) is int and x >= 0 for x in self.labels(mu))

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank}


def _simple_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if family == "A":
        n = rank + 1
        rows = []
        for i in range(rank):
            r = [0] * n
            r[i], r[i + 1] = 1, -1
            rows.append(tuple(r))
        return tuple(rows)
    rows = []
    for i in range(rank - 1):
        r = [0] * rank
        r[i], r[i + 1] = 1, -1
        rows.append(tuple(r))
    last = [0] * rank
    if family == "B":
        last[rank - 1] = 1
    elif family == "C":
        last[rank - 1] = 2
    elif family == "D":
        if rank < 2:
            raise PreconditionError("type D needs rank >= 2")
        last[rank - 2] = last[rank - 1] = 1
    else:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    rows.append(tuple(last))
    return tuple(rows)


def root_system(family: str, rank: int) -> RootSystem:
    """Build the root system; families A, B, C, D, rank at desk scale."""
    family = family.upper()
    if rank < 1:
        raise PreconditionError("rank must be positive")
    if rank > RANK_GUARD:
        raise ResourceLimitError(f"root system rank {rank} exceeds the limit {RANK_GUARD}")
    simples = _simple_roots(family, rank)
    # 2 alpha / (alpha, alpha) is integral for every root of A-D in epsilon-coordinates
    coroots = tuple(tuple(2 * c // sum(map(mul, a, a)) for c in a) for a in simples)
    cartan = tuple(tuple(sum(map(mul, a, v)) for v in coroots) for a in simples)
    return RootSystem(family, rank, len(simples[0]), tuple(map(weight, simples)), cartan, coroots)


def reflect(rs: RootSystem, alpha: Weight, mu: Weight) -> Weight:
    """Reflection of mu in the hyperplane orthogonal to alpha."""
    nn = rs.form(alpha, alpha)
    if nn == 0:
        raise DegenerateRootError("cannot reflect at a zero-norm vector")
    c = 2 * rs.form(mu, alpha) / nn
    return mu - alpha.scale(c)


@functools.lru_cache(maxsize=None)
def _cartan_adjugate(rs: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det C, adj C) for the Cartan matrix C, so that C^-1 = adj C / det C
    (det C > 0)."""
    return linalg.int_det(rs.cartan), linalg.adjugate(rs.cartan)


@functools.lru_cache(maxsize=None)
def _scaled_fundamental(rs: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows): the least d making every d * omega_j integral, and those
    vectors.  det * omega_j = sum_i adj(C)[j][i] alpha_i is integral, so d is
    det over the gcd of det and every entry of those vectors."""
    det, adj = _cartan_adjugate(rs)
    columns = list(zip(*_simple_roots(rs.family, rs.rank)))
    scaled = [[sum(map(mul, row, col)) for col in columns] for row in adj]
    g = math.gcd(det, *(x for v in scaled for x in v))
    return det // g, tuple(tuple(x // g for x in v) for v in scaled)


@functools.lru_cache(maxsize=None)
def fundamental_weights(rs: RootSystem) -> tuple[Weight, ...]:
    """omega_1..omega_l with <omega_i, alpha_j> = delta_ij, inside the simple-root span."""
    d, rows = _scaled_fundamental(rs)
    return tuple(Weight(tuple(Fraction(x, d) for x in row)) for row in rows)


def from_fundamental(rs: RootSystem, coeffs) -> Weight:
    """The weight sum_i coeffs[i] * omega_i, for int or Fraction coeffs.

    With e the common denominator of the coeffs and d * omega_j integral
    (_scaled_fundamental), coordinate k is sum_j (e c_j)(d omega_j)_k / (d e):
    one integer matrix-vector product, and one Fraction per coordinate.
    """
    if len(coeffs) != rs.rank:
        raise PreconditionError("need one coefficient per fundamental weight")
    d, rows = _scaled_fundamental(rs)
    e = math.lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (e // c.denominator) for c in coeffs]
    return Weight(tuple(Fraction(sum(map(mul, scaled, col)), d * e) for col in zip(*rows)))


def _scaled_labels(rs: RootSystem, mu: Weight) -> tuple[int, tuple[int, ...]]:
    """(s, labels): the least s making s times every Dynkin label of mu an
    integer, and those integers.  The W-orbit of s mu is s times that of mu,
    with the same signs for Snow's rule to read."""
    labels = rs.labels(mu)
    s = math.lcm(*(x.denominator for x in labels))
    return s, labels if s == 1 else tuple(int(s * x) for x in labels)


def _ambient(rs: RootSystem, mu: Weight, s: int, labels, code, codes) -> tuple[int, list[tuple[int, ...]]]:
    """(denom, points): the weights with the given codes, of labels scaled by
    s, as integer ambient vectors over a common denominator.  They must share
    mu's W-fixed part (its component orthogonal to the root span), as its
    W-orbit and mu + root lattice do."""
    d, rows = _scaled_fundamental(rs)
    e, y = mu.scaled_to_integers()
    # e * s * d * (mu - sum_j (labels_j / s) omega_j): the W-fixed part, scaled
    # by e * s * d; over s * d it has the denominators of fixed / e, whose lcm is k
    fixed = [s * d * c - e * sum(map(mul, labels, col)) for c, col in zip(y, zip(*rows))]
    g = math.gcd(e, *fixed)
    k = e // g
    frame = [([k * x for x in col], f // g) for col, f in zip(zip(*rows), fixed)]
    vectors = map(code.labels, codes)
    return s * d * k, [tuple(sum(map(mul, nu, col)) + off for col, off in frame) for nu in vectors]


def _to_weights(denom: int, scaled) -> tuple[Weight, ...]:
    """Sorted Weights from integer ambient vectors over a common denominator;
    the order of the vectors is the order of the weights."""
    points = sorted(scaled)
    frac = {x: Fraction(x, denom) for x in set().union(*points)}
    return tuple(Weight(tuple(map(frac.__getitem__, p))) for p in points)


# kernel: a Dynkin label vector nu of rank r is the int
# sum_i (nu_i + 2^(k-1)) 2^(k i), in lanes of k = 8, 16, 32, 64, ... bits.
# While every |nu_i| < 2^(k-1), no lane carries into the next, a lane's top
# bit is set exactly when nu_i >= 0, and x ^ top (top: every lane's top bit,
# the code of 0) holds nu_i mod 2^k, which struct (int.from_bytes past 64
# bits) reads as signed lanes.  With <v> = sum_j v_j 2^(k j), the ints
# x - c <Cartan row i> and x - <beta> are the codes of nu - c (row i) and
# nu - beta.  k is fixed before enumerating, from a bound on every label
# reached: for nu in W.mu, nu_i = <mu, beta^vee> for a coroot beta^vee with
# coefficients of at most 2 in A-D, so |nu_i| <= 2 sum_j |mu_j|, and on
# Pi(lam), |nu_i| <= <lam, theta^vee> <= 2 sum_j lam_j (theta^vee the highest
# coroot).  A code that also carries M nu (_LabelCode) needs s times that
# bound, s the largest absolute row sum of M.
_LANE_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _plain(vector, k: int) -> int:
    return sum(v << (k * j) for j, v in enumerate(vector))


def _with_image(nu, matrix) -> tuple[int, ...]:
    """nu followed by M nu."""
    return (*nu, *(sum(map(mul, row, nu)) for row in matrix))


class _LabelCode:
    """Packed Dynkin label vectors of one root system, k bits a lane.

    With a rank x rank integer matrix M (empty for none), the code of nu is
    that of (nu, M nu): row i is the code of (row i, M row i), so subtracting
    it reflects nu and maps its image along, since M s_i nu = M nu - nu_i M
    row i.  unpack, labels and the masks read the lanes of nu alone; their
    bits are those of x mod 2^(r k), right even where the lanes of M nu are
    not."""

    __slots__ = ("k", "top", "dominant", "size", "unpack", "rows", "before", "matrix")

    def __init__(self, rs: RootSystem, k: int, matrix: tuple[tuple[int, ...], ...]):
        r = rs.rank
        lanes = r + len(matrix)  # nu, then M nu
        tops = [_plain([1 << (k - 1)] * i, k) for i in range(lanes + 1)]
        self.k, self.top, self.size, self.matrix = k, tops[-1], lanes * k // 8, matrix
        if k <= 64:
            lane = struct.Struct(f"<{r}{_LANE_FORMATS[k]}")
            # unpack_from reads nu's lanes off the longer buffer of (nu, M nu); unpack is faster
            self.unpack = lane.unpack_from if matrix else lane.unpack
        else:  # lanes wider than struct reads: one int.from_bytes per lane
            w = k // 8
            self.unpack = lambda b: tuple(
                int.from_bytes(b[i : i + w], "little", signed=True) for i in range(0, r * w, w)
            )
        self.rows = tuple(_plain(_with_image(row, matrix), k) for row in rs.cartan)  # <Cartan row i>
        self.before = tuple(tops[:r])  # the top bits of the lanes before lane i
        self.dominant = tops[r]  # the top bits of nu's lanes: all set exactly when nu is dominant

    def encode(self, nu) -> int:
        return _plain(_with_image(nu, self.matrix), self.k) + self.top

    def labels(self, x: int) -> tuple[int, ...]:
        return self.unpack((x ^ self.top).to_bytes(self.size, "little"))


# one code per root system, lane width and matrix
_lane_code = functools.lru_cache(maxsize=None)(_LabelCode)


def _label_code(rs: RootSystem, bound: int, matrix=()) -> _LabelCode:
    """The code with the narrowest lanes that hold every label within +-bound."""
    k = 8
    while bound >= 1 << (k - 1):
        k *= 2
    return _lane_code(rs, k, matrix)


def _dominant(code: _LabelCode, x: int) -> int:
    """The code of the dominant vector in the W-orbit of code x: reflect at
    the first negative label, the lowest lane whose top bit is clear."""
    while negative := code.top & ~x:
        i = ((negative & -negative).bit_length() - 1) // code.k
        x -= code.labels(x)[i] * code.rows[i]
    return x


def _extend_by_orbit(code: _LabelCode, dom: int, out: list) -> None:
    """Append the W-orbit of the dominant code dom to out.

    Snow's rule (D. Snow, "Weyl group orbits", ACM TOMS 16, 1990): the parent
    of a non-dominant nu is s_k nu for the least k with nu_k < 0.  So a child
    s_i mu of mu (where mu_i > 0) is kept only when its labels before i are all
    >= 0, that is when its code has every bit of before[i] set; every orbit
    element is then produced exactly once, with no seen-set.
    """
    top, size, unpack, rows, before = code.top, code.size, code.unpack, code.rows, code.before
    out.append(dom)
    frontier = [dom]
    while frontier:
        nxt = []
        for x in frontier:
            for c, row, mask in zip(unpack((x ^ top).to_bytes(size, "little")), rows, before):
                if c > 0:
                    y = x - c * row
                    if y & mask == mask:
                        nxt.append(y)
        out.extend(nxt)
        frontier = nxt


def _dynkin_components(cartan, nodes) -> list[set[int]]:
    """Connected components of the Dynkin diagram restricted to nodes."""
    left = set(nodes)
    out = []
    while left:
        comp = set()
        stack = [min(left)]
        while stack:
            i = stack.pop()
            if i not in comp:
                comp.add(i)
                stack.extend(j for j in left if cartan[i][j] and j not in comp)
        left -= comp
        out.append(comp)
    return out


@functools.lru_cache(maxsize=None)
def _weyl_group_order(cartan, nodes) -> int:
    """|W_I| for the nodes I: the product over the Dynkin components of I of
    (m+1)! for A_m, 2^m m! for B_m and C_m (a double bond), and 2^(m-1) m!
    for D_m (a branch node)."""
    order = 1
    for comp in _dynkin_components(cartan, nodes):
        m = len(comp)
        if any(cartan[i][j] == -2 for i in comp for j in comp):
            order *= 2**m * math.factorial(m)
        elif any(sum(1 for j in comp if j != i and cartan[i][j]) == 3 for i in comp):
            order *= 2 ** (m - 1) * math.factorial(m)
        else:
            order *= math.factorial(m + 1)
    return order


def _orbit_size(rs: RootSystem, labels) -> int:
    """|W.mu| = |W| / |W_I| for mu dominant with these labels, I the nodes where they vanish."""
    zeros = tuple(i for i, c in enumerate(labels) if not c)
    return _weyl_group_order(rs.cartan, range(rs.rank)) // _weyl_group_order(rs.cartan, zeros)


def _scaled_orbit(rs: RootSystem, mu: Weight) -> tuple[int, list[tuple[int, ...]]]:
    """(D, points): the W-orbit of mu as the integer vectors D * nu, unsorted."""
    s, labels = _scaled_labels(rs, mu)
    code = _label_code(rs, 2 * sum(map(abs, labels)))
    dom = _dominant(code, code.encode(labels))
    size = _orbit_size(rs, code.labels(dom))
    if size > ORBIT_GUARD:
        raise ResourceLimitError(f"Weyl orbit: {size} points exceed the limit {ORBIT_GUARD}")
    points: list = []
    _extend_by_orbit(code, dom, points)
    return _ambient(rs, mu, s, labels, code, points)


def weyl_orbit(rs: RootSystem, mu: Weight) -> tuple[Weight, ...]:
    """The W-orbit of mu, canonically sorted."""
    return _to_weights(*_scaled_orbit(rs, mu))


@functools.lru_cache(maxsize=None)
def _positive_root_data(rs: RootSystem) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The positive roots as (ambient integer vector, Dynkin labels), sorted
    by vector: the codes of the W-orbits of the simple roots (whose labels are
    the rows of C) where labels adj(C) >= 0.  The coefficients c of a root are
    integers, so beta = sum_i c_i alpha_i is an integer vector."""
    det, adj = _cartan_adjugate(rs)
    code = _label_code(rs, 2 * max(sum(map(abs, row)) for row in rs.cartan))
    codes: list = []
    for dom in {_dominant(code, code.encode(row)) for row in rs.cartan}:
        _extend_by_orbit(code, dom, codes)
    columns = list(zip(*adj))
    simples = _simple_roots(rs.family, rs.rank)
    out = []
    for labels in map(code.labels, codes):
        coeffs = [sum(map(mul, labels, col)) // det for col in columns]
        if min(coeffs) >= 0:
            out.append((tuple(sum(map(mul, coeffs, col)) for col in zip(*simples)), labels))
    return tuple(sorted(out))


@functools.lru_cache(maxsize=None)
def positive_roots(rs: RootSystem) -> tuple[Weight, ...]:
    return tuple(weight(vector) for vector, _ in _positive_root_data(rs))


@functools.lru_cache(maxsize=None)
def positive_root_vectors(rs: RootSystem) -> frozenset[tuple[int, ...]]:
    """The positive roots as integer ambient vectors."""
    return frozenset(vector for vector, _ in _positive_root_data(rs))


@functools.lru_cache(maxsize=None)
def _positive_root_codes(rs: RootSystem, k: int, matrix=()) -> tuple[int, ...]:
    return tuple(_plain(_with_image(labels, matrix), k) for _, labels in _positive_root_data(rs))


def _dominant_codes_below(rs: RootSystem, labels, matrix=()) -> tuple[_LabelCode, set[int]]:
    """(code, found): the codes of the dominant weights below the dominant
    weight lam with these Dynkin labels, built with the integer matrix M as in
    _LabelCode, so that each carries M nu.

    BFS downward by positive roots; any two comparable dominant weights are
    joined by a chain of dominant weights differing by single positive roots,
    so the closure is complete.
    """
    if not all(type(c) is int and c >= 0 for c in labels):
        raise PreconditionError("dominant_weights_below requires a dominant weight")
    bound = 2 * sum(labels)
    # a step mu - beta leaves the bound by at most a root's label, 2 in A-D,
    # and only for a step that the dominance test then drops
    spread = max([1, *(sum(map(abs, row)) for row in matrix)])
    code = _label_code(rs, max(bound + 2, spread * bound), matrix)
    steps, dominant = _positive_root_codes(rs, code.k, matrix), code.dominant
    found = {code.encode(labels)}
    frontier = list(found)
    while frontier:
        nxt = []
        for x in frontier:
            for step in steps:
                y = x - step
                if y & dominant == dominant and y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return code, found


def dominant_weights_below(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """All dominant weights mu <= lam with mu in lam + root lattice, sorted."""
    labels = rs.labels(lam)
    code, found = _dominant_codes_below(rs, labels)
    return _to_weights(*_ambient(rs, lam, 1, labels, code, found))


def _weight_set_codes(rs: RootSystem, labels, matrix=()) -> tuple[_LabelCode, list[int]]:
    """(code, points): as _dominant_codes_below, with the weight set Pi(lam)
    as codes, unsorted.  Pi(lam) is the disjoint union of the W-orbits of the
    dominant weights below lam, so its size is known before any orbit is
    built, and no point repeats."""
    code, dominants = _dominant_codes_below(rs, labels, matrix)
    size = sum(_orbit_size(rs, code.labels(x)) for x in dominants)
    if size > ORBIT_GUARD:
        raise ResourceLimitError(f"weight set: {size} points exceed the limit {ORBIT_GUARD}")
    points: list = []
    for x in dominants:
        _extend_by_orbit(code, x, points)
    return code, points


def scaled_weight_set(rs: RootSystem, lam: Weight) -> tuple[int, list[tuple[int, ...]]]:
    """(D, points): the weight set Pi(lam) as the integer vectors D * mu, unsorted."""
    labels = rs.labels(lam)
    code, points = _weight_set_codes(rs, labels)
    return _ambient(rs, lam, 1, labels, code, points)


def weight_set(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """The saturated weight set Pi(lam) of the irreducible with highest weight lam:
    all mu in lam + root lattice whose dominant representative lies below lam,
    canonically sorted.
    """
    return _to_weights(*scaled_weight_set(rs, lam))


def weight_set_is_stable(rs: RootSystem, labels, matrix) -> bool:
    """True iff the integer rank x rank matrix, acting on Dynkin label
    vectors, maps the weight set Pi(lam) onto itself, for lam the dominant
    weight with these Dynkin labels.

    One walk over Pi(lam): each point's code carries its image in its high
    lanes (_LabelCode), so the matrix maps Pi(lam) onto itself exactly when
    the low halves and the high halves of the codes are the same set."""
    if len(labels) != rs.rank:
        raise PreconditionError("need one Dynkin label per simple root")
    if len(matrix) != rs.rank or any(len(row) != rs.rank for row in matrix):
        raise PreconditionError("need a rank x rank matrix on Dynkin labels")
    code, points = _weight_set_codes(rs, labels, tuple(map(tuple, matrix)))
    shift = rs.rank * code.k
    low = (1 << shift) - 1
    return set(map(low.__and__, points)) == set(map(shift.__rrshift__, points))


def chi(rs: RootSystem) -> Weight:
    """The determinant direction (1/n)(e_1 + ... + e_n); type A only."""
    if rs.family != "A":
        raise UnsupportedFamilyError("chi is defined for type A only")
    n = rs.ambient_dim
    return Weight(tuple(Fraction(1, n) for _ in range(n)))


def extended_weights(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """{chi + mu : mu in Pi(lam)} in ambient epsilon-coordinates (type A)."""
    c = chi(rs)
    return tuple(sorted(c + mu for mu in weight_set(rs, lam)))
