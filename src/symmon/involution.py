"""Classical involutions on the character lattice of a maximal torus.

Each catalog family is one rule, which gives its root system, an explicit
integer matrix theta_star acting on the ambient epsilon-coordinates, and its
spherical generators as Dynkin label vectors.  The matrices are chosen
relative to a maximally split torus so that the generators come out special,
and are gated by checkable invariants (involutive, permutes the roots,
preserves the form, positivity of the split system) rather than by the
derivation.

Families and parameters (p <= q everywhere):

=========  ======================================  ============  =========
family     symmetric variety                       params        roots
=========  ======================================  ============  =========
AI         SL_n / SO_n                             n >= 2        A_{n-1}
AII        SL_{2n} / Sp_{2n}                       n >= 2        A_{2n-1}
AIII       SL_n / S(GL_p x GL_q), n = p+q          p, q          A_{n-1}
CI         Sp_{2n} / GL_n                          n >= 1        C_n
DIII       SO_{2n} / GL_n                          n >= 2        D_n
BDI        SO_n / S(O_p x O_q), n = p+q            p, q          B/D_{n//2}
CII        Sp_{2n} / (Sp_{2p} x Sp_{2q}), n = p+q  p, q          C_n
=========  ======================================  ============  =========
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import add, mul, neg
from typing import NamedTuple

from . import root_weight
from ._record import no_tuple_arithmetic
from .errors import NotSpecialError, PreconditionError, UnsupportedFamilyError
from .root_weight import RootSystem, Weight


class InvolutionSpec(NamedTuple):
    """A classical symmetric pair: theta* as an integer matrix on the ambient
    weight coordinates."""

    family: str
    params: tuple[int, ...]
    theta_star: tuple[tuple[int, ...], ...]

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    @property
    def ambient_dim(self) -> int:
        return len(self.theta_star)

    def root_system(self) -> RootSystem:
        letter, rank, _, _ = _family_row(self.family, self.params)
        return root_weight.root_system(letter, rank)

    def apply_star(self, w: Weight) -> Weight:
        if w.dim != self.ambient_dim:
            raise PreconditionError("ambient dimension mismatch")
        d, x = w.scaled_to_integers()
        return Weight(tuple(Fraction(y, d) for y in star_vector(self, x)))


def star_vector(inv: InvolutionSpec, x) -> tuple[int, ...]:
    """theta* x for an integer vector x of the ambient dimension: the integer
    kernel behind every theta* image and test."""
    return tuple(sum(map(mul, row, x)) for row in inv.theta_star)


def _negated(inv: InvolutionSpec, x) -> bool:
    """theta*(x) = -x for an integer vector x, such as d w for a weight w."""
    if len(x) != inv.ambient_dim:
        raise PreconditionError("ambient dimension mismatch")
    return not any(map(add, x, star_vector(inv, x)))


# -- the catalog: one rule per family ------------------------------------------
#
# A rule takes the family's parameters, rejects degenerate ones, and returns
# the row (root family letter, rank, theta*, generators): the root system,
# theta* as a signed permutation of the ambient coordinates, and the Dynkin
# labels of the spherical generators, in order.

# the parameter names of each family, in the order its rule takes them
PARAM_NAMES: dict[str, tuple[str, ...]] = {}
_RULES = {}


def _family(name: str, *params: str):
    """Register the decorated rule as the family's, with its parameter names."""

    def register(rule):
        PARAM_NAMES[name], _RULES[name] = params, rule
        return rule

    return register


@functools.lru_cache
def _family_row(family: str, params: tuple[int, ...]):
    """The row of a family at the given parameters; the last 128 are kept."""
    if family not in _RULES:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    count = len(PARAM_NAMES[family])
    if len(params) != count:
        raise PreconditionError(f"{family} takes {count} parameter(s), got {len(params)}")
    return _RULES[family](*params)


def _signed_permutation(signs, perm=None) -> tuple[tuple[int, ...], ...]:
    """The matrix sending e_i to signs[i] e_perm[i] (perm the identity by default)."""
    perm = perm or range(len(signs))
    return tuple(tuple(s if i == j else 0 for i, s in zip(perm, signs)) for j in range(len(signs)))


def _pair_swap_negate(dim: int) -> tuple[tuple[int, ...], ...]:
    """e_{2i-1} <-> -e_{2i} on consecutive pairs; a trailing odd coordinate is fixed."""
    perm = [min(i ^ 1, dim - 1) for i in range(dim)]
    return _signed_permutation([1 if i == j else -1 for i, j in enumerate(perm)], perm)


def _labels(rank: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The Dynkin labels of the sum of c omega_i over the terms (i, c), i from 1."""
    labels = [0] * rank
    for i, c in terms:
        labels[i - 1] += c
    return tuple(labels)


def _doubled(rank: int, count: int) -> tuple[tuple[int, ...], ...]:
    """2 omega_1, ..., 2 omega_count."""
    return tuple(_labels(rank, (i, 2)) for i in range(1, count + 1))


@_family("AI", "n")
def _ai(n):
    if n < 2:
        raise PreconditionError("AI needs n >= 2")
    return "A", n - 1, _signed_permutation([-1] * n), _doubled(n - 1, n - 1)


@_family("AII", "n")
def _aii(n):
    if n < 2:
        raise PreconditionError("AII needs n >= 2 (rank l = n - 1 must be positive)")
    rank = 2 * n - 1
    return "A", rank, _pair_swap_negate(2 * n), tuple(_labels(rank, (i, 1)) for i in range(2, rank, 2))


@_family("AIII", "p", "q")
def _aiii(p, q):
    if p < 1 or q < p:
        raise PreconditionError("AIII needs 1 <= p <= q")
    n = p + q
    # e_i <-> e_{n+1-i} for the first and last p coordinates
    theta = _signed_permutation([1] * n, [n - 1 - i if i < p or i >= q else i for i in range(n)])
    return "A", n - 1, theta, tuple(_labels(n - 1, (i, 1), (n - i, 1)) for i in range(1, p + 1))


@_family("CI", "n")
def _ci(n):
    if n < 1:
        raise PreconditionError("CI needs n >= 1")
    return "C", n, _signed_permutation([-1] * n), _doubled(n, n)


@_family("DIII", "n")
def _diii(n):
    if n < 2:
        raise PreconditionError("DIII needs n >= 2")
    evens = tuple(_labels(n, (i, 1)) for i in range(2, n - 1, 2))
    last = _labels(n, (n, 2)) if n % 2 == 0 else _labels(n, (n - 1, 1), (n, 1))
    return "D", n, _pair_swap_negate(n), evens + (last,)


@_family("BDI", "p", "q")
def _bdi(p, q):
    n = p + q
    if p < 1 or q < p or n < 3:
        raise PreconditionError("BDI needs 1 <= p <= q and p + q >= 3")
    k = n // 2
    theta, gens = _signed_permutation([-1] * p + [1] * (k - p)), _doubled(k, p)
    if n % 2 and p == k - 1:
        # the last generator 2(omega_{k-1} + omega_k) forces theta* = -1
        theta, gens = _signed_permutation([-1] * k), gens[:-1] + (_labels(k, (k - 1, 2), (k, 2)),)
    elif n % 2 == 0 and p == k - 1:
        # negate the first k-2 coordinates and swap the fork pair
        theta = _signed_permutation([-1] * (k - 2) + [1, 1], [*range(k - 2), k - 1, k - 2])
    elif n % 2 == 0 and p == k:
        gens = gens[:-1] + (_labels(k, (k, 4)),)
    return ("B" if n % 2 else "D"), k, theta, gens


@_family("CII", "p", "q")
def _cii(p, q):
    if p < 1 or q < p:
        raise PreconditionError("CII needs 1 <= p <= q")
    n = p + q
    return "C", n, _signed_permutation([-1] * (2 * p) + [1] * (n - 2 * p)), _doubled(n, 2 * p)


def involution_spec(family: str, *params: int) -> InvolutionSpec:
    """Build a catalog involution; degenerate parameters are rejected."""
    family = family.upper()
    return InvolutionSpec(family, params, _family_row(family, params)[2])


def catalog(max_rank: int) -> list[InvolutionSpec]:
    """Every catalog involution whose root system has rank <= max_rank."""
    r = max_rank
    specs = [involution_spec("AI", n) for n in range(2, r + 2)]
    specs += [involution_spec("AII", n) for n in range(2, (r + 3) // 2)]
    specs += [involution_spec("AIII", p, n - p) for n in range(2, r + 2) for p in range(1, n // 2 + 1)]
    specs += [involution_spec("CI", n) for n in range(1, r + 1)]
    specs += [involution_spec("DIII", n) for n in range(2, r + 1)]
    specs += [involution_spec("BDI", p, n - p) for n in range(3, 2 * r + 2) for p in range(1, n // 2 + 1)]
    specs += [involution_spec("CII", p, n - p) for n in range(2, r + 1) for p in range(1, n // 2 + 1)]
    return specs


def check_positive_system(rs: RootSystem, inv: InvolutionSpec) -> bool:
    """Positivity gate: every positive non-fixed root must leave the positive
    system under theta*."""
    if rs.ambient_dim != inv.ambient_dim:
        raise PreconditionError("ambient dimension mismatch")
    positives = root_weight.positive_root_vectors(rs)
    for alpha in positives:
        image = star_vector(inv, alpha)
        if image != alpha and image in positives:
            return False
    return True


def is_special(inv: InvolutionSpec, lam: Weight, rs: RootSystem | None = None) -> bool:
    """theta*(lambda) = -lambda, for dominant lambda."""
    rs = rs or inv.root_system()
    if not rs.is_dominant(lam):
        raise PreconditionError("is_special requires a dominant weight")
    return _negated(inv, lam.scaled_to_integers()[1])


def spherical_generators(inv: InvolutionSpec, rs: RootSystem | None = None) -> tuple[Weight, ...]:
    """The catalog generators of the spherical-weight semigroup: the weights
    of the Dynkin labels in the family's row, in order."""
    rs = rs or inv.root_system()
    return tuple(root_weight.from_fundamental(rs, labels) for labels in _family_row(inv.family, inv.params)[3])


@functools.lru_cache(maxsize=root_weight.MATRIX_CACHE_SIZE)
def _neg_star_on_labels(rs: RootSystem, inv: InvolutionSpec) -> tuple[tuple[int, ...], ...]:
    """-theta* on Dynkin label vectors: the rank x rank integer matrix whose
    column j is the labels of -theta* omega_j, that is
    -<theta*(d omega_j), alpha_i^vee> / d with d omega_j integral
    (root_weight._scaled_fundamental).

    It is exact when theta* preserves the form and maps the simple roots to
    roots, as every catalog matrix does: theta* then preserves the root span
    and its orthogonal complement, on which the labels vanish, and the
    division by d is exact.
    """
    if rs.ambient_dim != inv.ambient_dim:
        raise PreconditionError("ambient dimension mismatch")
    theta = inv.theta_star
    orthogonal = all(sum(map(mul, r, s)) == int(i == j) for i, r in enumerate(theta) for j, s in enumerate(theta))
    positives = root_weight.positive_root_vectors(rs)
    images = [star_vector(inv, alpha) for alpha in root_weight._simple_roots(rs.family, rs.rank)]
    if not orthogonal or any(y not in positives and tuple(map(neg, y)) not in positives for y in images):
        raise PreconditionError("theta* must preserve the form and map the simple roots to roots")
    d, rows = root_weight._scaled_fundamental(rs)
    columns = [star_vector(inv, row) for row in rows]
    return tuple(tuple(-sum(map(mul, coroot, y)) // d for y in columns) for coroot in rs.coroots)


def check_weight_set_stability(rs: RootSystem, inv: InvolutionSpec, lam: Weight) -> bool:
    """True iff -theta* maps the weight set Pi(lambda) onto itself exactly.

    Requires lambda special and dominant; a non-special lambda violates the
    hypothesis and is rejected with NotSpecialError.

    The weights are compared by their Dynkin labels, on which -theta* acts
    as _neg_star_on_labels.  That is exact: every weight of Pi(lambda) has
    lambda's W-fixed part (its component orthogonal to the root span), and
    -theta* fixes that part, because it fixes lambda and preserves the span
    and its complement.  So a weight and its image have the same W-fixed
    part, and their labels determine the rest.

    lambda is scaled to an integer vector d lambda once: its coroot pairings
    give the dominance test and the labels, and its theta* image the special
    test.
    """
    d, x, pairings = rs.pairings(lam)
    if any(p < 0 or p % d for p in pairings):
        raise PreconditionError("stability check requires a dominant weight")
    if not _negated(inv, x):
        raise NotSpecialError("weight is not special for this involution")
    return root_weight.weight_set_is_stable(rs, [p // d for p in pairings], _neg_star_on_labels(rs, inv))
