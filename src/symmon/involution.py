"""Classical involutions on the character lattice of a maximal torus.

Each catalog entry ships an explicit integer matrix theta_star acting on the
ambient epsilon-coordinates, chosen relative to a maximally split torus so
that the catalog's spherical generators come out special.  The matrices are
gated by checkable invariants (involutive, permutes the roots, preserves the
form, positivity of the split system) rather than by the derivation.

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
    weight coordinates, plus an optional matrix-group realization tag."""

    family: str
    params: tuple[int, ...]
    theta_star: tuple[tuple[int, ...], ...]
    theta0: str | None = None  # "transpose" (AI) or "symplectic" (AII)

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

    @property
    def ambient_dim(self) -> int:
        return len(self.theta_star)

    def root_system(self) -> RootSystem:
        family, rank = _root_data(self.family, self.params)
        return root_weight.root_system(family, rank)

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


def _root_data(family: str, params: tuple[int, ...]) -> tuple[str, int]:
    if family == "AI":
        (n,) = params
        return "A", n - 1
    if family == "AII":
        (n,) = params
        return "A", 2 * n - 1
    if family == "AIII":
        p, q = params
        return "A", p + q - 1
    if family == "CI":
        (n,) = params
        return "C", n
    if family == "DIII":
        (n,) = params
        return "D", n
    if family == "BDI":
        p, q = params
        n = p + q
        return ("B", n // 2) if n % 2 else ("D", n // 2)
    if family == "CII":
        p, q = params
        return "C", p + q
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _sign_matrix(dim: int, signs) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(signs[i] if i == j else 0 for j in range(dim)) for i in range(dim)
    )


def _pair_swap_negate(dim: int) -> tuple[tuple[int, ...], ...]:
    """e_{2i-1} <-> -e_{2i} on consecutive pairs; a trailing odd coordinate is fixed."""
    rows = [[0] * dim for _ in range(dim)]
    for b in range(0, dim - 1, 2):
        rows[b][b + 1] = -1
        rows[b + 1][b] = -1
    if dim % 2:
        rows[dim - 1][dim - 1] = 1
    return tuple(tuple(r) for r in rows)


def involution_spec(family: str, *params: int) -> InvolutionSpec:
    """Build a catalog involution; degenerate parameters are rejected."""
    family = family.upper()
    if family == "AI":
        _expect_params(family, params, 1)
        (n,) = params
        if n < 2:
            raise PreconditionError("AI needs n >= 2")
        return InvolutionSpec(family, params, _sign_matrix(n, [-1] * n), "transpose")
    if family == "AII":
        _expect_params(family, params, 1)
        (n,) = params
        if n < 2:
            raise PreconditionError("AII needs n >= 2 (rank l = n - 1 must be positive)")
        return InvolutionSpec(family, params, _pair_swap_negate(2 * n), "symplectic")
    if family == "AIII":
        _expect_params(family, params, 2)
        p, q = params
        n = p + q
        if p < 1 or q < p:
            raise PreconditionError("AIII needs 1 <= p <= q")
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            target = n - 1 - i if (i < p or i >= n - p) else i
            rows[target][i] = 1
        return InvolutionSpec(family, params, tuple(tuple(r) for r in rows))
    if family == "CI":
        _expect_params(family, params, 1)
        (n,) = params
        if n < 1:
            raise PreconditionError("CI needs n >= 1")
        return InvolutionSpec(family, params, _sign_matrix(n, [-1] * n))
    if family == "DIII":
        _expect_params(family, params, 1)
        (n,) = params
        if n < 2:
            raise PreconditionError("DIII needs n >= 2")
        return InvolutionSpec(family, params, _pair_swap_negate(n))
    if family == "BDI":
        _expect_params(family, params, 2)
        p, q = params
        n = p + q
        if p < 1 or q < p or n < 3:
            raise PreconditionError("BDI needs 1 <= p <= q and p + q >= 3")
        k = n // 2
        if n % 2:
            # odd n: the p = k-1 and p = k generator rows force theta* = -1
            if p >= k - 1:
                mat = _sign_matrix(k, [-1] * k)
            else:
                mat = _sign_matrix(k, [-1] * p + [1] * (k - p))
        else:
            if p == k:
                mat = _sign_matrix(k, [-1] * k)
            elif p == k - 1:
                # negate the first k-2 coordinates and swap the fork pair
                rows = [[0] * k for _ in range(k)]
                for i in range(k - 2):
                    rows[i][i] = -1
                rows[k - 2][k - 1] = 1
                rows[k - 1][k - 2] = 1
                mat = tuple(tuple(r) for r in rows)
            else:
                mat = _sign_matrix(k, [-1] * p + [1] * (k - p))
        return InvolutionSpec(family, params, mat)
    if family == "CII":
        _expect_params(family, params, 2)
        p, q = params
        n = p + q
        if p < 1 or q < p:
            raise PreconditionError("CII needs 1 <= p <= q")
        mat = _sign_matrix(n, [-1] * (2 * p) + [1] * (n - 2 * p))
        return InvolutionSpec(family, params, mat)
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _expect_params(family: str, params, count: int):
    if len(params) != count:
        raise PreconditionError(f"{family} takes {count} parameter(s), got {len(params)}")


def catalog(max_rank: int) -> list[InvolutionSpec]:
    """Every catalog involution whose root system has rank <= max_rank."""
    specs = []
    for n in range(2, max_rank + 2):
        specs.append(involution_spec("AI", n))
    for n in range(2, max_rank // 2 + 2):
        if 2 * n - 1 <= max_rank:
            specs.append(involution_spec("AII", n))
    for n in range(2, max_rank + 2):
        for p in range(1, n // 2 + 1):
            specs.append(involution_spec("AIII", p, n - p))
    for n in range(1, max_rank + 1):
        specs.append(involution_spec("CI", n))
    for n in range(2, max_rank + 1):
        specs.append(involution_spec("DIII", n))
    for n in range(3, 2 * max_rank + 2):
        if n // 2 > max_rank:
            continue
        for p in range(1, n // 2 + 1):
            specs.append(involution_spec("BDI", p, n - p))
    for n in range(2, max_rank + 1):
        for p in range(1, n // 2 + 1):
            specs.append(involution_spec("CII", p, n - p))
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
    """The catalog generators of the spherical-weight semigroup, in
    fundamental-weight coordinates."""
    rs = rs or inv.root_system()
    omega = root_weight.fundamental_weights(rs)
    fam, params = inv.family, inv.params
    if fam == "AI":
        return tuple(om.scale(2) for om in omega)
    if fam == "AII":
        (n,) = params
        return tuple(omega[i - 1] for i in range(2, 2 * n - 1, 2))
    if fam == "AIII":
        p, q = params
        n = p + q
        return tuple(omega[i - 1] + omega[n - i - 1] for i in range(1, p + 1))
    if fam == "CI":
        return tuple(om.scale(2) for om in omega)
    if fam == "DIII":
        (n,) = params
        evens = [omega[i - 1] for i in range(2, n - 1, 2)]
        if n % 2 == 0:
            return tuple(evens + [omega[n - 1].scale(2)])
        return tuple(evens + [omega[n - 2] + omega[n - 1]])
    if fam == "BDI":
        p, q = params
        n = p + q
        k = n // 2
        if n % 2:
            if p < k - 1:
                return tuple(omega[i].scale(2) for i in range(p))
            if p == k - 1:
                head = [omega[i].scale(2) for i in range(k - 2)]
                return tuple(head + [(omega[k - 2] + omega[k - 1]).scale(2)])
            return tuple(omega[i].scale(2) for i in range(k))
        if p < k:
            return tuple(omega[i].scale(2) for i in range(p))
        head = [omega[i].scale(2) for i in range(k - 1)]
        return tuple(head + [omega[k - 1].scale(4)])
    if fam == "CII":
        p, q = params
        return tuple(omega[i].scale(2) for i in range(2 * p))
    raise UnsupportedFamilyError(f"unknown family {fam!r}")


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
