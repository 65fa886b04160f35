"""Exact root-system, weight-lattice, and Weyl-group arithmetic.

Classical families A, B, C, D in epsilon-coordinates:

* type A_{l} lives in the ambient space R^{l+1}, simple roots e_i - e_{i+1};
  the extra dimension carries the determinant direction chi = (1/n)(e_1+...+e_n)
  used by the extended weights chi_i = e_i and chi~_i = chi_i - chi;
* types B_l, C_l, D_l live in R^l with the standard orthonormal coordinates.

Weights cross the API as `Weight`s with exact `Fraction` coordinates, and
equality of weights is exact.  The Weyl-orbit and weight-set kernels work on
Dynkin labels instead: mu is the tuple (<mu, alpha_j^vee>)_j, integers for
every integral weight, read by `RootSystem.labels` off the integer coroots.
The simple reflection is s_i(mu) = mu - mu_i * (row i of the Cartan matrix),
and mu is dominant when every label is a nonnegative integer.  `Fraction`s
are built only where labels are converted back to `Weight`s.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from . import linalg
from .errors import (
    DegenerateRootError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedFamilyError,
)

ORBIT_GUARD = 10**6
RANK_GUARD = 6


@dataclass(frozen=True, order=True)
class Weight:
    """A vector of exact rationals in the ambient epsilon-coordinate space."""

    coords: tuple[Fraction, ...]

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_json(self) -> list[str]:
        return [linalg.frac_str(c) for c in self.coords]

    @staticmethod
    def from_json(items: list[str]) -> "Weight":
        return Weight(tuple(Fraction(s) for s in items))

    def __repr__(self) -> str:
        return "(" + ", ".join(linalg.frac_str(c) for c in self.coords) + ")"


def weight(entries) -> Weight:
    return Weight(linalg.vec(entries))


@dataclass(frozen=True)
class RootSystem:
    """Simple-root data for one classical family at a fixed rank: the integer
    coroots 2 alpha_j / (alpha_j, alpha_j) and cartan[i][j] = <alpha_i, alpha_j^vee>."""

    family: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[Weight, ...]
    cartan: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]

    def __hash__(self) -> int:
        # equal systems share (family, rank), so this agrees with __eq__, and
        # it spares every lru_cache lookup a hash of the Fraction simple roots
        return hash((self.family, self.rank))

    def form(self, mu: Weight, nu: Weight) -> Fraction:
        """The W-invariant bilinear form (standard dot product in our coordinates)."""
        return linalg.dot(mu.coords, nu.coords)

    def pairing(self, mu: Weight, alpha: Weight) -> Fraction:
        """<mu, alpha> = 2(mu, alpha)/(alpha, alpha)."""
        nn = self.form(alpha, alpha)
        if nn == 0:
            raise DegenerateRootError("zero-norm root in pairing")
        return 2 * self.form(mu, alpha) / nn

    def labels(self, mu: Weight) -> tuple:
        """The Dynkin labels (<mu, alpha_j^vee>)_j: exact, and int where integral."""
        out = []
        for coroot in self.coroots:
            x = sum(c * m for c, m in zip(coroot, mu.coords, strict=True) if c)
            out.append(x.numerator if x.denominator == 1 else x)
        return tuple(out)

    def is_dominant(self, mu: Weight) -> bool:
        """Dominant abstract weight: all Dynkin labels are nonnegative integers."""
        return all(type(x) is int and x >= 0 for x in self.labels(mu))

    def to_json(self) -> dict:
        return {"family": self.family, "rank": self.rank}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())


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


def rootsystem_from_json(data: dict) -> RootSystem:
    return root_system(data["family"], int(data["rank"]))


def reflect(rs: RootSystem, alpha: Weight, mu: Weight) -> Weight:
    """Reflection of mu in the hyperplane orthogonal to alpha."""
    nn = rs.form(alpha, alpha)
    if nn == 0:
        raise DegenerateRootError("cannot reflect at a zero-norm vector")
    c = 2 * rs.form(mu, alpha) / nn
    return mu - alpha.scale(c)


def _combination(rs: RootSystem, coeffs, vectors) -> Weight:
    """sum_k coeffs[k] * vectors[k]."""
    w = Weight(linalg.zero_vec(rs.ambient_dim))
    for c, v in zip(coeffs, vectors):
        w = w + v.scale(c)
    return w


@functools.lru_cache(maxsize=None)
def _cartan_inverse(rs: RootSystem) -> linalg.Mat:
    return linalg.mat_inv(linalg.mat(rs.cartan))


@functools.lru_cache(maxsize=None)
def fundamental_weights(rs: RootSystem) -> tuple[Weight, ...]:
    """omega_1..omega_l with <omega_i, alpha_j> = delta_ij, inside the simple-root span."""
    return tuple(_combination(rs, row, rs.simple_roots) for row in _cartan_inverse(rs))


def from_fundamental(rs: RootSystem, coeffs) -> Weight:
    """The weight sum_i coeffs[i] * omega_i."""
    if len(coeffs) != rs.rank:
        raise PreconditionError("need one coefficient per fundamental weight")
    return _combination(rs, coeffs, fundamental_weights(rs))


@functools.lru_cache(maxsize=None)
def _scaled_fundamental(rs: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows): the least d making every d * omega_j integral, and those vectors."""
    fw = fundamental_weights(rs)
    d = math.lcm(*(c.denominator for om in fw for c in om.coords))
    return d, tuple(tuple(int(c * d) for c in om.coords) for om in fw)


def _labels_and_frame(rs: RootSystem, mu: Weight):
    """(labels, denom, scaled): the Dynkin labels of mu, and integer ambient
    coordinates for the weights that share mu's W-fixed part (the component
    orthogonal to the root span), such as its W-orbit and mu + root lattice:
    the weight with labels nu has coordinates scaled(nu) / denom."""
    labels = rs.labels(mu)
    d, rows = _scaled_fundamental(rs)
    # d * (mu - sum_j labels_j omega_j): the W-fixed part, scaled by d
    fixed = [d * c - sum(map(mul, labels, col)) for c, col in zip(mu.coords, zip(*rows))]
    k = math.lcm(*(Fraction(f).denominator for f in fixed))
    columns = tuple(tuple(k * e for e in col) for col in zip(*rows))
    offset = tuple(int(k * f) for f in fixed)

    def scaled(nu) -> tuple:
        return tuple(sum(map(mul, nu, col)) + off for col, off in zip(columns, offset))

    return labels, d * k, scaled


def _to_weights(denom: int, scaled) -> tuple[Weight, ...]:
    """Sorted Weights from integer ambient vectors over a common denominator;
    the order of the vectors is the order of the weights."""
    points = sorted(scaled)
    frac = {x: Fraction(x, denom) for x in set().union(*points)}
    return tuple(Weight(tuple(map(frac.__getitem__, p))) for p in points)


def _dominant_labels(cartan, mu: tuple) -> tuple:
    """The dominant label vector in the W-orbit of mu."""
    while True:
        i = next((i for i, c in enumerate(mu) if c < 0), None)
        if i is None:
            return mu
        c = mu[i]
        mu = tuple(m - c * r for m, r in zip(mu, cartan[i]))


def _extend_by_orbit(cartan, dom: tuple, out: list) -> None:
    """Append the W-orbit of the dominant label vector dom to out.

    Snow's rule (D. Snow, "Weyl group orbits", ACM TOMS 16, 1990): the parent
    of a non-dominant nu is s_k nu for the least k with nu_k < 0.  So a child
    s_i mu of mu (where mu_i > 0) is kept only when its labels before i are all
    >= 0; every orbit element is then produced exactly once, with no seen-set.
    """
    out.append(dom)
    frontier = [dom]
    while frontier:
        nxt = []
        for mu in frontier:
            for i, c in enumerate(mu):
                if c > 0:
                    nu = tuple(m - c * r for m, r in zip(mu, cartan[i]))
                    if all(x >= 0 for x in nu[:i]):
                        nxt.append(nu)
        out.extend(nxt)
        frontier = nxt


def weyl_orbit(rs: RootSystem, mu: Weight) -> tuple[Weight, ...]:
    """The W-orbit of mu, canonically sorted."""
    labels, denom, scaled = _labels_and_frame(rs, mu)
    points: list = []
    _extend_by_orbit(rs.cartan, _dominant_labels(rs.cartan, labels), points)
    if len(points) > ORBIT_GUARD:
        raise ResourceLimitError(f"Weyl orbit: {len(points)} points exceed the limit {ORBIT_GUARD}")
    return _to_weights(denom, map(scaled, points))


@functools.lru_cache(maxsize=None)
def all_roots(rs: RootSystem) -> tuple[Weight, ...]:
    """The full root set: union of Weyl orbits of the simple roots."""
    roots: set[Weight] = set()
    for alpha in rs.simple_roots:
        roots.update(weyl_orbit(rs, alpha))
    return tuple(sorted(roots))


def simple_root_coefficients(rs: RootSystem, mu: Weight) -> tuple[Fraction, ...] | None:
    """Coefficients of mu in the simple-root basis, or None if outside the span.

    The labels of mu = sum_k c_k alpha_k are c * cartan, so c = labels * cartan^-1;
    the labels see only mu's projection onto the span, hence the reconstruction.
    """
    coeffs = linalg.mat_vec(linalg.transpose(_cartan_inverse(rs)), rs.labels(mu))
    return coeffs if _combination(rs, coeffs, rs.simple_roots) == mu else None


@functools.lru_cache(maxsize=None)
def positive_roots(rs: RootSystem) -> tuple[Weight, ...]:
    out = []
    for beta in all_roots(rs):
        coeffs = simple_root_coefficients(rs, beta)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            out.append(beta)
    return tuple(out)


def dominance_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """True iff lam - mu is a nonnegative integer combination of simple roots."""
    coeffs = simple_root_coefficients(rs, lam - mu)
    if coeffs is None:
        return False
    return all(c >= 0 and c.denominator == 1 for c in coeffs)


@functools.lru_cache(maxsize=None)
def _positive_root_labels(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    return tuple(map(rs.labels, positive_roots(rs)))


def _dominant_labels_below(rs: RootSystem, lam: Weight):
    """(found, denom, scaled): the label vectors of the dominant weights below
    lam, and the integer coordinates of _labels_and_frame.

    BFS downward by positive roots; any two comparable dominant weights are
    joined by a chain of dominant weights differing by single positive roots,
    so the closure is complete.
    """
    if not rs.is_dominant(lam):
        raise PreconditionError("dominant_weights_below requires a dominant weight")
    top, denom, scaled = _labels_and_frame(rs, lam)
    positives = _positive_root_labels(rs)
    found = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta in positives:
                nu = tuple(map(sub, mu, beta))
                if min(nu) >= 0 and nu not in found:
                    found.add(nu)
                    nxt.append(nu)
        frontier = nxt
    return found, denom, scaled


def dominant_weights_below(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """All dominant weights mu <= lam with mu in lam + root lattice, sorted."""
    found, denom, scaled = _dominant_labels_below(rs, lam)
    return _to_weights(denom, map(scaled, found))


def _weight_set_labels(rs: RootSystem, lam: Weight):
    """(points, denom, scaled): the weight set Pi(lam) as Dynkin label
    vectors, unsorted, and the frame of _labels_and_frame.

    Pi(lam) is the disjoint union of the Weyl orbits of the dominant weights
    below lam, so no point repeats.
    """
    dominants, denom, scaled = _dominant_labels_below(rs, lam)
    points: list = []
    for mu in dominants:
        _extend_by_orbit(rs.cartan, mu, points)
        if len(points) > ORBIT_GUARD:
            raise ResourceLimitError(f"weight set: {len(points)} points exceed the limit {ORBIT_GUARD}")
    return points, denom, scaled


def scaled_weight_set(rs: RootSystem, lam: Weight) -> tuple[int, list[tuple[int, ...]]]:
    """(D, points): the weight set Pi(lam) as the integer vectors D * mu, unsorted."""
    points, denom, scaled = _weight_set_labels(rs, lam)
    return denom, list(map(scaled, points))


def weight_set(rs: RootSystem, lam: Weight) -> tuple[Weight, ...]:
    """The saturated weight set Pi(lam) of the irreducible with highest weight lam:
    all mu in lam + root lattice whose dominant representative lies below lam,
    canonically sorted.
    """
    return _to_weights(*scaled_weight_set(rs, lam))


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
