"""Borel orbits in twisted-symmetric matrix spaces over small prime fields.

The Borel subgroup of upper-triangular matrices acts on symmetric and on
skew-symmetric matrices by congruence A -> b A b^T.  The complete computable
invariant used throughout is the rank-control matrix of trailing-submatrix
ranks; inclusion-exclusion on it recovers the partial (fixed-point-free)
involution parametrizing the orbit's closed-field class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import finite_field as ff
from .errors import InvariantViolationError, PreconditionError
from .finite_field import FqMatrix
from .involution import InvolutionSpec
from .rook import RookElement, symmetric_rook_elements


def tau(m: FqMatrix, inv: InvolutionSpec) -> FqMatrix:
    """The twist-product m . theta_an(m); for AI this is m m^T."""
    return m @ ff.theta_an(m, inv)


def is_in_MQ(m: FqMatrix, inv: InvolutionSpec) -> bool:
    """Membership in the fixed locus of the antiinvolution; symmetric matrices for AI."""
    return ff.theta_an(m, inv) == m


def is_in_symmetric_submonoid(m: FqMatrix, inv: InvolutionSpec) -> bool:
    """m . theta_an(m) = 1, the unit-fixed submonoid; for AI, m m^T = 1."""
    return tau(m, inv) == ff.identity_matrix(m.n, m.q)


@dataclass(frozen=True)
class RankControl:
    """rho[i][j] = rank of A[i.., j..] (0-based trailing submatrices), padded
    with zeros at i = n or j = n."""

    rho: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rho) - 1


def rank_control(a: FqMatrix) -> RankControl:
    """The ranks of all trailing submatrices, from one bottom-up pass.

    The rows of A, columns reversed, enter an echelon basis keyed by leading
    position, from the last row up.  On the first k reversed columns, the
    rank of an echelon basis is the number of its leading positions below k.
    So a row that survives reduction with leading position c makes rho[i][j]
    one more than rho[i + 1][j] for every j < n - c, and equal to it for
    the other j."""
    n, q = a.n, a.q
    basis: dict[int, list[int]] = {}  # leading position -> row with leading entry 1
    rho = [(0,) * (n + 1)]
    for row in reversed(a.rows):
        v = row[::-1]
        c = 0  # ends at the leading position of the reduced row, or n if it is zero
        while c < n:
            if v[c]:
                b = basis.get(c)
                if b is None:
                    inv = ff.inv_mod(v[c], q)
                    basis[c] = [e * inv % q for e in v]
                    break
                f = v[c]
                v = [(e - f * p) % q for e, p in zip(v, b)]
            c += 1
        below = rho[-1]
        rho.append(tuple([r + 1 for r in below[: n - c]]) + below[n - c :])
    return RankControl(tuple(reversed(rho)))


def _inclusion_exclusion(rc: RankControl) -> list[list[int]]:
    n = rc.n
    rho = rc.rho
    return [
        [rho[i][j] - rho[i + 1][j] - rho[i][j + 1] + rho[i + 1][j + 1] for j in range(n)]
        for i in range(n)
    ]


def invariant_to_partial_involution(rc: RankControl) -> RookElement:
    """Recover the partial involution from a symmetric matrix's rank control.

    A non-0/1 or non-symmetric inclusion-exclusion array signals a bug or a
    characteristic-2 input and raises InvariantViolationError.
    """
    cells = _inclusion_exclusion(rc)
    n = rc.n
    if any(e not in (0, 1) for row in cells for e in row):
        raise InvariantViolationError("rank control is not of rook type")
    if any(cells[i][j] != cells[j][i] for i in range(n) for j in range(n)):
        raise InvariantViolationError("recovered array is not symmetric")
    m = [0] * n
    for i in range(n):
        hits = [j + 1 for j in range(n) if cells[i][j]]
        if len(hits) > 1:
            raise InvariantViolationError("recovered array is not a partial permutation")
        if hits:
            m[i] = hits[0]
    rook = RookElement(tuple(m))
    if not rook.is_symmetric():
        raise InvariantViolationError("recovered rook element is not an involution")
    return rook


def invariant_to_partial_fpf(rc: RankControl) -> RookElement:
    """As invariant_to_partial_involution, additionally requiring a zero diagonal."""
    rook = invariant_to_partial_involution(rc)
    if any(rook.map[i] == i + 1 for i in range(rook.n)):
        raise InvariantViolationError("recovered involution has a fixed point")
    return rook


@dataclass(frozen=True)
class SymOrbitReport:
    """Census of Borel-congruence orbits against the rook-type parametrizers."""

    n: int
    q: int
    form: str
    orbit_count: int
    invariant_values: int
    expected_parametrizer_count: int
    witnesses: tuple[FqMatrix, ...]

    @property
    def match(self) -> bool:
        """Skew orbits match the parametrizer count exactly; for symmetric
        matrices the finite-field orbits refine the classification, so the
        invariant count is what must match."""
        if self.form == "skew":
            return self.orbit_count == self.expected_parametrizer_count
        return self.invariant_values == self.expected_parametrizer_count

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "form": self.form,
            "orbit_count": self.orbit_count,
            "invariant_values": self.invariant_values,
            "parametrizers": self.expected_parametrizer_count,
            "match": self.match,
            "witnesses": [[list(r) for r in w.rows] for w in self.witnesses],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())

    def csv_row(self) -> str:
        space = ("Sym" if self.form == "sym" else "Skew") + str(self.n)
        return (
            f"{space},B(F_{self.q}) congruence,{self.q},{self.n},"
            f"{self.orbit_count},{self.expected_parametrizer_count},{str(self.match).lower()}"
        )

    CSV_HEADER = "space,group,q,n,orbit_count,expected,match"


def twisted_orbit_census(n: int, q: int, form: str) -> SymOrbitReport:
    """Exhaustive Borel-congruence census on Sym_n(F_q) or Skew_n(F_q)."""
    if q == 2:
        raise PreconditionError("congruence oracles need odd characteristic")
    if form not in ("sym", "skew"):
        raise PreconditionError("form must be 'sym' or 'skew'")
    orbits = ff.borel_orbits(n, q, form)
    invariants = {rank_control(o[0]) for o in orbits}
    # the invariant is constant on orbits, so representatives suffice
    parametrizers = symmetric_rook_elements(n, fpf=(form == "skew"))
    report = SymOrbitReport(
        n=n,
        q=q,
        form=form,
        orbit_count=len(orbits),
        invariant_values=len(invariants),
        expected_parametrizer_count=len(parametrizers),
        witnesses=tuple(o[0] for o in orbits),
    )
    if form == "skew" and not report.match:
        raise InvariantViolationError("skew orbit count disagrees with parametrizers")
    if form == "sym" and not report.match:
        raise InvariantViolationError("symmetric invariant count disagrees with parametrizers")
    return report


def verify_borel_meets_closure_N(n: int, q: int, form: str) -> bool:
    """Every congruence class's rank control is witnessed by a torus-scaled
    symmetric rook element (an element of the monomial-matrix closure)."""
    if q == 2:
        raise PreconditionError("odd characteristic required")
    if n > 3:
        raise PreconditionError("guard: n <= 3")
    rooks = symmetric_rook_elements(n, fpf=(form == "skew"))
    # row scaling never changes trailing ranks, so one scale per rook suffices
    witnessed = {rank_control(ff.from_rook(r, q)) for r in rooks}
    space = ff.enumerate_symmetric(n, q) if form == "sym" else ff.enumerate_skew(n, q)
    return all(rank_control(a) in witnessed for a in space)
