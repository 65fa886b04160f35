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
    n = a.n
    rho = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            rho[i][j] = _rect_rank([row[j:] for row in a.rows[i:]], a.q)
    return RankControl(tuple(tuple(r) for r in rho))


def _rect_rank(rows: list, q: int) -> int:
    """Rank of a rectangular residue matrix."""
    work = [list(r) for r in rows]
    if not work or not work[0]:
        return 0
    nrows, ncols = len(work), len(work[0])
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = ff.inv_mod(work[rank][c], q)
        work[rank] = [e * inv % q for e in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [(e - f * p) % q for e, p in zip(work[r], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


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
