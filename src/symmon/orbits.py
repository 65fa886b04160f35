"""Borel orbits in twisted-symmetric matrix spaces over small prime fields.

The Borel subgroup of upper-triangular matrices acts on symmetric and on
skew-symmetric matrices by congruence A -> b A b^T.  The complete computable
invariant used throughout is the rank-control matrix of trailing-submatrix
ranks; inclusion-exclusion on it recovers the partial (fixed-point-free)
involution parametrizing the orbit's closed-field class.
"""

from __future__ import annotations

import functools
import json
from operator import add, sub
from typing import NamedTuple

from . import finite_field as ff
from ._record import no_tuple_arithmetic
from .errors import InvariantViolationError, PreconditionError
from .finite_field import FqMatrix
from .involution import InvolutionSpec
from .rook import RookElement, _rook, symmetric_rook_elements


def tau(m: FqMatrix, inv: InvolutionSpec) -> FqMatrix:
    """The twist-product m . theta_an(m); for AI this is m m^T."""
    return m @ ff.theta_an(m, inv)


def is_in_symmetric_submonoid(m: FqMatrix, inv: InvolutionSpec) -> bool:
    """m . theta_an(m) = 1, the unit-fixed submonoid; for AI, m m^T = 1."""
    return tau(m, inv).rows == ff._identity_rows(m.n)


class RankControl(NamedTuple):
    """rho[i][j] = rank of A[i.., j..] (0-based trailing submatrices), padded
    with zeros at i = n or j = n."""

    rho: tuple[tuple[int, ...], ...]

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic


# kernel: a row of A is packed one byte per entry, big-endian
# (int.from_bytes(bytes(row), "big")), so byte c holds entry c of the
# reversed row, and its leading position is its lowest nonzero byte,
# ((v & -v).bit_length() - 1) >> 3.  A basis row b has leading byte 1, so
# v + (q - lead) b has byte q there and only zero bytes below it; every
# other byte is at most (q - 1) + (q - 1)^2 = 42 < 256 and never carries,
# whatever n is.  bytes.translate(_MOD_TABLE[q]) reduces the bytes mod q in
# one C call, as in the packed product.


@functools.cache
def _steps(n: int) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The steps (1,) * m + (0,) * (n + 1 - m), m = 0..n, and the dict step -> m."""
    steps = tuple([(1,) * m + (0,) * (n + 1 - m) for m in range(n + 1)])
    return steps, {step: m for m, step in enumerate(steps)}


def rank_control(a: FqMatrix) -> RankControl:
    """The ranks of all trailing submatrices, from one bottom-up pass.

    The rows of A, columns reversed, enter an echelon basis keyed by leading
    position, from the last row up.  On the first k reversed columns, the
    rank of an echelon basis is the number of its leading positions below k.
    So a row that survives reduction with leading position c makes rho[i][j]
    one more than rho[i + 1][j] for every j < n - c, and equal to it for
    the other j."""
    n, q = a.n, a.q
    table, inverse, from_bytes = ff._MOD_TABLE[q], ff._INVERSE[q], int.from_bytes
    steps = _steps(n)[0]
    basis = [0] * n  # by leading position: a packed row with leading byte 1, or 0
    below = steps[0]
    rho = [below]
    for row in reversed(a.rows):
        v = from_bytes(bytes(row), "big")
        while v:
            c = ((v & -v).bit_length() - 1) >> 3
            lead = v >> (c << 3) & 255
            b = basis[c]
            if not b:
                basis[c] = from_bytes((v * inverse[lead]).to_bytes(n, "little").translate(table), "little")
                below = tuple(map(add, below, steps[n - c]))
                break
            v = from_bytes((v + (q - lead) * b).to_bytes(n, "little").translate(table), "little")
        rho.append(below)
    rho.reverse()
    return RankControl(tuple(rho))


def invariant_to_partial_involution(rc: RankControl) -> RookElement:
    """Recover the partial involution from a symmetric matrix's rank control.

    The inclusion-exclusion array rho[i][j] - rho[i + 1][j] - rho[i][j + 1]
    + rho[i + 1][j + 1] must be a symmetric 0/1 array with at most one 1 in
    each row; it is then the partial involution's matrix.  Otherwise (a bug
    or a characteristic-2 input) InvariantViolationError reports the first
    of these tests that fails, in that order.

    Row i of the array is e_m (zero for m = 0) exactly when rho[i] - rho[i + 1]
    is step m.  If every row is a step, the array is symmetric exactly when
    i + 1 -> m is an involution; otherwise the tests run cell by cell.
    """
    rho = rc.rho
    n = len(rho) - 1
    step_of = _steps(n)[1]
    try:
        m = tuple([step_of[tuple(map(sub, x, y))] for x, y in zip(rho, rho[1:])])
    except KeyError:
        cells = [list(map(sub, d, d[1:])) for d in (list(map(sub, x, y)) for x, y in zip(rho, rho[1:]))]
        if any(row.count(0) + row.count(1) != n for row in cells):
            raise InvariantViolationError("rank control is not of rook type") from None
        if cells != list(map(list, zip(*cells))):
            raise InvariantViolationError("recovered array is not symmetric") from None
        if any(row.count(1) > 1 for row in cells):
            raise InvariantViolationError("recovered array is not a partial permutation") from None
        # a symmetric 0/1 array with at most one 1 in each row is an involution
        return _rook(tuple([row.index(1) + 1 if 1 in row else 0 for row in cells]))
    if any(m[j - 1] != i for i, j in enumerate(m, 1) if j):
        raise InvariantViolationError("recovered array is not symmetric")
    return _rook(m)


def invariant_to_partial_fpf(rc: RankControl) -> RookElement:
    """As invariant_to_partial_involution, additionally requiring a zero diagonal."""
    rook = invariant_to_partial_involution(rc)
    if any(j == i + 1 for i, j in enumerate(rook.map)):
        raise InvariantViolationError("recovered involution has a fixed point")
    return rook


class SymOrbitReport(NamedTuple):
    """Census of Borel-congruence orbits against the rook-type parametrizers."""

    n: int
    q: int
    form: str
    orbit_count: int
    invariant_values: int
    expected_parametrizer_count: int
    witnesses: tuple[FqMatrix, ...]

    __add__ = __mul__ = __rmul__ = no_tuple_arithmetic

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
    if form not in ("sym", "skew"):
        raise PreconditionError("form must be 'sym' or 'skew'")
    if q == 2:
        raise PreconditionError("congruence oracles need odd characteristic")
    # the roots, the orbits' least points in increasing order, are all that is decoded
    roots = ff._roots(ff._borel_parents(n, q, form))  # its guards run before the decoder is built
    witnesses = tuple(map(ff._decoder(n, q, form), roots))
    # the invariant is constant on orbits, so representatives suffice
    invariants = {rank_control(w) for w in witnesses}
    parametrizers = symmetric_rook_elements(n, fpf=(form == "skew"))
    report = SymOrbitReport(
        n=n,
        q=q,
        form=form,
        orbit_count=len(witnesses),
        invariant_values=len(invariants),
        expected_parametrizer_count=len(parametrizers),
        witnesses=witnesses,
    )
    if form == "skew" and not report.match:
        raise InvariantViolationError("skew orbit count disagrees with parametrizers")
    if form == "sym" and not report.match:
        raise InvariantViolationError("symmetric invariant count disagrees with parametrizers")
    return report


def verify_borel_meets_closure_N(n: int, q: int, form: str) -> bool:
    """Every congruence class's rank control is witnessed by a torus-scaled
    symmetric rook element (an element of the monomial-matrix closure)."""
    if form not in ("sym", "skew"):
        raise PreconditionError("form must be 'sym' or 'skew'")
    if q == 2:
        raise PreconditionError("odd characteristic required")
    if n > 3:
        raise PreconditionError("guard: n <= 3")
    rooks = symmetric_rook_elements(n, fpf=(form == "skew"))
    # row scaling never changes trailing ranks, so one scale per rook suffices
    witnessed = {rank_control(ff.from_rook(r, q)) for r in rooks}
    space = ff.enumerate_symmetric(n, q) if form == "sym" else ff.enumerate_skew(n, q)
    return all(rank_control(a) in witnessed for a in space)
