"""The package's acceptance checklist.

Each criterion is one check of one case, returning (ok, detail), with its own
oracle where one is called for (binomial count formulas, the dot criterion
for the symmetric-group Bruhat order, exhaustive finite-field enumeration).
The table `CRITERIA` binds each check to its cases: a criterion passes when
every case passes, and its detail joins the cases' details with "; ".  The
CLI `verify` command and tests/test_acceptance.py both run this table.
"""

from __future__ import annotations

import functools
import itertools
from operator import le
from typing import Callable

from . import finite_field as ff
from . import involution as iv
from . import orbits as ob
from . import polytope as pt
from . import rook as rn
from . import root_weight as rw


def _dot_counts(u: tuple[int, ...]) -> tuple[int, ...]:
    """The dot criterion's table for the symmetric-group Bruhat order,
    independent of the rook-matrix rank formulation: u <= v iff every northeast
    prefix count of u is dominated, |{t <= i : u(t) >= j}| <= |{t <= i : v(t) >= j}|
    for all i, j.  Flat, row-major over 1 <= i, j <= n."""
    n = len(u)
    return tuple(sum(1 for t in range(i) if u[t] >= j) for i in range(1, n + 1) for j in range(1, n + 1))


def rook_cardinality(expected: tuple[int, ...]) -> tuple[bool, str]:
    """|R_n| for n = 1, 2, ...: enumerated, by the count formula, and expected."""
    sizes = range(1, len(expected) + 1)
    got = [len(rn.enumerate_rook(n)) for n in sizes]
    formula = [rn.rook_count(n) for n in sizes]
    ok = got == list(expected) == formula
    return ok, f"|R_n| n=1..{len(expected)}: enumerated {got}, formula {formula}, expected {list(expected)}"


def bruhat_decomposition(n: int, q: int) -> tuple[bool, str]:
    """Mat_n(F_q) has |R_n| B x B orbits, and bruhat_factor gives each its own rook."""
    orbits = ff.borel_orbits(n, q, "bxb")
    expected = rn.rook_count(n)
    mismatches = 0
    seen = set()
    for orbit in orbits:
        rooks = {ff.bruhat_factor(m).r for m in orbit}
        if len(rooks) == 1 and not rooks <= seen:
            seen |= rooks
        else:
            mismatches += 1
    ok = len(orbits) == expected and mismatches == 0
    return ok, f"Mat_{n}(F_{q}): {len(orbits)} orbits (expected {expected}), mismatches {mismatches}"


def bruhat_order_gate(n_max: int) -> tuple[bool, str]:
    """bruhat_leq restricted to S_n, n <= n_max, against the dot criterion."""
    worst = 0
    total = 0
    for n in range(1, n_max + 1):
        # one rook element and one count table per permutation, not per pair
        perms = [(rn.from_permutation(u), _dot_counts(u)) for u in itertools.permutations(range(1, n + 1))]
        for ru, du in perms:
            for rv, dv in perms:
                total += 1
                if rn.bruhat_leq(ru, rv) != all(map(le, du, dv)):
                    worst += 1
    return worst == 0, f"S_n restriction vs dot-criterion oracle, n<={n_max}: {total} pairs, {worst} mismatches"


def special_weights(rank: int) -> tuple[bool, str]:
    """Catalog up to rank: theta*^2 = id, the positivity gate, special generators."""
    failures = []
    checked = 0
    for spec in iv.catalog(rank):
        rs = spec.root_system()
        dim = spec.ambient_dim
        # column j of theta*^2 is theta* of column j of theta*
        square = [iv.star_vector(spec, column) for column in zip(*spec.theta_star)]
        if square != [tuple(int(i == j) for j in range(dim)) for i in range(dim)]:
            failures.append(f"{spec.family}{spec.params}: theta*^2 != id")
            continue
        if not iv.check_positive_system(rs, spec):
            failures.append(f"{spec.family}{spec.params}: positivity gate")
            continue
        for lam in iv.spherical_generators(spec, rs):
            checked += 1
            if not iv.is_special(spec, lam, rs):
                failures.append(f"{spec.family}{spec.params}: generator {lam} not special")
    return not failures, f"{checked} generators over the rank<={rank} catalog; failures: {failures or 'none'}"


def weight_set_stability(rank: int) -> tuple[bool, str]:
    """Pi(lambda) is -theta*-stable for each spherical generator up to rank."""
    failures = []
    checked = 0
    for spec in iv.catalog(rank):
        rs = spec.root_system()
        for lam in iv.spherical_generators(spec, rs):
            checked += 1
            if not iv.check_weight_set_stability(rs, spec, lam):
                failures.append(f"{spec.family}{spec.params}: {lam}")
    return not failures, f"Pi(lambda) stability for {checked} generators; failures: {failures or 'none'}"


def figure_polytopes() -> tuple[bool, str]:
    """The A_3 adjoint polytope (a cuboctahedron) and the A_4 defining simplex."""
    a3 = rw.root_system("A", 3)
    fw3 = rw.fundamental_weights(a3)
    cubocta = pt.weight_polytope(a3, fw3[0] + fw3[2])
    f = pt.f_vector(cubocta)
    a4 = rw.root_system("A", 4)
    fw4 = rw.fundamental_weights(a4)
    simplex = pt.weight_polytope(a4, fw4[0])
    contain_adj = all(pt.contains(cubocta, w) for w in rw.extended_weights(a3, fw3[0] + fw3[2]))
    contain_def = all(pt.contains(simplex, w) for w in rw.extended_weights(a4, fw4[0]))
    ok = f == (12, 24, 14) and len(simplex.vertices) == 5 and contain_adj and contain_def
    return ok, (
        f"adjoint orbit polytope f-vector {f} (expected (12, 24, 14)); defining-rep polytope "
        f"{len(simplex.vertices)} vertices (expected 5); containment {contain_adj}/{contain_def}"
    )


def _partial_involution(rc: ob.RankControl) -> rn.RookElement | None:
    """invariant_to_partial_involution, or None where it raises."""
    try:
        return ob.invariant_to_partial_involution(rc)
    except Exception:
        return None


def partial_involutions(n: int, q: int, expected: int) -> tuple[bool, str]:
    """Rank controls parametrize Sym_n(F_q)'s orbits by R_n's partial involutions."""
    orbits = ff.borel_orbits(n, q, "sym")
    # one reduction per matrix, shared by the checks below
    control = functools.cache(ob.rank_control)
    constant = all(len({control(m) for m in orbit}) == 1 for orbit in orbits)
    invariants = {control(orbit[0]) for orbit in orbits}
    count_ok = len(invariants) == expected == len(rn.symmetric_rook_elements(n))
    # one call per distinct rank control of Sym_n(F_q)
    recovered = {rc: _partial_involution(rc) for rc in {control(m) for m in ff.enumerate_symmetric(n, q)}}
    total = None not in recovered.values()
    fixes = all(recovered.get(control(ff.from_rook(p, q))) == p for p in rn.symmetric_rook_elements(n))
    ok = constant and count_ok and total and fixes
    return ok, (
        f"n={n}: constant {constant}, invariants {len(invariants)} (expected {expected}), "
        f"total {total}, fixes parametrizers {fixes}"
    )


def partial_fpf(n: int, q: int, expected: int) -> tuple[bool, str]:
    """Skew_n(F_q)'s orbits are parametrized by R_n's partial fpf involutions."""
    report = ob.twisted_orbit_census(n, q, "skew")
    recovered = {ob.invariant_to_partial_fpf(ob.rank_control(w)) for w in report.witnesses}
    onto = recovered == set(rn.symmetric_rook_elements(n, fpf=True))
    ok = report.orbit_count == expected == report.expected_parametrizer_count and report.match and onto
    return ok, (
        f"Skew_{n}(F_{q}): {report.orbit_count} orbits vs {report.expected_parametrizer_count} "
        f"parametrizers; witnesses normalize onto all parametrizers: {onto}"
    )


def borel_meets_monomial_closure(n: int, q: int, form: str) -> tuple[bool, str]:
    """Every congruence class of the form's space meets the monomial closure."""
    ok = ob.verify_borel_meets_closure_N(n, q, form)
    return ok, f"({n},{q},{form}): {ok}"


def symmetric_submonoid(family: str, n: int, q: int) -> tuple[bool, str]:
    """The unit-fixed submonoid M^an is a monoid whose units are the theta-fixed group."""
    spec = iv.involution_spec(family, n)
    man = {m for m in ff.enumerate_matrices(n, q) if ob.is_in_symmetric_submonoid(m, spec)}
    has_identity = ff.identity_matrix(n, q) in man
    closed = all((x @ y) in man for x in man for y in man)
    fixed_group = {
        g for g in ff.enumerate_matrices(n, q) if g.is_invertible() and ff.theta_an(g, spec) == g.inverse()
    }
    invertible_part = {m for m in man if m.is_invertible()}
    ok = has_identity and closed and invertible_part == fixed_group
    return ok, (
        f"|M^an| = {len(man)}: contains identity {has_identity}, product-closed {closed}, "
        f"invertible part equals theta-fixed subgroup {invertible_part == fixed_group}"
    )


def _each(check: Callable[..., tuple[bool, str]], cases: tuple[tuple, ...]) -> tuple[bool, str]:
    """Run check on every case: ok when every case is, the details joined by "; "."""
    results = [check(*case) for case in cases]
    return all(ok for ok, _ in results), "; ".join(detail for _, detail in results)


def _criterion(name: str, check: Callable[..., tuple[bool, str]], *cases: tuple) -> tuple[str, Callable]:
    """A row of CRITERIA: the name, and the check bound to its default cases."""
    return name, functools.partial(_each, check, cases)


# each case is the argument tuple of one call of its check
CRITERIA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    _criterion("1 rook-monoid cardinality", rook_cardinality, ((2, 7, 34, 209),)),
    _criterion("2 Bruhat decomposition disjointness", bruhat_decomposition, (2, 2), (2, 3), (3, 2)),
    _criterion("3 Bruhat-Chevalley order gate", bruhat_order_gate, (4,)),
    _criterion("4 special weights catalog", special_weights, (4,)),
    _criterion("5 weight-set stability", weight_set_stability, (4,)),
    _criterion("6 figure polytopes", figure_polytopes, ()),
    _criterion("7 partial-involution parametrization", partial_involutions, (1, 3, 2), (2, 3, 5), (3, 3, 14)),
    _criterion("8 partial-fpf parametrization", partial_fpf, (3, 3, 4)),
    _criterion("9 orbit invariants meet monomial closure", borel_meets_monomial_closure, (2, 3, "sym"), (3, 3, "skew")),
    _criterion("10 symmetric submonoid", symmetric_submonoid, ("AI", 2, 3)),
)


def run_all() -> tuple[bool, str]:
    """Run every criterion: (all passed, one [PASS]/[FAIL] line per criterion)."""
    results = [(name, *fn()) for name, fn in CRITERIA]
    text = "".join(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}\n" for name, ok, detail in results)
    return all(ok for _, ok, _ in results), text
