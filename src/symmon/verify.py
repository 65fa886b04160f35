"""The package's acceptance checklist.

Each criterion is an independent end-to-end check with its own oracle where
one is called for (binomial count formulas, the dot criterion for the
symmetric-group Bruhat order, exhaustive finite-field enumeration).  The CLI
`verify` command and tests/test_acceptance.py both run this list.
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


def criterion_1_rook_cardinality() -> tuple[bool, str]:
    expected = [2, 7, 34, 209]
    got = [len(rn.enumerate_rook(n)) for n in range(1, 5)]
    formula = [rn.rook_count(n) for n in range(1, 5)]
    ok = got == expected == formula
    return ok, f"|R_n| n=1..4: enumerated {got}, formula {formula}, expected {expected}"


def criterion_2_bruhat_decomposition() -> tuple[bool, str]:
    details = []
    ok = True
    for n, q in ((2, 2), (2, 3), (3, 2)):
        orbits = ff.borel_orbits(n, q, "bxb")
        expected = rn.rook_count(n)
        count_ok = len(orbits) == expected
        mismatches = 0
        rook_of_orbit = {}
        for orbit in orbits:
            rooks = {ff.bruhat_factor(m).r for m in orbit}
            if len(rooks) != 1:
                mismatches += 1
                continue
            r = next(iter(rooks))
            if r in rook_of_orbit:
                mismatches += 1
            rook_of_orbit[r] = orbit[0]
        ok = ok and count_ok and mismatches == 0
        details.append(f"Mat_{n}(F_{q}): {len(orbits)} orbits (expected {expected}), mismatches {mismatches}")
    return ok, "; ".join(details)


def criterion_3_bruhat_order_gate() -> tuple[bool, str]:
    worst = 0
    total = 0
    for n in range(1, 5):
        # one rook element and one count table per permutation, not per pair
        perms = [(rn.from_permutation(u), _dot_counts(u)) for u in itertools.permutations(range(1, n + 1))]
        for ru, du in perms:
            for rv, dv in perms:
                total += 1
                if rn.bruhat_leq(ru, rv) != all(map(le, du, dv)):
                    worst += 1
    return worst == 0, f"S_n restriction vs dot-criterion oracle, n<=4: {total} pairs, {worst} mismatches"


def criterion_4_special_weights() -> tuple[bool, str]:
    failures = []
    checked = 0
    for spec in iv.catalog(4):
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
    ok = not failures
    return ok, f"{checked} generators over the rank<=4 catalog; failures: {failures or 'none'}"


def criterion_5_weight_set_stability() -> tuple[bool, str]:
    failures = []
    checked = 0
    for spec in iv.catalog(4):
        rs = spec.root_system()
        for lam in iv.spherical_generators(spec, rs):
            checked += 1
            if not iv.check_weight_set_stability(rs, spec, lam):
                failures.append(f"{spec.family}{spec.params}: {lam}")
    return not failures, f"Pi(lambda) stability for {checked} generators; failures: {failures or 'none'}"


def criterion_6_figure_polytopes() -> tuple[bool, str]:
    a3 = rw.root_system("A", 3)
    fw3 = rw.fundamental_weights(a3)
    cubocta = pt.weight_polytope(a3, fw3[0] + fw3[2])
    f = pt.f_vector(cubocta)
    a4 = rw.root_system("A", 4)
    fw4 = rw.fundamental_weights(a4)
    simplex = pt.weight_polytope(a4, fw4[0])
    contain_adj = all(pt.contains(cubocta, w) for w in rw.extended_weights(a3, fw3[0] + fw3[2]))
    contain_def = all(pt.contains(simplex, w) for w in rw.extended_weights(a4, fw4[0]))
    ok = (
        f == (12, 24, 14)
        and len(simplex.vertices) == 5
        and contain_adj
        and contain_def
    )
    return ok, (
        f"adjoint orbit polytope f-vector {f} (expected (12, 24, 14)); defining-rep polytope "
        f"{len(simplex.vertices)} vertices (expected 5); containment {contain_adj}/{contain_def}"
    )


def criterion_7_partial_involutions() -> tuple[bool, str]:
    details = []
    ok = True
    expected_counts = {1: 2, 2: 5, 3: 14}
    for n in (1, 2, 3):
        orbits = ff.borel_orbits(n, 3, "sym")
        # one reduction per matrix, shared by the three checks below
        control = functools.cache(ob.rank_control)
        constant = all(len({control(m) for m in orbit}) == 1 for orbit in orbits)
        invariants = {control(orbit[0]) for orbit in orbits}
        count_ok = len(invariants) == expected_counts[n] == len(rn.symmetric_rook_elements(n))
        total = True
        # one call per distinct rank control of Sym_n(F_3)
        for rc in {control(m) for m in ff.enumerate_symmetric(n, 3)}:
            try:
                ob.invariant_to_partial_involution(rc)
            except Exception:
                total = False
                break
        fixes = all(
            ob.invariant_to_partial_involution(control(ff.from_rook(p, 3))) == p
            for p in rn.symmetric_rook_elements(n)
        )
        ok = ok and constant and count_ok and total and fixes
        details.append(
            f"n={n}: constant {constant}, invariants {len(invariants)} (expected {expected_counts[n]}), "
            f"total {total}, fixes parametrizers {fixes}"
        )
    return ok, "; ".join(details)


def criterion_8_partial_fpf() -> tuple[bool, str]:
    report = ob.twisted_orbit_census(3, 3, "skew")
    recovered = {
        ob.invariant_to_partial_fpf(ob.rank_control(w)) for w in report.witnesses
    }
    expected = set(rn.symmetric_rook_elements(3, fpf=True))
    ok = (
        report.orbit_count == 4
        and report.expected_parametrizer_count == 4
        and report.match
        and recovered == expected
    )
    return ok, (
        f"Skew_3(F_3): {report.orbit_count} orbits vs {report.expected_parametrizer_count} "
        f"parametrizers; witnesses normalize onto all parametrizers: {recovered == expected}"
    )


def criterion_9_borel_meets_monomial_closure() -> tuple[bool, str]:
    a = ob.verify_borel_meets_closure_N(2, 3, "sym")
    b = ob.verify_borel_meets_closure_N(3, 3, "skew")
    return a and b, f"(2,3,sym): {a}; (3,3,skew): {b}"


def criterion_10_symmetric_submonoid() -> tuple[bool, str]:
    ai = iv.involution_spec("AI", 2)
    identity = ff.identity_matrix(2, 3)
    man = {m for m in ff.enumerate_matrices(2, 3) if ob.is_in_symmetric_submonoid(m, ai)}
    has_identity = identity in man
    closed = all((x @ y) in man for x in man for y in man)
    fixed_group = {
        g
        for g in ff.enumerate_matrices(2, 3)
        if g.is_invertible() and ff.theta_an(g, ai) == g.inverse()
    }
    invertible_part = {m for m in man if m.is_invertible()}
    ok = has_identity and closed and invertible_part == fixed_group
    return ok, (
        f"|M^an| = {len(man)}: contains identity {has_identity}, product-closed {closed}, "
        f"invertible part equals theta-fixed subgroup {invertible_part == fixed_group}"
    )


CRITERIA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("1 rook-monoid cardinality", criterion_1_rook_cardinality),
    ("2 Bruhat decomposition disjointness", criterion_2_bruhat_decomposition),
    ("3 Bruhat-Chevalley order gate", criterion_3_bruhat_order_gate),
    ("4 special weights catalog", criterion_4_special_weights),
    ("5 weight-set stability", criterion_5_weight_set_stability),
    ("6 figure polytopes", criterion_6_figure_polytopes),
    ("7 partial-involution parametrization", criterion_7_partial_involutions),
    ("8 partial-fpf parametrization", criterion_8_partial_fpf),
    ("9 orbit invariants meet monomial closure", criterion_9_borel_meets_monomial_closure),
    ("10 symmetric submonoid", criterion_10_symmetric_submonoid),
)


def run_all(out=None) -> bool:
    """Run every criterion, print one pass/fail line each, return overall result."""
    import sys

    out = out or sys.stdout
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        out.write(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}\n")
    return all_ok
