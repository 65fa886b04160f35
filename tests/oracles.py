"""Reference implementations the tests compare symmon against.

No command, `symmon verify` criterion or benchmark job reaches these, so they
live with the tests, not in src/, where every start would compile them:

* the type-A rook-monoid helpers (the rank, products, idempotents, Green's
  relations, the cross-section lattice), the oracles for views of the Renner
  monoid;
* small F_q facts (the zero matrix, |B|, the twisted Borel action and the
  triangularity, symmetry and skew predicates);
* the breadth-first orbit search, the oracle of the union-find of
  finite_field.orbit_enumerate and borel_orbits;
* the partial involution of a rank control, read cell by cell off the
  inclusion-exclusion array, the oracle of the step lookup in orbits;
* Fraction matrices: Gauss-Jordan row reduction over Q (the oracle of the
  integer echelon in linalg) with the rank, the nullspace basis and the
  independent rows read off it, the identity, the matrix-vector and matrix
  products, the transpose, the inverse and one solution of a x = b;
* the Fraction root datum, the oracle of the integer one read off the
  Cartan adjugate: the Cartan inverse, the fundamental weights as its rows
  times the simple roots, the full root set as the W-orbits of the simple
  roots, the simple-root coefficients of a weight and -theta* on labels
  from Fraction weights;
* the Fraction pairing <mu, alpha>, the dominance order and the Weyl orbit
  a weight polytope is the hull of;
* the two-pass weight-set stability test (the weight set first, then every
  point unpacked and mapped), the oracle of the one-pass
  root_weight.weight_set_is_stable;
* the restricted-root layer (Phi_0 and Phi_1, the restricted simple roots and
  their cone), the oracle for deriving spherical weights from theta*.
"""

import functools
import itertools
from fractions import Fraction
from operator import mul, sub

from symmon import finite_field as ff
from symmon import involution as iv
from symmon import linalg
from symmon import polytope as pt
from symmon import root_weight as rw
from symmon.errors import DegenerateRootError, InvariantViolationError, PreconditionError, ResourceLimitError
from symmon.rook import RookElement, enumerate_rook, from_permutation

# -- the type-A rook monoid ---------------------------------------------------


def rook_rank(r):
    """The number of 1s of the partial permutation matrix r."""
    return sum(1 for j in r.map if j != 0)


def identity_rook(n):
    return RookElement(tuple(range(1, n + 1)))


def zero_rook(n):
    return RookElement((0,) * n)


def idempotent(n, support):
    """The diagonal idempotent e_I with 1s exactly on the rows in support."""
    s = set(support)
    return RookElement(tuple(i if i in s else 0 for i in range(1, n + 1)))


def is_idempotent(r):
    return all(j == 0 or j == i + 1 for i, j in enumerate(r.map))


def multiply(r, s):
    """Composition as 0/1 matrix product r . s."""
    if r.n != s.n:
        raise PreconditionError("size mismatch")
    return RookElement(tuple(s.map[j - 1] if j != 0 else 0 for j in r.map))


def _rows(r):
    """Rows carrying a 1 (1-based)."""
    return frozenset(i + 1 for i, j in enumerate(r.map) if j != 0)


def _columns(r):
    """Columns carrying a 1 (1-based)."""
    return frozenset(j for j in r.map if j != 0)


def green_relation(r, s, rel):
    """Green's relations via the big unit group: L is equal row spaces (equal
    column supports), R is equal column spaces (equal row supports), J is equal
    rank, H is L and R."""
    if r.n != s.n:
        raise PreconditionError("size mismatch")
    rel = rel.upper()
    if rel == "L":
        return _columns(r) == _columns(s)
    if rel == "R":
        return _rows(r) == _rows(s)
    if rel == "J":
        return rook_rank(r) == rook_rank(s)
    if rel == "H":
        return _columns(r) == _columns(s) and _rows(r) == _rows(s)
    raise PreconditionError(f"unknown Green relation {rel!r}")


def idempotent_order(e, f):
    """e <= f iff ef = e = fe (both arguments must be idempotent)."""
    if not (is_idempotent(e) and is_idempotent(f)):
        raise PreconditionError("idempotent_order needs idempotent arguments")
    return multiply(e, f) == e and multiply(f, e) == e


def cross_section(n):
    """The chain e_0 < e_1 < ... < e_n with e_k = diag(1^k, 0^(n-k)), as a tuple."""
    return tuple(idempotent(n, range(1, k + 1)) for k in range(n + 1))


def diagonal_idempotents(n):
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        out.append(idempotent(n, (i + 1 for i, b in enumerate(bits) if b)))
    return tuple(sorted(out))


def conjugates_of_cross_section(n):
    """Union of w Lambda w^{-1} over the unit group; should be all of E(T-bar)."""
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        w = from_permutation(perm)
        winv = w.transpose()
        for e in cross_section(n):
            out.add(multiply(multiply(w, e), winv))
    return frozenset(out)


def w_e_w_decomposition(n):
    """Partition of the rook monoid into the classes W e_k W, indexed by rank k."""
    classes = [[] for _ in range(n + 1)]
    for r in enumerate_rook(n):
        classes[rook_rank(r)].append(r)
    return tuple(tuple(sorted(c)) for c in classes)


# -- F_q ----------------------------------------------------------------------


def zero_matrix(n, q):
    return ff.FqMatrix(q, ((0,) * n,) * n)


def borel_size(n, q):
    return (q - 1) ** n * q ** (n * (n - 1) // 2)


def twisted_action(b, m, inv):
    """b * m = b . m . theta_an(b); for AI this is b m b^T."""
    return b @ m @ ff.theta_an(b, inv)


def is_diagonal(m):
    return all(m.rows[i][j] == 0 for i in range(m.n) for j in range(m.n) if i != j)


def is_upper_triangular(m):
    return all(m.rows[i][j] == 0 for i in range(m.n) for j in range(i))


def is_upper_unitriangular(m):
    return is_upper_triangular(m) and all(m.rows[i][i] == 1 for i in range(m.n))


def is_symmetric(m):
    return m.rows == tuple(zip(*m.rows))


def is_skew(m):
    n = m.n
    return all(m.rows[i][i] == 0 for i in range(n)) and all(
        m.rows[i][j] == -m.rows[j][i] % m.q for i in range(n) for j in range(n)
    )


def orbit_bfs(act, space, generators):
    """Partition a finite space into orbits of the group generated by generators.

    act(g, x) -> x applies one generator.  Orbits are sorted tuples; the
    partition is sorted by the orbit representatives (minimal elements), so
    output is deterministic.  At most SPACE_GUARD points are held.
    """
    guard = ff.SPACE_GUARD
    points = list(space)
    if len(points) > guard:
        raise ResourceLimitError(f"orbit space: {len(points)} points exceed the limit {guard}")
    seen_orbit: set = set()
    orbits = []
    for start in points:
        if start in seen_orbit:
            continue
        room = guard - len(seen_orbit)  # the points this orbit may still hold
        orbit = {start}
        add = orbit.add
        frontier = [start]
        while frontier:
            nxt = []
            append = nxt.append
            for x in frontier:
                for g in generators:
                    y = act(g, x)
                    if y not in orbit:
                        add(y)
                        append(y)
                        if len(orbit) > room:
                            raise ResourceLimitError(
                                f"orbit enumeration: {guard - room + len(orbit)} points "
                                f"exceed the limit {guard}"
                            )
            frontier = nxt
        seen_orbit |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits, key=lambda o: o[0]))


def partial_involution_of_rank_control(rc):
    """invariant_to_partial_involution cell by cell: one pass over the rows
    of the inclusion-exclusion array makes all three tests, each row
    compared with the column above it, and the first that fails, in the
    order rook type, symmetry, partial permutation, is raised."""
    rho = rc.rho
    n = len(rho) - 1
    cells = []
    m = [0] * n
    symmetric = partial = True
    for i in range(n):
        d = list(map(sub, rho[i], rho[i + 1]))
        row = list(map(sub, d, d[1:]))
        if row.count(0) + row.count(1) != n:
            raise InvariantViolationError("rank control is not of rook type")
        if symmetric and row[:i] != [r[i] for r in cells]:
            symmetric = False
        hits = row.count(1)
        if hits > 1:
            partial = False
        elif hits:
            m[i] = row.index(1) + 1
        cells.append(row)
    if not symmetric:
        raise InvariantViolationError("recovered array is not symmetric")
    if not partial:
        raise InvariantViolationError("recovered array is not a partial permutation")
    return RookElement(tuple(m))


# -- Fraction linear algebra --------------------------------------------------


def mat(rows):
    return tuple(linalg.vec(r) for r in rows)


def zero_vec(n):
    return (Fraction(0),) * n


def mat_vec(m, x):
    return tuple(linalg.dot(row, x) for row in m)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(linalg.dot(row, col) for col in bt) for row in a)


def identity_mat(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def _row_reduce(rows):
    """In-place reduced row echelon form over Q; returns (rows, pivot column
    indices).  The oracle of the integer echelon linalg._echelon."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [inv * e for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m):
    return len(_row_reduce([list(map(Fraction, row)) for row in m])[1])


def nullspace(m):
    """The reduced-row-echelon basis of {x : m x = 0}: one vector per free
    column f, with x_f = 1 and 0 on the other free columns."""
    ncols = len(m[0]) if m else 0
    reduced, pivots = _row_reduce([list(map(Fraction, row)) for row in m])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, c in enumerate(pivots):
            x[c] = -reduced[r][f]
        basis.append(tuple(x))
    return tuple(basis)


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedily from the front."""
    return _row_reduce([list(map(Fraction, col)) for col in zip(*rows)])[1]


def mat_inv(m):
    """Inverse of a square matrix by row reduction; raises ValueError if singular."""
    n = len(m)
    aug = [list(m[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    reduced, pivots = _row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


# -- weights ------------------------------------------------------------------


def cartan_inverse(rs):
    return mat_inv(mat(rs.cartan))


def combination(rs, coeffs, vectors):
    """sum_k coeffs[k] * vectors[k]."""
    w = rw.Weight(zero_vec(rs.ambient_dim))
    for c, v in zip(coeffs, vectors):
        w = w + v.scale(c)
    return w


def fraction_fundamental_weights(rs):
    """omega_j = sum_i (C^-1)[j][i] alpha_i, in Fractions."""
    return tuple(combination(rs, row, rs.simple_roots) for row in cartan_inverse(rs))


@functools.lru_cache(maxsize=None)
def all_roots(rs):
    """The full root set: union of Weyl orbits of the simple roots, sorted."""
    roots = set()
    for alpha in rs.simple_roots:
        roots.update(rw.weyl_orbit(rs, alpha))
    return tuple(sorted(roots))


def simple_root_coefficients(rs, mu):
    """Coefficients of mu in the simple-root basis, or None if outside the span.

    The labels of mu = sum_k c_k alpha_k are c * cartan, so c = labels * cartan^-1;
    the labels see only mu's projection onto the span, hence the reconstruction.
    """
    coeffs = mat_vec(transpose(cartan_inverse(rs)), rs.labels(mu))
    return coeffs if combination(rs, coeffs, rs.simple_roots) == mu else None


def fraction_neg_star_on_labels(rs, inv):
    """-theta* on Dynkin labels, column j the labels of the Fraction weight
    -theta* omega_j."""
    columns = [rs.labels(-inv.apply_star(om)) for om in fraction_fundamental_weights(rs)]
    return tuple(zip(*columns))


def two_pass_weight_set_is_stable(rs, labels, matrix):
    """root_weight.weight_set_is_stable in two passes: Pi(lam) as plain label
    codes, then every point unpacked again and mapped by the matrix, as the
    sum of its labels times the packed columns."""
    bound = 2 * sum(labels)
    code = rw._label_code(rs, max(bound + 2, max(1, *(sum(map(abs, row)) for row in matrix)) * bound))
    below, dominants = rw._dominant_codes_below(rs, labels)
    points = []
    for x in dominants:
        rw._extend_by_orbit(code, code.encode(below.labels(x)), points)
    columns = [rw._plain(col, code.k) for col in zip(*matrix)]
    images = {sum(map(mul, code.labels(x), columns)) + code.top for x in points}
    return images == set(points)


def pairing(rs, mu, alpha):
    """<mu, alpha> = 2(mu, alpha)/(alpha, alpha) in Fractions: the oracle of
    the integer Cartan matrix and Dynkin labels."""
    nn = rs.form(alpha, alpha)
    if nn == 0:
        raise DegenerateRootError("zero-norm root in pairing")
    return 2 * rs.form(mu, alpha) / nn


def dominance_leq(rs, mu, lam):
    """True iff lam - mu is a nonnegative integer combination of simple roots."""
    coeffs = simple_root_coefficients(rs, lam - mu)
    if coeffs is None:
        return False
    return all(c >= 0 and c.denominator == 1 for c in coeffs)


def weight_orbit_points(rs, lam):
    """The Weyl orbit of chi + lambda (type A, extended coordinates) or of
    lambda itself (other families): the points weight_polytope takes the hull of."""
    pt._dominant_labels(rs, lam)
    return rw.weyl_orbit(rs, pt._orbit_base(rs, lam))


# -- the restricted root system of theta* -------------------------------------


def solve(a, b):
    """One exact solution x of a x = b, or None if inconsistent.

    If the system is underdetermined the free variables are set to zero.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    reduced, pivots = _row_reduce(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][-1]
    return tuple(x)


def phi_decomposition(rs, inv):
    """(Phi_0, Phi_1) with Phi_0 the roots fixed by theta*."""
    if rs.ambient_dim != inv.ambient_dim:
        raise PreconditionError("ambient dimension mismatch")
    phi0, phi1 = [], []
    for alpha in all_roots(rs):
        (phi0 if inv.apply_star(alpha) == alpha else phi1).append(alpha)
    return tuple(phi0), tuple(phi1)


def restricted_simple_roots(rs, inv):
    """(phi0, phi1, delta0, delta1, restricted_simples, rank_l): Delta_0,
    Delta_1 and the restricted simple roots (alpha - theta* alpha)/2.

    Delta_1 is ordered so that the l distinct difference vectors come first;
    the remaining entries repeat earlier differences.
    """
    if not iv.check_positive_system(rs, inv):
        raise PreconditionError("positivity gate failed for this involution")
    phi0, phi1 = phi_decomposition(rs, inv)
    phi0_set = set(phi0)
    delta0 = tuple(a for a in rs.simple_roots if a in phi0_set)
    delta1_raw = [a for a in rs.simple_roots if a not in phi0_set]
    seen = {}
    fresh, repeats = [], []
    for a in delta1_raw:
        diff = a - inv.apply_star(a)
        if diff in seen:
            repeats.append(a)
        else:
            seen[diff] = a
            fresh.append(a)
    restricted = tuple((a - inv.apply_star(a)).scale(Fraction(1, 2)) for a in fresh)
    return phi0, phi1, delta0, tuple(fresh + repeats), restricted, len(restricted)


def theta_an_star(inv, chi):
    """The antiinvolution side on weights: -theta*(chi)."""
    return -inv.apply_star(chi)


def twisted_weight(inv, chi):
    """chi - theta*(chi)."""
    return chi - inv.apply_star(chi)


def in_restricted_cone(rs, inv, w):
    """Membership of w in the nonnegative rational cone over the doubled
    restricted simple roots {2 alpha-bar_i}."""
    gens = [g.scale(2) for g in restricted_simple_roots(rs, inv)[4]]
    if not gens:
        return not any(w.coords)
    rows = mat([g.coords for g in gens])
    if rank(rows) != len(gens):
        raise PreconditionError("restricted simple roots are not independent")
    sol = solve(transpose(rows), w.coords)
    return sol is not None and all(c >= 0 for c in sol)


def twisted_weight_in_support(rs, inv, lam, mu):
    """Companion predicate of twisted_weight: the twisted weight of mu must be
    of the form 2(lambda - sum n_i alpha-bar_i) with n_i >= 0, i.e.
    2 lambda - (mu - theta* mu) lies in the cone over {2 alpha-bar_i}."""
    return in_restricted_cone(rs, inv, lam.scale(2) - twisted_weight(inv, mu))
