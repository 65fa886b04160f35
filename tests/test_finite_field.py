import copy
import itertools
import pickle
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    borel_size,
    is_diagonal,
    is_skew,
    is_symmetric,
    is_upper_triangular,
    is_upper_unitriangular,
    negate,
    orbit_bfs,
    rook_rank,
    symplectic_j,
    symplectic_theta_an,
    twisted_action,
)

from symmon import finite_field as ff
from symmon import involution as iv
from symmon import orbits as ob
from symmon import rook as rn
from symmon.errors import PreconditionError, ResourceLimitError, UnsupportedFamilyError
from symmon.finite_field import FqMatrix
from symmon.rook import RookElement, bruhat_leq, enumerate_rook


def test_primitive_roots():
    for q in (3, 5, 7):
        g = ff.primitive_root(q)
        powers = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            powers.add(x)
        assert powers == set(range(1, q))


def test_inv_mod():
    for q in ff.SUPPORTED_PRIMES:
        for a in range(-q, 2 * q):
            if a % q:
                assert ff.inv_mod(a, q) * a % q == 1
            else:
                with pytest.raises(ZeroDivisionError, match="no inverse of 0"):
                    ff.inv_mod(a, q)
    with pytest.raises(PreconditionError, match="modulus 4 not supported"):
        ff.inv_mod(1, 4)


@pytest.mark.parametrize("q", [7.0, 3.0, Fraction(7), "7"], ids=repr)
def test_a_modulus_that_is_not_an_int_is_rejected(q):
    for call in (
        lambda: FqMatrix(q, ((1, 2), (0, 1))).inverse(),
        lambda: ff.inv_mod(3, q),
        lambda: ff.borel_orbits(2, q, "sym"),
        lambda: ff.primitive_root(q),
    ):
        with pytest.raises(PreconditionError, match=f"modulus {q} not supported"):
            call()


def test_matrix_basics():
    m = ff.fq_matrix(3, [[1, 2], [4, -1]])
    assert m.rows == ((1, 2), (1, 2))
    assert m.rank() == 1
    assert not m.is_invertible()
    i2 = ff.identity_matrix(2, 3)
    assert m @ i2 == m
    assert m.transpose().rows == ((1, 1), (2, 2))
    g = ff.fq_matrix(3, [[1, 1], [0, 1]])
    assert g.inverse() @ g == i2
    assert negate(i2).rows == ((2, 0), (0, 2))
    assert is_skew(ff.fq_matrix(3, [[0, 1], [2, 0]]))
    assert is_symmetric(ff.fq_matrix(3, [[1, 2], [2, 0]]))
    with pytest.raises(PreconditionError):
        FqMatrix(3, ((1, 2),))
    with pytest.raises(PreconditionError):
        m.inverse()


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
def test_rank_and_inverse_exhaustive(n, q):
    # independent oracle: the row space {x m : x in F_q^n} has q^rank points
    vectors = list(itertools.product(range(q), repeat=n))
    ident = ff.identity_matrix(n, q)
    for m in ff.enumerate_matrices(n, q):
        cols = list(zip(*m.rows))
        row_space = {tuple(sum(a * b for a, b in zip(x, col)) % q for col in cols) for x in vectors}
        assert len(row_space) == q ** m.rank()
        if len(row_space) == q**n:
            assert m.inverse() @ m == ident == m @ m.inverse()
        else:
            with pytest.raises(PreconditionError, match="singular"):
                m.inverse()


def test_enumerators_match_the_filtered_matrix_space():
    for q in ff.SUPPORTED_PRIMES:
        for n in range(4):
            if q ** (n * n) > ff.SPACE_GUARD:
                continue
            space = [
                FqMatrix(q, tuple(flat[i * n : (i + 1) * n] for i in range(n)))
                for flat in itertools.product(range(q), repeat=n * n)
            ]
            assert list(ff.enumerate_matrices(n, q)) == space
            assert list(ff.enumerate_symmetric(n, q)) == [m for m in space if is_symmetric(m)]
            assert list(ff.enumerate_skew(n, q)) == [m for m in space if is_skew(m)]
    for enumerate_space, n, message in (
        (ff.enumerate_matrices, 3, "matrix space: 7^9 = 40353607 matrices exceed the limit 1000000"),
        (ff.enumerate_symmetric, 4, "symmetric space: 7^10 = 282475249 matrices exceed the limit 1000000"),
        (ff.enumerate_skew, 5, "skew space: 7^10 = 282475249 matrices exceed the limit 1000000"),
        (ff.enumerate_skew, 13, "skew space: 7^78 matrices exceed the limit 1000000"),
    ):
        with pytest.raises(ResourceLimitError) as exc:
            list(enumerate_space(n, 7))
        assert str(exc.value) == message
        with pytest.raises(PreconditionError, match="modulus 4 not supported"):
            list(enumerate_space(1, 4))


@pytest.mark.parametrize("enumerate_space", [ff.enumerate_matrices, ff.enumerate_symmetric, ff.enumerate_skew])
def test_enumerators_reject_negative_n(enumerate_space):
    with pytest.raises(PreconditionError) as exc:
        list(enumerate_space(-1, 3))
    assert str(exc.value) == "n must be nonnegative, got -1"


@pytest.mark.parametrize("n", [2.0, "2", None])
def test_a_non_int_n_is_a_precondition_error(n):
    # one check of n behind the enumerations, the orbit engine and the census
    for call in (
        lambda: list(ff.enumerate_matrices(n, 3)),
        lambda: list(ff.enumerate_symmetric(n, 3)),
        lambda: list(ff.enumerate_skew(n, 3)),
        lambda: ff.borel_orbits(n, 3, "sym"),
        lambda: ff.borel_orbits(n, 3, "bxb"),
        lambda: ob.twisted_orbit_census(n, 3, "skew"),
    ):
        with pytest.raises(PreconditionError, match=f"n must be an int, got {n!r}"):
            call()


def borel(n, q):
    """The Borel subgroup: the invertible upper-triangular matrices of Mat_n(F_q)."""
    return tuple(b for b in ff.enumerate_matrices(n, q) if is_upper_triangular(b) and b.is_invertible())


def test_borel_size_counts_invertible_upper_triangular():
    for n, q, size in ((2, 3, 12), (1, 2, 1), (3, 2, 8), (2, 5, 80), (0, 3, 1)):
        assert borel_size(n, q) == size == len(borel(n, q))


def test_borel_generators_generate():
    for n, q in ((2, 3), (2, 2), (3, 2)):
        gens = ff.borel_generators(n, q)
        group = set()
        frontier = [ff.identity_matrix(n, q)]
        group.update(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x @ g
                    if y not in group:
                        group.add(y)
                        nxt.append(y)
            frontier = nxt
        assert group == set(borel(n, q))


def test_borel_generators_are_valid_matrices():
    # they are built from residues without validation, so each must pass it
    for q in ff.SUPPORTED_PRIMES:
        for n in range(5):
            for g in ff.borel_generators(n, q):
                assert FqMatrix(q, g.rows) == g


def test_bruhat_factor_fixes_rook_matrices():
    for r in enumerate_rook(2) + enumerate_rook(3):
        m = ff.from_rook(r, 3)
        fac = ff.bruhat_factor(m)
        assert fac.r == r
        assert fac.u == ff.identity_matrix(m.n, 3)
        assert fac.v == ff.identity_matrix(m.n, 3)
        assert fac.t == ff.identity_matrix(m.n, 3)


def test_bruhat_factor_hand_example():
    m = ff.fq_matrix(3, [[1, 1], [1, 1]])
    fac = ff.bruhat_factor(m)
    assert fac.r == RookElement((0, 1))  # rank 1, pivot in the bottom-left
    assert fac.product() == m
    assert fac.pattern_ok()


@pytest.mark.parametrize("n,q", [(2, 5), (3, 2)])
def test_product_matches_three_matmuls(n, q):
    """product() builds t . r directly; it equals u . (t . r) . v multiplied out."""
    for m in ff.enumerate_matrices(n, q):
        fac = ff.bruhat_factor(m)
        assert fac.product() == fac.u @ (fac.t @ ff.from_rook(fac.r, q)) @ fac.v


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_bruhat_factor_exhaustive(n, q):
    rooks = set()
    for m in ff.enumerate_matrices(n, q):
        fac = ff.bruhat_factor(m)
        assert fac.product() == m
        assert is_upper_unitriangular(fac.u)
        assert is_upper_unitriangular(fac.v)
        assert is_diagonal(fac.t) and fac.t.is_invertible()
        assert fac.pattern_ok()
        rooks.add(fac.r)
    assert len(rooks) == len(enumerate_rook(n))


def _pattern_ok_oracle(fac):
    """pattern_ok pair by pair: u[a][b] != 0, a < b (1-based), needs b a
    pivot row and a no pivot row of an earlier column; v[a][b] != 0 needs a
    a pivot column."""
    u, v, rook_map = fac.u.rows, fac.v.rows, fac.r.map
    n = len(u)
    col_of_row = {i + 1: j for i, j in enumerate(rook_map) if j != 0}
    pivot_cols = set(rook_map) - {0}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if u[a - 1][b - 1] != 0:
                if b not in col_of_row:
                    return False
                if a in col_of_row and col_of_row[a] < col_of_row[b]:
                    return False
            if v[a - 1][b - 1] != 0 and a not in pivot_cols:
                return False
    return True


def test_pattern_ok_matches_oracle_off_the_pattern():
    """Factorizations with one entry of u or v above the diagonal set to a
    random value, inside the pattern or not."""
    rng = random.Random(17)
    verdicts = set()
    for _ in range(3000):
        n, q = rng.randint(1, 5), rng.choice((2, 3, 5))
        fac = ff.bruhat_factor(_random_matrix(rng, n, q))
        if n > 1:
            name = rng.choice("uv")
            rows = [list(row) for row in getattr(fac, name).rows]
            a = rng.randrange(n - 1)
            rows[a][rng.randrange(a + 1, n)] = rng.randrange(q)
            fac = fac._replace(**{name: ff.fq_matrix(q, rows)})
        verdict = fac.pattern_ok()
        assert verdict == _pattern_ok_oracle(fac), fac
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _bruhat_factor_oracle(m):
    """bruhat_factor as the elimination that accumulates every row and column
    operation into U and V, maintaining m = U . a . V."""
    q, n = m.q, m.n
    a = [list(row) for row in m.rows]
    # accumulated inverse operations: m = U . a . V throughout
    big_u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    big_v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pivot_row_of_col: dict[int, int] = {}
    used_rows: set[int] = set()
    for j in range(n):
        cand = [i for i in range(n) if i not in used_rows and a[i][j]]
        if not cand:
            continue
        i0 = max(cand)  # lowest nonzero entry
        piv = a[i0][j]
        piv_inv = ff.inv_mod(piv, q)
        # clear row i0 rightward: col_k -= (a[i0][k]/piv) * col_j,
        # i.e. a <- a . (I - f E_{jk}); v accumulates (I + f E_{jk}) on the left
        for k in range(j + 1, n):
            if a[i0][k]:
                f = a[i0][k] * piv_inv % q
                for r_ in range(n):
                    a[r_][k] = (a[r_][k] - f * a[r_][j]) % q
                for c in range(n):
                    big_v[j][c] = (big_v[j][c] + f * big_v[k][c]) % q
        # clear column j upward: row_i -= (a[i][j]/piv) * row_i0,
        # i.e. a <- (I - f E_{i,i0}) . a; u accumulates (I + f E_{i,i0}) on the right
        for i in range(i0):
            if a[i][j]:
                f = a[i][j] * piv_inv % q
                for k in range(n):
                    a[i][k] = (a[i][k] - f * a[i0][k]) % q
                for r_ in range(n):
                    big_u[r_][i0] = (big_u[r_][i0] + f * big_u[r_][i]) % q
        pivot_row_of_col[j] = i0
        used_rows.add(i0)
    rook_map = [0] * n
    tdiag = [1] * n
    for j, i0 in pivot_row_of_col.items():
        rook_map[i0] = j + 1
        tdiag[i0] = a[i0][j]
    r = RookElement(tuple(rook_map))
    t = FqMatrix(q, tuple(tuple(tdiag[i] if i == j else 0 for j in range(n)) for i in range(n)))
    return ff.BorelFactorization(
        u=FqMatrix(q, tuple(map(tuple, big_u))), t=t, r=r, v=FqMatrix(q, tuple(map(tuple, big_v)))
    )


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_bruhat_factor_matches_oracle_exhaustive(n, q):
    for m in ff.enumerate_matrices(n, q):
        assert ff.bruhat_factor(m) == _bruhat_factor_oracle(m)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_factorization_cells_tile_the_matrix_space(n, q):
    # uniqueness by counting: every matrix factors into some pattern cell
    # (test_bruhat_factor_exhaustive), and the cells' total size is |Mat_n|,
    # so the factorization map is a bijection
    total = 0
    for r in enumerate_rook(n):
        col_of_row = {i + 1: j for i, j in enumerate(r.map) if j != 0}
        pivot_cols = set(r.map) - {0}
        u_pat = sum(
            1
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
            if b in col_of_row and not (a in col_of_row and col_of_row[a] < col_of_row[b])
        )
        v_pat = sum(
            1 for a in range(1, n + 1) for b in range(a + 1, n + 1) if a in pivot_cols
        )
        total += q ** (u_pat + v_pat) * (q - 1) ** rook_rank(r)
    assert total == q ** (n * n)


def _bxb_action(n, q):
    """(act, space, generators) of B x B on Mat_n(F_q), m -> b m c^-1."""
    gens = [(b, 0) for b in ff.borel_generators(n, q)] + [
        (b, 1) for b in ff.borel_generators(n, q)
    ]

    def act(g, m):
        b, side = g
        return b @ m if side == 0 else m @ b.inverse()

    return act, tuple(ff.enumerate_matrices(n, q)), gens


def _congruence_action(n, q, form):
    """(act, space, generators) of B on Sym_n or Skew_n(F_q), a -> b a b^T."""
    space = tuple(ff.enumerate_symmetric(n, q) if form == "sym" else ff.enumerate_skew(n, q))
    return (lambda b, a: b @ a @ b.transpose()), space, ff.borel_generators(n, q)


# every (action, n, q) with n <= 3 whose BFS oracle finishes in under about a
# second (Mat_3(F_3), 34 cells, and Sym_3(F_5), 36 orbits, are the largest)
ORACLE_CASES = (
    [("bxb", n, q) for n in (1, 2) for q in (2, 3, 5, 7)]
    + [("bxb", 3, 2), ("bxb", 3, 3)]
    + [("sym", n, q) for n in (1, 2) for q in (2, 3, 5, 7)]
    + [("sym", 3, 2), ("sym", 3, 3), ("sym", 3, 5)]
    + [("skew", n, q) for n in (1, 2, 3) for q in (2, 3, 5, 7)]
    + [("skew", 4, 3)]
)


@pytest.mark.parametrize("action,n,q", ORACLE_CASES)
def test_borel_orbits_match_bfs_oracle(action, n, q):
    act, space, gens = _bxb_action(n, q) if action == "bxb" else _congruence_action(n, q, action)
    oracle = orbit_bfs(act, space, gens)
    assert ff.borel_orbits(n, q, action) == oracle
    assert ff.orbit_enumerate(act, space, gens) == oracle


def _rothe_diagram_size(r):
    """|D(r)|: reverse the rows of r into w (southwest ranks become northwest
    ranks), and count the cells (i, j) with j < w(i) and i < w^-1(j), an empty
    row or column counting as infinity."""
    n, inf = r.n, float("inf")
    w = [r.map[n - 1 - i] - 1 if r.map[n - 1 - i] else inf for i in range(n)]
    w_inv = [w.index(j) if j in w else inf for j in range(n)]
    return sum(1 for i in range(n) for j in range(n) if j < w[i] and i < w_inv[j])


@pytest.mark.parametrize("n,q", [(3, 3), (2, 5), (2, 7)])
def test_bxb_orbit_sizes_match_matrix_schubert_cells(n, q):
    # |B r B| = (q - 1)^k q^(l - k), k = rank r, l = n^2 - |D(r)| (Fulton 1992):
    # a U x U orbit that the torus pass failed to merge would be too small
    orbits = ff.borel_orbits(n, q, "bxb")
    assert len(orbits) == len(enumerate_rook(n))
    for orbit in orbits:
        r = ff.bruhat_factor(orbit[0]).r
        k, length = rook_rank(r), n * n - _rothe_diagram_size(r)
        assert len(orbit) == (q - 1) ** k * q ** (length - k)


def test_borel_orbits_empty_matrix():
    for action in ff.BOREL_ACTIONS:
        assert ff.borel_orbits(0, 3, action) == ((FqMatrix(3, ()),),)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_rook_component_is_complete_orbit_invariant(n, q):
    orbits = ff.borel_orbits(n, q, "bxb")
    assert len(orbits) == len(enumerate_rook(n))
    seen_rooks = set()
    for orbit in orbits:
        rooks = {ff.bruhat_factor(m).r for m in orbit}
        assert len(rooks) == 1
        r = rooks.pop()
        assert r not in seen_rooks
        seen_rooks.add(r)


def test_bxb_orbits_mat4_f2_are_the_rook_monoid():
    orbits = ff.borel_orbits(4, 2, "bxb")
    assert len(orbits) == 209 == len(enumerate_rook(4))
    assert sum(len(o) for o in orbits) == 2**16
    # the rook component is constant on orbits, so distinct ones on the
    # representatives make the orbits the Bruhat cells
    assert {ff.bruhat_factor(o[0]).r for o in orbits} == set(enumerate_rook(4))


def test_borel_orbits_bad_input():
    with pytest.raises(PreconditionError, match="nonnegative"):
        ff.borel_orbits(-1, 3, "sym")
    with pytest.raises(PreconditionError, match="action"):
        ff.borel_orbits(2, 3, "hermitian")
    with pytest.raises(PreconditionError):
        ff.borel_orbits(2, 4, "bxb")


def test_borel_orbits_work_guard_message():
    # Mat_3(F_5): 5^9 points, 5 generators on each side
    with pytest.raises(ResourceLimitError) as exc:
        ff.borel_orbits(3, 5, "bxb")
    assert str(exc.value) == (
        "Borel orbit work estimate 1953125 points x 10 generators = 19531250 "
        "applications exceeds the limit 1000000"
    )
    with pytest.raises(ResourceLimitError, match=r"3\^5050 points x 199 generators"):
        ff.borel_orbits(100, 3, "sym")
    # over F_2 the torus is trivial: only the E_k,k+1(1) count, 4 on each side
    with pytest.raises(ResourceLimitError, match="33554432 points x 8 generators = 268435456 applications"):
        ff.borel_orbits(5, 2, "bxb")


def test_guards_spell_out_q_to_the_64th_and_no_further():
    # Mat_8(F_2) has 64 digits, the last size both guards still compute
    with pytest.raises(ResourceLimitError) as exc:
        list(ff.enumerate_matrices(8, 2))
    assert str(exc.value) == "matrix space: 2^64 = 18446744073709551616 matrices exceed the limit 1000000"
    with pytest.raises(ResourceLimitError) as exc:
        ff.borel_orbits(8, 2, "bxb")
    assert str(exc.value) == (
        "Borel orbit work estimate 18446744073709551616 points x 14 generators = 258254417031933722624 "
        "applications exceeds the limit 1000000"
    )
    with pytest.raises(ResourceLimitError, match=r"^symmetric space: 2\^66 matrices exceed"):
        list(ff.enumerate_symmetric(11, 2))


def test_borel_orbits_work_guard_admits_every_census_space():
    # the spaces the census admitted before the work guard: at most SPACE_GUARD points
    for q in (3, 5, 7):
        for n in range(8):
            for form, dim in (("sym", n * (n + 1) // 2), ("skew", n * (n - 1) // 2)):
                if q**dim <= ff.SPACE_GUARD:
                    ff._check_orbit_work(n, q, form)


def _admits(n, q, action):
    try:
        ff._check_orbit_work(n, q, action)
    except ResourceLimitError:
        return False
    return True


def _admits_some_action(n, q):
    return any(_admits(n, q, action) for action in ff.BOREL_ACTIONS)


# every (n, q) at which borel_orbits admits some action; the work grows with
# n, so each q stops at its first n that no action admits
ADMITTED_SPACES = [
    (n, q)
    for q in ff.SUPPORTED_PRIMES
    for n in itertools.takewhile(lambda n: _admits_some_action(n, q), itertools.count())
]


# every (n, q, action) at which borel_orbits runs
ADMITTED = [(n, q, action) for n, q in ADMITTED_SPACES for action in ff.BOREL_ACTIONS if _admits(n, q, action)]


def _stored(n, action):
    """The entries a point's number reads, most significant digit first."""
    first = {"bxb": lambda i: 0, "sym": lambda i: i, "skew": lambda i: i + 1}[action]
    return [(i, j) for i in range(n) for j in range(first(i), n)]


def _number(m, action):
    q, n = m.q, m.n
    return sum(m.rows[i][j] * q**k for k, (i, j) in enumerate(reversed(_stored(n, action))))


def _point(n, q, action, x):
    """The matrix numbered x: its stored digits, mirrored on a form."""
    rows = [[0] * n for _ in range(n)]
    for i, j in reversed(_stored(n, action)):
        x, rows[i][j] = divmod(x, q)
        if action != "bxb":
            rows[j][i] = rows[i][j] if action == "sym" else -rows[i][j] % q
    return ff.fq_matrix(q, rows)


def _generator_matrix(n, q, generator):
    """g = I + c E_ab of the generator (side, a, b, c)."""
    side, a, b, c = generator
    return ff.fq_matrix(q, [[int(i == j) + c * ((i, j) == (a, b)) for j in range(n)] for i in range(n)])


def _act(n, q, action, generator):
    """m -> g m, m g or g m g^T for the generator (side, a, b, c), g = I + c E_ab."""
    side, g = generator[0], _generator_matrix(n, q, generator)
    return {"left": lambda m: g @ m, "right": lambda m: m @ g, "congruence": lambda m: g @ m @ g.transpose()}[side]


@pytest.mark.parametrize("n,q", [(n, q) for n in range(5) for q in ff.SUPPORTED_PRIMES])
def test_simple_generators_are_the_diagonal_ones_and_the_e_k_k_plus_1(n, q):
    def moved(b):  # the one entry where a Borel generator is not the identity
        (entry,) = [(i, j) for i, row in enumerate(b.rows) for j, e in enumerate(row) if e != (i == j)]
        return entry

    unipotent = {b for b in ff.borel_generators(n, q) if moved(b)[1] == moved(b)[0] + 1}
    diagonal = {b for b in ff.borel_generators(n, q) if moved(b)[1] == moved(b)[0]}
    for action in ff.BOREL_ACTIONS:
        for side in ("left", "right") if action == "bxb" else ("congruence",):
            for expected, ours in zip((unipotent, diagonal), ff._simple_generators(n, q, action)):
                ours = [g for g in ours if g[0] == side]
                assert len(ours) == len(expected)  # no generator twice, and none outside the matrix
                assert {_generator_matrix(n, q, g) for g in ours} == expected


def test_admitted_rows_fit_one_chunk_of_the_packed_sum():
    # byte t of a block's packed sum is the unreduced new digit t: its form's
    # coefficients, each at most q - 1, times digits at most q - 1.  No byte
    # may pass 255, or it would carry into the next
    assert {q for n, q in ADMITTED_SPACES} == set(ff.SUPPORTED_PRIMES)
    worst = 0
    for n, q, action in ADMITTED:
        for generator in itertools.chain(*ff._simple_generators(n, q, action)):
            forms = ff._generator_forms(n, q, action, generator)
            assert all(0 < f < q for form in forms.values() for f in form.values())
            worst = max([worst, q - 1] + [sum(form.values()) * (q - 1) for form in forms.values()])
    assert worst <= 255
    assert worst == 4 * 6  # (E A E^T)[k][k] = A[k][k] + 2 A[k][k+1] + A[k+1][k+1] over F_7


@pytest.mark.parametrize("n,q", ADMITTED_SPACES)
def test_row_code_table_matches_row_by_row_oracle(n, q):
    # a generator's tables are keyed by the codes of whole rows (a row pair,
    # or one row).  Every table of every simple generator, on every value v:
    # the point with that block v and every other digit 0 has no other block
    # moved, so its image, numbered again, is itself plus delta[v]
    rng = random.Random(f"{n}-{q}")
    for action in [a for m, p, a in ADMITTED if (m, p) == (n, q)]:
        size = q ** len(_stored(n, action))
        for generator in itertools.chain(*ff._simple_generators(n, q, action)):
            act = _act(n, q, action, generator)
            blocks = ff._generator_blocks(n, q, action, generator)
            for w, s, delta in blocks:
                assert len(delta) == s and size % (w * s) == 0
                for v in range(s):
                    assert _number(act(_point(n, q, action, v * w)), action) == v * w + delta[v]
            # and on whole points, where every block has its own value
            for x in rng.sample(range(size), min(size, 64)):
                image = x + sum(delta[x // w % s] for w, s, delta in blocks)
                assert image == _number(act(_point(n, q, action, x)), action)


def test_products_skip_validation_but_stay_reduced():
    for q in (2, 3, 5, 7):
        a = ff.fq_matrix(q, [[1, 2, 3], [4, 5, 6], [0, 1, 6]])
        b = ff.fq_matrix(q, [[q - 1, 0, 1], [2, 2, 2], [3, 0, 5]])
        for m in (a @ b, b @ a, a @ a @ b, a.transpose(), b.transpose() @ a):
            assert m == FqMatrix(q, m.rows)
            assert all(0 <= e < q for row in m.rows for e in row)
        for g in ff.borel_generators(3, q):
            inv = g.inverse()
            assert inv == FqMatrix(q, inv.rows)
            assert g.inverse() is inv and inv.inverse() is g
            assert g @ inv == ff.identity_matrix(3, q)


def test_orbit_enumerate_trivial_group_and_determinism(monkeypatch):
    space = tuple(ff.enumerate_matrices(1, 3))
    orbits = ff.orbit_enumerate(lambda g, x: x, space, [None])
    assert all(len(o) == 1 for o in orbits)
    congruence = tuple(ff.enumerate_symmetric(2, 3))
    a = ff.orbit_enumerate(lambda b, m: b @ m @ b.transpose(), congruence, ff.borel_generators(2, 3))
    b = ff.orbit_enumerate(
        lambda b, m: b @ m @ b.transpose(),
        tuple(reversed(congruence)),
        tuple(reversed(ff.borel_generators(2, 3))),
    )
    assert a == b
    # the sorted, distinct points are numbered: repeats are one point, and a
    # one-shot iterator of generators is read once
    assert ff.orbit_enumerate(lambda g, x: x, [3, 1, 1, 2], [None]) == ((1,), (2,), (3,))
    c = ff.orbit_enumerate(lambda b, m: b @ m @ b.transpose(), iter(congruence), iter(ff.borel_generators(2, 3)))
    assert c == a
    monkeypatch.setattr(ff, "SPACE_GUARD", 3)  # read at call time; the limit itself is admitted
    assert ff.orbit_enumerate(lambda g, x: x, space, [None]) == orbits
    monkeypatch.setattr(ff, "SPACE_GUARD", 1)
    with pytest.raises(ResourceLimitError) as exc:
        ff.orbit_enumerate(lambda g, x: x, space, [None])
    assert str(exc.value) == "orbit space: 3 points exceed the limit 1"
    # an image outside the space is an error, whatever the guard
    monkeypatch.setattr(ff, "SPACE_GUARD", 5)
    with pytest.raises(PreconditionError) as exc:
        ff.orbit_enumerate(lambda g, x: x + 1, [0], [None])
    assert str(exc.value) == "orbit enumeration: generator None maps 0 outside the space"


def test_orbit_enumerate_names_the_first_image_outside_the_space():
    # the first generator, in the order given, at its least point that leaves
    with pytest.raises(PreconditionError) as exc:
        ff.orbit_enumerate(lambda g, x: x + g, range(5), [0, 3, 2])
    assert str(exc.value) == "orbit enumeration: generator 3 maps 2 outside the space"
    # a KeyError of act itself is not taken for an image outside the space
    with pytest.raises(KeyError, match="own"):
        ff.orbit_enumerate(lambda g, x: {}["own"], range(3), [None])


@pytest.mark.parametrize("generators", [[4], [4, 6], [5], [1, "flip"], [4, "flip"], [6, "flip"], []])
def test_orbit_enumerate_matches_bfs_on_a_cyclic_group(generators):
    def act(g, x):  # Z/12 shifts, and the flip x -> -x of the dihedral group
        return -x % 12 if g == "flip" else (x + g) % 12

    space = [7, 3, 11, 0, 5, 1, 9, 2, 8, 4, 10, 6, 3]
    orbits = ff.orbit_enumerate(act, space, generators)
    assert orbits == orbit_bfs(act, space, generators)
    assert sorted(x for orbit in orbits for x in orbit) == list(range(12))


def test_twisted_action_examples():
    ai = iv.involution_spec("AI", 2)
    m = ff.fq_matrix(3, [[1, 2], [0, 1]])
    assert twisted_action(ff.identity_matrix(2, 3), m, ai) == m
    # diagonal entries scale by t_i^2
    for t1 in (1, 2):
        for t2 in (1, 2):
            b = ff.fq_matrix(3, [[t1, 0], [0, t2]])
            out = twisted_action(b, ff.fq_matrix(3, [[1, 0], [0, 2]]), ai)
            assert out.rows[0][0] == t1 * t1 * 1 % 3
            assert out.rows[1][1] == t2 * t2 * 2 % 3
    # b = [[a, 1], [0, 1]] on E22 gives the all-ones matrix for every a
    e22 = ff.fq_matrix(3, [[0, 0], [0, 1]])
    for a in range(3):
        b = ff.fq_matrix(3, [[a, 1], [0, 1]])
        assert twisted_action(b, e22, ai) == ff.fq_matrix(3, [[1, 1], [1, 1]])
    with pytest.raises(UnsupportedFamilyError):
        twisted_action(b, m, iv.involution_spec("CI", 2))


def test_twisted_action_is_group_action_exhaustive():
    ai = iv.involution_spec("AI", 2)
    borel_2_3 = borel(2, 3)
    space = tuple(ff.enumerate_matrices(2, 3))
    for b1 in borel_2_3:
        for b2 in borel_2_3:
            prod = b1 @ b2
            for m in space[:9]:
                assert twisted_action(prod, m, ai) == twisted_action(
                    b1, twisted_action(b2, m, ai), ai
                )
    # cocycle identity: theta_an(b1 b2) = theta_an(b2) theta_an(b1), all pairs
    for b1 in borel_2_3:
        for b2 in borel_2_3:
            assert ff.theta_an(b1 @ b2, ai) == ff.theta_an(b2, ai) @ ff.theta_an(b1, ai)


def test_theta_an_antiinvolution_aii():
    """The oracle's -J m^T J is an antiinvolution, and its unit-fixed
    group m theta_an(m) = 1 is Sp_2(F_3), of order 24."""
    mats = [
        ff.fq_matrix(3, [[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 1], [0, 0, 0, 1]]),
        ff.fq_matrix(3, [[0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0], [0, 1, 0, 2]]),
    ]
    for m in mats:
        assert symplectic_theta_an(symplectic_theta_an(m)) == m
        for m2 in mats:
            assert symplectic_theta_an(m @ m2) == symplectic_theta_an(m2) @ symplectic_theta_an(m)
    one = ff.identity_matrix(2, 3)
    assert sum(1 for m in ff.enumerate_matrices(2, 3) if m @ symplectic_theta_an(m) == one) == 24
    assert negate(symplectic_j(2, 3)) == symplectic_j(2, 3).inverse()
    with pytest.raises(PreconditionError, match="symplectic J needs even size"):
        symplectic_j(3, 3)


def test_theta_an_realizes_ai_only():
    for family, params in (("AII", (2,)), ("AIII", (1, 3))):
        spec = iv.involution_spec(family, *params)
        with pytest.raises(UnsupportedFamilyError, match=f"theta_an realizes AI only, not {family}"):
            ff.theta_an(ff.identity_matrix(spec.ambient_dim, 3), spec)


def test_tau_compatibility_with_fixed_subgroup():
    # tau(b a h^{-1}) = b * tau(a) for b Borel, h in the theta-fixed subgroup
    from symmon import orbits as ob

    ai = iv.involution_spec("AI", 2)
    hs = [
        g
        for g in ff.enumerate_matrices(2, 3)
        if g.is_invertible() and ff.theta_an(g, ai) == g.inverse()
    ]
    assert len(hs) == 8  # the orthogonal group O_2(F_3)
    borel_2_3 = borel(2, 3)
    sample = list(itertools.islice(ff.enumerate_matrices(2, 3), 0, 81, 5))
    for b in borel_2_3:
        for h in hs:
            for a in sample:
                lhs = ob.tau(b @ a @ h.inverse(), ai)
                rhs = twisted_action(b, ob.tau(a, ai), ai)
                assert lhs == rhs


def test_from_rook_scaled():
    r = RookElement((2, 0, 1))
    assert ff.from_rook(r, 5).rows == ((0, 1, 0), (0, 0, 0), (1, 0, 0))
    m = ff.fq_matrix(5, [[d * e for e in row] for d, row in zip((2, 3, 4), r.zero_one_rows())])
    assert m.rows == ((0, 2, 0), (0, 0, 0), (4, 0, 0))


def test_comparisons_order_by_modulus_then_rows():
    ms = [
        ff.fq_matrix(q, [[(i * 7 + j * 3 + s) % q for j in range(n)] for i in range(n)])
        for q in (7, 2, 5, 3)
        for n in (2, 0, 1, 3)
        for s in (1, 0, 4)
    ]
    ms += [FqMatrix(m.q, m.rows) for m in ms[::5]]  # equal, distinct objects
    key = lambda m: (m.q, m.rows)  # noqa: E731
    assert sorted(ms) == sorted(ms, key=key)
    for a in ms:
        for b in ms:
            assert (a == b) == (key(a) == key(b))
            assert (a != b) == (key(a) != key(b))
            assert (a < b) == (key(a) < key(b))
            assert (a <= b) == (key(a) <= key(b))
            assert (a > b) == (key(a) > key(b))
            assert (a >= b) == (key(a) >= key(b))
            if a == b:
                assert hash(a) == hash(b)
    m = ms[0]
    assert (m == "x") is False and (m != "x") is True
    for compare in (lambda: m < "x", lambda: m <= "x", lambda: m > "x", lambda: m >= "x"):
        with pytest.raises(TypeError):
            compare()


def _code(m):
    """The base-q integer of m's entries read row-major."""
    return sum(e * m.q**k for k, e in enumerate(reversed([e for row in m.rows for e in row])))


def test_sort_order_is_modulus_then_code():
    space = list(ff.enumerate_matrices(2, 2)) + list(ff.enumerate_matrices(2, 3))
    shuffled = space[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == sorted(space, key=lambda m: (m.q, _code(m))) == space


def test_hash_and_equality_agree():
    space = list(ff.enumerate_matrices(2, 2)) + list(ff.enumerate_matrices(2, 3))
    copies = [FqMatrix(m.q, tuple(map(tuple, map(list, m.rows)))) for m in space]
    for m, c in zip(space, copies):
        assert m == c and m is not c and hash(m) == hash(c)
    assert len(set(space) | set(copies)) == len(space)
    assert {m: i for i, m in enumerate(space)} == {c: i for i, c in enumerate(copies)}
    assert all(a != b for a, b in itertools.combinations(space, 2))


def test_equal_rows_under_different_moduli_are_unequal():
    for rows in (((0, 0), (0, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 1)), ((0,),), ()):
        ms = [FqMatrix(q, rows) for q in ff.SUPPORTED_PRIMES]
        assert all(a != b and not a == b for a, b in itertools.combinations(ms, 2))
        assert len(set(ms)) == len(ms)
        assert sorted(reversed(ms)) == ms


def test_pickle_and_copy_round_trip():
    g = ff.fq_matrix(5, [[2, 1, 0], [0, 3, 4], [0, 0, 1]])
    plain = ff.fq_matrix(3, [[1, 2], [0, 0]])
    ident = ff.identity_matrix(3, 5)
    g.inverse()  # a cached inverse and cached packed rows travel with the copy
    ident @ g
    rook = RookElement((2, 0, 1))
    bruhat_leq(rook, rook)  # so does a cached southwest-rank table
    records = (
        rook,
        RookElement(()),
        ff.bruhat_factor(g),
        ob.rank_control(plain),
        ob.twisted_orbit_census(2, 3, "skew"),
    )
    for m in (g, plain, FqMatrix(2, ()), *records):
        copies = [pickle.loads(pickle.dumps(m, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies + [copy.copy(m), copy.deepcopy(m)]:
            assert type(c) is type(m)
            assert c == m and hash(c) == hash(m) and tuple(c) == tuple(m)
            assert getattr(c, "__dict__", None) == getattr(m, "__dict__", None)
    assert vars(rook) == {"_southwest": rn._southwest_ranks(RookElement(rook.map))}
    c = copy.deepcopy(g)
    assert c @ c.inverse() == ident == ident @ c @ g.inverse()


def test_tuple_arithmetic_raises():
    m = ff.identity_matrix(2, 3)
    for operation in (lambda: m + m, lambda: m * 2, lambda: 2 * m, lambda: m + (1,)):
        with pytest.raises(TypeError):
            operation()


def test_fields_are_read_only():
    m = ff.identity_matrix(2, 3)
    with pytest.raises(AttributeError):
        m.q = 5
    with pytest.raises(AttributeError):
        m.rows = ((1,),)
    assert m == ff.identity_matrix(2, 3) and m.q == 3


def test_constructor_validates():
    with pytest.raises(PreconditionError, match="rows must be reduced residues of a square matrix"):
        FqMatrix(3, ((1, 2),))
    with pytest.raises(PreconditionError, match="rows must be reduced residues"):
        FqMatrix(3, ((1, 3), (0, 1)))
    with pytest.raises(PreconditionError, match="rows must be reduced residues"):
        FqMatrix(q=3, rows=((1, -1), (0, 1)))
    with pytest.raises(PreconditionError, match="modulus 4 not supported"):
        FqMatrix(4, ((1,),))


@pytest.mark.parametrize(
    "entry", [2.5, 1.0, Fraction(1, 2), Fraction(1), "1", None, 256], ids=repr
)
def test_constructor_rejects_entries_that_are_not_int_residues(entry):
    with pytest.raises(PreconditionError, match="rows must be reduced residues of a square matrix"):
        FqMatrix(7, ((entry, 1), (0, 1)))
    if isinstance(entry, (float, Fraction)):  # fq_matrix reduces them mod q, to a float or Fraction
        with pytest.raises(PreconditionError, match="rows must be reduced residues of a square matrix"):
            ff.fq_matrix(7, [[entry, 1], [0, 1]])


@pytest.mark.parametrize(
    "rows", [[[1, 2], [2, 4]], [(1, 2), (2, 4)], ([1, 2], [2, 4]), ((1, 2), [2, 4])], ids=repr
)
def test_constructor_rejects_rows_that_are_not_tuples(rows):
    """A list would make the matrix unequal to its tuple form and unhashable,
    so neither a set of orbit points nor a row table could hold it."""
    with pytest.raises(PreconditionError, match="rows must be reduced residues of a square matrix"):
        FqMatrix(7, rows)
    assert ff.fq_matrix(7, rows) == FqMatrix(7, ((1, 2), (2, 4)))


def test_post_init_runs_once_per_validated_matrix(monkeypatch):
    calls = []
    original = FqMatrix.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(FqMatrix, "__post_init__", counted)
    for build in (
        lambda: FqMatrix(3, ((1, 2), (0, 1))),
        lambda: ff.fq_matrix(3, [[1, 5], [0, 1]]),
        lambda: ff.identity_matrix(2, 3),
    ):
        calls.clear()
        m = build()
        assert calls == [m]
    a = ff.fq_matrix(7, [[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    calls.clear()
    products = [a @ a, a.inverse(), a.inverse() @ a, a.transpose(), ff.bruhat_factor(a).product()]
    products += list(ff.enumerate_matrices(1, 7))
    assert calls == [] and len(products) == 12


def _naive_product(a, b):
    """The textbook triple loop, reduced mod q at the end."""
    n, q = a.n, a.q
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a.rows[i][k] * b.rows[k][j]
    return FqMatrix(q, tuple(tuple(e % q for e in row) for row in out))


@pytest.mark.parametrize("q,n", [(7, 2), (7, 7), (7, 8), (7, 9), (7, 16), (5, 16)])
def test_reused_right_operand_matches_naive_product(q, n):
    """One right operand, whose packed rows are cached on its first product,
    times many left operands, one-sum (n <= 7 at q = 7) and chunked sizes."""
    rng = random.Random(10 * q + n)
    right = FqMatrix(q, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)))
    lefts = [FqMatrix(q, ((q - 1,) * n,) * n), ff.identity_matrix(n, q)]
    lefts += [FqMatrix(q, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))) for _ in range(6)]
    want = [_naive_product(a, right) for a in lefts]
    for _ in range(3):
        assert [a @ right for a in lefts] == want
    assert right @ right == _naive_product(right, right)


@pytest.mark.parametrize(
    "q,n", [(2, 3), (7, 2), (7, 7), (7, 8), (7, 13), (7, 14), (5, 15), (5, 16), (3, 63), (3, 64)]
)
def test_reused_left_operand_matches_oracle(q, n):
    """One left operand, whose column packs are cached on its first product,
    times many right operands, on both sides of the chunk boundaries (a sum
    takes 7 terms at q = 7, then 6 more per chunk with the carry; 15 then 14
    at q = 5; 63 at q = 3)."""
    rng = random.Random(10 * q + n)
    left = FqMatrix(q, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)))
    rights = [FqMatrix(q, ((q - 1,) * n,) * n), ff.identity_matrix(n, q)]
    rights += [FqMatrix(q, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))) for _ in range(6)]
    want = [_matmul_oracle(left, b) for b in rights]
    for _ in range(3):
        assert [left @ b for b in rights] == want
    assert left @ left == _matmul_oracle(left, left)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 5), (7, 3), (7, 8), (7, 14), (5, 16)])
def test_product_matches_oracle_in_every_cache_state(q, n):
    """a @ b with neither operand's packs cached, the left only, the right
    only, and both; and a @ a, cold and warm."""
    rng = random.Random(1000 * q + n)
    rows_a, rows_b = (tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)) for _ in range(2))
    want = _matmul_oracle(FqMatrix(q, rows_a), FqMatrix(q, rows_b))
    for warm_left, warm_right in itertools.product((False, True), repeat=2):
        a, b = FqMatrix(q, rows_a), FqMatrix(q, rows_b)
        if warm_left:
            a @ ff.identity_matrix(n, q)
        if warm_right:
            ff.identity_matrix(n, q) @ b
        assert (a._columns is not None, b._packed is not None) == (warm_left, warm_right)
        assert a @ b == want
        assert a._columns is not None and b._packed is not None
    a = FqMatrix(q, rows_a)
    square = _matmul_oracle(a, a)
    assert a @ a == square and a @ a == square


def _random_matrix(rng, n, q):
    return FqMatrix(q, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)))


def _has_table(m, side):
    """Whether m multiplies by table lookup as the right or left factor."""
    return (m._table if side == "right" else m._transpose) is not None


def _with_tables(q, rows, right, left):
    """FqMatrix(q, rows) with the row tables that _reusable gives it, less
    those of the sides not asked for."""
    m = FqMatrix(q, rows)
    if right or left:
        ff._reusable(m)
        if not right:
            del m._table
        if not left:
            del m._transpose
    return m


def _check_table(m, met):
    """The row table of m holds exactly the vectors met, each with its
    product v m."""
    q, n, met = m.q, m.n, set(met)
    assert set(m._table) == met
    assert all(m._table[v] == _matmul_oracle(FqMatrix(q, (v,) * n), m).rows[0] for v in met)


def _vector_blocks(q, n):
    """n x n matrices whose rows, together, are all q^n row vectors."""
    vectors = list(itertools.product(range(q), repeat=n))
    vectors += vectors[: -len(vectors) % n]
    return [FqMatrix(q, tuple(vectors[i : i + n])) for i in range(0, len(vectors), n)]


@pytest.mark.parametrize("q", ff.SUPPORTED_PRIMES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_product_matches_oracle_in_every_table_state(q, n):
    """a @ b with no table, a right table on b only, a left table on a
    only, and both; and a @ a, b @ b, b @ a.  Then tables filled with every
    row vector hold all q^n of them."""
    rng = random.Random(100 * q + n)
    rows_a, rows_b = _random_matrix(rng, n, q).rows, _random_matrix(rng, n, q).rows
    want = {
        (x, y): _matmul_oracle(FqMatrix(q, x), FqMatrix(q, y))
        for x, y in itertools.product((rows_a, rows_b), repeat=2)
    }
    for left, right in itertools.product((False, True), repeat=2):
        a, b = _with_tables(q, rows_a, False, left), _with_tables(q, rows_b, right, False)
        assert (_has_table(a, "right"), _has_table(a, "left")) == (False, left)
        assert (_has_table(b, "right"), _has_table(b, "left")) == (right, False)
        assert a @ b == want[rows_a, rows_b] and b @ a == want[rows_b, rows_a]
        assert a @ a == want[rows_a, rows_a] and b @ b == want[rows_b, rows_b]
    # one kind of table serves both sides: the left table of a is the row table of a^T
    t = a.transpose()
    assert t is a._transpose and t.rows == tuple(zip(*rows_a))
    # a right table serves first, so a @ b looked up the rows of a in the
    # table of b, not the columns of b in that of a; b @ a used neither
    _check_table(b, {*rows_a, *rows_b})
    _check_table(t, zip(*rows_a))
    if n:  # no product meets the one row vector of n = 0, the empty one
        for x in _vector_blocks(q, n):
            assert x @ b == _matmul_oracle(x, b) and a @ x.transpose() == _matmul_oracle(a, x.transpose())
        assert len(b._table) == len(t._table) == q**n
        _check_table(b, b._table.keys())
        _check_table(t, t._table.keys())
    x = _random_matrix(rng, n, q)
    assert x @ a.transpose() == _matmul_oracle(x, a.transpose())


def test_a_table_holds_only_the_rows_it_met():
    """The congruence b a b^T of a 4 x 4 Borel generator b over F_5 and a
    plain a, repeated: b a looks up the columns of a in the row table of the
    kept b^T, and that b^T, as a right factor, looks up the rows of b a in
    the same table.  The table holds those 8 vectors out of 625; neither a
    nor the right table of b meets any."""
    rng = random.Random(9)
    a, b = _random_matrix(rng, 4, 5), ff.borel_generators(4, 5)[5]
    assert b.rows == ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))  # E_13(1)
    want = _matmul_oracle(_matmul_oracle(b, a), b.transpose())
    for _ in range(200):
        assert b @ a @ b.transpose() == want
    t = b._transpose
    assert t is b.transpose() and a._table is None and a._transpose is None and not b._table
    met = {*zip(*a.rows), *_matmul_oracle(b, a).rows}
    assert len(met) == 8
    _check_table(t, met)


def test_plain_operands_never_get_a_table():
    """However often it is multiplied, on either side, a matrix that was not
    declared reusable keeps the packed product, and so does its inverse."""
    rng = random.Random(6)
    m = ff.fq_matrix(3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    x = _random_matrix(rng, 3, 3)
    want = _matmul_oracle(m, x), _matmul_oracle(x, m)
    for _ in range(1000):
        assert (m @ x, x @ m) == want
    for y in (m, x, m.inverse()):
        assert not _has_table(y, "right") and not _has_table(y, "left")
    assert m._columns is not None and m._packed is not None
    assert m.transpose() is not m.transpose()


@pytest.mark.parametrize(
    "q,n,fits", [(7, 5, True), (5, 6, True), (3, 8, True), (2, 12, True), (7, 6, False), (2, 13, False), (7, 7, False)]
)
def test_no_table_is_built_past_the_space_guard(q, n, fits):
    """Every Borel generator, its inverse and its transpose carry a row
    table exactly when q^n n^2 <= SPACE_GUARD: at n = 6 over F_7 one table
    would hold 26 MB.  The generator and its inverse keep their transposes
    with those tables."""
    assert (q**n * n * n <= ff.SPACE_GUARD) == fits
    gens = ff.borel_generators(n, q)
    assert len(gens) == (n if q > 2 else 0) + n * (n - 1) // 2
    for g in gens:
        g_inv = g.inverse()
        assert _has_table(g, "right") == _has_table(g_inv, "right") == _has_table(g.transpose(), "right") == fits
        assert _has_table(g, "left") == _has_table(g_inv, "left") == fits
        assert (g.transpose() is g.transpose()) == fits
    rng = random.Random(q + 100 * n)
    g, x = gens[-1], _random_matrix(rng, n, q)
    for y in (g, g.inverse(), g.transpose()):
        assert x @ y == _matmul_oracle(x, y) and y @ x == _matmul_oracle(y, x)


def test_size_or_modulus_mismatch_raises_with_a_table():
    for b in ff.borel_generators(2, 5):
        assert _has_table(b, "right") and _has_table(b, "left")
        for other in (ff.identity_matrix(2, 7), ff.identity_matrix(3, 5), ff.identity_matrix(1, 5), FqMatrix(5, ())):
            with pytest.raises(PreconditionError, match="size or modulus mismatch"):
                other @ b
            with pytest.raises(PreconditionError, match="size or modulus mismatch"):
                b @ other


def test_copies_of_a_matrix_with_tables_carry_none():
    """Copies keep the inverse, but not the tables or the transpose kept
    with the left table."""
    rng = random.Random(4)
    m = ff._reusable(_random_matrix(rng, 2, 3))
    while not m.is_invertible():
        m = ff._reusable(_random_matrix(rng, 2, 3))
    for x in _vector_blocks(3, 2):
        assert x @ m == _matmul_oracle(x, m) and m @ x.transpose() == _matmul_oracle(m, x.transpose())
    assert len(m._table) == len(m.transpose()._table) == 9 and _has_table(m.inverse(), "right")
    copies = [pickle.loads(pickle.dumps(m, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(m), copy.deepcopy(m)]:
        assert type(c) is FqMatrix and c == m and hash(c) == hash(m)
        assert vars(c).keys() == vars(m).keys() - {"_table", "_transpose"} == {"_inverse"}
        assert not _has_table(c, "right") and not _has_table(c, "left")
        # a shallow copy shares the inverse of m; the others copy it, without its tables
        assert c.inverse() == m.inverse()
        assert _has_table(c.inverse(), "right") == _has_table(c.inverse(), "left") == (c.inverse() is m.inverse())
        assert c.transpose() == m.transpose() and c.transpose() is not m.transpose()
        x = _random_matrix(rng, 2, 3)
        assert c @ x == _matmul_oracle(m, x) and x @ c == _matmul_oracle(x, m)
    assert _has_table(m, "right") and _has_table(m, "left")


def test_transpose_is_kept_only_with_a_left_table():
    """transpose() is fresh until the matrix is made reusable, then the
    transpose that holds its left table, with no link back to the matrix."""
    rng = random.Random(5)
    m = ff.fq_matrix(5, [[1, 2, 3], [4, 0, 1], [2, 2, 4]])
    t = m.transpose()
    assert t.rows == tuple(zip(*m.rows)) == ((1, 4, 2), (2, 0, 2), (3, 1, 4))
    assert m.transpose() is not t and m._transpose is None
    assert ff._reusable(m) is m
    t = m.transpose()
    assert m.transpose() is t and t == FqMatrix(5, ((1, 4, 2), (2, 0, 2), (3, 1, 4)))
    x = _random_matrix(rng, 3, 5)
    assert m @ x == _matmul_oracle(m, x)
    _check_table(t, zip(*x.rows))
    assert "_transpose" not in vars(t)
    assert t.transpose() == m and t.transpose() is not m


def _matmul_oracle(a, b):
    """The product as n^2 dot products reduced mod q, one per entry."""
    q, cols = a.q, tuple(zip(*b.rows))
    return FqMatrix(q, tuple(tuple(sum(map(mul, row, col)) % q for col in cols) for row in a.rows))


@st.composite
def _same_shape(draw, count=3, max_n=17):
    """Matrices of one size n = 0..max_n and one modulus, each dense, sparse,
    singular (last row a combination of the others) or all q - 1 (the
    largest byte sums the product kernel can meet)."""
    q = draw(st.sampled_from(ff.SUPPORTED_PRIMES))
    n = draw(st.integers(0, max_n))
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(("dense", "sparse", "singular", "top")))
        entry = {
            "dense": st.integers(0, q - 1),
            "sparse": st.sampled_from((0,) * 3 * q + tuple(range(q))),
            "singular": st.integers(0, q - 1),
            "top": st.just(q - 1),
        }[kind]
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if kind == "singular" and n:
            coeffs = [draw(entry) for _ in range(n - 1)]
            rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n)]
        out.append(FqMatrix(q, tuple(map(tuple, rows))))
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_same_shape())
@example([FqMatrix(7, ((6,) * 17,) * 17)] * 3)
@example([FqMatrix(5, ((4,) * 16,) * 16)] * 3)
def test_product_matches_oracle(mats):
    a, b, c = mats
    ident = ff.identity_matrix(a.n, a.q)
    assert a @ b == _matmul_oracle(a, b)
    assert a @ ident == a == ident @ a
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_same_shape(count=1, max_n=8))
def test_bruhat_factor_matches_oracle(mats):
    (m,) = mats
    fac = ff.bruhat_factor(m)
    assert fac == _bruhat_factor_oracle(m)
    assert fac.product() == m


@pytest.mark.parametrize(
    "q,n", [(7, 7), (7, 8), (7, 14), (7, 15), (5, 15), (5, 16), (5, 31), (3, 63), (3, 64)]
)
def test_product_chunk_boundaries_match_oracle(q, n):
    """Sizes on both sides of the product kernel's chunk boundaries (a sum
    takes 7, 15, 63 terms for q = 7, 5, 3), against q - 1 everywhere, where
    every full chunk meets the byte bound."""
    rng = random.Random(100 * q + n)
    top = FqMatrix(q, ((q - 1,) * n,) * n)
    ramp = FqMatrix(q, tuple(tuple((i * n + j) % q for j in range(n)) for i in range(n)))
    dense = FqMatrix(q, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)))
    for a in (top, ramp, dense):
        for b in (top, ramp, dense, dense.transpose()):
            assert a @ b == _matmul_oracle(a, b)


def test_product_operand_errors():
    m = ff.identity_matrix(2, 3)
    with pytest.raises(TypeError):
        m @ 2
    with pytest.raises(TypeError):
        2 @ m
    assert m.__matmul__(2) is NotImplemented
    with pytest.raises(PreconditionError, match="size or modulus mismatch"):
        m @ ff.identity_matrix(2, 5)
    with pytest.raises(PreconditionError, match="size or modulus mismatch"):
        m @ ff.identity_matrix(3, 3)
