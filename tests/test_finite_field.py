import itertools

import pytest

from symmon import finite_field as ff
from symmon import involution as iv
from symmon.errors import PreconditionError, ResourceLimitError, UnsupportedFamilyError
from symmon.finite_field import FqMatrix
from symmon.rook import RookElement, enumerate_rook


def test_primitive_roots():
    for q in (3, 5, 7):
        g = ff.primitive_root(q)
        powers = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            powers.add(x)
        assert powers == set(range(1, q))


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
    assert (-i2).rows == ((2, 0), (0, 2))
    assert ff.fq_matrix(3, [[0, 1], [2, 0]]).is_skew()
    assert ff.fq_matrix(3, [[1, 2], [2, 0]]).is_symmetric()
    with pytest.raises(PreconditionError):
        FqMatrix(3, ((1, 2),))
    with pytest.raises(PreconditionError):
        m.inverse()


def test_enumerate_borel_counts():
    assert len(list(ff.enumerate_borel(2, 3))) == 12
    assert len(list(ff.enumerate_borel(1, 2))) == 1
    assert len(list(ff.enumerate_borel(3, 2))) == 8
    assert ff.borel_size(2, 3) == 12
    for b in ff.enumerate_borel(2, 3):
        assert b.is_upper_triangular() and b.is_invertible()
    seen = set(ff.enumerate_borel(2, 3))
    assert len(seen) == 12
    with pytest.raises(ResourceLimitError):
        list(ff.enumerate_borel(6, 7))


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
        assert group == set(ff.enumerate_borel(n, q))


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


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_bruhat_factor_exhaustive(n, q):
    rooks = set()
    for m in ff.enumerate_matrices(n, q):
        fac = ff.bruhat_factor(m)
        assert fac.product() == m
        assert fac.u.is_upper_unitriangular()
        assert fac.v.is_upper_unitriangular()
        assert fac.t.is_diagonal() and fac.t.is_invertible()
        assert fac.pattern_ok()
        rooks.add(fac.r)
    assert len(rooks) == len(enumerate_rook(n))


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
        total += q ** (u_pat + v_pat) * (q - 1) ** r.rank
    assert total == q ** (n * n)


def _bxb_orbits_oracle(n, q):
    gens = [(b, 0) for b in ff.borel_generators(n, q)] + [
        (b, 1) for b in ff.borel_generators(n, q)
    ]

    def act(g, m):
        b, side = g
        return b @ m if side == 0 else m @ b.inverse()

    return ff.orbit_enumerate(act, tuple(ff.enumerate_matrices(n, q)), gens)


def _congruence_orbits_oracle(n, q, form):
    space = tuple(ff.enumerate_symmetric(n, q) if form == "sym" else ff.enumerate_skew(n, q))
    return ff.orbit_enumerate(lambda b, a: b @ a @ b.transpose(), space, ff.borel_generators(n, q))


# every (action, n, q) with n <= 3 whose BFS oracle finishes in well under a second
ORACLE_CASES = (
    [("bxb", n, q) for n in (1, 2) for q in (2, 3, 5, 7)]
    + [("bxb", 3, 2)]
    + [("sym", n, q) for n in (1, 2) for q in (2, 3, 5, 7)]
    + [("sym", 3, 2), ("sym", 3, 3)]
    + [("skew", n, q) for n in (1, 2, 3) for q in (2, 3, 5, 7)]
    + [("skew", 4, 3)]
)


@pytest.mark.parametrize("action,n,q", ORACLE_CASES)
def test_borel_orbits_match_bfs_oracle(action, n, q):
    if action == "bxb":
        oracle = _bxb_orbits_oracle(n, q)
    else:
        oracle = _congruence_orbits_oracle(n, q, action)
    assert ff.borel_orbits(n, q, action) == oracle


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


def test_borel_orbits_work_guard_admits_every_census_space():
    # the spaces the census admitted before the work guard: at most SPACE_GUARD points
    for q in (3, 5, 7):
        for n in range(8):
            for form, dim in (("sym", n * (n + 1) // 2), ("skew", n * (n - 1) // 2)):
                if q**dim <= ff.SPACE_GUARD:
                    ff._check_orbit_work(n, q, form)


def test_products_skip_validation_but_stay_reduced():
    for q in (2, 3, 5, 7):
        a = ff.fq_matrix(q, [[1, 2, 3], [4, 5, 6], [0, 1, 6]])
        b = ff.fq_matrix(q, [[q - 1, 0, 1], [2, 2, 2], [3, 0, 5]])
        for m in (a @ b, b @ a, a @ a @ b):
            assert m == FqMatrix(q, m.rows)
            assert all(0 <= e < q for row in m.rows for e in row)
        for g in ff.borel_generators(3, q):
            inv = g.inverse()
            assert inv == FqMatrix(q, inv.rows)
            assert g.inverse() is inv and inv.inverse() is g
            assert g @ inv == ff.identity_matrix(3, q)
    with pytest.raises(PreconditionError):
        ff.identity_matrix(2, 3) @ ff.identity_matrix(2, 5)
    with pytest.raises(PreconditionError):
        ff.identity_matrix(2, 3) @ ff.identity_matrix(3, 3)


def test_orbit_enumerate_trivial_group_and_determinism():
    space = tuple(ff.enumerate_matrices(1, 3))
    orbits = ff.orbit_enumerate(lambda g, x: x, space, [None])
    assert all(len(o) == 1 for o in orbits)
    a = ff.orbit_enumerate(
        lambda b, m: b @ m @ b.transpose(),
        tuple(ff.enumerate_symmetric(2, 3)),
        ff.borel_generators(2, 3),
    )
    b = ff.orbit_enumerate(
        lambda b, m: b @ m @ b.transpose(),
        tuple(reversed(tuple(ff.enumerate_symmetric(2, 3)))),
        tuple(reversed(ff.borel_generators(2, 3))),
    )
    assert a == b
    with pytest.raises(ResourceLimitError):
        ff.orbit_enumerate(lambda g, x: x, space, [None], guard=1)


def test_orbit_enumerate_seeds():
    space = tuple(ff.enumerate_matrices(2, 2))
    seed = ff.identity_matrix(2, 2)
    orbits = ff.orbit_enumerate(
        lambda g, m: g @ m,
        None,
        [ff.fq_matrix(2, [[1, 1], [0, 1]])],
        seeds=[seed],
    )
    assert len(orbits) == 1
    assert seed in orbits[0]


def test_twisted_action_examples():
    ai = iv.involution_spec("AI", 2)
    m = ff.fq_matrix(3, [[1, 2], [0, 1]])
    assert ff.twisted_action(ff.identity_matrix(2, 3), m, ai) == m
    # diagonal entries scale by t_i^2
    for t1 in (1, 2):
        for t2 in (1, 2):
            b = ff.fq_matrix(3, [[t1, 0], [0, t2]])
            out = ff.twisted_action(b, ff.fq_matrix(3, [[1, 0], [0, 2]]), ai)
            assert out.rows[0][0] == t1 * t1 * 1 % 3
            assert out.rows[1][1] == t2 * t2 * 2 % 3
    # b = [[a, 1], [0, 1]] on E22 gives the all-ones matrix for every a
    e22 = ff.fq_matrix(3, [[0, 0], [0, 1]])
    for a in range(3):
        b = ff.fq_matrix(3, [[a, 1], [0, 1]])
        assert ff.twisted_action(b, e22, ai) == ff.fq_matrix(3, [[1, 1], [1, 1]])
    with pytest.raises(UnsupportedFamilyError):
        ff.twisted_action(b, m, iv.involution_spec("CI", 2))


def test_twisted_action_is_group_action_exhaustive():
    ai = iv.involution_spec("AI", 2)
    borel = tuple(ff.enumerate_borel(2, 3))
    space = tuple(ff.enumerate_matrices(2, 3))
    for b1 in borel:
        for b2 in borel:
            prod = b1 @ b2
            for m in space[:9]:
                assert ff.twisted_action(prod, m, ai) == ff.twisted_action(
                    b1, ff.twisted_action(b2, m, ai), ai
                )
    # cocycle identity: theta_an(b1 b2) = theta_an(b2) theta_an(b1), all pairs
    for b1 in borel:
        for b2 in borel:
            assert ff.theta_an(b1 @ b2, ai) == ff.theta_an(b2, ai) @ ff.theta_an(b1, ai)


def test_theta_an_antiinvolution_aii():
    aii = iv.involution_spec("AII", 2)
    mats = [
        ff.fq_matrix(3, [[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 1], [0, 0, 0, 1]]),
        ff.fq_matrix(3, [[0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0], [0, 1, 0, 2]]),
    ]
    for m in mats:
        assert ff.theta_an(ff.theta_an(m, aii), aii) == m
        for m2 in mats:
            assert ff.theta_an(m @ m2, aii) == ff.theta_an(m2, aii) @ ff.theta_an(m, aii)


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
    borel = tuple(ff.enumerate_borel(2, 3))
    sample = list(itertools.islice(ff.enumerate_matrices(2, 3), 0, 81, 5))
    for b in borel:
        for h in hs:
            for a in sample:
                lhs = ob.tau(b @ a @ h.inverse(), ai)
                rhs = ff.twisted_action(b, ob.tau(a, ai), ai)
                assert lhs == rhs


def test_from_rook_scaled():
    r = RookElement((2, 0, 1))
    m = ff.from_rook(r, 5, diag=(2, 3, 4))
    assert m.rows == ((0, 2, 0), (0, 0, 0), (4, 0, 0))
