"""The value semantics of symmon's record types, pinned on sample values.

Each record is compared through the tuple of its fields in declared order:
its hash is that tuple's hash (RootSystem's is the hash of (family, rank),
the two fields every other field is built from), equal field tuples make
equal records, the two ordered records sort as their field tuples do, and
every repr is pinned byte for byte.  Set orders, sorts and the CLI's stdout
all rest on these four properties.
"""

from fractions import Fraction

import pytest

from symmon import finite_field as ff
from symmon import involution as iv
from symmon import orbits as ob
from symmon import polytope as pt
from symmon import rook as rn
from symmon import root_weight as rw

FIELDS = {
    "RookElement": ("map",),
    "Weight": ("coords",),
    "RootSystem": ("family", "rank", "ambient_dim", "simple_roots", "cartan", "coroots"),
    "InvolutionSpec": ("family", "params", "theta_star"),
    "BorelFactorization": ("u", "t", "r", "v"),
    "RankControl": ("rho",),
    "SymOrbitReport": (
        "n",
        "q",
        "form",
        "orbit_count",
        "invariant_values",
        "expected_parametrizer_count",
        "witnesses",
    ),
    "RationalPolytope": ("vertices", "facets", "span", "affine_dim"),
}


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in FIELDS[type(x).__name__])


def _samples():
    """Two or more distinct values of every record type, each built twice
    (so that equal values are distinct objects)."""
    a2, b2 = rw.root_system("A", 2), rw.root_system("B", 2)
    ai2, ci2 = iv.involution_spec("AI", 2), iv.involution_spec("CI", 2)
    m1 = ff.fq_matrix(3, [[0, 1], [1, 2]])
    m2 = ff.fq_matrix(5, [[1, 2, 0], [0, 0, 3], [4, 0, 1]])
    return {
        "RookElement": [rn.RookElement(m) for m in ((2, 0, 1), (1, 2), (0, 1), ())],
        "Weight": [rw.weight([1, Fraction(1, 2)]), rw.weight([0, -1]), rw.weight([1, 0, -1]), rw.weight([])],
        "RootSystem": [a2, b2],
        "InvolutionSpec": [ai2, ci2, iv.involution_spec("AII", 2)],
        "BorelFactorization": [ff.bruhat_factor(m1), ff.bruhat_factor(m2)],
        "RankControl": [ob.rank_control(m1), ob.rank_control(m2)],
        "SymOrbitReport": [ob.twisted_orbit_census(1, 3, "sym"), ob.twisted_orbit_census(2, 3, "skew")],
        "RationalPolytope": [
            pt.weight_polytope(a2, rw.from_fundamental(a2, [1, 0])),
            pt.hull([rw.weight([0, 0]), rw.weight([1, 0]), rw.weight([0, Fraction(1, 3)])]),
        ],
    }


SAMPLES = _samples()
TWINS = _samples()

REPRS = {
    "RookElement": [
        "RookElement(map=(2, 0, 1))",
        "RookElement(map=(1, 2))",
        "RookElement(map=(0, 1))",
        "RookElement(map=())",
    ],
    "Weight": [
        "(1, 1/2)",
        "(0, -1)",
        "(1, 0, -1)",
        "()",
    ],
    "RootSystem": [
        "RootSystem(family='A', rank=2, ambient_dim=3, simple_roots=((1, -1, 0), (0, 1, -1)), cartan=((2, -1), (-1, 2)), coroots=((1, -1, 0), (0, 1, -1)))",
        "RootSystem(family='B', rank=2, ambient_dim=2, simple_roots=((1, -1), (0, 1)), cartan=((2, -2), (-1, 2)), coroots=((1, -1), (0, 2)))",
    ],
    "InvolutionSpec": [
        "InvolutionSpec(family='AI', params=(2,), theta_star=((-1, 0), (0, -1)))",
        "InvolutionSpec(family='CI', params=(2,), theta_star=((-1, 0), (0, -1)))",
        "InvolutionSpec(family='AII', params=(2,), theta_star=((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))",
    ],
    "BorelFactorization": [
        "BorelFactorization(u=[1,0; 0,1] (mod 3), t=[1,0; 0,1] (mod 3), r=RookElement(map=(2, 1)), v=[1,2; 0,1] (mod 3))",
        "BorelFactorization(u=[1,0,4; 0,1,0; 0,0,1] (mod 5), t=[2,0,0; 0,3,0; 0,0,4] (mod 5), r=RookElement(map=(2, 3, 1)), v=[1,0,4; 0,1,3; 0,0,1] (mod 5))",
    ],
    "RankControl": [
        "RankControl(rho=((2, 1, 0), (1, 1, 0), (0, 0, 0)))",
        "RankControl(rho=((3, 2, 1, 0), (2, 1, 1, 0), (1, 1, 1, 0), (0, 0, 0, 0)))",
    ],
    "SymOrbitReport": [
        "SymOrbitReport(n=1, q=3, form='sym', orbit_count=3, invariant_values=2, expected_parametrizer_count=2, witnesses=([0] (mod 3), [1] (mod 3), [2] (mod 3)))",
        "SymOrbitReport(n=2, q=3, form='skew', orbit_count=2, invariant_values=2, expected_parametrizer_count=2, witnesses=([0,0; 0,0] (mod 3), [0,1; 2,0] (mod 3)))",
    ],
    "RationalPolytope": [
        "RationalPolytope(vertices=((0, 0, 1), (0, 1, 0), (1, 0, 0)), facets=(((Fraction(-2, 1), Fraction(1, 1), Fraction(1, 1)), Fraction(1, 1)), ((Fraction(1, 1), Fraction(-2, 1), Fraction(1, 1)), Fraction(1, 1)), ((Fraction(1, 1), Fraction(1, 1), Fraction(-2, 1)), Fraction(1, 1))), span=(((Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), Fraction(1, 1)),), affine_dim=2)",
        "RationalPolytope(vertices=((0, 0), (0, 1/3), (1, 0)), facets=(((Fraction(-1, 1), Fraction(0, 1)), Fraction(0, 1)), ((Fraction(0, 1), Fraction(-1, 1)), Fraction(0, 1)), ((Fraction(1, 1), Fraction(3, 1)), Fraction(1, 1))), span=(), affine_dim=2)",
    ],
}


def test_every_record_type_is_sampled():
    assert set(SAMPLES) == set(FIELDS)
    for name, xs in SAMPLES.items():
        assert {type(x).__name__ for x in xs} == {name}
        assert len(xs) >= 2


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_hash_is_the_hash_of_the_field_tuple(name):
    for x in SAMPLES[name]:
        if name == "RootSystem":
            assert hash(x) == hash((x.family, x.rank))
        else:
            assert hash(x) == hash(fields(x))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equality_within_the_type(name):
    xs, twins = SAMPLES[name], TWINS[name]
    for x, twin in zip(xs, twins):
        assert x is not twin
        assert x == twin and not x != twin and hash(x) == hash(twin)
        assert fields(x) == fields(twin)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            assert (x == y) is (i == j) and (x != y) is (i != j)
    assert len(set(xs) | set(twins)) == len(xs)


def test_rook_elements_sort_as_their_maps():
    xs = SAMPLES["RookElement"] + list(rn.enumerate_rook(2))
    assert sorted(xs) == sorted(xs, key=fields)
    assert [x.map for x in sorted(xs)] == [
        (),
        (0, 0),
        (0, 1),
        (0, 1),
        (0, 2),
        (1, 0),
        (1, 2),
        (1, 2),
        (2, 0),
        (2, 0, 1),
        (2, 1),
    ]


def test_weights_sort_as_their_coordinates():
    xs = SAMPLES["Weight"] + [rw.weight([0, Fraction(-1, 2)]), rw.weight([1, Fraction(1, 3)])]
    assert sorted(xs) == sorted(xs, key=fields)
    assert [repr(x) for x in sorted(xs)] == ["()", "(0, -1)", "(0, -1/2)", "(1, 0, -1)", "(1, 1/3)", "(1, 1/2)"]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_is_pinned(name):
    assert [repr(x) for x in SAMPLES[name]] == REPRS[name]
