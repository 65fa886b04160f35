"""Exact computational algebra for rook monoids, weight polytopes, classical
involutions, and Borel-orbit censuses over small prime fields."""

from .errors import (
    DegenerateRootError,
    InvariantViolationError,
    NotSpecialError,
    PreconditionError,
    ResourceLimitError,
    SymmonError,
    UnsupportedFamilyError,
)
from .finite_field import FqMatrix, BorelFactorization, bruhat_factor, orbit_enumerate
from .involution import InvolutionSpec, RestrictedRootData, involution_spec
from .orbits import RankControl, SymOrbitReport, rank_control, twisted_orbit_census
from .polytope import RationalPolytope, hull, weight_polytope
from .rook import CrossSection, RookElement, bruhat_leq, enumerate_rook
from .root_weight import RootSystem, Weight, root_system, weight

__version__ = "0.1.0"

__all__ = [
    "SymmonError",
    "PreconditionError",
    "DegenerateRootError",
    "UnsupportedFamilyError",
    "NotSpecialError",
    "ResourceLimitError",
    "InvariantViolationError",
    "Weight",
    "RootSystem",
    "weight",
    "root_system",
    "InvolutionSpec",
    "RestrictedRootData",
    "involution_spec",
    "RookElement",
    "CrossSection",
    "enumerate_rook",
    "bruhat_leq",
    "FqMatrix",
    "BorelFactorization",
    "bruhat_factor",
    "orbit_enumerate",
    "RankControl",
    "SymOrbitReport",
    "rank_control",
    "twisted_orbit_census",
    "RationalPolytope",
    "hull",
    "weight_polytope",
    "__version__",
]
