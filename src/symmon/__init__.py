"""Exact computational algebra for rook monoids, weight polytopes, classical
involutions, and Borel-orbit censuses over small prime fields.

Every public name but the errors is imported from its module on first use
(PEP 562), so `import symmon.errors` or a CLI command compiles only the
modules it needs.
"""

import importlib

from .errors import (
    DegenerateRootError,
    InvariantViolationError,
    NotSpecialError,
    PreconditionError,
    ResourceLimitError,
    SymmonError,
    UnsupportedFamilyError,
)

__version__ = "0.1.0"

# the public names of each module, imported on first use
_LAZY = {
    "root_weight": ("Weight", "RootSystem", "weight", "root_system"),
    "involution": ("InvolutionSpec", "involution_spec"),
    "rook": ("RookElement", "enumerate_rook", "bruhat_leq"),
    "finite_field": ("FqMatrix", "BorelFactorization", "bruhat_factor", "orbit_enumerate"),
    "orbits": ("RankControl", "SymOrbitReport", "rank_control", "twisted_orbit_census"),
    "polytope": ("RationalPolytope", "hull", "weight_polytope"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


__all__ = [
    "SymmonError",
    "PreconditionError",
    "DegenerateRootError",
    "UnsupportedFamilyError",
    "NotSpecialError",
    "ResourceLimitError",
    "InvariantViolationError",
    *_MODULE_OF,
    "__version__",
]
