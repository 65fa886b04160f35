"""Command-line front end.

Exit codes: 0 success, 2 flag/validation errors, 1 internal invariant
violations (including failing verification criteria).  Output is deterministic
byte-for-byte across runs.  Each command imports the modules it uses, so a
process compiles only those.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from .errors import InvariantViolationError, PreconditionError, ResourceLimitError

if TYPE_CHECKING:
    from .finite_field import FqMatrix
    from .involution import InvolutionSpec


# the special-weights parameter flags: every name in involution.PARAM_NAMES
_FAMILY_FLAGS = ("n", "p", "q")


def _family_spec(args) -> InvolutionSpec:
    from . import involution as iv

    fam = args.family.upper()
    if fam not in iv.PARAM_NAMES:
        raise PreconditionError(f"unknown involution family {args.family!r}")
    names = iv.PARAM_NAMES[fam]
    flags = " and ".join(f"--{name}" for name in names)
    if any(getattr(args, name) is None for name in names):
        raise PreconditionError(f"{fam} needs {flags}")
    extra = [f"--{name}" for name in _FAMILY_FLAGS if name not in names and getattr(args, name) is not None]
    if extra:
        raise PreconditionError(f"{fam} takes {flags}, not {' or '.join(extra)}")
    return iv.involution_spec(fam, *(getattr(args, name) for name in names))


def _fundamental_label(rs, lam) -> str:
    parts = []
    for i, c in enumerate(rs.labels(lam), start=1):
        if c == 0:
            continue
        parts.append(f"w{i}" if c == 1 else f"{c}*w{i}")
    return "+".join(parts) if parts else "0"


def cmd_roots(args) -> str:
    from . import root_weight as rw

    rs = rw.root_system(args.family, args.n)
    if args.format == "json":
        data = rs.to_json()
        data.update(
            {
                "ambient_dim": rs.ambient_dim,
                "simple_roots": [a.to_json() for a in rs.simple_roots],
                "positive_roots": [a.to_json() for a in rw.positive_roots(rs)],
                "fundamental_weights": [w.to_json() for w in rw.fundamental_weights(rs)],
                "cartan": [list(row) for row in rs.cartan],
            }
        )
        return json.dumps(data, indent=2) + "\n"
    lines = [f"root system {rs.family}_{rs.rank} in R^{rs.ambient_dim}"]
    lines.append("cartan matrix:")
    for row in rs.cartan:
        lines.append("  " + " ".join(f"{e:3d}" for e in row))
    lines.append("simple roots:")
    for i, a in enumerate(rs.simple_roots, start=1):
        lines.append(f"  a{i} = {a}")
    lines.append("fundamental weights:")
    for i, w in enumerate(rw.fundamental_weights(rs), start=1):
        lines.append(f"  w{i} = {w}")
    lines.append(f"positive roots: {len(rw.positive_roots(rs))}")
    return "\n".join(lines) + "\n"


def cmd_special_weights(args) -> str:
    from . import involution as iv
    from . import root_weight as rw

    spec = _family_spec(args)
    rs = spec.root_system()
    gens = set(iv.spherical_generators(spec, rs))
    candidates = list(rw.fundamental_weights(rs)) + sorted(gens)
    seen = set()
    rows = []
    params = ":".join(str(p) for p in spec.params)
    for lam in candidates:
        if lam in seen:
            continue
        seen.add(lam)
        rows.append(
            (
                spec.family,
                params,
                _fundamental_label(rs, lam),
                str(iv.is_special(spec, lam, rs)).lower(),
                str(lam in gens).lower(),
            )
        )
    out = ["family,params,weight,special,generator"]
    out.extend(",".join(r) for r in rows)
    return "\n".join(out) + "\n"


def _parse_lambda(rs, text: str):
    from . import root_weight as rw

    try:
        coeffs = [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise PreconditionError(f"bad --lambda {text!r}: {exc}") from exc
    return rw.from_fundamental(rs, coeffs)


def cmd_weight_polytope(args) -> str:
    from . import polytope as pt
    from . import root_weight as rw

    rs = rw.root_system(args.family, args.n)
    lam = _parse_lambda(rs, getattr(args, "lambda"))
    if args.format == "off":
        # reject a dimension OFF cannot hold before the orbit is built
        pt.require_off_dim(pt.weight_polytope_dim(rs, lam))
        return pt.to_off(pt.weight_polytope(rs, lam))
    poly = pt.weight_polytope(rs, lam)
    if args.format == "json":
        data = poly.to_json()
        if poly.affine_dim <= pt.FVECTOR_DIM_GUARD:
            data["f_vector"] = list(pt.weight_polytope_f_vector(rs, lam))
        return json.dumps(data, indent=2) + "\n"
    lines = [
        f"weight polytope for lambda = {_fundamental_label(rs, lam)} in {rs.family}_{rs.rank}",
        f"affine dimension: {poly.affine_dim}",
        f"vertices ({len(poly.vertices)}):",
    ]
    lines.extend(f"  {v}" for v in poly.vertices)
    if poly.affine_dim <= pt.FVECTOR_DIM_GUARD:
        lines.append(f"f-vector: {pt.weight_polytope_f_vector(rs, lam)}")
    lines.append(f"facets: {len(poly.facets)}")
    return "\n".join(lines) + "\n"


def cmd_rook_monoid(args) -> str:
    from . import rook as rn

    n = args.n
    if args.symmetric or args.fpf:
        elements = rn.symmetric_rook_elements(n, fpf=args.fpf)
    else:
        elements = rn.enumerate_rook(n)
    if args.format == "dot":
        return rn.poset_to_dot(elements) + "\n"
    if args.format == "json":
        return rn.poset_to_json(elements) + "\n"
    return "\n".join(r.diagram() for r in elements) + "\n"


def _parse_matrix(text: str, q: int) -> FqMatrix:
    from . import finite_field as ff

    try:
        rows = [[int(e) for e in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise PreconditionError(f"bad --matrix {text!r}: {exc}") from exc
    short = next((i for i, row in enumerate(rows, 1) if len(row) != len(rows)), None)
    if short is not None:
        raise PreconditionError(
            f"bad --matrix {text!r}: not square: {len(rows)} rows, "
            f"but row {short} has length {len(rows[short - 1])}"
        )
    return ff.fq_matrix(q, rows)


def cmd_factor(args) -> str:
    from . import finite_field as ff

    q = args.q
    if q is None:
        raise PreconditionError("factor needs --q (prime modulus)")
    m = _parse_matrix(args.matrix, q)
    fac = ff.bruhat_factor(m)
    if fac.product() != m:
        raise InvariantViolationError("factorization does not recompose")
    if args.format == "json":
        return (
            json.dumps(
                {
                    "q": q,
                    "rook": list(fac.r.map),
                    "t": [fac.t.rows[i][i] for i in range(m.n)],
                    "u": [list(r) for r in fac.u.rows],
                    "v": [list(r) for r in fac.v.rows],
                }
            )
            + "\n"
        )
    lines = [
        f"m = u (t r) v over F_{q}",
        f"rook component r: {fac.r.diagram()}",
        f"t = diag({', '.join(str(fac.t.rows[i][i]) for i in range(m.n))})",
        f"u = {fac.u}",
        f"v = {fac.v}",
    ]
    return "\n".join(lines) + "\n"


def cmd_census(args) -> str:
    from . import orbits as ob

    q = args.q
    if q is None:
        raise PreconditionError("census needs --q (odd prime modulus)")
    report = ob.twisted_orbit_census(args.n, q, args.form)
    if args.format == "json":
        return report.to_json_str() + "\n"
    if args.format == "csv":
        return report.CSV_HEADER + "\n" + report.csv_row() + "\n"
    lines = [
        f"Borel congruence census on {'Sym' if args.form == 'sym' else 'Skew'}_{args.n}(F_{q})",
        f"orbit_count: {report.orbit_count}",
        f"invariant_values: {report.invariant_values}",
        f"parametrizers: {report.expected_parametrizer_count}",
        f"match: {str(report.match).lower()}",
        "witnesses:",
    ]
    lines.extend(f"  {w}" for w in report.witnesses)
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> tuple[bool, str]:
    from . import verify

    return verify.run_all()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="symmon",
        description="Rook monoids, weight polytopes, classical involutions, and "
        "Borel-orbit censuses over small prime fields, all in exact arithmetic.",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root system data for a classical family")
    p.add_argument("--family", required=True, choices=list("ABCD") + list("abcd"))
    p.add_argument("--n", type=int, required=True, help="rank")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("special-weights", help="Table of special weights for an involution family (CSV)")
    p.add_argument("--family", required=True)
    for name in _FAMILY_FLAGS:
        p.add_argument(f"--{name}", type=int)
    p.set_defaults(fn=cmd_special_weights)

    p = sub.add_parser("weight-polytope", help="exact hull of a Weyl orbit")
    p.add_argument("--family", required=True, choices=list("ABCD") + list("abcd"))
    p.add_argument("--n", type=int, required=True, help="rank")
    p.add_argument("--lambda", required=True, help="comma-separated fundamental-weight coefficients")
    p.add_argument("--format", choices=("text", "json", "off"), default="text")
    p.set_defaults(fn=cmd_weight_polytope)

    p = sub.add_parser("renner", help="rook-monoid elements and Bruhat-Chevalley poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", help="list elements (default)")
    p.add_argument("--symmetric", action="store_true", help="partial involutions only")
    p.add_argument("--fpf", action="store_true", help="partial fixed-point-free involutions only")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p.set_defaults(fn=cmd_rook_monoid)

    p = sub.add_parser("factor", help="Bruhat normal form m = u (t r) v over F_q")
    modulus = p.add_mutually_exclusive_group()
    modulus.add_argument("--q", type=int, help="prime modulus")
    modulus.add_argument("--field", type=int, dest="q", help="alias for --q")
    p.add_argument("--matrix", required=True, help='rows separated by ";", entries by ","')
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("census", help="Borel congruence orbit census on Sym_n or Skew_n")
    p.add_argument("--form", required=True, choices=("sym", "skew"))
    p.add_argument("--n", type=int, required=True)
    modulus = p.add_mutually_exclusive_group()
    modulus.add_argument("--q", type=int, help="odd prime modulus")
    modulus.add_argument("--field", type=int, dest="q", help="alias for --q")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("verify", help="run the full acceptance checklist")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
    except (PreconditionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    # a checking command returns (ok, text) and exits 1 when a check fails
    ok, text = text if isinstance(text, tuple) else (True, text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
