"""The benchmark's workloads: job lists and the output gate of every job.

A job's `run` is the timed call into symmon; `check` is the gate applied to
what it returned, outside the timed region.  `check` returns the text whose
SHA-256 is the job's digest, and raises JobFailure on a wrong output.  The
digest of every job with a fixed input is also pinned in golden.json.

Every job is short (well under a second) and a pass takes about a second,
except `verify`, whose criterion 5 alone takes about three.  On a shared
machine other tenants can slow a process by up to 80% for seconds at a
time; a short job run many times in a run has quiet tries, a job of many
seconds run twice has none (see NOTES.md).

Every call goes through a module attribute (`ff.bruhat_factor`, not a name
bound at import), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from symmon import cli
from symmon import finite_field as ff
from symmon import involution as iv
from symmon import orbits as ob
from symmon import rook as rn
from symmon import verify

# pointwise: every seed gives this many jobs in each (n, q) cell
POINTWISE_CELLS = tuple((n, q) for n in (4, 5, 6) for q in (5, 7))
POINTWISE_JOBS_PER_CELL = 100


class JobFailure(Exception):
    pass


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]
    group: str = ""  # jobs reported together; empty for a job reported alone
    pinned: str | None = None  # SHA-256 the gated output must have


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expect(ok: bool, what: str):
    if not ok:
        raise JobFailure(what)


# -- CLI jobs ---------------------------------------------------------------


def _cli_job(argv: str, oracle: Callable[[str], None]) -> Job:
    args = argv.split()

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(args)
        return rc, buf.getvalue()

    def check(result) -> str:
        rc, out = result
        _expect(rc == 0, f"exit code {rc}")
        oracle(out)
        return out

    return Job(argv, run, check)


def _census(orbits: int, parametrizers: int, values: int | None = None):
    def oracle(out):
        f = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        _expect(f.get("orbit_count") == str(orbits), f"orbit_count {f.get('orbit_count')}")
        _expect(f.get("parametrizers") == str(parametrizers), "parametrizers")
        _expect(values is None or f.get("invariant_values") == str(values), "invariant_values")
        _expect(f.get("match") == "true", "match")

    return oracle


def _f_vector(*expected):
    def oracle(out):
        _expect(json.loads(out).get("f_vector") == list(expected), "f-vector")

    return oracle


def _poset_nodes(count: int):
    def oracle(out):
        _expect(len(json.loads(out)["nodes"]) == count, "node count")

    return oracle


def _dot_nodes(count: int):
    def oracle(out):
        _expect(out.startswith("digraph poset {"), "DOT header")
        _expect(out.count("[label=") == count, "node count")

    return oracle


def _off_cuboctahedron(out):
    _expect(out.splitlines()[:2] == ["OFF", "12 14 24"], "OFF header (V F E)")


# -- API jobs ---------------------------------------------------------------


def _bxb_job(n: int, q: int) -> Job:
    """The B x B partition of Mat_n(F_q), from public calls only; the orbits
    are the Bruhat cells, one per rook element."""

    def run():
        gens = [(b, 0) for b in ff.borel_generators(n, q)] + [
            (b, 1) for b in ff.borel_generators(n, q)
        ]

        def act(g, m):
            b, side = g
            return b @ m if side == 0 else m @ b.inverse()

        return ff.orbit_enumerate(act, ff.enumerate_matrices(n, q), gens)

    def check(orbits) -> str:
        _expect(len(orbits) == rn.rook_count(n), f"{len(orbits)} B x B orbits")
        _expect(sum(len(o) for o in orbits) == q ** (n * n), "orbits do not cover the space")
        return "\n".join(f"{len(o)} {o[0]!r}" for o in orbits)

    return Job(f"bxb Mat_{n}(F_{q})", run, check)


def _criterion_job(index: int) -> Job:
    """One criterion of `symmon verify`, looked up at call time."""
    label = verify.CRITERIA[index][0]

    def check(result) -> str:
        ok, detail = result
        _expect(ok, f"criterion failed: {detail}")
        return detail

    return Job(f"criterion {label}", lambda: verify.CRITERIA[index][1](), check)


def _stability_job(spec, rs, lam) -> Job:
    """One generator of criterion 5: Pi(lambda) is stable under -theta*."""

    def check(result) -> str:
        _expect(result is True, "weight set not stable")
        return "stable"

    name = f"criterion 5 {spec.family}{spec.params} {lam}"
    return Job(name, lambda: iv.check_weight_set_stability(rs, spec, lam), check, "criterion 5")


def verify_jobs() -> list[Job]:
    """The ten criteria of `symmon verify`; criterion 5, most of the time,
    split into its per-generator checks, exactly the loop it runs."""
    jobs = []
    for index, (label, _) in enumerate(verify.CRITERIA):
        if not label.startswith("5 "):
            jobs.append(_criterion_job(index))
            continue
        for spec in iv.catalog(4):
            rs = spec.root_system()
            jobs.extend(_stability_job(spec, rs, lam) for lam in iv.spherical_generators(spec, rs))
    return jobs


def _random_matrix(rng, n, q, kind):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if kind == "any":
                rows[i][j] = rng.randrange(q)
            elif kind == "sym" and j >= i:
                rows[i][j] = rows[j][i] = rng.randrange(q)
            elif kind == "borel" and j >= i:
                rows[i][j] = rng.randrange(1, q) if i == j else rng.randrange(q)
    return ff.fq_matrix(q, rows)


def _pointwise_job(name, m, a, b, group) -> Job:
    def run():
        fac = ff.bruhat_factor(m)
        _expect(fac.product() == m, "factors do not recompose")
        _expect(fac.pattern_ok(), "factorization pattern")
        control = ob.rank_control(a)
        _expect(ob.rank_control(b @ a @ b.transpose()) == control, "rank control moved under congruence")
        return fac, control, ob.invariant_to_partial_involution(control)

    def check(result) -> str:
        fac, control, rook = result
        _expect(rook.is_symmetric(), "recovered rook element is not an involution")
        return repr((fac.r.map, fac.t.rows, fac.u.rows, fac.v.rows, control.rho, rook.map))

    return Job(name, run, check, group)


def pointwise_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, q in POINTWISE_CELLS:
        for k in range(POINTWISE_JOBS_PER_CELL):
            m, a, b = (_random_matrix(rng, n, q, kind) for kind in ("any", "sym", "borel"))
            jobs.append(_pointwise_job(f"n={n} q={q} #{k}", m, a, b, f"n={n} q={q}"))
    return jobs


def build(workload: str, seed: int) -> list[Job]:
    """The job list of one pass, each job with its digest from golden.json."""
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    return [replace(job, pinned=golden.get(job.name)) for job in _jobs(workload, seed)]


def _jobs(workload: str, seed: int) -> list[Job]:
    """Only pointwise depends on the seed: the other workloads take whole
    spaces, or the fixed checklist, as input."""
    if workload == "census":
        return [
            _cli_job("census --form skew --n 4 --q 3", _census(10, 10)),
            _cli_job("census --form sym --n 3 --q 3", _census(36, 14, 14)),
            _cli_job("census --form sym --n 2 --q 7", _census(10, 5, 5)),
            _cli_job("census --form skew --n 3 --q 5", _census(4, 4)),
            _bxb_job(3, 2),
            _bxb_job(2, 7),
        ]
    if workload == "pointwise":
        return pointwise_jobs(seed)
    if workload == "verify":
        return verify_jobs()
    if workload == "geometry":
        return [
            _cli_job("renner --n 3 --format json", _poset_nodes(34)),
            _cli_job("renner --n 3 --format dot", _dot_nodes(34)),
            _cli_job("renner --n 4 --symmetric --format json", _poset_nodes(43)),
            # the 24-cell
            _cli_job("weight-polytope --family B --n 4 --lambda 0,1,0,0 --format json", _f_vector(24, 96, 96, 24)),
            # the runcinated 5-cell
            _cli_job("weight-polytope --family A --n 4 --lambda 1,0,0,1 --format json", _f_vector(20, 60, 70, 30)),
            # the rhombicuboctahedron
            _cli_job("weight-polytope --family B --n 3 --lambda 1,0,1 --format json", _f_vector(24, 48, 26)),
            _cli_job("weight-polytope --family A --n 3 --lambda 1,0,1 --format off", _off_cuboctahedron),
        ]
    raise ValueError(f"unknown workload {workload!r}")
