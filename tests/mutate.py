"""Mutation score of one module against chosen test modules.

    python3 tests/mutate.py src/symmon/finite_field.py tests/test_finite_field.py tests/test_orbits.py \\
        --only _borel_parents,_generator_blocks --sample 40 --seed 1

The file name keeps it out of the repository's test suite; run it by hand.
It uses the standard library only.  Each mutant changes one spot of the
module: `<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`, `+` <-> `-` (also in
`+=` and `-=`), `and` <-> `or`, or an int constant k -> k + 1, inside the
functions named by --only (the whole module without it).  The mutated
module, written back with `ast.unparse`, goes into a copy of the repository
under a temporary directory, where `pytest -x` runs the test modules given.
A mutant is killed when they fail (or run past --timeout, or fail to
import); otherwise it survives.

A survivor whose mutated line is in EQUIVALENT, by its stripped text, is
counted as equivalent: no test can tell it from the original, for the
reason given.  Every other survivor is a gap in the tests.  The script
prints one line per mutant, each survivor with its line, and the score:
killed / (mutants - equivalent).
"""

from __future__ import annotations

import argparse
import ast
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the stripped text of a mutated line -> why every mutant on it that survives is equivalent
EQUIVALENT = {
    # src/symmon/finite_field.py, the guards
    "if dim > 64:  # q^dim alone is far beyond the limit; do not build the integer": (
        "64 -> 65: no space has 65 digits (n^2, n(n+1)/2 and n(n-1)/2 all skip 65), so no message changes"
    ),
    "elif q**dim <= SPACE_GUARD:": "<= -> <: SPACE_GUARD = 10^6 is no prime power, so q^dim never equals it",
    "if points * gens <= ORBIT_WORK_GUARD:": (
        "<= -> <: q^dim x gens = 10^6 = 2^6 5^6 would need 64 generators on 5^6 points, or 5^6 2^j on 2^(6-j)"
    ),
    "gens = (n if q > 2 else 0) + max(n - 1, 0)  # the _simple_generators per side": (
        "max(n - 1, 0) -> max(n - 1, 1) raises the count only at n <= 1, where every space is admitted"
    ),
    # src/symmon/finite_field.py, the union-find
    "if y < x:": "< -> <=: y == x is a root, and the branch then sets parent[x] = x, which it is",
    "elif y > x:": "> -> >=: reached only with y >= x; y == x is a root, and parent[y] = x = y already",
    # src/symmon/root_weight.py, the label codes
    "if k <= 64:": (
        "<= -> <: at k = 64 the int.from_bytes branch reads the same signed 8-byte lanes as struct's 'q'; "
        "64 -> 65: k is a power of two"
    ),
    "code = _label_code(rs, max(bound + 2, spread * bound), matrix)": (
        "2 -> 3: the two maxima differ only where bound + 3 is the larger, and there they pick the same lanes, "
        "since bound = 2 sum(labels) and every lane limit 2^(k-1) are even"
    ),
    # src/symmon/verify.py, the dot criterion's tables
    "return tuple(sum(1 for t in range(i) if u[t] >= j) for i in range(1, n + 1) for j in range(1, n + 1))": (
        "sum(1 ...) -> sum(2 ...) doubles every count; >= -> > counts thresholds j + 1, dropping j = 1 (i for "
        "every permutation) and adding j = n + 1 (0 for every permutation): no comparison of two tables changes"
    ),
}

SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.And: ast.Or,
    ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Add: "+",
    ast.Sub: "-",
    ast.And: "and",
    ast.Or: "or",
}


def sites(tree: ast.Module, only: set[str]) -> list[tuple[ast.AST, str, int]]:
    """Every mutable spot as (node, field, index), in a fixed order: the
    walk of each selected function in module order (nested ones included)."""
    if only:
        scopes = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in only]
        missing = only - {f.name for f in scopes}
        if missing:
            raise SystemExit(f"no function named {', '.join(sorted(missing))}")
        scopes = [f for f in scopes if not any(f is not g and f in ast.walk(g) for g in scopes)]
    else:
        scopes = [tree]
    found = []
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Compare):
                found += [(node, "ops", i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
                found.append((node, "op", 0))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found.append((node, "value", 0))
    return found


def mutate(site) -> str:
    """Apply one mutation in place; return what it changed."""
    node, field, i = site
    if field == "value":
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if field == "ops":
        old = type(node.ops[i])
        node.ops[i] = SWAPS[old]()
    else:
        old = type(node.op)
        node.op = SWAPS[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def run_tests(workdir: Path, tests: list[str], timeout: float) -> bool:
    """True if the tests pass in workdir."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=workdir, capture_output=True, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, e.g. src/symmon/finite_field.py")
    parser.add_argument("tests", nargs="+", help="the test modules to run on each mutant")
    parser.add_argument("--only", default="", help="comma-separated function names to mutate (default: all)")
    parser.add_argument("--sample", type=int, default=0, help="run this many mutants, drawn at random (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="the seed of --sample")
    parser.add_argument("--timeout", type=float, default=0, help="seconds per mutant (default: 3x the clean run)")
    args = parser.parse_args(argv)

    module = Path(args.module).resolve().relative_to(ROOT)
    source = (ROOT / module).read_text()
    lines = source.splitlines()
    only = {name for name in args.only.split(",") if name}
    total = len(sites(ast.parse(source), only))
    chosen = range(total)
    if args.sample and args.sample < total:
        chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, workdir / name, ignore=skip)
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy(ROOT / name, workdir / name)
        start = time.perf_counter()
        if not run_tests(workdir, args.tests, timeout=3600):
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 1
        timeout = args.timeout or 3 * (time.perf_counter() - start) + 10
        killed, equivalent, survivors = 0, 0, []
        for k in chosen:
            tree = ast.parse(source)
            site = sites(tree, only)[k]
            change = mutate(site)
            line = site[0].lineno
            (workdir / module).write_text(ast.unparse(tree))
            text = lines[line - 1].strip()
            if not run_tests(workdir, args.tests, timeout):
                killed += 1
                verdict = "killed"
            elif text in EQUIVALENT:
                equivalent += 1
                verdict = "equivalent"
            else:
                survivors.append(f"{module}:{line}: {change}: {text}")
                verdict = "SURVIVED"
            print(f"{verdict:10} {module}:{line}: {change}: {text}", flush=True)
        (workdir / module).write_text(source)

    tried = len(chosen)
    print(f"killed {killed}/{tried} ({equivalent} equivalent, {len(survivors)} surviving) of {total} mutants")
    print(f"score {killed}/{tried - equivalent}")
    for survivor in survivors:
        print(f"survivor {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
