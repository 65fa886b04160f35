"""Package-wide properties: the record types are plain tuples of their
fields (no dataclass, whose generated methods cost about a millisecond per
class on every start), the package namespace and the CLI import a module
only when it is used, and every def in src/, nested ones and methods
included, runs in a fresh interpreter that traces the pinned CLI commands
(`symmon verify` among them) and one pass of each benchmark workload, unless
UNRUN names it: held by the benchmark's tracer, public API, or protocol."""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import symmon
from symmon import finite_field as ff
from symmon import involution as iv
from symmon import orbits as ob
from symmon import polytope as pt
from symmon import rook as rn
from symmon import root_weight as rw

SRC = Path(symmon.__file__).resolve().parent


def _modules():
    return [importlib.import_module(f"symmon.{m.name}") for m in pkgutil.iter_modules([str(SRC)])]


def test_no_symmon_class_is_a_dataclass():
    classes = [
        obj
        for module in _modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    assert {"RookElement", "FqMatrix", "Weight", "RationalPolytope"} <= {c.__name__ for c in classes}
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_no_src_module_imports_dataclasses():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []


def _records():
    m = ff.fq_matrix(3, [[0, 1], [1, 2]])
    a2, ai2 = rw.root_system("A", 2), iv.involution_spec("AI", 2)
    return {
        rn.RookElement((2, 0, 1)): ("map",),
        rw.weight([1, Fraction(1, 2)]): ("coords",),
        a2: ("family", "rank", "ambient_dim", "simple_roots", "cartan", "coroots"),
        ai2: ("family", "params", "theta_star"),
        ff.bruhat_factor(m): ("u", "t", "r", "v"),
        ob.rank_control(m): ("rho",),
        ob.twisted_orbit_census(2, 3, "skew"): (
            "n",
            "q",
            "form",
            "orbit_count",
            "invariant_values",
            "expected_parametrizer_count",
            "witnesses",
        ),
        pt.weight_polytope(a2, rw.from_fundamental(a2, [1, 0])): ("vertices", "facets", "span", "affine_dim"),
        m: ("q", "rows"),
    }


def test_a_record_is_the_tuple_of_its_fields():
    for x, names in _records().items():
        values = tuple(getattr(x, name) for name in names)
        assert isinstance(x, tuple) and len(x) == len(names)
        assert tuple(x) == values and list(x) == list(values)
        assert x == values and values == x
        # RootSystem hashes (family, rank), the fields every other one is built from
        assert hash(x) == hash(values[:2] if isinstance(x, rw.RootSystem) else values)


def test_records_have_no_tuple_arithmetic():
    for x in _records():
        operations = [lambda: x * 2, lambda: x * x]
        if not isinstance(x, rw.Weight):  # a weight's + is the vector sum, and c * w scales it
            operations += [lambda: 2 * x, lambda: x + (), lambda: x + x]
        for operation in operations:
            with pytest.raises(TypeError):
                operation()
    w = rw.weight([1, Fraction(1, 2)])
    assert w + w == 2 * w == rw.weight([2, 1])
    assert Fraction(1, 2) * w == rw.weight([Fraction(1, 2), Fraction(1, 4)])


def test_fields_are_read_only():
    for x, names in _records().items():
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, None)


def _fresh(code: str, *args: str) -> str:
    """stdout of a fresh interpreter that runs code, with args as sys.argv[1:]
    and this src/ first on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return proc.stdout


LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('symmon'))))"


def test_importing_the_errors_loads_no_other_module():
    assert _fresh("import symmon.errors; " + LOADED).split() == ["symmon", "symmon.errors"]


def test_roots_command_loads_only_the_root_layer():
    out = _fresh("from symmon.cli import main; main(['roots', '--family', 'A', '--n', '2']); " + LOADED)
    assert out.startswith("root system A_2 in R^3\n")
    loaded = out.splitlines()[-1].split()
    assert loaded == ["symmon", "symmon._record", "symmon.cli", "symmon.errors", "symmon.linalg", "symmon.root_weight"]


def test_package_names_resolve_on_first_use():
    for name in symmon.__all__:
        value = getattr(symmon, name)
        if name != "__version__" and not name.endswith("Error"):
            assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        symmon.no_such_name
    out = _fresh("import symmon; print(symmon.RookElement((1,)), symmon.weight([1, 2])); " + LOADED)
    assert out.splitlines()[0] == "RookElement(map=(1,)) (1, 2)"
    assert out.splitlines()[1].split() == [
        "symmon",
        "symmon._record",
        "symmon.errors",
        "symmon.linalg",
        "symmon.rook",
        "symmon.root_weight",
    ]


# -- dead-code guard -----------------------------------------------------------

ROOT = SRC.parents[1]

# The pinned commands (argv[1]) and one pass of each benchmark workload
# (argv[2], argv[3]) in a fresh interpreter under a profile hook, so that no
# cache warmed by an earlier test hides a call; prints (file, qualname, line)
# of every code object of the package that ran.
TRACE = """
import contextlib, importlib.util, io, json, os, sys

ran = set()
sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
import symmon
from symmon.cli import main

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[2])
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # dataclasses resolve their module through sys.modules
spec.loader.exec_module(workloads)
for name in json.loads(sys.argv[3]):
    for job in workloads.build(name, 1):
        job.check(job.run())
sys.setprofile(None)
package = os.path.dirname(symmon.__file__)
print(json.dumps([
    (os.path.basename(c.co_filename), c.co_qualname, c.co_firstlineno)
    for c in ran if os.path.dirname(c.co_filename) == package
]))
"""


@functools.cache
def _ran() -> frozenset[tuple[str, int]]:
    """(module.qualname, first line) of every def that TRACE saw run."""
    from test_cli import GOLDEN_STDOUT

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    commands, perfbench = json.dumps(sorted(GOLDEN_STDOUT)), str(ROOT / "perfbench" / "workloads.py")
    out = _fresh(TRACE, commands, perfbench, json.dumps(workloads))
    return frozenset((f"{Path(file).stem}.{qualname}", line) for file, qualname, line in json.loads(out))


def _defs(code, path: Path):
    """(module.qualname, first line, "file:line qualname") of every def
    compiled into code: functions, methods and nested functions, not
    lambdas, comprehensions or class bodies."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and const.co_name.isidentifier():
                line, qualname = const.co_firstlineno, const.co_qualname
                yield f"{path.stem}.{qualname}", line, f"{path.name}:{line} {qualname}"
            yield from _defs(const, path)


def _compiled_defs(path: Path) -> list:
    return list(_defs(compile(path.read_text(), str(path), "exec"), path))


DEFS = [d for path in sorted(SRC.glob("*.py")) for d in _compiled_defs(path)]

HELD = "held by perfbench/tracer.py"
PUBLIC = "public API"
PROTOCOL = "protocol"
# what no pinned command, verify or workload pass runs, each with its reason
UNRUN = {
    # the tracer wraps these names but never calls them, and the rest is
    # called only by them; they leave with ROADMAP item 4
    "linalg.dot": HELD,
    "root_weight.reflect": HELD,
    "root_weight.weyl_orbit": HELD,
    "root_weight.dominant_weights_below": HELD,
    "involution.InvolutionSpec.apply_star": HELD,
    "polytope.hull": HELD,
    "root_weight.RootSystem.form": f"{HELD}: reflect's form",
    "root_weight.Weight.__sub__": f"{HELD}: reflect's difference",
    "linalg.vec_sub": f"{HELD}: Weight.__sub__'s difference",
    "linalg.rank": f"{HELD}: hull's rank test",
    "polytope._int_hyperplane": f"{HELD}: hull's facet search",
    "polytope._AffineFrame.lift_halfspace": f"{HELD}: hull's facets",
    "root_weight.Weight.__neg__": f"{PUBLIC}: -w",
    "root_weight.Weight.__rmul__": f"{PUBLIC}: c * w",
    "polytope._int_halfspace": f"{PUBLIC}: reads the rows of a RationalPolytope built by its constructor",
    "_record.no_tuple_arithmetic": f"{PROTOCOL}: the + and * that records refuse",
    "finite_field.FqMatrix.__getnewargs__": f"{PROTOCOL}: pickle and copy",
    "finite_field.FqMatrix.__getstate__": f"{PROTOCOL}: pickle and copy",
}


def test_every_src_definition_is_reached_from_the_cli_verify_or_perfbench():
    ran = _ran()
    assert [where for name, line, where in DEFS if (name, line) not in ran and name not in UNRUN] == []


def test_every_unrun_entry_names_a_def_that_does_not_run():
    ran = {name for name, _ in _ran()}
    defined = {name for name, *_ in DEFS}
    assert [name for name in UNRUN if name not in defined or name in ran] == []
    assert all(reason.startswith((HELD, PUBLIC, PROTOCOL)) for reason in UNRUN.values())


def test_dead_code_guard_sees_unused_methods(tmp_path):
    path = tmp_path / "shapes.py"
    path.write_text("class Square:\n    def area(self):\n        def side():\n            return 2\n\n\nf = lambda: 0\n")
    found = [where for *_, where in _compiled_defs(path)]
    assert found == ["shapes.py:2 Square.area", "shapes.py:3 Square.area.<locals>.side"]
