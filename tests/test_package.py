"""Package-wide properties: the record types are plain tuples of their
fields (no dataclass, whose generated methods cost about a millisecond per
class on every start), the package namespace and the CLI import a module
only when it is used, and every top-level definition in src/ is reached from
the CLI, `symmon verify` or the benchmark, every method of a class included
(what only tests use lives in tests/oracles.py)."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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
        ai2: ("family", "params", "theta_star", "theta0"),
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
    assert w + w == 2 * w == w.scale(2) == rw.weight([2, 1])
    assert Fraction(1, 2) * w == rw.weight([Fraction(1, 2), Fraction(1, 4)])


def test_fields_are_read_only():
    for x, names in _records().items():
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, None)


def _fresh(code: str) -> str:
    """stdout of a fresh interpreter that runs code with this src/ first on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
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

PERFBENCH = SRC.parents[1] / "perfbench"
ENTRY_MODULES = ("__init__", "cli", "verify")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _used(nodes, docstrings=frozenset(), strings=True) -> set[str]:
    """The identifiers the nodes use: names, attributes, imported names, and,
    with strings, the words of string constants other than docstrings
    (perfbench's tracer names what it wraps in strings, and symmon's lazy
    table its exports)."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            out.update(IDENTIFIER.findall(node.value))
    return out


def _definitions(src: Path):
    """(roots, definitions): the identifiers used by the entry modules and by
    every module-level statement that defines nothing, and each top-level
    definition of src as (label, name, the nodes it uses, docstrings).  Each
    method of a top-level class is a definition of its own; the class itself
    uses its bases, decorators and other class-level statements.  Imports use
    no name.  Only the roots count the words of their strings: a definition's
    strings are messages and formats, and an error message that names a
    function does not reach it."""
    roots, definitions = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        if path.stem in ENTRY_MODULES:
            roots |= _used([tree], docs)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef)]
                rest = [s for s in stmt.body if not isinstance(s, ast.FunctionDef)]
                uses = stmt.bases + stmt.keywords + stmt.decorator_list + rest
                definitions.append((f"{path.name}: {stmt.name}", stmt.name, uses, docs))
                for m in methods:
                    definitions.append((f"{path.name}: {stmt.name}.{m.name}", m.name, [m], docs))
            elif isinstance(stmt, ast.FunctionDef):
                definitions.append((f"{path.name}: {stmt.name}", stmt.name, [stmt], docs))
            elif isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Name) for t in stmt.targets):
                for t in stmt.targets:
                    definitions.append((f"{path.name}: {t.id}", t.id, [stmt.value], docs))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _used([stmt], docs)
    return roots, definitions


def _unreached(src: Path, perfbench: Path) -> list[str]:
    """The definitions of src that no name reaches from the entry modules,
    module-level statements and the identifiers of perfbench/*.py, closing
    over the names each reached definition uses.  Names match by their last
    component, whatever module they come from, so the closure errs towards
    keeping code; dunder names run by protocol and always count as reached."""
    reached, definitions = _definitions(src)
    for path in sorted(perfbench.glob("*.py")):
        reached |= _used([ast.parse(path.read_text())])
    pending = list(definitions)
    grew = True
    while grew:
        grew = False
        for entry in list(pending):
            _, name, nodes, docs = entry
            if name in reached or name.startswith("__"):
                reached |= _used(nodes, docs, strings=False)
                pending.remove(entry)
                grew = True
    return [label for label, *_ in pending]


def test_every_src_definition_is_reached_from_the_cli_verify_or_perfbench():
    assert _unreached(SRC, PERFBENCH) == []


def test_dead_code_guard_sees_unused_methods(tmp_path):
    src, perfbench = tmp_path / "src", tmp_path / "perfbench"
    src.mkdir()
    perfbench.mkdir()
    (src / "cli.py").write_text("from .shapes import Square\n\nprint(Square(2).area())\n")
    (src / "shapes.py").write_text(
        "class Square:\n"
        "    def __init__(self, side):\n"
        "        self.side = side\n"
        "    def area(self):\n"
        "        return self.side * self.side\n"
        "    def perimeter(self):\n"
        "        return 4 * self.side\n"
    )
    assert _unreached(src, perfbench) == ["shapes.py: Square.perimeter"]
    (perfbench / "workloads.py").write_text("print(Square(3).perimeter())\n")
    assert _unreached(src, perfbench) == []


def test_dead_code_guard_reads_no_names_from_messages(tmp_path):
    src, perfbench = tmp_path / "src", tmp_path / "perfbench"
    src.mkdir()
    perfbench.mkdir()
    (src / "cli.py").write_text("from .shapes import area\n\nprint(area(2))\n")
    (src / "shapes.py").write_text(
        "def area(side):\n"
        "    if side < 0:\n"
        "        raise ValueError('area and perimeter need a nonnegative side')\n"
        "    return side * side\n"
        "\n"
        "\n"
        "def perimeter(side):\n"
        "    return 4 * side\n"
    )
    assert _unreached(src, perfbench) == ["shapes.py: perimeter"]
    # the words of an entry module's strings still count: a lazy export table names its exports
    (src / "cli.py").write_text("from .shapes import area\n\nEXPORTS = {'perimeter': 'shapes'}\nprint(area(2))\n")
    assert _unreached(src, perfbench) == []
