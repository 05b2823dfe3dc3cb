"""Every name a module exports resolves, each module exports exactly the
public names it defines, the README's operations are exactly the exported
functions, every span the benchmark wraps exists, and the declared runtime
dependencies and version are the imported ones, so a deleted name or module
cannot linger in code, docs, packaging or the benchmark.  Only ``errors``
defines exception classes, and the library raises each one it exports."""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import bubblekit

MODULES = ["bubblekit"] + [
    f"bubblekit.{info.name}" for info in pkgutil.iter_modules(bubblekit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    assert len(set(exported)) == len(exported)


# the modules whose __all__ the package joins into its own
LIBRARY = ["series", "characterization", "tails", "continuous", "models", "errors"]


def top_level_names(source: str) -> set[str]:
    """The public names ``source`` binds at its top level by ``def``,
    ``class`` or assignment: not the names it imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_top_level_names_are_found():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import math\n"
        "LIMIT: int = 3\n"
        "A = B = 1.0\n"
        "_PRIVATE = 2\n"
        "__all__ = []\n"
        "def f(): x = 1\n"
        "class C: y = 2\n"
        "if TYPE_CHECKING:\n"
        "    from .series import DiscretePath\n"
    )
    assert top_level_names(source) == {"LIMIT", "A", "B", "f", "C"}


@pytest.mark.parametrize("name", LIBRARY)
def test_a_module_exports_the_public_names_it_defines(name):
    # a new public function cannot be left out of the package's surface,
    # and no name can be listed twice in it
    module = importlib.import_module(f"bubblekit.{name}")
    assert sorted(module.__all__) == sorted(top_level_names(inspect.getsource(module)))


def test_the_package_exports_its_modules_lists():
    modules = [importlib.import_module(f"bubblekit.{name}") for name in LIBRARY]
    assert bubblekit.__all__ == ["__version__", *(e for m in modules for e in m.__all__)]


def library_trees() -> dict[str, ast.Module]:
    """The parsed source of each module of ``src/bubblekit``, by module name."""
    package = Path(bubblekit.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def exception_classes(tree: ast.Module) -> list[str]:
    """The classes ``tree`` defines, at any depth, on a base that is a
    builtin exception, a class of ``bubblekit.errors`` or a class found
    before."""
    found: list[str] = []

    def is_exception(base: ast.expr) -> bool:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        known = getattr(builtins, name, None) or getattr(bubblekit.errors, name, None)
        return name in found or isinstance(known, type) and issubclass(known, BaseException)

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(is_exception, node.bases)):
            found.append(node.name)
    return found


def raised_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` raises, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_exception_classes_and_raises_are_found():
    tree = ast.parse(
        "class A(ValueError): pass\n"
        "class B(A): pass\n"
        "class C(errors.ParseError): pass\n"
        "class D(dict): pass\n"
        "def f():\n"
        "    class E(Exception): pass\n"
        "    raise E('x')\n"
        "raise ValidationError\n"
        "raise\n"
    )
    assert exception_classes(tree) == ["A", "B", "C", "E"]
    assert raised_names(tree) == {"E", "ValidationError"}


def test_one_exception_type_per_exit_code():
    # a refusal is told apart by its message; a class made for one raise
    # site, or one that nothing raises, cannot come back unnoticed
    trees = library_trees()
    defined = {name: exception_classes(tree) for name, tree in trees.items()}
    exported = bubblekit.errors.__all__
    assert {name: classes for name, classes in defined.items() if classes} == {"errors": exported}
    raised = set().union(*map(raised_names, trees.values()))
    assert set(exported) <= raised


def key_operations() -> list[str]:
    """The names in the first column of the README's "Key operations" table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("Key operations") :]
    names = []
    for line in section.splitlines()[1:]:
        if names and not line.startswith("|"):
            break
        operation = line.split("|")[1] if line.startswith("|") else ""
        names += re.findall(r"`([A-Za-z_]\w*)", operation)
    return names


def test_every_key_operation_in_the_readme_is_exported():
    # and every exported function is a key operation: the table is the surface
    functions = {
        name for name in bubblekit.__all__ if inspect.isfunction(getattr(bubblekit, name))
    }
    names = key_operations()
    assert len(set(names)) == len(names)
    assert set(names) == functions


def bench_spans() -> list[tuple[str, str]]:
    """The ``(module, function)`` pairs of ``SPANS`` in ``bench/tracing.py``,
    read from its source without importing the benchmark."""
    source = (Path(__file__).resolve().parent.parent / "bench" / "tracing.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no SPANS")


def test_every_span_the_benchmark_wraps_resolves():
    # bench/run.py --trace 1 wraps each one, and raises on a missing name
    spans = bench_spans()
    assert spans
    missing = [
        f"{module}.{function}"
        for module, function in spans
        if not callable(getattr(importlib.import_module(f"bubblekit.{module}"), function, None))
    ]
    assert missing == []


def test_the_cli_imports_no_private_name_of_the_library():
    # a command calls the library's public functions, not its internals
    source = Path(bubblekit.__file__).with_name("cli.py").read_text()
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def test_the_cli_computes_no_identity_of_its_own():
    # a CSV's telescoping gaps come from the library (telescoping_gaps), as
    # a continuous document's come from deflated_price_profile
    source = Path(bubblekit.__file__).with_name("cli.py").read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    arithmetic = {"compensated_cumsum", "log_ratio", "implied_deflators", "no_arbitrage_residuals"}
    assert imported & arithmetic == set()


def tail_type_tests(source: str) -> list[str]:
    """Each ``isinstance(..., <tail class>)`` and ``type(...) is <tail class>``
    in ``source``, as ``line: code``."""
    from bubblekit import tails

    kinds = {
        name
        for name, value in vars(tails).items()
        if isinstance(value, type) and issubclass(value, tails.TailModel)
    }

    def names_a_kind(node: ast.AST) -> bool:
        return any(
            (isinstance(n, ast.Name) and n.id in kinds)
            or (isinstance(n, ast.Attribute) and n.attr in kinds)
            for n in ast.walk(node)
        )

    def is_call_of(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if is_call_of(node, "isinstance") and len(node.args) == 2:
            hit = names_a_kind(node.args[1])
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            hit = any(is_call_of(side, "type") for side in sides) and any(
                names_a_kind(side) for side in sides if not is_call_of(side, "type")
            )
        else:
            hit = False
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_tail_type_tests_are_found():
    source = (
        "isinstance(t, GeometricYield)\n"
        "isinstance(t, (ConstantYield, int))\n"
        "type(t) is tails.PowerYield\n"
        "DeclaredConvergent is type(t)\n"
        "isinstance(t, float)\n"
        "type(t) is int\n"
    )
    assert tail_type_tests(source) == [
        "1: isinstance(t, GeometricYield)",
        "2: isinstance(t, (ConstantYield, int))",
        "3: type(t) is tails.PowerYield",
        "4: DeclaredConvergent is type(t)",
    ]


@pytest.mark.parametrize("module", ["series", "continuous", "characterization"])
def test_the_core_asks_a_tail_and_never_tests_its_kind(module):
    # what a tail kind means lives in its methods, in tails.py
    source = Path(bubblekit.__file__).with_name(f"{module}.py").read_text()
    assert tail_type_tests(source) == []


def third_party_imports() -> set[str]:
    """The top-level modules outside the standard library and bubblekit
    that some module of ``src/bubblekit`` imports, at any depth."""
    found = set()
    for path in Path(bubblekit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"bubblekit"}


def test_the_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    declared = tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", entry).group() for entry in declared}
    assert names == third_party_imports() == {"numpy", "orjson"}
    line = re.search(r"^Runtime dependencies:(.*?)\(", (root / "README.md").read_text(), re.M | re.S)
    assert set(re.findall(r"`([^`]+)`", line.group(1))) == names


def test_the_declared_version_is_the_imported_one():
    # every report echoes bubblekit.__version__ as its "version"
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["version"] == bubblekit.__version__
