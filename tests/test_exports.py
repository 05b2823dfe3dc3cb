"""Every name a module exports resolves, and every operation the README
names is exported, so a deleted name cannot linger in code or docs."""

import ast
import importlib
import pkgutil
import re
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
    names = key_operations()
    assert len(names) >= 10
    assert [name for name in names if name not in bubblekit.__all__] == []


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
