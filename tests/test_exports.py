"""Every name a module exports resolves, so a deleted name cannot linger."""

import importlib
import pkgutil

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
