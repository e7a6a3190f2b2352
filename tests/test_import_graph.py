"""The dense reference stays outside the library's import graph."""

import ast
from pathlib import Path

import pytest

import rdsgls

SOURCES = {p.stem: ast.parse(p.read_text()) for p in Path(rdsgls.__file__).parent.glob("*.py")}


def imported(module: ast.Module) -> set:
    """Every dotted name a module imports, package modules written ``.name``.

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c``, since ``c`` may
    be a module.
    """
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                names.add(base)
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return {"." + n[len("rdsgls."):] if n.startswith("rdsgls.") else n for n in names}


def test_sources_found():
    assert {"__init__", "covariance", "reference"} <= set(SOURCES)


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"__init__", "reference"}))
def test_only_the_package_init_imports_reference(name):
    assert ".reference" not in imported(SOURCES[name])


def test_reference_imports_only_covariance_referral_errors():
    package = {m for m in imported(SOURCES["reference"]) if m.startswith(".")}
    assert {m.split(".")[1] for m in package} <= {"covariance", "referral", "errors"}


@pytest.mark.parametrize("name", sorted(set(SOURCES) - {"reference"}))
def test_only_reference_imports_scipy_linalg(name):
    assert not any(m.startswith("scipy.linalg") for m in imported(SOURCES[name]))
