"""The dense reference stays outside the library's import graph, and no
library module changes the process-wide warnings filters."""

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


# the warnings calls that change process-wide state
FILTER_CALLS = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}


def filter_edits(module: ast.Module) -> list:
    """Lines that call a filter-changing warnings function or set ``showwarning``."""
    lines = []
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in FILTER_CALLS:
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "attr", None) == "showwarning" for t in targets):
                lines.append(node.lineno)
    return sorted(lines)


def test_filter_edits_finds_each_form():
    source = (
        "import warnings\n"
        "from warnings import simplefilter\n"
        "with warnings.catch_warnings(record=True):\n"
        "    simplefilter('error')\n"
        "warnings.filterwarnings('ignore'); warnings.resetwarnings()\n"
        "warnings.showwarning = print\n"
        "warnings.warn('a note')\n"
    )
    assert filter_edits(ast.parse(source)) == [3, 4, 5, 5, 6]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_module_changes_the_warnings_filters(name):
    assert filter_edits(SOURCES[name]) == []
