"""The dense reference stays outside the library's import graph, no library
module reaches into numpy's private modules or another library module's
private names, and none changes the process-wide warnings filters."""

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


def private_numpy(module: ast.Module) -> list:
    """Imported numpy modules, and attributes of ``numpy``/``np``, named with a leading underscore."""
    names = [m for m in imported(module) if m.split(".")[0] == "numpy"]
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in {"np", "numpy"}:
                names.append(".".join(["numpy", *reversed(chain)]))
    return sorted(
        {n for n in names if any(p.startswith("_") and not p.startswith("__") for p in n.split("."))}
    )


def test_private_numpy_finds_each_form():
    source = (
        "import numpy.linalg._umath_linalg\n"
        "from numpy._core import multiarray\n"
        "import numpy as np\n"
        "np.linalg.inv(np.eye(2)); np.__version__\n"
        "np._core.umath.add\n"
    )
    assert private_numpy(ast.parse(source)) == [
        "numpy._core", "numpy._core.multiarray", "numpy._core.umath",
        "numpy._core.umath.add", "numpy.linalg._umath_linalg",
    ]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_module_reaches_into_private_numpy(name):
    # the tree sweeps stay on public np.linalg, whose batched calls do the
    # per-matrix arithmetic of the one-matrix calls
    assert private_numpy(SOURCES[name]) == []


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_library_names(module: ast.Module) -> list:
    """Underscore names of the package that a module imports, or reads as ``module._name``."""
    names, modules = set(), set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "rdsgls"):
            base = "." * node.level + (node.module or "")
            names.update(f"{base}.{a.name}" for a in node.names if _private(a.name))
            if node.module in (None, "rdsgls"):
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                a.asname or a.name.split(".")[0] for a in node.names
                if a.name.split(".")[0] == "rdsgls"
            )
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in modules and any(map(_private, chain)):
                names.add(".".join([value.id, *reversed(chain)]))
    return sorted(names)


def test_private_library_names_finds_each_form():
    source = (
        "from .estimators import ESTIMATORS, _reweighted\n"
        "from rdsgls.fileio import _parse_pmf\n"
        "from . import fileio\n"
        "import rdsgls.presets as p\n"
        "import rdsgls\n"
        "fileio._parse_matrix('1'); fileio.read_sample; p._ZERO_SHARE; rdsgls.cli._COMMANDS\n"
        "np._core; self._cache; fileio.__doc__\n"
    )
    assert private_library_names(ast.parse(source)) == [
        ".estimators._reweighted", "fileio._parse_matrix", "p._ZERO_SHARE",
        "rdsgls.cli._COMMANDS", "rdsgls.fileio._parse_pmf",
    ]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_module_uses_another_modules_private_names(name):
    assert private_library_names(SOURCES[name]) == []
