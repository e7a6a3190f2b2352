"""The benchmark's workloads still find every library name they use.

``bench/workloads.py`` is frozen: it imports names from ``rdsgls`` and
reads attributes of the ``rdsgls`` modules it imports.  A library change
that deletes or renames one of them fails here, not later in a bench run.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _library_uses():
    """(module, name) for every ``from rdsgls... import name`` and ``module.attr`` read."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    uses, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rdsgls":
            for alias in node.names:
                uses.add((node.module, alias.name))
                submodule = f"rdsgls.{alias.name}"
                if node.module == "rdsgls" and importlib.util.find_spec(submodule):
                    modules[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
    return sorted(uses)


USES = _library_uses()


def test_workloads_use_the_library():
    assert ("rdsgls", "apply_estimator") in USES
    assert ("rdsgls.cli", "dispatch") in USES


@pytest.mark.parametrize(("module", "name"), USES, ids=[f"{m}.{n}" for m, n in USES])
def test_benchmark_name_exists(module, name):
    found = hasattr(importlib.import_module(module), name) or (
        module == "rdsgls" and importlib.util.find_spec(f"rdsgls.{name}") is not None
    )
    assert found, f"{module} has no {name!r}"
