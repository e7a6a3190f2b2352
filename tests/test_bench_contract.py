"""The benchmark's workloads still find every library name they use, and pass its check.

``bench/workloads.py`` is frozen: it imports names from ``rdsgls`` and
reads attributes of the ``rdsgls`` modules it imports.  A library change
that deletes or renames one of them fails here, not later in a bench run.
A library change that moves an output the bench checks fails its toy run
here too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


ROOT = WORKLOADS.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


@pytest.mark.parametrize("workload", BENCH_WORKLOADS)
def test_toy_bench_run_checks_its_outputs_correct(workload):
    # the bench's own output check, on the traced pass at toy sizes (about a second each)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0.3", "--trace", "1", "--toy"]
    done = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
