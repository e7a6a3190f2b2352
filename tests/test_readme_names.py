"""Every dotted library name the README puts in backticks still exists.

A name counts as a library name when it starts with ``rdsgls`` or with a
module of the package (``covariance.tree_gls_solve_forest``,
``netmodel.CsrMatrix``); a call's argument list is ignored.  Each one
resolves by importing its module and looking up the rest by ``getattr``.
"""

import importlib
import re
from pathlib import Path

import pytest

import rdsgls

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in Path(rdsgls.__file__).parent.glob("*.py")} - {"__init__"}
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def library_names(text: str) -> list:
    found = (m.group(1) for m in DOTTED.finditer(text))
    return sorted({name for name in found if name.split(".")[0] in MODULES | {"rdsgls"}})


NAMES = library_names((ROOT / "README.md").read_text())


def test_library_names_finds_each_form():
    text = ("`covariance.tree_gls_solve_forest`, `rdsgls.run_recipe(recipe, *, rse=True)`, "
            "`scipy.linalg`, `Generator.choice(...)`, `run_recipe` and `netmodel.CsrMatrix`")
    assert library_names(text) == ["covariance.tree_gls_solve_forest", "netmodel.CsrMatrix",
                                   "rdsgls.run_recipe"]
    assert {"covariance.tree_gls_solve_forest", "netmodel.CsrMatrix"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_each_dotted_readme_name_resolves(name):
    first, *rest = name.split(".")
    obj = importlib.import_module("rdsgls" if first == "rdsgls" else f"rdsgls.{first}")
    for part in rest:
        obj = getattr(obj, part)
