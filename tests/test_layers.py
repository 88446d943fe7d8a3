"""The package's layers, read from its source with ast: no module is imported or run.

The modules form one stack, LAYERS, from the chain at the bottom to the CLI at the top.
A module imports only modules below it, deferred imports included, so no import cycle can
form, and no top-level function, class or constant is defined in two modules, so a name
moved from one layer to another leaves no copy behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spintransfer"
LAYERS = ("chain", "disorder", "spectral", "encoding", "fermion", "models", "montecarlo",
          "optimize", "cli")
ENTRIES = ("__init__", "__main__")  # the package's front doors, above every layer


def tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def imported(module: str) -> set[str]:
    """The package modules a module imports anywhere in its source; "__init__" stands for
    the package itself (`import spintransfer`, `from spintransfer import name`)."""
    found = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.Import):
            found.update("__init__" if alias.name == "spintransfer" else alias.name.split(".")[1]
                         for alias in node.names if alias.name.split(".")[0] == "spintransfer")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "spintransfer":
                continue  # numpy, scipy, the standard library
            inner = parts[1:] if node.level == 0 else [part for part in parts if part]
            if inner:  # from .spectral import x, from spintransfer.spectral import x
                found.add(inner[0])
            else:  # from . import x, from spintransfer import x: a module, or the package's
                found.update(alias.name if alias.name in LAYERS else "__init__"
                             for alias in node.names)
    return found


def defined(module: str) -> set[str]:
    """Names a module binds at its top level by def, class or assignment, dunders aside."""
    names = set()
    for node in tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("__")}


def test_every_module_of_the_package_has_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(LAYERS + ENTRIES)


@pytest.mark.parametrize("module", LAYERS)
def test_a_module_imports_only_modules_below_it(module):
    assert imported(module) <= set(LAYERS[:LAYERS.index(module)])


def test_no_top_level_name_is_defined_in_two_modules():
    homes = {}
    for module in LAYERS + ENTRIES:
        for name in defined(module):
            homes.setdefault(name, []).append(module)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_the_rules_see_what_they_check():
    # the readers find the edges and names the rules are about, so neither rule holds
    # because a reader returns nothing
    assert {"models", "spectral"} <= imported("montecarlo")
    assert imported("__main__") == {"cli"}
    assert {"_chebyshev_tops", "_top_singular", "_GROWTH", "Eigensystem"} <= defined("spectral")
    assert {"_PROPAGATE", "TransferPolicy"} <= defined("montecarlo")
