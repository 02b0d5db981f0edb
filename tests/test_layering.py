"""Imports between the package's modules run one way, from the top down.

Each module may import only modules of strictly lower rank; modules of equal
rank are peers and import neither each other.  Imports inside functions
count too.
"""

import ast
import os

import pytest

import polyopt

RANKS = {}
for rank, peers in enumerate([
        ["errors"], ["polynomials"], ["pop"], ["localopt", "sdp"], ["solver"],
        ["relaxation", "certify"], ["hierarchy"], ["gallery"], ["ensemble"], ["cli"]]):
    RANKS.update({name: rank for name in peers})

SRC = os.path.dirname(polyopt.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def package_imports(name):
    """(imported module, line) for every import of a polyopt module in ``name``."""
    with open(os.path.join(SRC, name + ".py")) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.append((node.module.split(".")[0], node.lineno))
            elif node.level == 0 and (node.module or "").startswith("polyopt."):
                found.append((node.module.split(".")[1], node.lineno))
            elif node.level == 1 or node.module == "polyopt":
                # `from . import x` / `from polyopt import x` reads the package
                # itself unless x names a module
                found += [(a.name, node.lineno) for a in node.names if a.name in RANKS]
        elif isinstance(node, ast.Import):
            found += [(a.name.split(".")[1], node.lineno) for a in node.names
                      if a.name.startswith("polyopt.")]
    return found


def test_every_module_is_ranked():
    assert set(MODULES) == set(RANKS)


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_down(name):
    bad = [f"{name}:{line} imports {target}" for target, line in package_imports(name)
           if RANKS[target] >= RANKS[name]]
    assert not bad, bad
