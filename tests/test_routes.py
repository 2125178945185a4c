"""The computation routes stay independent: no route module imports another.

``verify`` cross-checks the enumeration oracle, the closed forms, the
generating-function series and the bijection against one another; a route
that got its answer through another route would make that cross-check
vacuous.  ``bijection`` is not checked: its ``fixed_points`` lists the
uvv-avoiding class with ``enumeration.generate`` before testing each path.
"""

import ast
from pathlib import Path

import pytest

import gmotzkin

ROUTES = ("enumeration", "formulas", "series", "bijection")
PACKAGE = Path(gmotzkin.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Last dotted component of every module a file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("route", ("formulas", "series", "enumeration"))
def test_route_imports_no_other_route(route):
    others = set(ROUTES) - {route}
    assert imported_modules(PACKAGE / f"{route}.py") & others == set()
