"""The computation routes stay independent: no route module imports another.

``verify`` cross-checks the enumeration oracle, the closed forms, the
generating-function series and the bijection against one another; a route
that got its answer through another route would make that cross-check
vacuous.

The package exports only what it uses: every name ``gmotzkin/__init__.py``
imports has a caller in the package or the benchmark, so no helper lives on
for the tests alone.

No package module but ``__init__`` imports a name it never reads, so a
deleted helper leaves no import behind.  And every function, class, method
and module-level name a package module defines is read by the package or
the benchmark, not by the tests alone.

No package module uses ``assert``: ``python -O`` strips it, and every check
must still run there.

The package runs on the standard library alone (``dependencies = []``):
every module it imports is the package itself or in the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

import gmotzkin

ROUTES = ("enumeration", "formulas", "series", "bijection")
PACKAGE = Path(gmotzkin.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


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


@pytest.mark.parametrize("route", ("formulas", "series", "enumeration", "bijection"))
def test_route_imports_no_other_route(route):
    others = set(ROUTES) - {route}
    assert imported_modules(PACKAGE / f"{route}.py") & others == set()


def exported_names() -> set[str]:
    """Every name that ``gmotzkin/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(path: Path) -> set[str]:
    """Every name a file reads, as a variable or as an attribute, outside the
    def or class of that name; import lines, definitions and docstrings read
    none."""
    names = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and name not in inside:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), frozenset())
    return names


def read_outside_the_tests() -> set[str]:
    """Every name that the package or the benchmark reads."""
    files = sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
    assert BENCH / "run.py" in files
    return set().union(*map(referenced_names, files))


def test_every_export_has_a_caller_outside_the_tests():
    assert sorted(exported_names() - read_outside_the_tests()) == []


def defined_names(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every function, class and method a file defines, at
    any depth, and of every name its module level assigns."""
    tree = ast.parse(path.read_text())
    found = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (name.id, node.lineno)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
    return found


# Names read by no code the package or the benchmark holds, for a reason:
# ``run_all`` reaches the nine criteria by ``getattr``.  Dunders, which
# Python itself reads, are left out as well.
READ_WITHOUT_A_NAME = {f"criterion_{k}" for k in range(1, 10)}


def test_every_definition_has_a_reader_outside_the_tests():
    used = read_outside_the_tests() | READ_WITHOUT_A_NAME
    unread = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in defined_names(path)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unread == []


def unread_imports(path: Path) -> list[str]:
    """``file:line name`` for every name a file imports and never reads as a
    variable; ``from __future__`` imports are left out."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_modules_read_every_name_they_import():
    files = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
    assert PACKAGE / "verify.py" in files
    assert [entry for path in files for entry in unread_imports(path)] == []


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "polyring.py" in files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level 0: absolute
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names | {"gmotzkin"}
            ]
    assert outside == []


def test_only_polyring_and_series_name_the_codec():
    # Kronecker packing is the solver's format, so no other module reads it
    naming = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "KroneckerCodec" in {getattr(node, field, None) for field in ("id", "attr", "name")}
    }
    assert naming == {"polyring", "series"}


def test_package_has_no_assert():
    files = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "formulas.py" in files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
