"""Module layering, read from the sources with ``ast``.

The search budget is a core type, so the complex side (linear algebra,
complexes, topology) needs nothing from the set-system search module.
Both fields share one elimination kernel in ``linalg``.  No search in
those modules or in ``search`` calls itself, so none is bounded by the
recursion limit.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "comatch"


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports from, relative imports resolved in comatch;
    ``from x import y`` counts as importing both x and x.y."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = (["comatch"] if node.level else []) + (
                [node.module] if node.module else []
            )
            module = ".".join(parts)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def defined_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", ["linalg", "simplicial", "topology"])
def test_complex_side_does_not_import_search(module):
    assert "comatch.search" not in imported_modules(PACKAGE / f"{module}.py")


def test_one_budget_type():
    retired = {"BudgetClock", "as_clock", "Budget", "UNBOUNDED"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        assert not retired & defined_names(path), path
    assert "SearchBudget" in defined_names(PACKAGE / "core.py")


def test_one_row_update_for_both_fields():
    # The rank kernel has one row update.
    helpers = {n for n in defined_names(PACKAGE / "linalg.py") if n.startswith("_axpy")}
    assert helpers == {"_axpy"}


def self_calling_functions(path: Path) -> list[str]:
    """Functions, nested ones included, whose body calls them by name,
    directly or as ``self.name`` / ``cls.name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == node.name) or (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found.append(node.name)
                break
    return found


@pytest.mark.parametrize("module", ["search", "topology", "simplicial", "linalg"])
def test_searches_do_not_recurse(module):
    # Every search runs on an explicit stack, so its depth is not bounded
    # by Python's recursion limit.
    assert self_calling_functions(PACKAGE / f"{module}.py") == []
