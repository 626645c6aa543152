"""Module layering, read from the sources with ``ast``.

``core`` imports no other comatch module.  The search budget is a core
type, so the complex side (linear algebra, complexes, topology) needs
nothing from the set-system search module.
Both fields share one elimination kernel in ``linalg``.  No search in
those modules, in ``search`` or in ``constructions`` calls itself, so none
is bounded by the recursion limit, and only ``core`` writes the budget's
node count and exhaustion flag.
"""

import ast
import importlib
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


def test_core_imports_no_other_comatch_module():
    # Structures derived from a system live in search's memos, keyed weakly
    # by the system, so SetSystem needs nothing from the modules above core,
    # not even through an import inside a function.
    imported = imported_modules(PACKAGE / "core.py")
    assert not {name for name in imported if name.split(".")[0] == "comatch"}


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


def budget_field_writes(path: Path) -> list[str]:
    """Assignments and augmented assignments to a ``.nodes`` or
    ``.exhausted`` attribute, as ``line: attribute``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in ("nodes", "exhausted"):
                    found.append(f"{node.lineno}: {sub.attr}")
    return found


def test_only_the_budget_keeps_its_books():
    # Searches count nodes through ``SearchBudget.spend`` alone, so a batched
    # spend cannot leave the budget in a state that single spends would not.
    sources = sorted(PACKAGE.glob("*.py"))
    for path in sources:
        if path.stem != "core":
            assert budget_field_writes(path) == [], path
    assert budget_field_writes(PACKAGE / "core.py")


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


@pytest.mark.parametrize(
    "module", ["search", "topology", "simplicial", "linalg", "constructions"]
)
def test_searches_do_not_recurse(module):
    # Every search runs on an explicit stack, so its depth is not bounded
    # by Python's recursion limit.
    assert self_calling_functions(PACKAGE / f"{module}.py") == []


def test_exports_are_in_step():
    # Every ``__all__`` entry is defined, and the package imports from each
    # module only names that module exports, so a deletion leaves no stale
    # export behind.
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"comatch.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"comatch.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, (node.module, alias.name)


CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def strong_module_state(path: Path) -> list[str]:
    """Module-level and class-level bindings of a dict, list or set (a
    display, a comprehension or a call of a container type), ``global``
    statements, and uses of functools' caching decorators, as
    ``line: name``.  Any of these could keep a value past the call that
    made it."""
    found = []
    tree = ast.parse(path.read_text())
    scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    for scope in scopes:
        for node in scope.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            call = value.func if isinstance(value, ast.Call) else None
            called = getattr(call, "id", getattr(call, "attr", None))
            if isinstance(value, containers) or called is not None:
                for target in targets:
                    name = getattr(target, "id", "?")
                    kind = called or type(value).__name__
                    found.append(f"{node.lineno}: {name} = {kind}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend(
                f"{node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name in CACHE_DECORATORS
            )
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS:
            found.append(f"{node.lineno}: {node.attr}")
    return found


def test_search_keeps_no_strong_memo():
    # Structures derived from a system live in the two memos keyed weakly by
    # the system, so nothing a search builds outlives its system.  Any other
    # module-level container or cache would keep values across calls.
    found = strong_module_state(PACKAGE / "search.py")
    memos = [entry for entry in found if entry.endswith("= WeakKeyDictionary")]
    assert [entry.split(": ")[1] for entry in memos] == [
        "_graphs = WeakKeyDictionary",
        "_minimal_empties = WeakKeyDictionary",
    ]
    rest = [entry for entry in found if entry not in memos]
    assert [entry.split(": ")[1] for entry in rest] == ["__all__ = List"]


def referenced_names(node: ast.AST) -> set[str]:
    """Every name a piece of code reads, bare or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_collapse_replay_shares_no_code_with_the_search():
    # The replay checks a collapse sequence from the definitions alone, so a
    # fault in the search cannot pass its own check.  The search's helpers
    # are the topology functions and classes that ``is_d_collapsible`` and
    # ``_FaceCounts`` read, and the methods of ``_FaceCounts``; the
    # certificate type is what the two share on purpose.
    tree = ast.parse((PACKAGE / "topology.py").read_text())
    defined = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    search = [defined["is_d_collapsible"], defined["_FaceCounts"]]
    helpers = {"is_d_collapsible", "_FaceCounts"}
    helpers |= {
        node.name
        for node in ast.walk(defined["_FaceCounts"])
        if isinstance(node, ast.FunctionDef)
    }
    for node in search:
        helpers |= referenced_names(node) & set(defined)
    helpers -= {"CollapseSequence"}
    assert {"_recount", "least_free", "collapse"} <= helpers
    replay = referenced_names(defined["replay_collapse_sequence"])
    assert not replay & helpers
