import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def derivations(monkeypatch):
    """Fresh, empty memos of ``comatch.search``'s own kind, and the lists of
    systems that ``CompatibilityGraph.build`` and the minimal-empty
    enumerator are called on while the test runs."""
    from comatch import search

    builds, enumerations = [], []
    build, enumerate_ = search.CompatibilityGraph.build, search._enumerate_minimal_empty
    for name in ("_graphs", "_minimal_empties"):
        monkeypatch.setattr(search, name, type(getattr(search, name))())
    monkeypatch.setattr(
        search.CompatibilityGraph, "build", lambda s: builds.append(s) or build(s)
    )
    monkeypatch.setattr(
        search,
        "_enumerate_minimal_empty",
        lambda s: enumerations.append(s) or enumerate_(s),
    )
    return builds, enumerations
