"""Span tracer that wraps comatch's layer functions from outside the library.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each
traced function under every ``comatch.*`` module name that binds it (cli
imports the search and topology names directly, search reaches its own
helpers through its globals, and ``topology._rank_rows`` imports
``linalg._rank_sparse`` at call time), and ``Tracer.uninstall`` puts the
originals back.

A span records its name, start, end and parent; the input id is recorded
on the root span that the harness opens around each ``cli.main`` call and
is inherited by every span below it.  Spans are kept in flat arrays while
the traced pass runs and written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

# Modules whose public functions are wrapped.  cli's own public functions
# are not: the harness opens the root span around ``cli.main``, so
# everything cli does itself is the root's self time.
WRAPPED_MODULES = ("jsonio", "core", "search", "simplicial", "topology", "linalg")

# Private functions that are the only way into a layer, or the boundary the
# per-layer metrics need: JSON file reading and writing live in cli, the
# rank kernel is reached only through ``linalg._rank_sparse``, and η's
# fallback scan is ``search._has_empty_transversal``.
PRIVATE_ENTRY_POINTS = (
    "cli._load_doc",
    "cli._emit",
    "search._has_empty_transversal",
    "linalg._rank_sparse",
)

# Public helpers called once per search node or per collapse step.  Their
# own work is a few bit operations, smaller than a span's cost, so tracing
# them would mostly measure the tracer; their time stays in the caller.
UNTRACED_LEAVES = (
    "core.intersection_mask",
    "core.intersect_subfamily",
    "simplicial.maximal_sets",
    "search.as_clock",
)

# Span names that differ from "<module>.<function>": the layer names the
# per-layer metrics are reported under.
ALIASES = {
    "cli._load_doc": "jsonio.load",
    "cli._emit": "jsonio.dump",
    "jsonio.detect_kind": "jsonio.load",
    "jsonio.set_system_from_doc": "jsonio.load",
    "jsonio.complex_from_doc": "jsonio.load",
    "jsonio.dump_canonical": "jsonio.dump",
    "jsonio.certificate_to_doc": "jsonio.dump",
    "jsonio.instance_to_doc": "jsonio.dump",
    "jsonio.profile_to_doc": "jsonio.dump",
    "core.verify_comatching": "core.verify",
    "core.verify_comatching_with_intersection": "core.verify",
    "search.comatching_number": "search.tau",
    "search.comatching_with_intersection_number": "search.tau_prime",
    "search.minimal_empty_subfamilies": "search.minimal_empty",
    "search.helly_number": "search.helly",
    "search.colorful_helly_number": "search.eta",
    "search.colorful_transversal_dichotomy": "search.dichotomy",
    "search._has_empty_transversal": "search.transversal_scan",
    "simplicial.complex_comatching_number": "simplicial.comatching",
    "topology.reduced_betti": "topology.betti",
    "topology.leray_check": "topology.leray",
    "topology.is_d_collapsible": "topology.collapse",
    "topology.replay_collapse_sequence": "topology.replay",
    "linalg._rank_sparse": "linalg.rank",
}


def _nnz(args, kwargs) -> int:
    rows = args[0] if args else kwargs["rows"]
    return sum(len(r) for r in rows)


# Per-span work counters, computed from the call's arguments after the
# span closes.
WORK = {"linalg._rank_sparse": _nnz}


def traced_functions() -> dict[str, Callable]:
    """Qualified name -> function for every function the tracer wraps."""
    targets: dict[str, Callable] = {}
    for short in WRAPPED_MODULES:
        module = importlib.import_module(f"comatch.{short}")
        for attr, value in vars(module).items():
            qualified = f"{short}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != module.__name__
                or inspect.isgeneratorfunction(value)
                or qualified in UNTRACED_LEAVES
            ):
                continue
            targets[qualified] = value
    for qualified in PRIVATE_ENTRY_POINTS:
        short, attr = qualified.split(".")
        targets[qualified] = getattr(importlib.import_module(f"comatch.{short}"), attr)
    return targets


class Tracer:
    """In-memory span recorder; one traced pass per instance."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.root_input: dict[int, int] = {}  # root span index -> input id
        self._stack = [-1]
        self._patched: list[tuple[object, str, Callable]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str, work: Optional[Callable]) -> Callable:
        nid = self._intern(name)
        name_id, parent, start, end, work_col, stack = (
            self.name_id, self.parent, self.start, self.end, self.work, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            work_col.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if work is not None:
                    work_col[i] = work(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for qualified, fn in traced_functions().items():
            name = ALIASES.get(qualified, qualified)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, WORK.get(qualified)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "comatch" and not mod_name.startswith("comatch."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def root(self, name: str, input_id: int, fn: Callable, *args):
        """Run fn(*args) under a root span carrying the input id."""
        self.root_input[len(self.start)] = input_id
        return self._wrap(fn, name, None)(*args)

    def inputs(self) -> list[int]:
        """Input id of every span, inherited from its root."""
        out = []
        for i, p in enumerate(self.parent):
            out.append(self.root_input[i] if p < 0 else out[p])
        return out

    def write(self, path: Path, input_names: list[str]) -> None:
        """Write every span as a gzip'd tab-separated table."""
        selfs = self_times(self.start, self.end, self.parent)
        inputs = self.inputs()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tinput\tname\tstart_s\tend_s\tself_s\twork\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{input_names[inputs[i]]}\t"
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{selfs[i]:.9f}\t{self.work[i]}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are visited in start order and clipped to their parent, and
    overlapping children are merged, so the result is exact for any span
    tree, not only for strictly nested calls.
    """
    n = len(start)
    order = sorted(range(n), key=lambda i: start[i])
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the covered prefix inside each span
    for c in order:
        p = parent[c]
        if p < 0:
            continue
        lo = max(start[c], start[p], reach[p])
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
