"""Seconds-long self-test of the harness: ``python3 perfbench/run.py --self-test``.

Checks the self-time arithmetic on a synthetic span tree, that the gate
rejects doctored reports, that every workload's inputs regenerate
byte-identically from the seed, and that a traced call gives the same
report as an untraced one with self times that add up to the root span.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import gate
import run
import tracer
import workloads

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def self_time_arithmetic() -> None:
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (reaching past the root); a has child aa [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    selfs = tracer.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7 = 3; a: 3 - 1 = 2.
    expect(selfs[:2] == [3.0, 2.0], f"self time with overlapping children {selfs[:2]}")
    nested = tracer.self_times([0.0, 1.0, 5.0, 2.0], [9.0, 4.0, 8.0, 3.0], [-1, 0, 0, 1])
    expect(nested == [3.0, 2.0, 3.0, 1.0] and sum(nested) == 9.0,
           f"self times of nested spans add up to the root {nested}")


def doctored_reports(workdir: Path) -> None:
    from comatch import cli

    path = workdir / "cycle-sharpness-3.json"
    out = workdir / "report.json"
    cli.main(["generate", "cycle-sharpness", "3", "--out", str(path)])
    cli.main(["analyze", str(path), "--out", str(out)])
    report = json.loads(out.read_text())
    call = workloads.Call("cycle-sharpness-3", "analyze", str(path))
    ref = workloads.SYSTEM_REFERENCES[call.key]

    def problems(doc) -> list[str]:
        return gate.check(call, doc, ref).problems + gate.replay(call, doc, workdir)

    expect(problems(report) == [], "the true report passes")

    off = copy.deepcopy(report)
    off["results"]["comatching_number"]["value"] += 1
    expect(any(p.startswith("tau:") for p in problems(off)), "tau off by one is rejected")

    bad = copy.deepcopy(report)
    pairs = bad["certificates"]["comatching"]["pairs"]
    pairs[0]["member"], pairs[1]["member"] = pairs[1]["member"], pairs[0]["member"]
    expect(any("comatch verify" in p for p in problems(bad)),
           "a corrupted certificate fails replay")

    high = copy.deepcopy(report)
    high["results"]["colorful_helly_number"] = {"value": ref["eta"] + 1, "exact": False}
    expect(any(p.startswith("eta:") for p in problems(high)),
           "an inexact eta above its reference is rejected")


def inputs_regenerate(workdir: Path) -> None:
    for workload in workloads.WORKLOADS:
        seen = []
        for seed in (7, 7, 8):
            target = workdir / f"{workload}-{len(seen)}"
            target.mkdir()
            workloads.build(workload, seed, target)
            seen.append(run.digest(target))
        expect(seen[0] == seen[1] and bool(seen[0]),
               f"{workload}: inputs regenerate byte-identically from the seed")
        if workload == "sets":
            expect(seen[0] != seen[2], "sets: another seed gives another random batch")


def traced_call(workdir: Path) -> None:
    from comatch import cli, search

    path = workdir / "cycle-sharpness-4.json"
    cli.main(["generate", "cycle-sharpness", "4", "--out", str(path)])
    runner = run.Runner([workloads.Call("cycle-sharpness-4", "analyze", str(path))], workdir)
    runner.timed(0)
    original = search.colorful_helly_number
    trace = tracer.Tracer()
    took = runner.traced(trace)
    expect(search.colorful_helly_number is original and cli.colorful_helly_number is original,
           "uninstall restores every binding")
    expect(runner.mismatches == [] and not any(runner.crashes.values()),
           "traced and untraced reports are byte-identical")
    metrics = run.per_layer(trace, runner, sum(took))  # raises if self times do not add up
    expect(metrics["search.eta.nodes"][0] == workloads.BASELINE_NODES["cycle-sharpness-4"]["eta"],
           "node counts come from the report")
    expect(metrics["search.dichotomy.calls"][0] > 0 and metrics["cli.analyze.calls"][0] == 1,
           "spans reach search through cli's and search's own bindings")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS),
           "every workload BENCHMARK.json lists is defined")
    expect(sorted(metrics) == sorted(m["name"] for m in declared["per_layer"]),
           "the traced run reports exactly the per-layer metrics BENCHMARK.json lists")
    expect(list(run.END_TO_END) == [m["name"] for m in declared["end_to_end"]],
           "the untraced run reports exactly the end-to-end metrics BENCHMARK.json lists")


def main() -> int:
    workdir = run.WORK / "self-test"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        print("self-time arithmetic")
        self_time_arithmetic()
        print("reference gate")
        doctored_reports(workdir)
        print("inputs from the seed")
        inputs_regenerate(workdir)
        print("traced call")
        traced_call(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
