#!/usr/bin/env python3
"""Stdlib benchmark for ``comatch analyze`` and ``comatch homology``.

    python3 perfbench/run.py --workload sets --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, one process each
    python3 perfbench/run.py --self-test      # seconds-long check of the harness

One run is one workload in one process.  It sets up the workload's input
files (eleven times, to time set-up), then calls ``comatch.cli.main``
in-process in a closed loop with one client and no threads: each call
starts when the previous one returns.  Every input is called once, then
the inputs are called again in turn, each only while it still fits in
``--seconds``.  With ``--trace 1`` one more pass runs with the tracer
installed and the per-layer metrics are reported instead of the
end-to-end ones.  After the timed part every report is checked against
its reference and every certificate is replayed through ``comatch
verify``.  The last line of standard output is one JSON object.

See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "exact_share")
MODULES = ("cli", "constructions", "core", "jsonio", "linalg", "randsys",
           "search", "simplicial", "topology")


def require_sources() -> None:
    """Put the checkout's src/ and tests/ first on the import path, or exit."""
    needed = (SRC / "comatch" / "cli.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def purge_comatch() -> None:
    for name in [n for n in sys.modules if n == "comatch" or n.startswith("comatch.")]:
        del sys.modules[name]


def digest(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.glob("*.json"))}


class SetUp:
    """Timed set-ups of one workload: import comatch, write the inputs.

    The first set-up runs before the timed calls.  The other repeats are
    spread over the run, between calls, so that their median covers the
    same stretch of time as the calls do: a burst of load on a shared
    machine then cannot land on every set-up at once.  Later repeats
    overwrite the first repeat's files and must write the same bytes.
    """

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.interval = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.first: dict[str, bytes] = {}
        self.identical = True

    def once(self) -> list:
        self.workdir.mkdir(parents=True, exist_ok=True)
        purge_comatch()
        gc.collect()  # start each repeat without the garbage of the last
        t0 = time.perf_counter()
        importlib.import_module("comatch.cli")
        calls = workloads.build(self.workload, self.seed, self.workdir)
        self.times.append(time.perf_counter() - t0)
        files = digest(self.workdir)
        self.first = self.first or files
        self.identical = self.identical and files == self.first
        return calls

    def due(self, elapsed: float) -> None:
        """Run the repeats whose turn has come `elapsed` seconds into the calls."""
        while len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.interval:
            self.once()

    def finish(self) -> None:
        self.due(float("inf"))


# ---------------------------------------------------------------------------
# timed calls
# ---------------------------------------------------------------------------


class Runner:
    """Timed calls of one run, with the first report of each input."""

    def __init__(self, calls, workdir: Path):
        self.calls = calls
        self.out = workdir / "report.out"
        self.samples = {c.key: [] for c in calls}
        self.reports: dict[str, str] = {}
        self.made = {c.key: 0 for c in calls}
        self.crashes = {c.key: 0 for c in calls}
        self.mismatches: list[str] = []

    def call(self, call, invoke) -> tuple[float, bool]:
        """Run one call through invoke(argv); return its seconds and
        whether it wrote a report."""
        self.out.unlink(missing_ok=True)
        self.made[call.key] += 1
        argv = call.argv(str(self.out))
        t0 = time.perf_counter()
        try:
            code = invoke(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - t0
        if code != 0 or not self.out.exists():
            print(f"perfbench: {call.key} exited {code}", file=sys.stderr)
            self.crashes[call.key] += 1
            return seconds, False
        text = self.out.read_text()
        first = self.reports.setdefault(call.key, text)
        if text != first:
            self.mismatches.append(f"{call.key}: report differs from its first run")
        return seconds, True

    def timed(self, seconds: float, between=lambda elapsed: None) -> None:
        """Every input once, then again in turn while each still fits.

        between(elapsed seconds) runs after each call, outside its timing.
        """
        from comatch import cli

        begin = time.perf_counter()

        def run(call):
            took, ok = self.call(call, cli.main)
            if ok:
                self.samples[call.key].append(took)
            between(time.perf_counter() - begin)

        for call in self.calls:
            run(call)
        ran = True
        while ran:
            ran = False
            for call in self.calls:
                done = self.samples[call.key]
                if not done:
                    continue
                if time.perf_counter() - begin + statistics.median(done) > seconds:
                    continue
                run(call)
                ran = True

    def traced(self, trace: tracer.Tracer) -> list[float]:
        """One pass over every input with the tracer installed."""
        from comatch import cli

        took = []
        trace.install()
        try:
            for index, call in enumerate(self.calls):
                took.append(self.call(
                    call, lambda argv: trace.root(f"cli.{call.command}", index, cli.main, argv)
                )[0])
        finally:
            trace.uninstall()
        return took

    def wall(self) -> float:
        """Seconds for one pass: the sum of each input's median call."""
        return sum(statistics.median(s) for s in self.samples.values() if s)


# ---------------------------------------------------------------------------
# checks (untimed)
# ---------------------------------------------------------------------------


def check_reports(runner: Runner, workdir: Path):
    """Per input: the gate's outcome, including certificate replays."""
    outcomes = {}
    for call in runner.calls:
        if call.key not in runner.reports:
            continue
        report = json.loads(runner.reports[call.key])
        try:
            outcome = gate.check(call, report, gate.reference_for(call))
        except (KeyError, TypeError) as exc:
            outcome = gate.Outcome(problems=[f"report lacks a field: {exc!r}"])
        outcome.problems += gate.replay(call, report, workdir)
        outcomes[call.key] = outcome
    return outcomes


def baseline_drift(runner: Runner) -> list[str]:
    drift = []
    for key, nodes in workloads.BASELINE_NODES.items():
        if key in runner.reports:
            found = json.loads(runner.reports[key])["timing"]["nodes"]
            if found != nodes:
                drift.append(f"{key}: {found} (baseline {nodes})")
    return drift


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, span name, what): "self" sums self seconds, "total" sums span
# seconds, "calls" counts spans.
SPAN_METRICS = (
    ("search.eta.s", "search.eta", "self"),
    ("search.dichotomy.s", "search.dichotomy", "self"),
    ("search.dichotomy.calls", "search.dichotomy", "calls"),
    ("search.transversal_scan.s", "search.transversal_scan", "self"),
    ("search.tau.s", "search.tau", "self"),
    ("search.tau_prime.s", "search.tau_prime", "self"),
    ("search.minimal_empty.s", "search.minimal_empty", "self"),
    ("search.minimal_empty.calls", "search.minimal_empty", "calls"),
    ("search.helly.s", "search.helly", "self"),
    ("topology.leray.s", "topology.leray", "self"),
    ("topology.leray.checks", "topology.leray", "calls"),
    ("linalg.rank.s", "linalg.rank", "self"),
    ("linalg.rank.calls", "linalg.rank", "calls"),
    ("topology.betti.s", "topology.betti", "self"),
    ("topology.betti.calls", "topology.betti", "calls"),
    ("simplicial.all_faces.s", "simplicial.all_faces", "self"),
    ("topology.collapse.s", "topology.collapse", "self"),
    ("topology.replay.s", "topology.replay", "self"),
    ("simplicial.comatching.s", "simplicial.comatching", "self"),
    ("cli.analyze.s", "cli.analyze", "total"),
    ("cli.analyze.calls", "cli.analyze", "calls"),
    ("cli.analyze.self_s", "cli.analyze", "self"),
    ("cli.homology.s", "cli.homology", "total"),
    ("jsonio.load_s", "jsonio.load", "self"),
    ("jsonio.dump_s", "jsonio.dump", "self"),
    ("core.verify.s", "core.verify", "self"),
    ("core.verify.calls", "core.verify", "calls"),
)

# (metric, report kind, timing.nodes key): summed over the traced pass.
NODE_METRICS = (
    ("search.eta.nodes", "set_system", "eta"),
    ("search.tau.nodes", "set_system", "tau"),
    ("search.tau_prime.nodes", "set_system", "tau_prime"),
    ("topology.leray.nodes", "complex", "leray"),
    ("topology.collapse.nodes", "complex", "collapse"),
    ("simplicial.comatching.nodes", "complex", "comatching"),
)


def sloc(path: Path) -> int:
    """Non-blank lines that are not comments."""
    lines = path.read_text().splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def per_layer(trace: tracer.Tracer, runner: Runner, traced_wall: float) -> dict:
    names = [trace.names[i] for i in trace.name_id]
    selfs = tracer.self_times(trace.start, trace.end, trace.parent)
    inputs = trace.inputs()

    # Per input, the self times of all its spans add up to its root span.
    root_total = [0.0] * len(runner.calls)
    self_total = [0.0] * len(runner.calls)
    for i, owner in enumerate(inputs):
        self_total[owner] += selfs[i]
        if trace.parent[i] < 0:
            root_total[owner] += trace.end[i] - trace.start[i]
    for call, root, own in zip(runner.calls, root_total, self_total):
        if abs(root - own) > 1e-6 * max(1.0, root):
            raise RuntimeError(f"{call.key}: self times sum to {own}, root span is {root}")

    sums: dict[tuple[str, str], float] = {}
    for i, name in enumerate(names):
        for what, amount in (("self", selfs[i]), ("calls", 1),
                             ("total", trace.end[i] - trace.start[i])):
            sums[name, what] = sums.get((name, what), 0) + amount
    metrics = {m: (sums.get((n, w), 0), "count" if w == "calls" else "s")
               for m, n, w in SPAN_METRICS}

    # Spans under eta: dichotomy runs, and the exhaustive scans it falls back to.
    under_eta, under_leray = [], []
    for i, name in enumerate(names):
        p = trace.parent[i]
        under_eta.append(name == "search.eta" or (p >= 0 and under_eta[p]))
        under_leray.append(name == "topology.leray" or (p >= 0 and under_leray[p]))
    def count(span: str, under: list[bool]) -> int:
        return sum(1 for i, n in enumerate(names) if n == span and under[i])

    dichotomies = count("search.dichotomy", under_eta)
    fallbacks = count("search.transversal_scan", under_eta)
    metrics["search.dichotomy.witness_ratio"] = (
        fallbacks / dichotomies if dichotomies else 0, "ratio")
    metrics["topology.leray.rank_calls"] = (count("linalg.rank", under_leray), "count")
    metrics["linalg.rank.nnz"] = (
        sum(trace.work[i] for i, n in enumerate(names) if n == "linalg.rank"), "count")

    reports = [json.loads(runner.reports[c.key]) for c in runner.calls
               if c.command == "analyze" and c.key in runner.reports]
    for metric, kind, key in NODE_METRICS:
        metrics[metric] = (
            sum(r["timing"]["nodes"][key] for r in reports if r["kind"] == kind), "count")

    metrics["trace.overhead_s"] = (traced_wall - runner.wall(), "s")
    for module in MODULES:
        metrics[f"{module}.sloc"] = (sloc(SRC / "comatch" / f"{module}.py"), "lines")
    return metrics


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace_on: bool) -> int:
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        setup = SetUp(workload, seed, workdir, seconds)
        calls = setup.once()
        runner = Runner(calls, workdir)
        runner.timed(seconds, setup.due)
        setup.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        trace = None
        if trace_on:
            trace = tracer.Tracer()
            traced_took = runner.traced(trace)
        outcomes = check_reports(runner, workdir)
        if trace is not None:
            WORK.mkdir(exist_ok=True)
            trace.write(WORK / f"spans-{workload}-seed{seed}.tsv.gz",
                        [c.key for c in calls])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"{key}: {p}" for key, o in outcomes.items() for p in o.problems]
    problems += runner.mismatches
    if not setup.identical:
        problems.append("set-up repeats wrote different inputs")
    attempted_values, exact_values, failed_calls = tally(runner, outcomes)
    correct = not problems and not any(runner.crashes.values())
    attempted = sum(runner.made.values())

    print(f"workload {workload}  seed {seed}  closed loop, 1 client, "
          f"{attempted} calls over {len(calls)} inputs")
    for problem in problems:
        print(f"  WRONG {problem}")
    drift = baseline_drift(runner)
    print("  nodes vs baseline: " + ("match" if not drift else "; ".join(drift)))
    failed_values = attempted_values - exact_values
    print(f"  failed_share  {failed_values / attempted_values:.6g} share  "
          f"({failed_values} of {attempted_values} values)")
    print(f"  wrong_results {len(problems)} count  "
          f"(reports of {len(outcomes)} inputs and their certificates)")

    n_samples = sum(len(s) for s in runner.samples.values())
    if trace_on:
        metrics = per_layer(trace, runner, sum(traced_took))
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:.6g} {unit}")
    else:
        metrics = dict(zip(END_TO_END, (
            (runner.wall(), "s"),
            (statistics.median(setup.times), "s"),
            (peak_rss_mb, "MB"),
            (exact_values / attempted_values, "share"),
        )))
        counts = (f"median per input, summed; {n_samples} samples",
                  f"median of {len(setup.times)} set-ups",
                  "ru_maxrss, 1 sample",
                  f"{attempted_values} values")
        for (name, (value, unit)), count in zip(metrics.items(), counts):
            print(f"  {name:13s} {value:.6g} {unit}  ({count})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_calls,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def tally(runner: Runner, outcomes: dict) -> tuple[int, int, int]:
    """Attempted values, exact values and failed calls over every call.

    Every call of an input gives the same report (else the run is already
    wrong), so its outcome stands for all of that input's answered calls.
    A crashed call's values all count as failed.
    """
    attempted_values = exact_values = failed_calls = 0
    for call in runner.calls:
        outcome = outcomes.get(call.key)
        crashed = runner.crashes[call.key]
        answered = runner.made[call.key] - crashed
        attempted_values += runner.made[call.key] * gate.values_per_call(call)
        failed_calls += crashed
        if outcome is not None:
            exact_values += answered * outcome.values.count("exact")
            failed_calls += answered if outcome.problems else 0
    return attempted_values, exact_values, failed_calls


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            check=False,
        )
        worst = max(worst, done.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_sources()
    if args.self_test:
        import selftest

        return selftest.main()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("give --workload, --all or --self-test")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
