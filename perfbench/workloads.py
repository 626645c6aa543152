"""Benchmark workloads: the inputs each one writes, and what they must give.

Every input is written by the library itself (``comatch generate``,
``comatch nerve`` or ``randsys.random_system``), so the program receives
only generated JSON files.  Only ``sets`` depends on the seed, through its
batch of random 7x7 systems; the named constructions are fixed.

References are what the library proves, checked by certificates and by
the sandwich h <= eta <= 1 + tau'; they are not the generators'
``provenance.claims``, which are wrong for cycle-sharpness (M=5 gives
tau = tau' = eta = 6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sets", "hamming6-budget", "complexes", "join-homology")

RANDOM_SYSTEMS = 100


@dataclass(frozen=True)
class Call:
    """One timed ``comatch`` invocation on one input file."""

    key: str
    command: str  # "analyze" or "homology"
    path: str
    flags: tuple[str, ...] = ()
    reference: str = ""  # key of the reference entry, when not the call's own

    @property
    def ref_key(self) -> str:
        return self.reference or self.key

    def argv(self, out: str) -> list[str]:
        return [self.command, self.path, *self.flags, "--out", out]


# Set systems: tau, tau', h, eta and the number of minimal empty subfamilies.
SYSTEM_REFERENCES = {
    "cycle-sharpness-3": dict(tau=4, tau_prime=3, helly=4, eta=4, minimal_empty=5),
    "cycle-sharpness-4": dict(tau=5, tau_prime=4, helly=5, eta=5, minimal_empty=10),
    "cycle-sharpness-5": dict(tau=6, tau_prime=6, helly=6, eta=6, minimal_empty=17),
    "hamming-4-1": dict(tau=4, tau_prime=3, helly=4, eta=4, minimal_empty=80),
    "hamming-5-1": dict(tau=4, tau_prime=3, helly=4, eta=4, minimal_empty=416),
    # eta = 4 by h = 4 <= eta <= 1 + tau' = 4.
    "hamming-6-1": dict(tau=4, tau_prime=3, helly=4, eta=4, minimal_empty=1904),
}

# Complexes: complex tau, reduced Betti numbers, Leray number, and the
# collapse status at the Leray number.
COMPLEX_REFERENCES = {
    "torus-grid-4-2": dict(tau=2, betti=[0, 2, 1, 0], leray=3, collapse="proved"),
    "nerve-hamming-4-1": dict(
        tau=4, betti=[0, 0, 31, 0, 0], leray=3, collapse="proved"
    ),
}

HOMOLOGY_REFERENCES = {"good-join-2": [0, 0, 0, 4, 4, 1, 0, 0]}

# timing.nodes of each fixed input at the commit that added this benchmark
# (ROADMAP item 1 baselines).  A search change may move them; the run
# prints whether they still match, and does not fail on a difference.
BASELINE_NODES = {
    "cycle-sharpness-3": {"tau": 33, "tau_prime": 45, "eta": 75},
    "cycle-sharpness-4": {"tau": 91, "tau_prime": 168, "eta": 1369},
    "cycle-sharpness-5": {"tau": 275, "tau_prime": 318, "eta": 35232},
    "hamming-4-1": {"tau": 1557, "tau_prime": 854, "eta": 10387},
    "hamming-5-1": {"tau": 12072, "tau_prime": 4385, "eta": 267694},
    "hamming-6-1": {"tau": 76466, "tau_prime": 19054, "eta": 200001},
    "torus-grid-4-2": {"collapse": 63, "comatching": 136, "homology": 79, "leray": 74270},
    "nerve-hamming-4-1": {
        "collapse": 112, "comatching": 312, "homology": 161, "leray": 295684,
    },
}


def random_key(i: int) -> str:
    return f"random-{i:03d}"


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    """Write the workload's input files into workdir; return its calls.

    comatch is imported here, not at module level, because the set-up
    measurement re-imports the package and this must use the fresh copy.
    """
    from comatch import cli, jsonio, randsys

    def generate(key: str, *params: object) -> str:
        path = str(workdir / f"{key}.json")
        code = cli.main(["generate", *map(str, params), "--out", path])
        if code != 0:
            raise RuntimeError(f"comatch generate {params} exited {code}")
        return path

    if workload == "sets":
        named = [(f"cycle-sharpness-{m}", ("cycle-sharpness", m)) for m in (3, 4, 5)]
        named += [(f"hamming-{n}-1", ("hamming", n, 1)) for n in (4, 5)]
        calls = [Call(key, "analyze", generate(key, *params)) for key, params in named]
        rng = random.Random(seed)
        for i in range(RANDOM_SYSTEMS):
            path = workdir / f"{random_key(i)}.json"
            doc = jsonio.set_system_to_doc(randsys.random_system(rng, 7, 7))
            path.write_text(jsonio.dump_canonical(doc))
            calls.append(Call(random_key(i), "analyze", str(path)))
        return calls
    if workload == "hamming6-budget":
        path = generate("hamming-6-1", "hamming", 6, 1)
        return [Call("hamming-6-1", "analyze", path, ("--budget-nodes", "200000"))]
    if workload == "complexes":
        torus = generate("torus-grid-4-2", "torus-grid", 4, 2)
        system = generate("hamming-4-1", "hamming", 4, 1)
        nerve = str(workdir / "nerve-hamming-4-1.json")
        code = cli.main(["nerve", system, "--out", nerve])
        if code != 0:
            raise RuntimeError(f"comatch nerve exited {code}")
        return [
            Call("torus-grid-4-2", "analyze", torus),
            Call("nerve-hamming-4-1", "analyze", nerve),
        ]
    if workload == "join-homology":
        path = generate("good-join-2", "good-join", 2)
        return [
            Call("good-join-2", "homology", path, ("--arith", "exact")),
            Call(
                "good-join-2-prime", "homology", path, ("--arith", "prime"), "good-join-2"
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
