"""Command-line front end.

Subcommands: analyze, generate, nerve, homology, collapse, leray,
dichotomy, check-theorems, question1, verify.  Shared flags (--seed,
--budget-nodes, --budget-ms, --arith, --cap-ground, --cap-vertices,
--out) can also be set through COMATCH_* environment variables; explicit
flags win.

Exit codes: 0 success, 1 invariant or suite failure, 2 input error,
3 budget exhaustion where the command needed an exact answer: homology,
collapse and leray, whose document then reads "status": "budget_exhausted".

Reports are deterministic: identical configuration and seed produce
byte-identical output.  Wall-clock timing is therefore opt-in
(--wall-clock); the default timing section carries search-node counters
only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import constructions, jsonio
from .core import (
    Comatching,
    ComatchingWithIntersection,
    InputError,
    SetSystem,
    Verdict,
    intersect_subfamily,
    intersection_mask,
    verify_comatching,
    verify_comatching_with_intersection,
)
from .search import (
    DichotomyOutcome,
    SearchBudget,
    colorful_helly_number,
    colorful_transversal_dichotomy,
    comatching_number,
    comatching_with_intersection_number,
    instance_admits_empty_transversal,
    minimal_empty_subfamilies,
)
from .randsys import random_complex, random_refutable_instance, random_system
from .simplicial import (
    ComplexComatching,
    SimplicialComplex,
    complex_comatching_number,
    complex_to_set_system,
    induced_subcomplex,
    nerve,
    verify_complex_comatching,
)
from .topology import (
    ARITH_MODES,
    CollapseSequence,
    HomologyProfile,
    LerayVerdict,
    is_d_collapsible,
    kunneth_betti_check,
    leray_check,
    leray_number,
    reduced_betti,
    replay_collapse_sequence,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

ENV_PREFIX = "COMATCH_"
REPORT_SCHEMA = "comatch-report/1"


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output, and nothing else."""

    seed: int = 0
    budget_nodes: Optional[int] = 2_000_000
    budget_millis: Optional[int] = 120_000
    arith: str = "exact"
    cap_ground: int = 4096
    cap_vertices: int = 64
    out: Optional[str] = None
    wall_clock: bool = False

    def __post_init__(self) -> None:
        if self.arith not in ARITH_MODES:
            raise InputError(f"unknown arithmetic mode {self.arith!r}")

    def budget(self) -> SearchBudget:
        return SearchBudget(self.budget_nodes, self.budget_millis)

    def doc(self) -> dict:
        return {
            "seed": self.seed,
            "budget_nodes": self.budget_nodes,
            "budget_millis": self.budget_millis,
            "arith": self.arith,
            "cap_ground": self.cap_ground,
            "cap_vertices": self.cap_vertices,
        }


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise InputError(f"bad value for {ENV_PREFIX}{name}: {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget-nodes", type=int, default=None)
    parser.add_argument("--budget-ms", type=int, default=None)
    parser.add_argument("--arith", choices=ARITH_MODES, default=None)
    parser.add_argument("--cap-ground", type=int, default=None)
    parser.add_argument("--cap-vertices", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--wall-clock", action="store_true")


def _config(args: argparse.Namespace) -> RunConfig:
    def pick(flag, env_name, cast, fallback):
        return flag if flag is not None else _env(env_name, cast, fallback)

    return RunConfig(
        seed=pick(args.seed, "SEED", int, RunConfig.seed),
        budget_nodes=pick(args.budget_nodes, "BUDGET_NODES", int, RunConfig.budget_nodes),
        budget_millis=pick(args.budget_ms, "BUDGET_MS", int, RunConfig.budget_millis),
        arith=pick(args.arith, "ARITH", str, RunConfig.arith),
        cap_ground=pick(args.cap_ground, "CAP_GROUND", int, RunConfig.cap_ground),
        cap_vertices=pick(args.cap_vertices, "CAP_VERTICES", int, RunConfig.cap_vertices),
        out=pick(args.out, "OUT", str, RunConfig.out),
        wall_clock=args.wall_clock,
    )


def _load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _emit(doc: dict, cfg_out: Optional[str]) -> None:
    text = jsonio.dump_canonical(doc)
    if cfg_out:
        with open(cfg_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(path: str, config: RunConfig) -> dict:
    doc = _load_doc(path)
    kind = jsonio.detect_kind(doc)
    started = time.monotonic()
    if kind == "set_system":
        system = jsonio.set_system_from_doc(doc)
        if system.num_points > config.cap_ground:
            raise InputError(
                f"ground size {system.num_points} exceeds cap {config.cap_ground}"
            )
        report = _analyze_system(system, config)
    elif kind == "complex":
        complex_, notes = jsonio.complex_from_doc(doc)
        if complex_.num_vertices > config.cap_vertices:
            raise InputError(
                f"vertex count {complex_.num_vertices} exceeds cap {config.cap_vertices}"
            )
        report = _analyze_complex(complex_, config)
        if notes:
            report["loader_notes"] = notes
    else:
        raise InputError("analyze expects a set system or a complex document")
    report["schema"] = REPORT_SCHEMA
    report["input"] = path
    report["config"] = config.doc()
    if config.wall_clock:
        report["timing"]["wall_ms"] = int((time.monotonic() - started) * 1000)
    return report


def _analyze_system(system: SetSystem, config: RunConfig) -> dict:
    clocks = {name: config.budget().clock() for name in ("tau", "tau_prime", "eta")}
    minimal = minimal_empty_subfamilies(system)
    h = max((len(s) for s in minimal), default=1)
    tau, tau_cert, tau_exact = comatching_number(system, clocks["tau"])
    taup, taup_cert, taup_exact = comatching_with_intersection_number(
        system, clocks["tau_prime"]
    )
    if minimal and (tau < h or taup < h - 1):
        # Only a search that ran out of budget ends below these bounds; it
        # reports the bound instead, still inexact.
        bound, bound_prime = _helly_bound_certificates(
            system, next(s for s in minimal if len(s) == h)
        )
        if tau < h:
            tau, tau_cert = h, bound
        if taup < h - 1:
            taup, taup_cert = h - 1, bound_prime
    eta, eta_exact, refuting = colorful_helly_number(
        system,
        clocks["eta"],
        tau_prime=taup if taup_exact else None,
        minimal=minimal,
    )

    if not verify_comatching(system, tau_cert).ok:
        raise AssertionError("internal: comatching certificate failed re-verification")
    if taup_cert is not None and not verify_comatching_with_intersection(
        system, taup_cert
    ).ok:
        raise AssertionError("internal: tau' certificate failed re-verification")

    certificates = {"comatching": jsonio.certificate_to_doc(tau_cert, system=system)}
    if taup_cert is not None:
        certificates["comatching_with_intersection"] = jsonio.certificate_to_doc(
            taup_cert, system=system
        )
    if refuting is not None:
        certificates["refuting_instance"] = {
            "kind": "refuting_instance",
            **jsonio.instance_to_doc(refuting, system),
        }
    return {
        "kind": "set_system",
        "results": {
            "num_points": system.num_points,
            "num_members": system.num_members,
            "comatching_number": {"value": tau, "exact": tau_exact},
            "comatching_with_intersection_number": {
                "value": taup,
                "exact": taup_exact,
            },
            "helly_number": h,
            "colorful_helly_number": {"value": eta, "exact": eta_exact},
            "minimal_empty_subfamily_count": len(minimal),
        },
        "certificates": certificates,
        "timing": {"nodes": {name: clock.nodes for name, clock in clocks.items()}},
    }


def _helly_bound_certificates(
    system: SetSystem, largest: frozenset[int]
) -> tuple[Comatching, Optional[ComatchingWithIntersection]]:
    """Certificates of tau >= h and tau' >= h - 1 from a minimal empty
    subfamily S of size h (None for the second when h < 2).

    By minimality, for each F in S the intersection of S - {F} has a point
    outside F; the lowest one, x_F, lies in every other member of S.  So
    the pairs (x_F, F) form a comatching, and dropping the last pair leaves
    members that share its point.
    """
    members = sorted(largest)
    pairs = []
    for f in members:
        free = intersection_mask(system, [g for g in members if g != f])
        free &= ~system.masks[f]
        pairs.append(((free & -free).bit_length() - 1, f))
    if len(pairs) < 2:
        return Comatching(tuple(pairs)), None
    common = pairs[-1][0]
    return Comatching(tuple(pairs)), ComatchingWithIntersection(
        Comatching(tuple(pairs[:-1])), common
    )


def _analyze_complex(complex_: SimplicialComplex, config: RunConfig) -> dict:
    clocks = {
        name: config.budget().clock()
        for name in ("comatching", "homology", "leray", "collapse")
    }
    tau_k, cert, tau_exact = complex_comatching_number(complex_, clocks["comatching"])
    if not verify_complex_comatching(complex_, cert).ok:
        raise AssertionError("internal: complex comatching certificate failed")
    profile_doc = _profile_doc(reduced_betti(complex_, config.arith, clocks["homology"]))

    leray_value, leray_exact, witness = leray_number(complex_, clocks["leray"])
    collapse_status, sequence = is_d_collapsible(
        complex_, max(leray_value, 1), clocks["collapse"]
    )
    certificates = {
        "complex_comatching": jsonio.certificate_to_doc(cert, complex_=complex_)
    }
    if witness is not None:
        certificates["leray_witness"] = jsonio.certificate_to_doc(
            witness, complex_=complex_
        )
    if sequence is not None:
        if not replay_collapse_sequence(complex_, sequence).ok:
            raise AssertionError("internal: collapse sequence failed replay")
        certificates["collapse_sequence"] = jsonio.certificate_to_doc(
            sequence, complex_=complex_
        )
    return {
        "kind": "complex",
        "results": {
            "num_vertices": complex_.num_vertices,
            "num_facets": len(complex_.facets),
            "dim": complex_.dim,
            "comatching_number": {"value": tau_k, "exact": tau_exact},
            "reduced_betti": profile_doc,
            "leray_number": {"value": leray_value, "exact": leray_exact},
            "collapsible_at_leray_number": collapse_status,
        },
        "certificates": certificates,
        "timing": {"nodes": {name: clock.nodes for name, clock in clocks.items()}},
    }


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace, config: RunConfig) -> dict:
    name = args.construction
    if name == "cycle-sharpness":
        m = _require_param(args, 0, "M")
        system = constructions.gen_cycle_sharpness(m)
        doc = jsonio.set_system_to_doc(system)
        claims = {"comatching_number": 4 * m // 3}
        if m <= 4:
            claims["comatching_with_intersection_number"] = m
            claims["colorful_helly_number"] = m + 1
        params = {"M": m}
    elif name == "hamming":
        n = _require_param(args, 0, "n")
        t = _require_param(args, 1, "t")
        q = _require_param(args, 2, "q", default=2)
        system = constructions.gen_hamming_system(n, t, q)
        doc = jsonio.set_system_to_doc(system)
        claims = {"ball_radius": t, "word_length": n, "alphabet": q}
        params = {"n": n, "t": t, "q": q}
    elif name == "circles":
        _, system = constructions.gen_circle_config()
        doc = jsonio.set_system_to_doc(system)
        claims = {"comatching_number": 4, "comatching_with_intersection_number": 3}
        params = {}
    elif name == "poly":
        d = _require_param(args, 0, "d")
        cap = _require_param(args, 1, "D")
        pc = constructions.gen_poly_comatching(d, cap, seed=config.seed)
        doc = _poly_to_doc(pc)
        claims = {"size": len(pc.polynomials)}
        params = {"d": d, "D": cap}
    elif name == "torus-grid":
        k = _require_param(args, 0, "k", default=4)
        s = _require_param(args, 1, "s", default=2)
        complex_ = constructions.gen_torus_grid_complex(k, s)
        doc = jsonio.complex_to_doc(complex_)
        claims = {"vertices": k * k, "facets": k * k}
        if (k, s) == (4, 2):
            claims["reduced_betti"] = [0, 2, 1, 0]
            claims["comatching_number"] = 2
        params = {"k": k, "s": s}
    elif name == "good-join":
        fold = _require_param(args, 0, "fold", default=2)
        complex_ = constructions.gen_good_join_complex(fold)
        doc = jsonio.complex_to_doc(complex_)
        claims = {"good_dimension": 3 * fold - 1}
        params = {"fold": fold}
    else:
        raise InputError(f"unknown construction {name!r}")
    doc["provenance"] = {
        "generator": name,
        "parameters": params,
        "claims": claims,
    }
    return doc


def _require_param(args, index: int, name: str, default: Optional[int] = None) -> int:
    if len(args.params) > index:
        try:
            return int(args.params[index])
        except ValueError:
            raise InputError(f"parameter {name} must be an integer") from None
    if default is not None:
        return default
    raise InputError(f"construction {args.construction!r} needs parameter {name}")


def _poly_to_doc(pc) -> dict:
    return {
        "num_vars": pc.num_vars,
        "degree_cap": pc.degree_cap,
        "polynomials": [
            [
                {"exponents": list(exps), "coefficient": str(coeff)}
                for exps, coeff in poly
            ]
            for poly in pc.polynomials
        ],
        "points": [[str(x) for x in point] for point in pc.points],
    }


# ---------------------------------------------------------------------------
# single-purpose subcommands
# ---------------------------------------------------------------------------


def cmd_nerve(path: str, config: RunConfig) -> dict:
    system = jsonio.set_system_from_doc(_load_doc(path))
    return jsonio.complex_to_doc(nerve(system))


def _profile_doc(profile: Optional[HomologyProfile]) -> dict:
    if profile is None:
        return {"status": "budget_exhausted"}
    return jsonio.profile_to_doc(profile)


def cmd_homology(path: str, config: RunConfig) -> tuple[dict, int]:
    complex_, _ = jsonio.complex_from_doc(_load_doc(path))
    profile = reduced_betti(complex_, config.arith, config.budget())
    return _profile_doc(profile), EXIT_BUDGET if profile is None else EXIT_OK


def cmd_collapse(path: str, d: int, strict: bool, config: RunConfig) -> tuple[dict, int]:
    complex_, _ = jsonio.complex_from_doc(_load_doc(path))
    status, sequence = is_d_collapsible(
        complex_, d, config.budget(), strict_size=strict
    )
    doc: dict = {"d": d, "status": status}
    if sequence is not None:
        doc["certificate"] = jsonio.certificate_to_doc(sequence, complex_=complex_)
    return doc, EXIT_BUDGET if status == "budget_exhausted" else EXIT_OK


def cmd_leray(path: str, d: int, config: RunConfig) -> tuple[dict, int]:
    complex_, _ = jsonio.complex_from_doc(_load_doc(path))
    verdict = leray_check(complex_, d, config.budget())
    doc: dict = {"d": d, "status": verdict.status}
    if verdict.witness is not None:
        doc["witness"] = jsonio.certificate_to_doc(verdict, complex_=complex_)
    return doc, EXIT_BUDGET if verdict.status == "budget_exhausted" else EXIT_OK


def cmd_dichotomy(system_path: str, instance_path: str, config: RunConfig) -> dict:
    system = jsonio.set_system_from_doc(_load_doc(system_path))
    instance = jsonio.instance_from_doc(_load_doc(instance_path), system)
    outcome = colorful_transversal_dichotomy(system, instance)
    doc = jsonio.certificate_to_doc(outcome, system=system)
    doc["instance"] = jsonio.instance_to_doc(instance, system)
    if outcome.is_transversal:
        if intersect_subfamily(system, outcome.transversal):
            raise AssertionError("internal: transversal arm fails re-verification")
    else:
        if not verify_comatching_with_intersection(system, outcome.witness).ok:
            raise AssertionError("internal: witness arm fails re-verification")
    return doc


# ---------------------------------------------------------------------------
# check-theorems
# ---------------------------------------------------------------------------


def cmd_check_theorems(config: RunConfig, n_systems: int = 120) -> tuple[dict, int]:
    """Randomized invariant suites over seeded systems and complexes.

    Covers: certificate validity, tau' in {tau-1, tau}, the chain
    h <= eta <= 1 + tau' <= 1 + tau, eta = tau when tau' = tau - 1,
    dichotomy soundness, prime-field/rational homology agreement, the
    join profile identity, and collapsibility of the nerve bounding the
    colorful Helly number.  Nonzero exit on any violation.
    """
    rng = random.Random(config.seed)
    budget = config.budget()
    violations: list[str] = []
    checked = 0
    skipped = 0
    for index in range(n_systems):
        system = random_system(rng, 7, 7)
        tau, tau_cert, e1 = comatching_number(system, budget)
        taup, taup_cert, e2 = comatching_with_intersection_number(system, budget)
        minimal = minimal_empty_subfamilies(system)
        h = max((len(s) for s in minimal), default=1)
        # No tau_prime here: eta is searched without the 1 + tau' cap, so the
        # eta <= 1 + tau' check below stays an independent test of the theorem.
        eta, e3, refuting = colorful_helly_number(system, budget, minimal=minimal)
        if not (e1 and e2 and e3):
            skipped += 1
            continue
        checked += 1
        tag = f"system {index} (seed {config.seed})"
        if not verify_comatching(system, tau_cert).ok:
            violations.append(f"{tag}: comatching certificate invalid")
        if taup_cert is not None and not verify_comatching_with_intersection(
            system, taup_cert
        ).ok:
            violations.append(f"{tag}: comatching-with-intersection certificate invalid")
        if taup not in (tau - 1, tau):
            violations.append(f"{tag}: tau'={taup} outside {{tau-1, tau}} with tau={tau}")
        if eta > 1 + taup:
            violations.append(f"{tag}: eta={eta} exceeds 1 + tau'={1 + taup}")
        if eta > 1 + tau:
            violations.append(f"{tag}: eta={eta} exceeds 1 + tau={1 + tau}")
        if h > eta:
            violations.append(f"{tag}: helly={h} exceeds eta={eta}")
        if taup == tau - 1 and eta != tau:
            violations.append(f"{tag}: tau'=tau-1 but eta={eta} != tau={tau}")
        instance = random_refutable_instance(rng, system)
        if instance is not None:
            outcome = colorful_transversal_dichotomy(system, instance)
            if outcome.is_transversal:
                if intersect_subfamily(system, outcome.transversal):
                    violations.append(f"{tag}: dichotomy transversal not empty")
            else:
                if not verify_comatching_with_intersection(system, outcome.witness).ok:
                    violations.append(f"{tag}: dichotomy witness invalid")
                if len(outcome.witness) != len(instance):
                    violations.append(f"{tag}: witness size mismatch")
                if len(instance) > taup:
                    violations.append(
                        f"{tag}: witness arm on {len(instance)} positions > tau'={taup}"
                    )

    complexes_checked = 0
    for index in range(max(10, n_systems // 4)):
        tag = f"complex {index} (seed {config.seed})"
        complex_ = random_complex(rng, 5, 4)
        exact_profile = reduced_betti(complex_, "exact")
        prime_profile = reduced_betti(complex_, "prime")
        complexes_checked += 1
        if exact_profile.reduced_betti != prime_profile.reduced_betti:
            violations.append(
                f"{tag}: prime-field profile {prime_profile.reduced_betti} "
                f"disagrees with exact {exact_profile.reduced_betti} (torsion?)"
            )
        other = random_complex(rng, 4, 3)
        kv = kunneth_betti_check(complex_, other, budget)
        if kv.status == "mismatch":
            violations.append(f"{tag}: join profile identity fails: {kv.violations}")

        system = random_system(rng, 5, 5)
        if any(not elems for _, elems in system.members):
            continue
        nerve_complex = nerve(system)
        eta, eta_exact, _ = colorful_helly_number(system, budget)
        if not eta_exact:
            continue
        for d in (1, 2, 3):
            status, _ = is_d_collapsible(nerve_complex, d, SearchBudget(max_nodes=20_000))
            if status == "proved":
                if eta > d + 1:
                    violations.append(
                        f"{tag}: nerve {d}-collapsible but eta={eta} > {d + 1}"
                    )
                if leray_check(nerve_complex, d).status != "holds":
                    violations.append(
                        f"{tag}: nerve {d}-collapsible but not {d}-Leray"
                    )
                break

    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "theorem-suite",
        "config": config.doc(),
        "systems_checked": checked,
        "systems_skipped_inexact": skipped,
        "complexes_checked": complexes_checked,
        "violations": violations,
    }
    return doc, EXIT_OK if not violations else EXIT_FAILURE


# ---------------------------------------------------------------------------
# question1
# ---------------------------------------------------------------------------


def cmd_question1(
    config: RunConfig, samples: int = 40, include_torus: bool = False
) -> dict:
    """Data-only experiment: Leray numbers of nerves of low-comatching systems.

    Samples random systems, keeps those with exactly-computed comatching
    number at most 2, and records the (budgeted) Leray number of each
    nerve together with the running maximum.  No assertion is made: the
    underlying question is open.
    """
    rng = random.Random(config.seed)
    budget = config.budget()
    records = []
    running_max = 0
    attempts = 0
    while len(records) < samples and attempts < samples * 50:
        attempts += 1
        system = random_system(rng, 6, 6)
        tau, _, exact = comatching_number(system, budget)
        if not exact or tau > 2:
            continue
        nerve_complex = nerve(system)
        value, value_exact, _ = leray_number(nerve_complex, budget)
        running_max = max(running_max, value)
        records.append(
            {
                "system": jsonio.set_system_to_doc(system),
                "comatching_number": {"value": tau, "exact": exact},
                "nerve_leray_number": {"value": value, "exact": value_exact},
                "running_max": running_max,
            }
        )
    if include_torus:
        torus = constructions.gen_torus_grid_complex(4, 2)
        system = complex_to_set_system(torus)
        tau, _, exact = comatching_number(system, budget)
        small_budget = SearchBudget(max_nodes=20_000, max_millis=30_000)
        value, value_exact, _ = leray_number(nerve(system), small_budget)
        running_max = max(running_max, value)
        records.append(
            {
                "system": "torus-grid conversion",
                "comatching_number": {"value": tau, "exact": exact},
                "nerve_leray_number": {"value": value, "exact": value_exact},
                "running_max": running_max,
            }
        )
    return {
        "schema": REPORT_SCHEMA,
        "kind": "question1-log",
        "config": config.doc(),
        "samples": len(records),
        "records": records,
        "max_nerve_leray_number_seen": running_max,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cert_path: str, object_path: str) -> tuple[dict, int]:
    cert_doc = _load_doc(cert_path)
    for wrapper in ("certificate", "witness"):
        if "kind" not in cert_doc and isinstance(cert_doc.get(wrapper), dict):
            cert_doc = cert_doc[wrapper]
    obj_doc = _load_doc(object_path)
    kind = jsonio.detect_kind(obj_doc)
    system = complex_ = None
    if kind == "set_system":
        system = jsonio.set_system_from_doc(obj_doc)
    elif kind == "complex":
        complex_, _ = jsonio.complex_from_doc(obj_doc)
    else:
        raise InputError("verify needs a set system or complex as the object")

    cert_kind = cert_doc.get("kind")
    if cert_kind == "refuting_instance":
        if system is None:
            raise InputError("a refuting instance certifies against a set system")
        instance = jsonio.instance_from_doc(cert_doc, system)
        instance.validate(system)
        ok = not instance_admits_empty_transversal(system, instance)
        detail = "no transversal empties" if ok else "an empty transversal exists"
        return {"verified": ok, "kind": cert_kind, "detail": detail}, (
            EXIT_OK if ok else EXIT_FAILURE
        )

    cert = jsonio.certificate_from_doc(cert_doc, system=system, complex_=complex_)
    if isinstance(cert, Comatching):
        verdict = verify_comatching(system, cert)
    elif isinstance(cert, ComatchingWithIntersection):
        verdict = verify_comatching_with_intersection(system, cert)
    elif isinstance(cert, ComplexComatching):
        verdict = verify_complex_comatching(complex_, cert)
    elif isinstance(cert, CollapseSequence):
        verdict = replay_collapse_sequence(complex_, cert)
    elif isinstance(cert, DichotomyOutcome):
        problems = []
        if intersect_subfamily(system, cert.transversal):
            problems.append("transversal intersection is nonempty")
        if "instance" in cert_doc:
            instance = jsonio.instance_from_doc(cert_doc["instance"], system)
            if len(instance.families) != len(cert.transversal):
                problems.append("transversal length does not match the instance")
            for k, (j, fam) in enumerate(zip(cert.transversal, instance.families)):
                if j not in fam:
                    problems.append(f"position {k} picks a member outside its family")
        verdict = Verdict.passed() if not problems else Verdict.failed(problems)
    elif isinstance(cert, LerayVerdict):
        verdict = _verify_leray_witness(complex_, cert)
    else:
        raise InputError(f"cannot verify certificate kind {cert_kind!r}")
    doc = {"verified": verdict.ok, "kind": cert_kind}
    if not verdict.ok:
        doc["violations"] = list(verdict.violations)
    return doc, EXIT_OK if verdict.ok else EXIT_FAILURE


def _verify_leray_witness(complex_: SimplicialComplex, cert: LerayVerdict):
    vertices, dim = cert.witness
    sub = induced_subcomplex(complex_, vertices)
    profile = reduced_betti(sub, "exact")
    if dim < cert.d:
        return Verdict.failed(
            [f"witness dimension {dim} is below the Leray threshold {cert.d}"]
        )
    if dim < len(profile.reduced_betti) and profile.reduced_betti[dim] != 0:
        return Verdict.passed()
    return Verdict.failed(
        [
            f"induced subcomplex on {len(vertices)} vertices has trivial reduced "
            f"homology in dimension {dim}"
        ]
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comatch",
        description="Exact Helly-type invariants of finite set systems and complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a system or complex")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("generate", help="emit a named construction as JSON")
    p.add_argument(
        "construction",
        choices=(
            "cycle-sharpness",
            "hamming",
            "circles",
            "poly",
            "torus-grid",
            "good-join",
        ),
    )
    p.add_argument("params", nargs="*")
    _add_common(p)

    p = sub.add_parser("nerve", help="nerve complex of a set system")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("homology", help="reduced Betti numbers of a complex")
    p.add_argument("path")
    _add_common(p)

    p = sub.add_parser("collapse", help="search for a d-collapse sequence")
    p.add_argument("path")
    p.add_argument("d", type=int)
    p.add_argument("--strict-size", action="store_true")
    _add_common(p)

    p = sub.add_parser("leray", help="check the d-Leray property")
    p.add_argument("path")
    p.add_argument("d", type=int)
    _add_common(p)

    p = sub.add_parser("dichotomy", help="empty transversal or full-size witness")
    p.add_argument("system_path")
    p.add_argument("instance_path")
    _add_common(p)

    p = sub.add_parser("check-theorems", help="randomized invariant suites")
    p.add_argument("--systems", type=int, default=120)
    _add_common(p)

    p = sub.add_parser("question1", help="Leray numbers of low-comatching nerves")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--include-torus", action="store_true")
    _add_common(p)

    p = sub.add_parser("verify", help="replay a certificate against its object")
    p.add_argument("certificate_path")
    p.add_argument("object_path")
    _add_common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
        code = EXIT_OK
        if args.command == "analyze":
            doc = cmd_analyze(args.path, config)
        elif args.command == "generate":
            doc = cmd_generate(args, config)
        elif args.command == "nerve":
            doc = cmd_nerve(args.path, config)
        elif args.command == "homology":
            doc, code = cmd_homology(args.path, config)
        elif args.command == "collapse":
            doc, code = cmd_collapse(args.path, args.d, args.strict_size, config)
        elif args.command == "leray":
            doc, code = cmd_leray(args.path, args.d, config)
        elif args.command == "dichotomy":
            doc = cmd_dichotomy(args.system_path, args.instance_path, config)
        elif args.command == "check-theorems":
            doc, code = cmd_check_theorems(config, args.systems)
        elif args.command == "question1":
            doc = cmd_question1(config, args.samples, args.include_torus)
        elif args.command == "verify":
            doc, code = cmd_verify(args.certificate_path, args.object_path)
        else:  # pragma: no cover
            parser.error(f"unhandled command {args.command}")
        _emit(doc, config.out)
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
