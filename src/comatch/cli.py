"""Command-line front end.

Subcommands: analyze, generate, nerve, homology, collapse, leray,
dichotomy, check-theorems, question1, verify.  Every subcommand takes
--out; each takes only those of --seed, --budget-nodes, --budget-ms and
--wall-clock that it reads, and any other flag is a usage error (exit
2).  Each subparser names its handler, which returns the document and
the exit code.  Flags are the only source of settings: a setting a
subcommand has no flag for keeps RunConfig's default, and no
environment variable is read; a report's config block echoes exactly
the settings its subcommand has flags for.

Exit codes: 0 success, 1 invariant or suite failure, 2 input error (an
unreadable file, an --out that cannot be written, found before any work,
and a surplus generate parameter included), 3 budget exhaustion where
the command needed an exact answer: homology, collapse and leray, whose
document then reads "status": "budget_exhausted".  collapse steps on
free faces of 1..d vertices, the one rule, after a Leray check at d on
the same budget, whose failure refutes with its leray_witness.

Reports are deterministic: a report depends only on the argv and the
input files, and identical ones produce byte-identical output.
Wall-clock timing is therefore opt-in (--wall-clock); the default timing
section carries search-node counters only.
"""

from __future__ import annotations

import argparse
import functools
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
    SearchBudget,
    SetSystem,
    Verdict,
    intersect_subfamily,
    intersection_mask,
    verify_comatching,
    verify_comatching_with_intersection,
)
from .search import (
    ColorfulInstance,
    DichotomyOutcome,
    are_automorphisms,
    colorful_helly_number,
    colorful_transversal_dichotomy,
    comatching_number,
    comatching_with_intersection_number,
    helly_number,
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
    CollapseSequence,
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

REPORT_SCHEMA = "comatch-report/2"

ANALYZE_GROUND_CAP = 4096
ANALYZE_VERTEX_CAP = 64
# The compatibility graph of n (member, point) pairs holds n(n-1)/2 bits, so
# this bounds it at about 256 MiB; Hamming(8,1) has 63,232 pairs.
ANALYZE_PAIR_CAP = 65536


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output, and nothing else."""

    seed: int = 0
    budget_nodes: Optional[int] = 2_000_000
    budget_millis: Optional[int] = 120_000
    out: Optional[str] = None
    wall_clock: bool = False

    def budget(self) -> SearchBudget:
        """A fresh budget with the run's limits, its deadline starting now."""
        return SearchBudget(self.budget_nodes, self.budget_millis)

    def doc(self, fields: tuple[str, ...]) -> dict:
        """The report's config block: the named fields and their values."""
        return {field: getattr(self, field) for field in fields}


def _capped_budget(
    config: RunConfig, max_nodes: Optional[int], max_millis: Optional[int] = None
) -> SearchBudget:
    """A fresh budget within both the given limits and the run's; None caps nothing."""
    pairs = ((max_nodes, config.budget_nodes), (max_millis, config.budget_millis))
    return SearchBudget(
        *(min((x for x in pair if x is not None), default=None) for pair in pairs)
    )


# RunConfig fields set by a flag, in help order: field, flag, type.  args
# holds each under the flag's name (budget_ms), as the usage text shows it.
_FLAGS = (
    ("seed", "--seed", int),
    ("budget_nodes", "--budget-nodes", int),
    ("budget_millis", "--budget-ms", int),
    ("out", "--out", str),
)

# The settings of analyze and of the two suites: their parsers add a flag
# for each, and their reports' config blocks echo each.
_ANALYZE_SETTINGS = ("budget_nodes", "budget_millis")
_SUITE_SETTINGS = ("seed", "budget_nodes", "budget_millis")


def _add_common(parser: argparse.ArgumentParser, *fields: str) -> None:
    """Add --out and the flags of the named RunConfig fields: the fields the
    subcommand reads.  Any other flag is a usage error."""
    for field, flag, cast in _FLAGS:
        if field == "out" or field in fields:
            parser.add_argument(flag, type=cast, default=getattr(RunConfig, field))
    if "wall_clock" in fields:
        parser.add_argument("--wall-clock", action="store_true")


def _config(args: argparse.Namespace) -> RunConfig:
    """Each field from its flag where the subcommand has one, else the default."""
    values = {}
    for field, flag, _ in _FLAGS:
        name = flag[2:].replace("-", "_")
        if hasattr(args, name):
            values[field] = getattr(args, name)
    return RunConfig(**values, wall_clock=getattr(args, "wall_clock", False))


def _load_doc(path: str) -> dict:
    """The JSON document in a UTF-8 file; failing to read it is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def _emit(doc: dict, cfg_out: Optional[str]) -> None:
    text = jsonio.dump_canonical(doc)
    if not cfg_out:
        sys.stdout.write(text)
        return
    try:
        with open(cfg_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {cfg_out}: {exc.strerror}") from None


def _check_writable(path: str) -> None:
    """Fail as ``_emit`` would, before any work and creating no file: append
    to an existing ``path`` (which changes nothing), else stat its directory.
    A directory that refuses the write is still found only by ``_emit``."""
    try:
        if os.path.exists(path):
            open(path, "a", encoding="utf-8").close()
        else:  # the trailing separator makes stat fail where open would
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(path: str, config: RunConfig) -> dict:
    doc = _load_doc(path)
    kind = jsonio.detect_kind(doc)
    started = time.monotonic()
    if kind == "set_system":
        system = jsonio.set_system_from_doc(doc)
        if system.num_points > ANALYZE_GROUND_CAP:
            raise InputError(
                f"ground size {system.num_points} exceeds cap {ANALYZE_GROUND_CAP}"
            )
        pairs = sum(system.num_points - mask.bit_count() for mask in system.masks)
        if pairs > ANALYZE_PAIR_CAP:
            raise InputError(f"pair count {pairs} exceeds cap {ANALYZE_PAIR_CAP}")
        automorphisms = jsonio.automorphisms_from_doc(doc, system)
        report = _analyze_system(system, config, automorphisms)
        mismatches = _claim_mismatches(doc, report["results"])
        if mismatches:
            report["provenance_mismatches"] = mismatches
    elif kind == "complex":
        complex_, notes = jsonio.complex_from_doc(doc)
        if complex_.num_vertices > ANALYZE_VERTEX_CAP:
            raise InputError(
                f"vertex count {complex_.num_vertices} exceeds cap {ANALYZE_VERTEX_CAP}"
            )
        report = _analyze_complex(complex_, config)
        if notes:
            report["loader_notes"] = notes
    else:
        raise InputError("analyze expects a set system or a complex document")
    report["schema"] = REPORT_SCHEMA
    report["input"] = path
    report["config"] = config.doc(_ANALYZE_SETTINGS)
    if config.wall_clock:
        report["timing"]["wall_ms"] = int((time.monotonic() - started) * 1000)
    return report


def _analyze_system(
    system: SetSystem,
    config: RunConfig,
    automorphisms: Optional[tuple[tuple[int, ...], ...]],
) -> dict:
    """The report of a set system.  ``automorphisms``, the point maps the
    input lists (None when it lists none), prune tau and tau' only when
    every one passes the library's check; the report then says how many
    were listed and used."""
    budgets = {name: config.budget() for name in ("tau", "tau_prime", "eta")}
    minimal = minimal_empty_subfamilies(system)
    h = max((len(s) for s in minimal), default=1)
    used = ()
    if automorphisms and are_automorphisms(system, automorphisms):
        used = automorphisms
    tau, tau_cert, tau_exact = comatching_number(system, budgets["tau"], used)
    taup, taup_cert, taup_exact = comatching_with_intersection_number(
        system, budgets["tau_prime"], used
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
        system, budgets["eta"], tau_prime=taup if taup_exact else None
    )

    if not _check(tau_cert, system).ok:
        raise AssertionError("internal: comatching certificate failed re-verification")
    if taup_cert is not None and not _check(taup_cert, system).ok:
        raise AssertionError("internal: tau' certificate failed re-verification")

    certificates = {"comatching": jsonio.certificate_to_doc(tau_cert, system=system)}
    if taup_cert is not None:
        certificates["comatching_with_intersection"] = jsonio.certificate_to_doc(
            taup_cert, system=system
        )
    if refuting is not None:
        certificates["refuting_instance"] = jsonio.certificate_to_doc(
            refuting, system=system
        )
    report = {
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
        "timing": {"nodes": {name: budget.nodes for name, budget in budgets.items()}},
    }
    if automorphisms is not None:
        report["automorphisms"] = {"checked": len(automorphisms), "used": len(used)}
    return report


# The claims of a set system's provenance that analyze checks: each names a
# result of the report.
_CHECKED_CLAIMS = (
    "comatching_number",
    "comatching_with_intersection_number",
    "colorful_helly_number",
)


def _claim_mismatches(doc: dict, results: dict) -> list[str]:
    """Each claim in the document's ``provenance.claims`` on tau, tau' or eta
    that the exact result contradicts; an inexact result contradicts none."""
    provenance = doc.get("provenance")
    claims = provenance.get("claims") if isinstance(provenance, dict) else None
    if not isinstance(claims, dict):
        return []
    return [
        f"{name}: claimed {json.dumps(claims[name])}, computed {results[name]['value']}"
        for name in _CHECKED_CLAIMS
        if name in claims
        and results[name]["exact"]
        and claims[name] != results[name]["value"]
    ]


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
    phases = ("comatching", "homology", "leray", "collapse")
    budgets = {name: config.budget() for name in phases}
    tau_k, cert, tau_exact = complex_comatching_number(complex_, budgets["comatching"])
    if not _check(cert, complex_=complex_).ok:
        raise AssertionError("internal: complex comatching certificate failed")
    betti = reduced_betti(complex_, budgets["homology"])
    leray_value, leray_exact, witness = leray_number(complex_, budgets["leray"], betti)
    collapse_status, sequence = is_d_collapsible(
        complex_, max(leray_value, 1), budgets["collapse"]
    )
    certificates = {
        "complex_comatching": jsonio.certificate_to_doc(cert, complex_=complex_)
    }
    if witness is not None:
        certificates["leray_witness"] = jsonio.certificate_to_doc(
            witness, complex_=complex_
        )
    if sequence is not None:
        if not _check(sequence, complex_=complex_).ok:
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
            "reduced_betti": jsonio.profile_to_doc(betti),
            "leray_number": {"value": leray_value, "exact": leray_exact},
            "collapsible_at_leray_number": collapse_status,
        },
        "certificates": certificates,
        "timing": {"nodes": {name: budget.nodes for name, budget in budgets.items()}},
    }


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


# Each construction's positional parameters in order, with their defaults
# (None where the parameter is required).
_CONSTRUCTION_PARAMS = {
    "cycle-sharpness": {"M": None},
    "hamming": {"n": None, "t": None, "q": 2},
    "circles": {},
    "poly": {"d": None, "D": None},
    "torus-grid": {"k": 4, "s": 2},
    "good-join": {"fold": 2},
}


def cmd_generate(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    name = args.construction
    params = _construction_params(name, args.params)
    code = EXIT_OK
    maps = ()  # automorphisms of the generated set system, as point maps
    if name == "cycle-sharpness":
        m = params["M"]
        system = constructions.gen_cycle_sharpness(m)
        maps = constructions.cycle_sharpness_automorphisms(m)
        doc = jsonio.set_system_to_doc(system)
        claims = {"comatching_number": 4 * m // 3}
        if m <= 4:
            claims["comatching_with_intersection_number"] = m
            claims["colorful_helly_number"] = m + 1
    elif name == "hamming":
        n, t, q = params.values()
        system = constructions.gen_hamming_system(n, t, q)
        maps = constructions.hamming_automorphisms(n, q)
        doc = jsonio.set_system_to_doc(system)
        claims = {"ball_radius": t, "word_length": n, "alphabet": q}
    elif name == "circles":
        _, system = constructions.gen_circle_config()
        doc = jsonio.set_system_to_doc(system)
        claims = {"comatching_number": 4, "comatching_with_intersection_number": 3}
    elif name == "poly":
        pc = constructions.gen_poly_comatching(params["d"], params["D"], seed=config.seed)
        doc = _poly_to_doc(pc)
        claims = {"size": len(pc.polynomials)}
        verdict = constructions.verify_poly_comatching(pc)
        if not verdict.ok:
            doc["violations"] = list(verdict.violations)
            code = EXIT_FAILURE
    elif name == "torus-grid":
        k, s = params["k"], params["s"]
        doc = jsonio.complex_to_doc(constructions.gen_torus_grid_complex(k, s))
        claims = {"vertices": k * k, "facets": k * k}
        if (k, s) == (4, 2):
            claims["reduced_betti"] = [0, 2, 1, 0]
            claims["comatching_number"] = 2
    else:  # good-join: the parser admits only the table's names
        fold = params["fold"]
        doc = jsonio.complex_to_doc(constructions.gen_good_join_complex(fold))
        claims = {"good_dimension": 3 * fold - 1}
    doc["provenance"] = {"generator": name, "parameters": params, "claims": claims}
    if maps:
        doc["provenance"]["automorphisms"] = jsonio.automorphisms_to_doc(maps, system)
    return doc, code


def _construction_params(name: str, given: list[str]) -> dict[str, int]:
    """The construction's parameters by name: the given values in order,
    then the defaults of those left out."""
    defaults = _CONSTRUCTION_PARAMS[name]
    if len(given) > len(defaults):
        raise InputError(
            f"too many parameters for construction {name!r}: got {len(given)}, "
            f"it takes at most {len(defaults)} ({', '.join(defaults) or 'none'})"
        )
    params = {}
    for index, (key, default) in enumerate(defaults.items()):
        if index < len(given):
            try:
                params[key] = int(given[index])
            except ValueError:
                raise InputError(f"parameter {key} must be an integer") from None
        elif default is not None:
            params[key] = default
        else:
            raise InputError(f"construction {name!r} needs parameter {key}")
    return params


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


def cmd_nerve(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    system = jsonio.set_system_from_doc(_load_doc(args.path))
    return jsonio.complex_to_doc(nerve(system)), EXIT_OK


def cmd_homology(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    complex_, _ = jsonio.complex_from_doc(_load_doc(args.path))
    betti = reduced_betti(complex_, config.budget())
    return jsonio.profile_to_doc(betti), EXIT_BUDGET if betti is None else EXIT_OK


def cmd_collapse(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    complex_, _ = jsonio.complex_from_doc(_load_doc(args.path))
    if args.d < 1:
        raise InputError("collapse dimension must be at least 1")
    # A d-collapsible complex is d-Leray (Wegner, 1975), so a failing Leray
    # check refutes, with its witness as the certificate.
    budget = config.budget()
    verdict = leray_check(complex_, args.d, budget)
    status, cert = ("refuted", verdict) if verdict.witness else (verdict.status, None)
    if status == "holds":
        status, cert = is_d_collapsible(complex_, args.d, budget)
    doc: dict = {"d": args.d, "status": status}
    if cert is not None:
        doc["certificate"] = jsonio.certificate_to_doc(cert, complex_=complex_)
    return doc, EXIT_BUDGET if status == "budget_exhausted" else EXIT_OK


def cmd_leray(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    complex_, _ = jsonio.complex_from_doc(_load_doc(args.path))
    verdict = leray_check(complex_, args.d, config.budget())
    doc: dict = {"d": args.d, "status": verdict.status}
    if verdict.witness is not None:
        doc["witness"] = jsonio.certificate_to_doc(verdict, complex_=complex_)
    return doc, EXIT_BUDGET if verdict.status == "budget_exhausted" else EXIT_OK


def cmd_dichotomy(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    system = jsonio.set_system_from_doc(_load_doc(args.system_path))
    instance = jsonio.instance_from_doc(_load_doc(args.instance_path), system)
    outcome = colorful_transversal_dichotomy(system, instance)
    doc = jsonio.certificate_to_doc(outcome, system=system)
    doc["instance"] = jsonio.instance_to_doc(instance, system)
    if not _check(outcome, system).ok:
        raise AssertionError("internal: dichotomy outcome fails re-verification")
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# check-theorems
# ---------------------------------------------------------------------------


def cmd_check_theorems(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    """Randomized invariant suites over seeded systems and complexes.

    Covers: certificate validity, tau' in {tau-1, tau}, the chain
    h <= eta <= 1 + tau' <= 1 + tau, eta = tau when tau' = tau - 1,
    dichotomy soundness, the join profile identity, and collapsibility of
    the nerve bounding the colorful Helly number.  Nonzero exit on any
    violation.  Each search gets the run's budget; a system or complex
    counts as checked only when all its searches finished.  The dichotomy
    ends within |ground| rounds, so it needs no budget.
    """
    rng = random.Random(config.seed)
    violations: list[str] = []
    checked = 0
    skipped = 0
    for index in range(args.systems):
        system = random_system(rng, 7, 7)
        tau, tau_cert, e1 = comatching_number(system, config.budget())
        taup, taup_cert, e2 = comatching_with_intersection_number(
            system, config.budget()
        )
        h = helly_number(system)
        # No tau_prime here: eta is searched without the 1 + tau' cap, so the
        # eta <= 1 + tau' check below stays an independent test of the theorem.
        eta, e3, refuting = colorful_helly_number(system, config.budget())
        if not (e1 and e2 and e3):
            skipped += 1
            continue
        checked += 1
        tag = f"system {index} (seed {config.seed})"
        if not _check(tau_cert, system).ok:
            violations.append(f"{tag}: comatching certificate invalid")
        if taup_cert is not None and not _check(taup_cert, system).ok:
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
            verdict = _check(outcome, system, instance=instance)
            violations.extend(f"{tag}: dichotomy {v}" for v in verdict.violations)
            if not outcome.is_transversal and len(instance) > taup:
                violations.append(
                    f"{tag}: witness arm on {len(instance)} positions > tau'={taup}"
                )

    complexes_checked = 0
    for index in range(max(10, args.systems // 4)):
        tag = f"complex {index} (seed {config.seed})"
        complex_ = random_complex(rng, 5, 4)
        other = random_complex(rng, 4, 3)
        system = random_system(rng, 5, 5)
        kv = kunneth_betti_check(complex_, other, config.budget())
        finished = kv.status != "budget_exhausted"
        if kv.status == "mismatch":
            violations.append(f"{tag}: join profile identity fails: {kv.violations}")
        if any(not elems for _, elems in system.members):
            complexes_checked += finished
            continue
        nerve_complex = nerve(system)
        eta, eta_exact, _ = colorful_helly_number(system, config.budget())
        finished &= eta_exact
        for d in (1, 2, 3) if eta_exact else ():
            probe = _capped_budget(config, max_nodes=20_000)
            status, _ = is_d_collapsible(nerve_complex, d, probe)
            finished &= status != "budget_exhausted"
            if status == "proved":
                if eta > d + 1:
                    violations.append(
                        f"{tag}: nerve {d}-collapsible but eta={eta} > {d + 1}"
                    )
                leray = leray_check(nerve_complex, d, config.budget()).status
                finished &= leray != "budget_exhausted"
                if leray == "fails":
                    violations.append(f"{tag}: nerve {d}-collapsible but not {d}-Leray")
                break
        complexes_checked += finished

    doc = {
        "schema": REPORT_SCHEMA,
        "kind": "theorem-suite",
        "config": config.doc(_SUITE_SETTINGS),
        "systems_checked": checked,
        "systems_skipped_inexact": skipped,
        "complexes_checked": complexes_checked,
        "violations": violations,
    }
    return doc, EXIT_OK if not violations else EXIT_FAILURE


# ---------------------------------------------------------------------------
# question1
# ---------------------------------------------------------------------------


def cmd_question1(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    """Data-only experiment: Leray numbers of nerves of low-comatching systems.

    Samples random systems, keeps those with exactly-computed comatching
    number at most 2, and records the (budgeted) Leray number of each
    nerve together with the running maximum.  No assertion is made: the
    underlying question is open.
    """
    rng = random.Random(config.seed)
    records = []
    running_max = 0
    attempts = 0
    while len(records) < args.samples and attempts < args.samples * 50:
        attempts += 1
        system = random_system(rng, 6, 6)
        tau, _, exact = comatching_number(system, config.budget())
        if not exact or tau > 2:
            continue
        nerve_complex = nerve(system)
        value, value_exact, _ = leray_number(nerve_complex, config.budget())
        running_max = max(running_max, value)
        records.append(
            {
                "system": jsonio.set_system_to_doc(system),
                "comatching_number": {"value": tau, "exact": exact},
                "nerve_leray_number": {"value": value, "exact": value_exact},
                "running_max": running_max,
            }
        )
    if args.include_torus:
        torus = constructions.gen_torus_grid_complex(4, 2)
        system = complex_to_set_system(torus)
        tau, _, exact = comatching_number(system, config.budget())
        small_budget = _capped_budget(config, max_nodes=20_000, max_millis=30_000)
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
        "config": config.doc(_SUITE_SETTINGS),
        "samples": len(records),
        "records": records,
        "max_nerve_leray_number_seen": running_max,
    }, EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> tuple[dict, int]:
    cert_doc = _load_doc(args.certificate_path)
    for wrapper in ("certificate", "witness"):
        if isinstance(cert_doc, dict) and "kind" not in cert_doc:
            if isinstance(cert_doc.get(wrapper), dict):
                cert_doc = cert_doc[wrapper]
    obj_doc = _load_doc(args.object_path)
    kind = jsonio.detect_kind(obj_doc)
    system = complex_ = instance = None
    if kind == "set_system":
        system = jsonio.set_system_from_doc(obj_doc)
    elif kind == "complex":
        complex_, _ = jsonio.complex_from_doc(obj_doc)
    else:
        raise InputError("verify needs a set system or complex as the object")

    cert = jsonio.certificate_from_doc(cert_doc, system=system, complex_=complex_)
    if isinstance(cert, DichotomyOutcome) and "instance" in cert_doc:
        instance = jsonio.instance_from_doc(cert_doc["instance"], system)
    verdict = _check(cert, system, complex_, instance)
    doc = {"verified": verdict.ok, "kind": cert_doc["kind"]}
    if isinstance(cert, ColorfulInstance):
        doc["detail"] = "no transversal empties" if verdict.ok else verdict.violations[0]
    elif not verdict.ok:
        doc["violations"] = list(verdict.violations)
    return doc, EXIT_OK if verdict.ok else EXIT_FAILURE


def _check(cert, system=None, complex_=None, instance=None) -> Verdict:
    """Replay a certificate against its set system or complex.  A refuting
    instance passes when no transversal of it empties; a dichotomy outcome
    with its ``instance`` must also pick from each position's family."""
    if isinstance(cert, ColorfulInstance):
        cert.validate(system)
        if instance_admits_empty_transversal(system, cert):
            return Verdict.failed(["an empty transversal exists"])
        return Verdict.passed()
    if isinstance(cert, Comatching):
        return verify_comatching(system, cert)
    if isinstance(cert, ComatchingWithIntersection):
        return verify_comatching_with_intersection(system, cert)
    if isinstance(cert, ComplexComatching):
        return verify_complex_comatching(complex_, cert)
    if isinstance(cert, CollapseSequence):
        return replay_collapse_sequence(complex_, cert)
    if isinstance(cert, LerayVerdict):
        vertices, dim = cert.witness
        if dim < cert.d:
            return Verdict.failed(
                [f"witness dimension {dim} is below the Leray threshold {cert.d}"]
            )
        betti = reduced_betti(induced_subcomplex(complex_, vertices))
        if 0 <= dim < len(betti) and betti[dim] != 0:
            return Verdict.passed()
        return Verdict.failed(
            [
                f"induced subcomplex on {len(vertices)} vertices has trivial reduced "
                f"homology in dimension {dim}"
            ]
        )
    if cert.is_transversal:  # a DichotomyOutcome
        arm, members, problems = "transversal", cert.transversal, []
        if intersect_subfamily(system, members):
            problems.append("transversal intersection is nonempty")
    else:
        arm, members = "witness", cert.witness.base.member_indices
        problems = list(_check(cert.witness, system).violations)
    if instance is not None:
        if len(instance.families) != len(members):
            problems.append(f"{arm} length does not match the instance")
        for k, (j, fam) in enumerate(zip(members, instance.families)):
            if j not in fam:
                problems.append(f"position {k} picks a member outside its family")
    return Verdict.passed() if not problems else Verdict.failed(problems)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it:
    parsing leaves the parser unchanged, and building it costs far more
    than a parse."""
    parser = argparse.ArgumentParser(
        prog="comatch",
        description="Exact Helly-type invariants of finite set systems and complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a system or complex")
    p.add_argument("path")
    _add_common(p, *_ANALYZE_SETTINGS, "wall_clock")
    p.set_defaults(run=lambda args, config: (cmd_analyze(args.path, config), EXIT_OK))

    p = sub.add_parser("generate", help="emit a named construction as JSON")
    p.add_argument("construction", choices=tuple(_CONSTRUCTION_PARAMS))
    p.add_argument("params", nargs="*")
    _add_common(p, "seed")
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("nerve", help="nerve complex of a set system")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(run=cmd_nerve)

    p = sub.add_parser("homology", help="reduced Betti numbers of a complex")
    p.add_argument("path")
    _add_common(p, "budget_nodes", "budget_millis")
    p.set_defaults(run=cmd_homology)

    p = sub.add_parser("collapse", help="search for a d-collapse sequence")
    p.add_argument("path")
    p.add_argument("d", type=int)
    _add_common(p, "budget_nodes", "budget_millis")
    p.set_defaults(run=cmd_collapse)

    p = sub.add_parser("leray", help="check the d-Leray property")
    p.add_argument("path")
    p.add_argument("d", type=int)
    _add_common(p, "budget_nodes", "budget_millis")
    p.set_defaults(run=cmd_leray)

    p = sub.add_parser("dichotomy", help="empty transversal or full-size witness")
    p.add_argument("system_path")
    p.add_argument("instance_path")
    _add_common(p)
    p.set_defaults(run=cmd_dichotomy)

    p = sub.add_parser("check-theorems", help="randomized invariant suites")
    p.add_argument("--systems", type=int, default=120)
    _add_common(p, *_SUITE_SETTINGS)
    p.set_defaults(run=cmd_check_theorems)

    p = sub.add_parser("question1", help="Leray numbers of low-comatching nerves")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--include-torus", action="store_true")
    _add_common(p, *_SUITE_SETTINGS)
    p.set_defaults(run=cmd_question1)

    p = sub.add_parser("verify", help="replay a certificate against its object")
    p.add_argument("certificate_path")
    p.add_argument("object_path")
    _add_common(p)
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config(args)
    try:
        if config.out:
            _check_writable(config.out)
        doc, code = args.run(args, config)
        _emit(doc, config.out)
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
