"""Reference and certificate gate for comatch reports.

Each reported invariant value is classed as ``exact`` (flagged exact and
equal to its reference), ``inexact`` (an honest lower bound at or below
its reference, or a ``budget_exhausted`` status) or ``wrong``.  Each
certificate must match the value it certifies and replay through
``comatch verify``.  Every wrong value and every bad certificate is one
problem; a run's ``wrong_results`` is their count.

comatch is imported inside the functions, not at module level, because
the set-up measurement re-imports the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import workloads


@dataclass
class Outcome:
    values: list[str] = field(default_factory=list)  # one status per value
    problems: list[str] = field(default_factory=list)


def _lower_bound(out: Outcome, name: str, result: dict, reference: int) -> None:
    """Class a value that, when flagged inexact, is a certified lower bound."""
    value = result["value"]
    if result["exact"] and value == reference:
        out.values.append("exact")
    elif not result["exact"] and value <= reference:
        out.values.append("inexact")
    else:
        flag = "exact" if result["exact"] else "inexact"
        out.problems.append(f"{name}: {flag} value {value}, reference {reference}")
        out.values.append("wrong")


def _status(out: Outcome, name: str, found, reference) -> None:
    """Class a value whose only inexact form is a budget_exhausted status."""
    if found == "budget_exhausted":
        out.values.append("inexact")
    elif found == reference:
        out.values.append("exact")
    else:
        out.problems.append(f"{name}: {found}, reference {reference}")
        out.values.append("wrong")


def _equal(out: Outcome, name: str, found, reference) -> None:
    if found != reference:
        out.problems.append(f"{name}: {found}, reference {reference}")


def _certificate(
    out: Outcome, certs: dict, kind: str, expected, measure: Callable[[dict], object]
) -> None:
    """A certificate is present exactly when expected is not None, and
    measure(certificate) must equal expected."""
    if expected is None:
        if kind in certs:
            out.problems.append(f"certificate {kind}: present for a value it cannot certify")
    elif kind not in certs:
        out.problems.append(f"certificate {kind}: missing")
    elif measure(certs[kind]) != expected:
        out.problems.append(
            f"certificate {kind}: certifies {measure(certs[kind])}, report says {expected}"
        )


def _pairs(cert: dict) -> int:
    return len(cert["pairs"])


def check_system(report: dict, ref: dict) -> Outcome:
    """Values: tau, tau' and eta; h and the minimal-empty count must match."""
    out = Outcome()
    res, certs = report["results"], report["certificates"]
    tau = res["comatching_number"]
    taup = res["comatching_with_intersection_number"]
    eta = res["colorful_helly_number"]
    _lower_bound(out, "tau", tau, ref["tau"])
    _lower_bound(out, "tau_prime", taup, ref["tau_prime"])
    _lower_bound(out, "eta", eta, ref["eta"])
    _equal(out, "helly_number", res["helly_number"], ref["helly"])
    _equal(out, "minimal_empty_subfamily_count", res["minimal_empty_subfamily_count"],
           ref["minimal_empty"])
    _certificate(out, certs, "comatching", tau["value"], _pairs)
    _certificate(out, certs, "comatching_with_intersection",
                 taup["value"] or None, _pairs)
    # A refuting instance of size N proves eta >= N + 1.
    _certificate(out, certs, "refuting_instance",
                 eta["value"] if eta["value"] >= 2 else None,
                 lambda cert: len(cert["families"]) + 1)
    return out


def check_complex(report: dict, ref: dict) -> Outcome:
    """Values: complex tau, Betti profile, Leray number, collapse status."""
    out = Outcome()
    res, certs = report["results"], report["certificates"]
    tau, leray = res["comatching_number"], res["leray_number"]
    _lower_bound(out, "complex tau", tau, ref["tau"])
    profile = res["reduced_betti"]
    if "reduced_betti" in profile and not profile["exact"]:
        out.problems.append("reduced_betti: exact arithmetic flagged inexact")
    _status(out, "reduced_betti", profile.get("reduced_betti", profile.get("status")),
            ref["betti"])
    _lower_bound(out, "leray_number", leray, ref["leray"])
    status = res["collapsible_at_leray_number"]
    _status(out, "collapse", status, ref["collapse"])
    _certificate(out, certs, "complex_comatching", tau["value"], _pairs)
    # A witness that the complex is not (L-1)-Leray proves L is a lower bound.
    _certificate(out, certs, "leray_witness",
                 leray["value"] - 1 if leray["value"] >= 1 else None,
                 lambda cert: cert["d"])
    _certificate(out, certs, "collapse_sequence",
                 max(leray["value"], 1) if status == "proved" else None,
                 lambda cert: cert["d"])
    return out


def check_homology(report: dict, ref: list[int], prime: bool) -> Outcome:
    """Value: the Betti profile.  Prime-field profiles are flagged non-exact
    by design, which is not a failure; their numbers must still equal the
    exact reference."""
    out = Outcome()
    _status(out, "reduced_betti", report["reduced_betti"], ref)
    if report["exact"] is prime:
        out.problems.append(f"homology: exact flag {report['exact']} in "
                            f"{'prime' if prime else 'exact'} mode")
    return out


def values_per_call(call: workloads.Call) -> int:
    if call.command == "homology":
        return 1
    return 4 if call.ref_key in workloads.COMPLEX_REFERENCES else 3


def check(call: workloads.Call, report: dict, reference) -> Outcome:
    if call.command == "homology":
        return check_homology(report, reference, "prime" in call.flags)
    if report.get("kind") == "set_system":
        return check_system(report, reference)
    return check_complex(report, reference)


def replay(call: workloads.Call, report: dict, workdir: Path) -> list[str]:
    """Replay every certificate of the report through ``comatch verify``."""
    from comatch import cli

    problems = []
    for kind, cert in sorted(report.get("certificates", {}).items()):
        cert_path = workdir / f"{call.key}.{kind}.cert.json"
        verdict_path = workdir / f"{call.key}.{kind}.verdict.json"
        cert_path.write_text(json.dumps(cert))
        try:
            code = cli.main(["verify", str(cert_path), call.path, "--out", str(verdict_path)])
        except Exception as exc:  # a malformed certificate must not stop the run
            code = repr(exc)
        verdict = json.loads(verdict_path.read_text()) if code == 0 else {}
        if not verdict.get("verified"):
            problems.append(f"certificate {kind}: comatch verify exited {code}, {verdict}")
    return problems


def oracle_reference(path: str) -> dict:
    """Reference values of a small system from the naive oracles in
    tests/oracles.py, which share no code with the library's searches."""
    import oracles
    from comatch import jsonio

    system = jsonio.set_system_from_doc(json.loads(Path(path).read_text()))
    # eta <= 1 + tau' <= 8 on 7x7 systems; the cap only has to exceed that.
    return dict(
        tau=oracles.oracle_comatching_number(system)[0],
        tau_prime=oracles.oracle_comatching_with_intersection_number(system)[0],
        helly=oracles.oracle_helly_number(system),
        eta=oracles.oracle_colorful_helly_number(system, max_n=9),
        minimal_empty=len(oracles.oracle_minimal_empty_subfamilies(system)),
    )


def reference_for(call: workloads.Call):
    if call.ref_key in workloads.SYSTEM_REFERENCES:
        return workloads.SYSTEM_REFERENCES[call.ref_key]
    if call.ref_key in workloads.COMPLEX_REFERENCES:
        return workloads.COMPLEX_REFERENCES[call.ref_key]
    if call.ref_key in workloads.HOMOLOGY_REFERENCES:
        return workloads.HOMOLOGY_REFERENCES[call.ref_key]
    return oracle_reference(call.path)
