"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 checks the cyclic sharpness systems at M = 3, 4 in two tests:
the colorful Helly number is eta = M + 1, the comatching-with-intersection
number is tau' = M, and the plain comatching number is tau = floor(4M/3).
Together eta = M + 1 = 1 + tau' shows that the bound eta <= 1 + tau' is
tight.  The upstream statement pinned "tau = M"; that is the value of
tau'.  The plain tau = floor(4M/3) exceeds M for every M >= 3.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from comatch.cli import RunConfig, cmd_analyze
from comatch.constructions import (
    gen_circle_config,
    gen_cycle_sharpness,
    gen_good_join_complex,
    gen_hamming_system,
    gen_poly_comatching,
    gen_torus_grid_complex,
    verify_poly_comatching,
)
from comatch.core import (
    Comatching,
    intersect_subfamily,
    verify_comatching,
    verify_comatching_with_intersection,
)
from comatch.jsonio import dump_canonical, set_system_to_doc
from comatch.randsys import random_refutable_instance, random_system
from comatch.search import (
    SearchBudget,
    colorful_helly_number,
    colorful_transversal_dichotomy,
    comatching_number,
    comatching_with_intersection_number,
    helly_number,
    minimal_empty_subfamilies,
)
from comatch.simplicial import (
    complex_comatching_number,
    complex_to_set_system,
    nerve,
    verify_complex_comatching,
)
from comatch.topology import (
    is_d_collapsible,
    join_profile_from_factors,
    kunneth_betti_check,
    leray_check,
    leray_number,
    reduced_betti,
)

from oracles import (
    is_d_good,
    oracle_comatching_number,
    oracle_helly_number,
    oracle_minimal_empty_subfamilies,
    same_complex,
)


@contextmanager
def criterion(number, name, limit_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - started
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its time budget: {elapsed:.1f}s >= {limit_seconds}s"
    )
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s < {limit_seconds}s)")


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_canonical(doc))
    return str(path)


def test_criterion_1_sharpness_m2_analysis(tmp_path):
    with criterion(1, "sharpness M=2 analysis", 1.0):
        path = _write(tmp_path, "m2.json", set_system_to_doc(gen_cycle_sharpness(2)))
        report = cmd_analyze(path, RunConfig())
        results = report["results"]
        assert results["comatching_number"] == {"value": 2, "exact": True}
        assert results["comatching_with_intersection_number"] == {
            "value": 2,
            "exact": True,
        }
        assert results["helly_number"] == 2
        assert results["colorful_helly_number"] == {"value": 3, "exact": True}


def test_criterion_2_sharpness_m3_m4_colorful_helly():
    with criterion(2, "sharpness M=3,4 colorful Helly number", 310.0):
        started = time.monotonic()
        eta3, exact3, _ = colorful_helly_number(gen_cycle_sharpness(3))
        assert (eta3, exact3) == (4, True)
        assert time.monotonic() - started < 10.0
        eta4, exact4, _ = colorful_helly_number(gen_cycle_sharpness(4))
        assert (eta4, exact4) == (5, True)


def test_criterion_2_sharpness_m3_m4_comatching_number_as_pinned():
    # Pinned upstream as tau = M, which is the value of tau', not of tau.
    # The systems have tau = floor(4M/3): a comatching's points contain no
    # three cyclically consecutive points (every member misses exactly one
    # adjacent domino), and every such point set extends to a comatching.
    # For M = 3 the points {1,2,4,5} with the members X\{6,1}, X\{2,3},
    # X\{3,4}, X\{5,6} form a comatching of size 4, replayed below
    # independently of the search; the brute-force enumerator agrees.
    with criterion(2, "sharpness M=3,4 comatching number as pinned", 310.0):
        m3 = gen_cycle_sharpness(3)
        names = [m3.member_name(j) for j in range(m3.num_members)]
        by_hand = Comatching(
            tuple(
                (m3.ground.index(p), names.index(f))
                for p, f in (("1", "o3"), ("2", "o1"), ("4", "e2"), ("5", "e3"))
            )
        )
        assert verify_comatching(m3, by_hand).ok

        for m in (3, 4):
            system = gen_cycle_sharpness(m)
            tau, cert, exact = comatching_number(system)
            assert exact and verify_comatching(system, cert).ok
            assert tau == oracle_comatching_number(system)[0]
            assert tau == (4 * m) // 3, (
                f"expected tau=floor(4*{m}/3)={(4 * m) // 3}, got tau={tau}, "
                f"certificate "
                f"{[(system.ground[p], system.member_name(j)) for p, j in cert.pairs]}"
            )

            tau_prime, cert_prime, exact_prime = comatching_with_intersection_number(
                system
            )
            assert (tau_prime, exact_prime) == (m, True)
            assert verify_comatching_with_intersection(system, cert_prime).ok


def test_criterion_3_torus_grid_topology():
    with criterion(3, "torus grid homology/comatching/Leray", 600.0):
        torus = gen_torus_grid_complex(4, 2)
        profile = reduced_betti(torus)
        assert profile.reduced_betti == (0, 2, 1, 0)

        tau_k, cert, exact = complex_comatching_number(torus)
        assert (tau_k, exact) == (2, True)
        assert verify_complex_comatching(torus, cert).ok

        verdict = leray_check(torus, 2)
        assert verdict.status == "fails" and verdict.witness is not None
        vertices, dim = verdict.witness
        assert dim >= 2

        number, number_exact, number_witness = leray_number(torus)
        assert (number, number_exact) == (3, True)
        assert number_witness == verdict


def test_criterion_4_conversion_roundtrip():
    with criterion(4, "torus conversion roundtrip", 60.0):
        torus = gen_torus_grid_complex(4, 2)
        system = complex_to_set_system(torus)
        assert same_complex(nerve(system), torus)
        tau, cert, exact = comatching_number(system)
        assert (tau, exact) == (2, True)
        assert verify_comatching(system, cert).ok
        tau_k, _, _ = complex_comatching_number(torus)
        assert tau == max(2, tau_k)  # bound met with equality


def test_criterion_5_hamming_instance():
    with criterion(5, "Hamming balls n=4 t=1 q=2", 600.0):
        system = gen_hamming_system(4, 1, 2)
        tau, tau_cert, e1 = comatching_number(system)
        taup, taup_cert, e2 = comatching_with_intersection_number(system)
        h = helly_number(system)
        assert e1 and e2
        assert verify_comatching(system, tau_cert).ok
        assert verify_comatching_with_intersection(system, taup_cert).ok
        eta, e3, _ = colorful_helly_number(system)
        print(
            f"  hamming(4,1,2) recorded: tau={tau} tau'={taup} h={h} "
            f"eta={eta} (ambient claims: 4, 3, 4; colorful 4)"
        )
        # n=4 already attains the ambient values, so it is the acceptance
        # instance; no escalation to n=5 needed.
        assert (tau, taup, h) == (4, 3, 4)


def test_criterion_6_circle_configuration():
    with criterion(6, "four-circle configuration", 10.0):
        config, system = gen_circle_config()
        incidences = sum(
            config.incidence(i, j) for i in range(4) for j in range(4)
        )
        assert incidences == 12
        for i in range(4):
            for j in range(4):
                assert config.incidence(i, j) == (i != j)
        tau, _, e1 = comatching_number(system)
        taup, _, e2 = comatching_with_intersection_number(system)
        assert (tau, e1) == (4, True)
        assert (taup, e2) == (3, True)


def test_criterion_7_polynomial_comatchings():
    from dataclasses import replace
    from math import comb

    with criterion(7, "polynomial comatchings", 30.0):
        for d, cap in ((1, 1), (1, 2), (2, 1), (2, 2)):
            pc = gen_poly_comatching(d, cap)
            assert len(pc.polynomials) == comb(cap + d, d)
            assert all(
                isinstance(c, Fraction) for poly in pc.polynomials for _, c in poly
            )
            assert verify_poly_comatching(pc).ok
            with_common = replace(
                pc, common_point=tuple(Fraction(0) for _ in range(d))
            )
            verdict = verify_poly_comatching(with_common)
            assert not verdict.ok
            assert any("no common point" in v for v in verdict.violations)


def test_criterion_8_theorem_property_suite():
    with criterion(8, "random-system theorem suite (>=200 systems)", 900.0):
        rng = random.Random(20260808)
        checked = 0
        while checked < 240:
            system = random_system(rng, 7, 7)
            tau, tau_cert, e1 = comatching_number(system)
            taup, taup_cert, e2 = comatching_with_intersection_number(system)
            h = helly_number(system)
            eta, e3, refuting = colorful_helly_number(system)
            assert e1 and e2 and e3, "desk-scale searches must be exact"
            checked += 1
            assert verify_comatching(system, tau_cert).ok
            if taup_cert is not None:
                assert verify_comatching_with_intersection(system, taup_cert).ok
            assert taup in (tau - 1, tau)
            assert eta <= 1 + taup <= 1 + tau
            assert h <= eta
            if taup == tau - 1:
                assert eta == tau
            if eta >= 2:
                assert refuting is not None and len(refuting) == eta - 1
        assert checked >= 200


def test_criterion_9_dichotomy_soundness_suite():
    with criterion(9, "dichotomy soundness (>=500 instances)", 600.0):
        rng = random.Random(77)
        instances = 0
        witness_seen = transversal_seen = 0
        while instances < 520:
            system = random_system(rng, 7, 7)
            taup, _, exact = comatching_with_intersection_number(system)
            instance = random_refutable_instance(rng, system, max_positions=5)
            if instance is None:
                continue
            instances += 1
            outcome = colorful_transversal_dichotomy(system, instance)
            if outcome.is_transversal:
                transversal_seen += 1
                assert intersect_subfamily(system, outcome.transversal) == frozenset()
                for j, fam in zip(outcome.transversal, instance.families):
                    assert j in fam
            else:
                witness_seen += 1
                assert len(outcome.witness) == len(instance)
                assert verify_comatching_with_intersection(
                    system, outcome.witness
                ).ok
                assert exact and len(instance) <= taup, (
                    "witness arm must be impossible beyond tau'"
                )
        assert instances >= 500
        assert transversal_seen and witness_seen


def test_criterion_10_kunneth_identity():
    from comatch.randsys import random_complex

    with criterion(10, "Kunneth identity for joins", 300.0):
        rng = random.Random(5150)
        for _ in range(20):
            a = random_complex(rng, 5, 4)
            b = random_complex(rng, 5, 4)
            verdict = kunneth_betti_check(a, b)
            assert verdict.status == "ok", verdict.violations

        from comatch.simplicial import SimplicialComplex

        three_cycle = SimplicialComplex.from_labels(
            ["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]]
        )
        verdict = kunneth_betti_check(three_cycle, three_cycle)
        assert verdict.status == "ok"
        assert verdict.direct[3] == 1

        torus = gen_torus_grid_complex(4, 2)
        torus_profile = reduced_betti(torus).reduced_betti
        predicted = join_profile_from_factors(torus_profile, torus_profile)
        assert predicted[5] == 1 and all(b == 0 for b in predicted[6:])

        double = kunneth_betti_check(torus, torus, SearchBudget(max_millis=120_000))
        assert double.predicted[5] == 1
        if double.status != "budget_exhausted":
            assert double.status == "ok"
            join_complex = gen_good_join_complex(2)
            assert is_d_good(join_complex, 5) or double.direct[5] == 1
            print("  double torus join: direct homology completed and agrees")
        else:
            print("  double torus join: direct homology hit its budget (in-band)")


def test_criterion_11_collapsibility_implies_colorful_helly_bound():
    with criterion(11, "nerve collapsibility bounds colorful Helly", 600.0):
        rng = random.Random(31415)
        proved_cases = 0
        for _ in range(120):
            system = random_system(rng, 5, 5)
            if any(not elems for _, elems in system.members):
                continue
            nerve_complex = nerve(system)
            eta, exact, _ = colorful_helly_number(system)
            assert exact
            for d in (1, 2, 3):
                status, _ = is_d_collapsible(
                    nerve_complex, d, SearchBudget(max_nodes=30_000)
                )
                if status == "proved":
                    proved_cases += 1
                    assert eta <= d + 1, (
                        f"collapsible nerve at d={d} but eta={eta}"
                    )
                    assert leray_check(nerve_complex, d).status == "holds"
                    break
        assert proved_cases >= 40


def test_criterion_12_oracle_equivalence():
    with criterion(12, "oracle equivalence (>=10^4 systems)", 900.0):
        rng = random.Random(424242)
        disagreements = 0
        for _ in range(10_500):
            system = random_system(rng, 5, 5)
            tau, cert, exact = comatching_number(system)
            assert exact
            assert verify_comatching(system, cert).ok
            if tau != oracle_comatching_number(system)[0]:
                disagreements += 1
            if helly_number(system) != oracle_helly_number(system):
                disagreements += 1
            if sorted(minimal_empty_subfamilies(system)) != sorted(
                oracle_minimal_empty_subfamilies(system)
            ):
                disagreements += 1
        assert disagreements == 0
