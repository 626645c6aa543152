import argparse
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from comatch.cli import RunConfig, _build_parser, main
from comatch.jsonio import set_system_from_doc
from comatch.search import (
    colorful_helly_number,
    comatching_number,
    comatching_with_intersection_number,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def sharp2_path(tmp_path, capsys):
    path = tmp_path / "sharp2.json"
    code = main(["generate", "cycle-sharpness", "2", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    return path


@pytest.fixture
def torus_path(tmp_path, capsys):
    path = tmp_path / "torus.json"
    code = main(["generate", "torus-grid", "4", "2", "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    return path


@pytest.fixture
def hamming_nerve_path(tmp_path, capsys):
    hamming = tmp_path / "hamming.json"
    path = tmp_path / "hamming-nerve.json"
    assert main(["generate", "hamming", "4", "1", "--out", str(hamming)]) == 0
    assert main(["nerve", str(hamming), "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def _assert_helly_bounds_verify(system):
    from comatch.cli import _helly_bound_certificates
    from comatch.core import verify_comatching, verify_comatching_with_intersection
    from comatch.search import minimal_empty_subfamilies

    minimal = minimal_empty_subfamilies(system)
    if not minimal:
        return
    h = max(len(s) for s in minimal)
    largest = next(s for s in minimal if len(s) == h)
    bound, bound_prime = _helly_bound_certificates(system, largest)
    assert len(bound) == h and verify_comatching(system, bound).ok
    if h < 2:
        assert bound_prime is None
    else:
        assert len(bound_prime) == h - 1
        assert verify_comatching_with_intersection(system, bound_prime).ok


class TestGenerate:
    def test_roundtrip_is_canonical(self, sharp2_path, tmp_path, capsys):
        doc = json.loads(sharp2_path.read_text())
        assert doc["provenance"]["generator"] == "cycle-sharpness"
        code, report = run_cli(capsys, "analyze", str(sharp2_path))
        assert code == 0

    def test_cycle_sharpness_claims_hold(self, tmp_path, capsys):
        # Every provenance claim is checked against the library; tau' and
        # eta are claimed only where tau' = M and eta = M + 1 hold (M <= 4).
        invariants = {
            "comatching_number": lambda s: comatching_number(s)[::2],
            "comatching_with_intersection_number": lambda s: (
                comatching_with_intersection_number(s)[::2]
            ),
            "colorful_helly_number": lambda s: colorful_helly_number(s)[:2],
        }
        for m in range(2, 9):
            code, doc = run_cli(capsys, "generate", "cycle-sharpness", str(m))
            assert code == 0
            claims = doc["provenance"]["claims"]
            assert claims["comatching_number"] == 4 * m // 3
            expected_keys = set(invariants) if m <= 4 else {"comatching_number"}
            assert set(claims) == expected_keys
            system = set_system_from_doc(doc)
            for name, claimed in claims.items():
                assert invariants[name](system) == (claimed, True), (m, name)

    def test_unknown_params_rejected(self, capsys):
        code = main(["generate", "cycle-sharpness"])
        assert code == 2

    @pytest.mark.parametrize(
        "name, params, takes",
        [
            pytest.param(name, params, takes, id=name)
            for name, params, takes in (
                ("cycle-sharpness", ["3", "9", "9"], "1 (M)"),
                ("hamming", ["4", "1", "2", "7"], "3 (n, t, q)"),
                ("circles", ["1", "2", "3"], "0 (none)"),
                ("poly", ["1", "2", "3"], "2 (d, D)"),
                ("torus-grid", ["4", "2", "2"], "2 (k, s)"),
                ("good-join", ["1", "1"], "1 (fold)"),
            )
        ],
    )
    def test_surplus_params_rejected(self, name, params, takes, capsys):
        assert main(["generate", name, *params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: too many parameters for construction {name!r}: "
            f"got {len(params)}, it takes at most {takes}\n"
        )

    def test_poly_claim_is_verified(self, capsys, monkeypatch):
        code, doc = run_cli(capsys, "generate", "poly", "2", "2")
        assert code == 0 and "violations" not in doc
        assert doc["provenance"]["claims"] == {"size": 6}
        # A comatching whose points are swapped no longer has f_i vanish
        # exactly off x_i, so the claim fails its own check.
        import comatch.constructions as constructions

        real = constructions.gen_poly_comatching

        def tampered(*args, **kwargs):
            pc = real(*args, **kwargs)
            return dataclasses.replace(pc, points=pc.points[::-1])

        monkeypatch.setattr(constructions, "gen_poly_comatching", tampered)
        code, doc = run_cli(capsys, "generate", "poly", "2", "2")
        assert code == 1
        assert "f_1 vanishes at its own point x_1" in doc["violations"]

    def test_cycle_sharpness_cap(self, capsys):
        # Rejected before the 2M members are built.
        assert main(["generate", "cycle-sharpness", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: M = 100000 exceeds the cap 256\n"


class TestAnalyze:
    def test_sharpness_values(self, sharp2_path, capsys):
        code, report = run_cli(capsys, "analyze", str(sharp2_path))
        assert code == 0
        results = report["results"]
        assert results["comatching_number"] == {"value": 2, "exact": True}
        assert results["comatching_with_intersection_number"]["value"] == 2
        assert results["helly_number"] == 2
        assert results["colorful_helly_number"] == {"value": 3, "exact": True}

    def test_single_member_system(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(
            json.dumps(
                {"ground": ["a", "b"], "members": [{"name": "F", "elements": ["a"]}]}
            )
        )
        code, report = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert report["results"]["colorful_helly_number"]["value"] == 1

    def test_complex_report(self, torus_path, capsys):
        code, report = run_cli(
            capsys, "analyze", str(torus_path), "--budget-nodes", "200000"
        )
        assert code == 0
        results = report["results"]
        assert results["reduced_betti"]["reduced_betti"] == [0, 2, 1, 0]
        assert results["comatching_number"] == {"value": 2, "exact": True}
        assert results["leray_number"]["value"] == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 2

    def test_cap_violation_exit_code(self, sharp2_path, tmp_path, capsys):
        # A ground set of 4,097 points and a complex of 65 vertices are one
        # over the caps, which are constants: no flag moves them.
        system = tmp_path / "wide.json"
        points = [f"p{i}" for i in range(4097)]
        system.write_text(json.dumps(
            {"ground": points, "members": [{"name": "F", "elements": points}]}
        ))
        complex_ = tmp_path / "many.json"
        vertices = [f"v{i}" for i in range(65)]
        complex_.write_text(json.dumps({"vertices": vertices, "facets": [vertices]}))
        for path, message in (
            (system, "ground size 4097 exceeds cap 4096"),
            (complex_, "vertex count 65 exceeds cap 64"),
        ):
            assert main(["analyze", str(path)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"input error: {message}\n")
        for flag in ("--cap-ground", "--cap-vertices"):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", str(sharp2_path), flag, "9"])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_pair_cap_checked_before_the_graph(
        self, sharp2_path, tmp_path, capsys, monkeypatch
    ):
        # 300 one-point members of 300 points make 300 * 299 = 89,700 pairs,
        # whose graph would hold about 4.0e9 bits (500 MB): the input is
        # rejected before the graph is built.
        import comatch.cli as cli
        from comatch.search import CompatibilityGraph

        def no_build(system):
            raise AssertionError("the compatibility graph was built")

        monkeypatch.setattr(CompatibilityGraph, "build", no_build)
        path = tmp_path / "singletons.json"
        points = [f"p{i}" for i in range(300)]
        path.write_text(json.dumps({
            "ground": points,
            "members": [{"name": f"F{i}", "elements": [p]} for i, p in enumerate(points)],
        }))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "input error: pair count 89700 exceeds cap 65536\n"
        )
        # Cycle-sharpness M=2 has 8 pairs: a cap of 8 admits it, 7 does not.
        monkeypatch.undo()
        monkeypatch.setattr(cli, "ANALYZE_PAIR_CAP", 8)
        assert main(["analyze", str(sharp2_path)]) == 0
        monkeypatch.setattr(cli, "ANALYZE_PAIR_CAP", 7)
        assert main(["analyze", str(sharp2_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: pair count 8 exceeds cap 7\n"

    def test_determinism_byte_identical(self, sharp2_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(sharp2_path), "--out", str(a)]) == 0
        assert main(["analyze", str(sharp2_path), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_empty_subfamilies_enumerated_once(
        self, sharp2_path, capsys, monkeypatch
    ):
        # analyze hands its tuple to eta instead of letting eta enumerate it.
        import comatch.cli as cli
        import comatch.search as search

        calls = []
        real = search.minimal_empty_subfamilies

        def counted(system):
            calls.append(system)
            return real(system)

        monkeypatch.setattr(search, "minimal_empty_subfamilies", counted)
        monkeypatch.setattr(cli, "minimal_empty_subfamilies", counted)
        code, _ = run_cli(capsys, "analyze", str(sharp2_path))
        assert code == 0 and len(calls) == 1

    def test_eta_closes_by_sandwich_under_node_budget(self, tmp_path, capsys):
        # Hamming(5,1): h = 4 and an exact tau' = 3 meet, so eta = 4 is exact
        # with no eta search, where a search alone needs ~268k nodes.
        system_path, report_path = tmp_path / "h51.json", tmp_path / "report.json"
        assert main(["generate", "hamming", "5", "1", "--out", str(system_path)]) == 0
        argv = ["analyze", str(system_path), "--budget-nodes", "20000"]
        assert main([*argv, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        results = report["results"]
        assert results["helly_number"] == 4
        assert results["comatching_with_intersection_number"] == {
            "value": 3, "exact": True,
        }
        assert results["colorful_helly_number"] == {"value": 4, "exact": True}
        assert report["timing"]["nodes"]["eta"] == 0
        cert = report["certificates"]["refuting_instance"]
        assert len(cert["families"]) == 3
        cert_path = tmp_path / "ref.json"
        cert_path.write_text(json.dumps(cert))
        assert main(["verify", str(cert_path), str(system_path)]) == 0

    # Node counts, results and certificates of the two sets-benchmark
    # inputs that spend the most search nodes; a faster search must keep
    # every one of them.
    H51 = [f"B({c})" for c in ("00000", "00001", "00010", "00011")]
    E, O = [f"e{i}" for i in range(1, 6)], [f"o{i}" for i in range(1, 6)]
    PINNED_REPORTS = {
        ("hamming", "5", "1"): (
            {"tau": 214, "tau_prime": 643, "eta": 0},
            dict(points=32, members=32, tau=4, tau_prime=3, eta=4, helly=4, minimal=416),
            list(zip(H51, ("00011", "00010", "00001", "00000"))),
            list(zip(H51[:3], ("00011", "00010", "00001"))) + ["00000"],
            [H51] * 3,
        ),
        ("cycle-sharpness", "5"): (
            {"tau": 29, "tau_prime": 46, "eta": 27356},
            dict(points=10, members=10, tau=6, tau_prime=6, eta=6, helly=6, minimal=17),
            [("e1", "1"), ("e2", "3"), ("e3", "5"), ("e5", "10"), ("o3", "7"),
             ("o4", "8")],
            [("e1", "1"), ("e3", "5"), ("e5", "10"), ("o1", "3"), ("o3", "7"),
             ("o4", "8"), "4"],
            [E] * 4 + [O],
        ),
    }

    @pytest.mark.parametrize("params", sorted(PINNED_REPORTS))
    def test_node_counts_results_and_certificates_pinned(
        self, params, tmp_path, capsys
    ):
        nodes, values, tau_pairs, prime_pairs_and_common, families = (
            self.PINNED_REPORTS[params]
        )
        system_path, report_path = tmp_path / "system.json", tmp_path / "report.json"
        assert main(["generate", *params, "--out", str(system_path)]) == 0
        assert main(["analyze", str(system_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["timing"] == {"nodes": nodes}
        assert report["results"] == {
            "num_points": values["points"],
            "num_members": values["members"],
            "comatching_number": {"value": values["tau"], "exact": True},
            "comatching_with_intersection_number": {
                "value": values["tau_prime"], "exact": True,
            },
            "colorful_helly_number": {"value": values["eta"], "exact": True},
            "helly_number": values["helly"],
            "minimal_empty_subfamily_count": values["minimal"],
        }
        certs = report["certificates"]

        def pairs(cert):
            return [(p["member"], p["point"]) for p in cert["pairs"]]

        assert pairs(certs["comatching"]) == tau_pairs
        prime = certs["comatching_with_intersection"]
        assert pairs(prime) + [prime["common_point"]] == prime_pairs_and_common
        assert certs["refuting_instance"]["families"] == families

    def test_inexact_tau_never_below_helly_bounds(self, tmp_path, capsys):
        # Hamming(6,1) has h = 4.  A 3-node budget stops both searches at 2,
        # below what a largest minimal empty subfamily proves: tau >= 4 and
        # tau' >= 3.  The report gives those bounds, still inexact.
        system_path, report_path = tmp_path / "h61.json", tmp_path / "report.json"
        assert main(["generate", "hamming", "6", "1", "--out", str(system_path)]) == 0
        argv = ["analyze", str(system_path), "--budget-nodes", "3"]
        assert main([*argv, "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        results = report["results"]
        assert results["helly_number"] == 4
        assert results["comatching_number"] == {"value": 4, "exact": False}
        assert results["comatching_with_intersection_number"] == {
            "value": 3, "exact": False,
        }
        for name, size in (("comatching", 4), ("comatching_with_intersection", 3)):
            cert = report["certificates"][name]
            assert len(cert["pairs"]) == size
            cert_path = tmp_path / f"{name}.json"
            cert_path.write_text(json.dumps(cert))
            assert main(["verify", str(cert_path), str(system_path)]) == 0, name

    @pytest.mark.parametrize("seed", range(40))
    def test_helly_bound_certificates_verify(self, seed):
        import random

        from comatch.randsys import random_system

        _assert_helly_bounds_verify(random_system(random.Random(seed + 3100), 10, 8))

    def test_helly_bound_certificates_verify_on_named_systems(self):
        from comatch.constructions import gen_cycle_sharpness, gen_hamming_system

        for system in (
            gen_hamming_system(4, 1),
            gen_hamming_system(5, 1),
            gen_hamming_system(5, 2),
            *(gen_cycle_sharpness(m) for m in range(2, 7)),
        ):
            _assert_helly_bounds_verify(system)


class TestPipelines:
    def test_nerve_then_homology(self, sharp2_path, tmp_path, capsys):
        nerve_path = tmp_path / "nerve.json"
        assert main(["nerve", str(sharp2_path), "--out", str(nerve_path)]) == 0
        code, profile = run_cli(capsys, "homology", str(nerve_path))
        assert code == 0
        # The nerve of the M=2 system is a four-cycle: one loop.
        assert profile["reduced_betti"] == [0, 1]

    def test_nerve_of_member_without_points(self, tmp_path, capsys):
        # The isolated vertex shows up in analyze's loader notes, not as a
        # warning on nerve's stderr.
        system_path, nerve_path = tmp_path / "system.json", tmp_path / "nerve.json"
        members = [
            {"name": "E", "elements": []},
            {"name": "F", "elements": ["a"]},
            {"name": "G", "elements": ["a"]},
        ]
        system_path.write_text(json.dumps({"ground": ["a"], "members": members}))
        done = _run_module("nerve", str(system_path), "--out", str(nerve_path))
        assert (done.returncode, done.stderr) == (0, "")
        code, report = run_cli(capsys, "analyze", str(nerve_path))
        assert code == 0
        assert report["loader_notes"] == ["isolated vertices present: ['E']"]

    def test_arith_flag_is_a_usage_error(self, torus_path, capsys):
        # Homology is computed over the rationals only; there is no mode.
        for argv in (
            ["homology", str(torus_path), "--arith", "prime"],
            ["analyze", str(torus_path), "--arith", "exact"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_collapse_and_verify(self, torus_path, tmp_path, capsys):
        seq_path = tmp_path / "collapse.json"
        code = main(
            ["collapse", str(torus_path), "3", "--out", str(seq_path)]
        )
        assert code == 0
        assert json.loads(seq_path.read_text())["status"] == "proved"
        assert main(["verify", str(seq_path), str(torus_path)]) == 0

    def test_leray_witness_verify(self, torus_path, tmp_path, capsys):
        witness_path = tmp_path / "leray.json"
        assert main(["leray", str(torus_path), "2", "--out", str(witness_path)]) == 0
        assert json.loads(witness_path.read_text())["status"] == "fails"
        assert main(["verify", str(witness_path), str(torus_path)]) == 0

    def test_analyze_leray_witness_matches_leray_check(
        self, torus_path, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(torus_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["results"]["leray_number"] == {"value": 3, "exact": True}
        witness = report["certificates"]["leray_witness"]
        code, leray = run_cli(capsys, "leray", str(torus_path), "2")
        assert code == 0
        assert witness == leray["witness"]
        witness_path = tmp_path / "witness.json"
        witness_path.write_text(json.dumps(witness))
        assert main(["verify", str(witness_path), str(torus_path)]) == 0

    def test_analyze_leray_number_three_with_full_witness(
        self, torus_path, hamming_nerve_path, tmp_path, capsys
    ):
        for source in (torus_path, hamming_nerve_path):
            code, report = run_cli(capsys, "analyze", str(source))
            assert code == 0
            assert report["results"]["leray_number"] == {"value": 3, "exact": True}
            witness = report["certificates"]["leray_witness"]
            assert witness["d"] == 2 and len(witness["vertices"]) == 16
            witness_path = tmp_path / f"{source.stem}-witness.json"
            witness_path.write_text(json.dumps(witness))
            code, verdict = run_cli(capsys, "verify", str(witness_path), str(source))
            assert (code, verdict["verified"]) == (0, True)

    def test_dichotomy_both_arms(self, sharp2_path, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"families": [["A", "B"], ["C", "D"]]}))
        code, doc = run_cli(capsys, "dichotomy", str(sharp2_path), str(inst))
        assert code == 0
        assert doc["kind"] == "comatching_with_intersection"

        inst.write_text(json.dumps({"families": [["A", "B"], ["A", "B"]]}))
        code, doc = run_cli(capsys, "dichotomy", str(sharp2_path), str(inst))
        assert code == 0
        assert doc["kind"] == "empty_transversal"

    def test_strict_size_flag_is_a_usage_error(self, torus_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["collapse", str(torus_path), "3", "--strict-size"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("strict_size", [False, True, None])
    def test_strict_size_certificate_still_verifies(
        self, torus_path, tmp_path, capsys, strict_size
    ):
        # A sequence of exactly-d steps, as the removed --strict-size mode
        # wrote it, is a legal sequence under the one rule of 1..d vertices.
        # comatch-report/1 wrote strict_size (true or false); /2 writes none.
        from oracles import oracle_lex_first_collapse

        from comatch.jsonio import certificate_to_doc, complex_from_doc
        from comatch.topology import CollapseSequence

        torus, _ = complex_from_doc(json.loads(torus_path.read_text()))
        status, steps, _ = oracle_lex_first_collapse(torus, 3, strict_size=True)
        assert status == "proved" and {len(face) for face, _ in steps} == {3}
        cert = certificate_to_doc(CollapseSequence(3, steps), complex_=torus)
        assert "strict_size" not in cert
        if strict_size is not None:
            cert["strict_size"] = strict_size
        cert_path = tmp_path / "strict.json"
        cert_path.write_text(json.dumps(cert))
        code, doc = run_cli(capsys, "verify", str(cert_path), str(torus_path))
        assert (code, doc) == (0, {"verified": True, "kind": "collapse_sequence"})

    def test_collapse_budget_exit(self, torus_path, capsys):
        code = main(["collapse", str(torus_path), "2", "--budget-nodes", "50"])
        assert code == 3

    def test_collapse_refuted_by_failing_leray_check(
        self, torus_path, tmp_path, capsys
    ):
        # A d-collapsible complex is d-Leray: the torus fails Leray at d=2
        # with a witness in dimension 2, and verify replays it.
        out = tmp_path / "refuted.json"
        assert main(["collapse", str(torus_path), "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "refuted"
        assert doc["certificate"]["kind"] == "leray_witness"
        assert (doc["certificate"]["d"], doc["certificate"]["homology_dim"]) == (2, 2)
        code, verdict = run_cli(capsys, "verify", str(out), str(torus_path))
        assert (code, verdict["verified"]) == (0, True)

    def test_collapse_proved_when_leray_holds(self, torus_path, capsys):
        # Leray holds at d=3, so the search runs and gives its own sequence.
        from comatch.jsonio import certificate_to_doc, complex_from_doc
        from comatch.topology import is_d_collapsible

        torus, _ = complex_from_doc(json.loads(torus_path.read_text()))
        status, sequence = is_d_collapsible(torus, 3)
        code, doc = run_cli(capsys, "collapse", str(torus_path), "3")
        assert (code, status) == (0, "proved")
        assert doc == {
            "d": 3,
            "status": "proved",
            "certificate": certificate_to_doc(sequence, complex_=torus),
        }

    def test_collapse_refutes_the_m5_nerve_within_a_small_budget(
        self, tmp_path, capsys
    ):
        # The collapse search alone decides nothing at d=5 in 20,000 nodes;
        # the Leray check fails in a few hundred.
        system, nerve_path = tmp_path / "m5.json", tmp_path / "m5-nerve.json"
        assert main(["generate", "cycle-sharpness", "5", "--out", str(system)]) == 0
        assert main(["nerve", str(system), "--out", str(nerve_path)]) == 0
        out = tmp_path / "refuted.json"
        argv = ["collapse", str(nerve_path), "5", "--budget-nodes", "1000"]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["status"], doc["certificate"]["kind"]) == ("refuted", "leray_witness")
        code, verdict = run_cli(capsys, "verify", str(out), str(nerve_path))
        assert (code, verdict["verified"]) == (0, True)

    def test_collapse_dimension_zero_is_an_input_error(self, torus_path, capsys):
        assert main(["collapse", str(torus_path), "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_homology_budget_exit(self, torus_path, capsys):
        code, doc = run_cli(capsys, "homology", str(torus_path), "--budget-nodes", "2")
        assert (code, doc) == (3, {"status": "budget_exhausted"})


class TestAnalyzeComplexHomologyOnce:
    """The Leray pass takes lk {} = K from the homology phase."""

    def test_budget_cut_leray_keeps_the_bound_its_betti_prove(
        self, torus_path, tmp_path, capsys
    ):
        # 79 nodes finish the homology phase, and exact Betti (0, 2, 1, 0)
        # prove L >= 3; no other link of the torus needs a node.
        code, report = run_cli(
            capsys, "analyze", str(torus_path), "--budget-nodes", "79"
        )
        assert code == 0
        results = report["results"]
        assert results["reduced_betti"]["reduced_betti"] == [0, 2, 1, 0]
        assert results["reduced_betti"]["exact"] is True
        assert results["leray_number"] == {"value": 3, "exact": True}
        assert results["collapsible_at_leray_number"] == "proved"
        witness_path = tmp_path / "witness.json"
        witness_path.write_text(json.dumps(report["certificates"]["leray_witness"]))
        code, verdict = run_cli(capsys, "verify", str(witness_path), str(torus_path))
        assert (code, verdict["verified"]) == (0, True)

    PINNED_NODES = {
        "torus": {"comatching": 120, "homology": 79, "leray": 0, "collapse": 63},
        "hamming-nerve": {
            "comatching": 227, "homology": 161, "leray": 96, "collapse": 112
        },
    }

    @pytest.mark.parametrize("name", sorted(PINNED_NODES))
    def test_node_counts_pinned(self, name, torus_path, hamming_nerve_path, capsys):
        source = torus_path if name == "torus" else hamming_nerve_path
        code, report = run_cli(capsys, "analyze", str(source))
        assert code == 0
        assert report["timing"] == {"nodes": self.PINNED_NODES[name]}
        assert report["results"]["leray_number"] == {"value": 3, "exact": True}

    def test_homology_of_k_computed_once(self, monkeypatch):
        from comatch import cli, topology
        from comatch.constructions import gen_hamming_system, gen_torus_grid_complex
        from comatch.randsys import random_complex
        from comatch.simplicial import nerve

        calls = []
        betti_from = topology._betti_from

        def spy(complex_, low, budget):
            if low == 0:
                calls.append(complex_.num_vertices)
            return betti_from(complex_, low, budget)

        monkeypatch.setattr(topology, "_betti_from", spy)
        rng = random.Random(3)
        complexes = [
            gen_torus_grid_complex(4, 2), nerve(gen_hamming_system(4, 1))
        ] + [random_complex(rng, 8, 7) for _ in range(200)]
        for k in complexes:
            calls.clear()
            cli._analyze_complex(k, cli.RunConfig())
            assert calls.count(k.num_vertices) == 1


class TestVerify:
    def test_comatching_certificate_roundtrip(self, sharp2_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(sharp2_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(report["certificates"]["comatching"]))
        assert main(["verify", str(cert_path), str(sharp2_path)]) == 0

    def test_tampered_comatching_fails(self, sharp2_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(sharp2_path), "--out", str(report_path)]) == 0
        cert = json.loads(report_path.read_text())["certificates"]["comatching"]
        cert["pairs"][0]["point"] = "2"  # 2 lies in A: breaks the pattern
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        assert main(["verify", str(cert_path), str(sharp2_path)]) == 1

    def test_refuting_instance_replay(self, sharp2_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["analyze", str(sharp2_path), "--out", str(report_path)]) == 0
        cert = json.loads(report_path.read_text())["certificates"]["refuting_instance"]
        cert_path = tmp_path / "ref.json"
        cert_path.write_text(json.dumps(cert))
        assert main(["verify", str(cert_path), str(sharp2_path)]) == 0

        cert["families"] = [["A", "B"], ["A", "B"]]
        cert_path.write_text(json.dumps(cert))
        assert main(["verify", str(cert_path), str(sharp2_path)]) == 1

    def test_kind_object_mismatch(self, sharp2_path, torus_path, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps({"kind": "comatching", "pairs": []}))
        assert main(["verify", str(cert_path), str(torus_path)]) == 2

    def test_every_report_certificate_verifies(
        self, sharp2_path, torus_path, tmp_path, capsys
    ):
        # Certificate closure: whatever analyze emits, verify must accept.
        for source in (sharp2_path, torus_path):
            report_path = tmp_path / f"{source.stem}-report.json"
            assert main(["analyze", str(source), "--out", str(report_path)]) == 0
            certificates = json.loads(report_path.read_text())["certificates"]
            assert certificates
            for name, cert in certificates.items():
                cert_path = tmp_path / f"{source.stem}-{name}.json"
                cert_path.write_text(json.dumps(cert))
                assert main(["verify", str(cert_path), str(source)]) == 0, name

    @pytest.mark.parametrize(
        "members, violation",
        [
            (["A", "A"], "transversal intersection is nonempty"),
            (["A", "B", "A"], "transversal length does not match the instance"),
            (["C", "D"], "position 0 picks a member outside its family"),
        ],
    )
    def test_tampered_empty_transversal_fails(
        self, sharp2_path, tmp_path, capsys, members, violation
    ):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"families": [["A", "B"], ["A", "B"]]}))
        code, doc = run_cli(capsys, "dichotomy", str(sharp2_path), str(inst))
        assert (code, doc["kind"]) == (0, "empty_transversal")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), str(sharp2_path)]) == 0
        capsys.readouterr()

        doc["members"] = members
        cert_path.write_text(json.dumps(doc))
        code, verdict = run_cli(capsys, "verify", str(cert_path), str(sharp2_path))
        assert (code, verdict["verified"]) == (1, False)
        assert violation in verdict["violations"]

    def test_tampered_dichotomy_witness_fails(self, sharp2_path, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"families": [["A", "B"], ["C", "D"]]}))
        code, doc = run_cli(capsys, "dichotomy", str(sharp2_path), str(inst))
        assert (code, doc["kind"]) == (0, "comatching_with_intersection")
        assert doc["common_point"] == "2"
        doc["common_point"] = "1"  # not in C = {2, 3}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        code, verdict = run_cli(capsys, "verify", str(cert_path), str(sharp2_path))
        assert (code, verdict["verified"]) == (1, False)
        assert "common point '1' is missing from member 'C' of pair 1" in (
            verdict["violations"]
        )


    def test_leray_witness_with_negative_dimension_fails(
        self, torus_path, tmp_path, capsys
    ):
        # A negative dimension must not index the Betti profile from its end.
        vertices = json.loads(torus_path.read_text())["vertices"]
        cert = {"kind": "leray_witness", "d": -5, "vertices": vertices, "homology_dim": -2}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, doc = run_cli(capsys, "verify", str(cert_path), str(torus_path))
        assert (code, doc["verified"]) == (1, False)

    def test_collapse_violation_names_vertices_by_label(
        self, torus_path, tmp_path, capsys
    ):
        # Vertex "1" has index 0 and lies in four facets of the torus.
        step = {"free_face": ["1"], "coface": ["1", "13", "14", "2"]}
        cert = {"kind": "collapse_sequence", "d": 3, "steps": [step]}
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, doc = run_cli(capsys, "verify", str(cert_path), str(torus_path))
        assert (code, doc["violations"]) == (
            1,
            ["step 0: face ['1'] is contained in 4 facets, not free"],
        )

    def test_complex_comatching_violations_name_vertices_by_label(
        self, torus_path, tmp_path, capsys
    ):
        code, report = run_cli(capsys, "analyze", str(torus_path))
        cert = report["certificates"]["complex_comatching"]
        assert [p["vertex"] for p in cert["pairs"]] == ["1", "2"]
        cert["pairs"][1]["vertex"] = "1"
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(cert))
        code, doc = run_cli(capsys, "verify", str(cert_path), str(torus_path))
        facet = cert["pairs"][1]["facet"]
        assert (code, doc["violations"]) == (
            1,
            [
                "comatching vertices are not distinct: ['1', '1']",
                f"facet {facet} meets M in ['1'], expected [] (witness for vertex '1')",
            ],
        )


# Documents that are valid JSON but malformed: each is an input error.
MALFORMED = {
    "comatching-without-pairs": ("verify", {"kind": "comatching"}, "sharp2"),
    "pair-without-member": (
        "verify", {"kind": "comatching", "pairs": [{"point": "1"}]}, "sharp2"
    ),
    "certificate-not-an-object": ("verify", [{"kind": "comatching"}], "sharp2"),
    "collapse-d-not-an-integer": (
        "verify", {"kind": "collapse_sequence", "d": "x", "steps": []}, "torus"
    ),
    "collapse-strict-size-not-a-boolean": (
        "verify",
        {"kind": "collapse_sequence", "d": 3, "strict_size": "yes", "steps": []},
        "torus",
    ),
    "leray-witness-without-dimension": (
        "verify", {"kind": "leray_witness", "d": 1, "vertices": ["1"]}, "torus"
    ),
    "members-not-a-list": ("analyze", {"ground": ["a"], "members": 3}, None),
    "elements-not-a-list": (
        "analyze", {"ground": ["a"], "members": [{"name": "F", "elements": 5}]}, None
    ),
    "elements-a-string": (
        "analyze",
        {"ground": ["a", "b"], "members": [{"name": "F", "elements": "ab"}]},
        None,
    ),
    "facets-not-a-list": ("analyze", {"vertices": ["a"], "facets": 3}, None),
    "document-not-an-object": ("analyze", 3, None),
    "families-not-a-list": ("dichotomy", {"families": "AB"}, "sharp2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_an_input_error(
    case, sharp2_path, torus_path, tmp_path, capsys
):
    command, doc, target = MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    objects = {"sharp2": sharp2_path, "torus": torus_path}
    if command == "dichotomy":
        argv = [command, str(objects[target]), str(path)]
    elif target is not None:
        argv = [command, str(path), str(objects[target])]
    else:
        argv = [command, str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


# Files that cannot be read, or an --out that cannot be written: each is an
# input error, not a traceback.
UNREADABLE = ("a-directory", "not-utf-8", "out-into-a-missing-directory")


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_file_is_an_input_error(case, sharp2_path, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    if case == "a-directory":
        argv = ["analyze", str(tmp_path)]
    elif case == "not-utf-8":
        path = tmp_path / "latin1.json"
        path.write_bytes('{"ground": ["\u00e9"], "members": []}'.encode("latin-1"))
        argv = ["analyze", str(path)]
    else:
        argv = ["analyze", str(sharp2_path), "--out", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert not target.parent.exists()


class TestOutChecked:
    """An --out that cannot be written fails before the work; one that can
    is written only after a successful run."""

    def test_unwritable_out_fails_before_the_work(
        self, sharp2_path, tmp_path, capsys, monkeypatch
    ):
        import comatch.cli as cli

        def unreachable(*args):
            raise AssertionError("analysis ran before --out was checked")

        monkeypatch.setattr(cli, "_analyze_system", unreachable)
        target = tmp_path / "missing" / "report.json"
        assert main(["analyze", str(sharp2_path), "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: cannot write {target}: No such file or directory\n"
        )

    def test_out_is_written_only_after_a_successful_run(self, tmp_path, capsys):
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_text("kept")
        missing_input = str(tmp_path / "absent.json")
        for out in (new, existing):
            assert main(["analyze", missing_input, "--out", str(out)]) == 2
        assert not new.exists() and existing.read_text() == "kept"
        assert main(["generate", "circles", "--out", str(existing)]) == 0
        assert main(["generate", "circles", "--out", str(new)]) == 0
        assert new.read_text() == existing.read_text() != "kept"
        capsys.readouterr()


class TestDerivedOncePerSystem:
    """analyze and check-theorems get one compatibility graph and one
    enumeration of minimal empty subfamilies per system from ``search``, and
    keep neither past the system."""

    def test_analyze_builds_each_once_and_keeps_neither(
        self, derivations, tmp_path, capsys
    ):
        from comatch import search

        builds, enumerations = derivations
        path = tmp_path / "cs5.json"
        assert main(["generate", "cycle-sharpness", "5", "--out", str(path)]) == 0
        code, report = run_cli(capsys, "analyze", str(path))
        assert code == 0 and report["results"]["helly_number"] == 6
        assert len(builds) == len(enumerations) == 1
        assert builds[0] is enumerations[0]
        builds.clear()
        enumerations.clear()
        assert len(search._graphs) == len(search._minimal_empties) == 0

    def test_check_theorems_enumerates_once_per_drawn_system(
        self, derivations, monkeypatch, capsys
    ):
        from comatch import cli

        builds, enumerations = derivations
        drawn = []
        draw = cli.random_system
        monkeypatch.setattr(
            cli, "random_system", lambda *args: drawn.append(draw(*args)) or drawn[-1]
        )
        code, doc = run_cli(capsys, "check-theorems", "--systems", "20")
        assert code == 0 and doc["systems_checked"] == 20
        # The first 20 draws get tau, tau', h, eta and a refutable instance;
        # the later ones, drawn beside the complexes, eta at most.
        for k, system in enumerate(drawn):
            count = sum(s is system for s in enumerations)
            assert count == 1 if k < 20 else count <= 1, k
            assert sum(s is system for s in builds) == (k < 20), k
        assert len(drawn) > 20


class TestSuites:
    def test_check_theorems_passes_on_default_seed(self, capsys):
        code, doc = run_cli(capsys, "check-theorems", "--systems", "25")
        assert code == 0
        assert doc["violations"] == []
        assert doc["systems_checked"] > 0

    def test_check_theorems_skips_what_the_budget_cannot_finish(self, capsys):
        # Every complex check needs at least one elimination pivot, so a zero
        # node budget finishes none of them; running out is not a violation.
        code, doc = run_cli(
            capsys, "check-theorems", "--systems", "10", "--budget-nodes", "0"
        )
        assert code == 0
        assert doc["violations"] == []
        assert (doc["systems_checked"], doc["complexes_checked"]) == (0, 0)

    def test_question1_smoke(self, capsys):
        code, doc = run_cli(
            capsys, "question1", "--samples", "5", "--seed", "3"
        )
        assert code == 0
        assert doc["samples"] == 5
        for record in doc["records"]:
            assert record["comatching_number"]["exact"]
            assert record["comatching_number"]["value"] <= 2

    def test_question1_torus_contributes_high_leray_bound(self, capsys):
        code, doc = run_cli(
            capsys,
            "question1",
            "--samples",
            "2",
            "--seed",
            "3",
            "--include-torus",
        )
        assert code == 0
        torus_record = doc["records"][-1]
        assert torus_record["comatching_number"] == {"value": 2, "exact": True}
        assert torus_record["nerve_leray_number"]["value"] >= 3
        assert doc["max_nerve_leray_number_seen"] >= 3

    def test_question1_torus_leray_within_run_budget(self, capsys):
        # The torus Leray call has its own limits, capped by the run's.
        code, doc = run_cli(
            capsys,
            "question1",
            "--samples",
            "2",
            "--seed",
            "3",
            "--include-torus",
            "--budget-nodes",
            "5",
        )
        assert code == 0
        torus_record = doc["records"][-1]
        assert torus_record["system"] == "torus-grid conversion"
        assert torus_record["nerve_leray_number"]["exact"] is False

    def test_question1_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert (
                main(["question1", "--samples", "4", "--seed", "9", "--out", str(target)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_environment_is_ignored(
        self, sharp2_path, torus_path, tmp_path, capsys, monkeypatch
    ):
        # Settings come from flags only.  COMATCH_* variables, well-formed,
        # malformed or naming no setting, change no output or exit code, and
        # COMATCH_OUT redirects nothing.
        trap = tmp_path / "trap.json"
        variables = {
            "COMATCH_SEED": "5",
            "COMATCH_BUDGET_NODES": "x",
            "COMATCH_CAP_VERTICES": "7",
            "COMATCH_ARITH": "prime",
            "COMATCH_OUT": str(trap),
        }
        runs = (
            ["analyze", str(sharp2_path)],
            ["analyze", str(torus_path)],
            ["check-theorems", "--systems", "4"],
        )
        for argv in runs:
            for name in variables:
                monkeypatch.delenv(name, raising=False)
            plain = main(argv), capsys.readouterr()
            for name, value in variables.items():
                monkeypatch.setenv(name, value)
            assert (main(argv), capsys.readouterr()) == plain
            assert plain[0] == 0
            assert json.loads(plain[1].out)["config"]["budget_nodes"] == 2_000_000
        assert not trap.exists()


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_parser_is_built_once(self, sharp2_path, capsys):
        run_cli(capsys, "analyze", str(sharp2_path))
        assert _build_parser() is _build_parser()

    def test_flags_do_not_leak_into_the_next_call(self, sharp2_path, capsys):
        code, first = run_cli(
            capsys, "analyze", str(sharp2_path), "--wall-clock", "--budget-nodes", "40"
        )
        assert code == 0
        assert "wall_ms" in first["timing"]
        assert first["config"]["budget_nodes"] == 40
        code, second = run_cli(capsys, "analyze", str(sharp2_path))
        assert code == 0
        assert "wall_ms" not in second["timing"]
        assert second["config"]["budget_nodes"] == 2_000_000

    def test_valid_call_after_an_argparse_error(self, sharp2_path, capsys):
        _, expected = run_cli(capsys, "analyze", str(sharp2_path))
        for bad in (["analyze"], ["analyze", str(sharp2_path), "--budget-nodes", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            capsys.readouterr()
            code, report = run_cli(capsys, "analyze", str(sharp2_path))
            assert (code, report) == (0, expected)


# The flags each subcommand accepts besides -h: --out and those it reads.
ACCEPTED_OPTIONS = {
    "analyze": {"--budget-nodes", "--budget-ms", "--wall-clock"},
    "generate": {"--seed"},
    "nerve": set(),
    "homology": {"--budget-nodes", "--budget-ms"},
    "collapse": {"--budget-nodes", "--budget-ms"},
    "leray": {"--budget-nodes", "--budget-ms"},
    "dichotomy": set(),
    "check-theorems": {"--seed", "--budget-nodes", "--budget-ms", "--systems"},
    "question1": {
        "--seed", "--budget-nodes", "--budget-ms", "--samples", "--include-torus"
    },
    "verify": set(),
}


class TestPerCommandFlags:
    def test_each_subcommand_accepts_only_the_flags_it_reads(self):
        sub = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        accepted = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert accepted == {
            name: flags | {"--out"} for name, flags in ACCEPTED_OPTIONS.items()
        }
        assert sum(map(len, accepted.values())) == 29

    def test_flags_a_command_does_not_read_are_usage_errors(
        self, sharp2_path, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        assert main(["analyze", str(sharp2_path), "--out", str(report)]) == 0
        cert = tmp_path / "cert.json"
        certificates = json.loads(report.read_text())["certificates"]
        cert.write_text(json.dumps(certificates["comatching"]))
        for argv in (
            ["verify", str(cert), str(sharp2_path), "--budget-nodes", "0"],
            ["analyze", str(sharp2_path), "--seed", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_each_setting_flag_reaches_the_config_echo(self, sharp2_path, capsys):
        # A config block names exactly the settings its subcommand has flags
        # for: their defaults without the flags, each flag's value with it.
        settings = {"--seed": "seed", "--budget-nodes": "budget_nodes",
                    "--budget-ms": "budget_millis"}
        values = {"--seed": 5, "--budget-nodes": 7000, "--budget-ms": 60000}
        commands = {
            "analyze": ["analyze", str(sharp2_path)],
            "check-theorems": ["check-theorems", "--systems", "1"],
            "question1": ["question1", "--samples", "1"],
        }
        for name, argv in commands.items():
            flags = sorted(ACCEPTED_OPTIONS[name] & settings.keys())
            fields = [settings[flag] for flag in flags]
            code, doc = run_cli(capsys, *argv)
            assert code == 0
            assert doc["config"] == {f: getattr(RunConfig(), f) for f in fields}, name
            given = [str(x) for flag in flags for x in (flag, values[flag])]
            code, doc = run_cli(capsys, *argv, *given)
            assert code == 0
            assert doc["config"] == {settings[f]: values[f] for f in flags}, name


def _run_module(*argv):
    """Run ``python -m comatch`` on ``argv`` in a fresh interpreter."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "comatch", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_comatch(sharp2_path, capsys):
    done = _run_module("analyze", str(sharp2_path))
    assert done.returncode == 0, done.stderr
    assert main(["analyze", str(sharp2_path)]) == 0
    assert done.stdout == capsys.readouterr().out
