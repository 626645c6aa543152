import json

import pytest

from comatch.cli import main
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

    def test_cap_violation_exit_code(self, sharp2_path, capsys):
        assert main(["analyze", str(sharp2_path), "--cap-ground", "2"]) == 2

    def test_determinism_byte_identical(self, sharp2_path, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", str(sharp2_path), "--seed", "5", "--out", str(a)]) == 0
        assert main(["analyze", str(sharp2_path), "--seed", "5", "--out", str(b)]) == 0
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

    def test_prime_mode_flagged(self, torus_path, capsys):
        code, profile = run_cli(
            capsys, "homology", str(torus_path), "--arith", "prime"
        )
        assert code == 0
        assert profile["exact"] is False
        assert profile["reduced_betti"] == [0, 2, 1, 0]

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
        self, torus_path, tmp_path, capsys
    ):
        hamming = tmp_path / "hamming.json"
        nerve_path = tmp_path / "nerve.json"
        assert main(["generate", "hamming", "4", "1", "--out", str(hamming)]) == 0
        assert main(["nerve", str(hamming), "--out", str(nerve_path)]) == 0
        capsys.readouterr()
        for source in (torus_path, nerve_path):
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

    def test_collapse_budget_exit(self, torus_path, capsys):
        code = main(["collapse", str(torus_path), "2", "--budget-nodes", "50"])
        assert code == 3

    def test_homology_budget_exit(self, torus_path, capsys):
        code, doc = run_cli(capsys, "homology", str(torus_path), "--budget-nodes", "2")
        assert (code, doc) == (3, {"status": "budget_exhausted"})


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


class TestSuites:
    def test_check_theorems_passes_on_default_seed(self, capsys):
        code, doc = run_cli(capsys, "check-theorems", "--systems", "25")
        assert code == 0
        assert doc["violations"] == []
        assert doc["systems_checked"] > 0

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

    def test_question1_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert (
                main(["question1", "--samples", "4", "--seed", "9", "--out", str(target)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_env_override(self, sharp2_path, tmp_path, capsys, monkeypatch):
        out = tmp_path / "viaenv.json"
        monkeypatch.setenv("COMATCH_OUT", str(out))
        assert main(["analyze", str(sharp2_path)]) == 0
        assert out.exists()

    def test_bad_arith_is_an_input_error_by_flag_and_env(
        self, sharp2_path, capsys, monkeypatch
    ):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(sharp2_path), "--arith", "bogus"])
        assert exc.value.code == 2
        monkeypatch.setenv("COMATCH_ARITH", "bogus")
        assert main(["analyze", str(sharp2_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bogus" in captured.err
