from __future__ import annotations

import json


from arrcoh import cli, nerve_homology
from arrcoh.verify import CheckResult
from helpers import corpus_file


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "poset", corpus_file("boolean-c2"))
        assert code == 0
        assert "rank l = 2" in out

    def test_zero_normal_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"dim": 2, "hyperplanes": [{"normal": ["0", "0"], "offset": "0"}]})
        )
        code, _, err = run_cli(capsys, "poset", str(path))
        assert code == 1
        assert "normal" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "poset", "/nonexistent/path.json")
        assert code == 1 and "error" in err

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "poset", str(path))
        assert code == 1 and "JSON" in err

    def test_boolean_coefficients_are_input_errors(self, tmp_path, capsys):
        # JSON true/false are not numbers, although Python treats them as 1/0.
        for plane in (
            {"normal": [True, 0], "offset": 0},
            {"normal": [1, 0], "offset": False},
        ):
            path = tmp_path / "bool.json"
            path.write_text(json.dumps({"dim": 2, "hyperplanes": [plane]}))
            code, out, err = run_cli(capsys, "poset", str(path))
            assert code == 1 and out == "", plane
            assert err.startswith("error: hyperplanes[0]: boolean value"), plane

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "poset", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "UTF-8" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "poset", corpus_file("generic3-c2"), "--max-hyperplanes", "2"
        )
        assert code == 2 and "cap" in err

    def test_decompose_cap_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", corpus_file("generic3-c2"), "--max-hyperplanes", "2"
        )
        assert code == 2 and out == ""
        assert "3 hyperplanes exceeds the cap of 2" in err

    def test_cap_applies_to_every_command(self, capsys):
        for command in cli.COMMANDS:
            code, out, err = run_cli(
                capsys, command, corpus_file("generic3-c2"), "--max-hyperplanes", "2"
            )
            assert code == 2 and out == "", command
            assert err == "error: 3 hyperplanes exceeds the cap of 2\n", command

    def test_raised_cap_reaches_every_verify_check(self, tmp_path, capsys):
        # 21 lines y = kx + k^2, then 21 lines y = kx through the origin; the
        # central one reaches the deconing check and its decompositions.
        for name, offset in (("tangents", lambda k: k * k), ("pencil", lambda k: 0)):
            planes = [
                {"normal": [str(k), "-1"], "offset": str(-offset(k))} for k in range(1, 22)
            ]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"dim": 2, "hyperplanes": planes}))
            code, out, err = run_cli(capsys, "verify", str(path), "--max-hyperplanes", "21")
            assert (code, err) == (0, ""), name
            assert "FAIL" not in out, name
        assert "PASS  deconing-factorization: H_inf=0:" in out

    def test_nerve_built_once(self, capsys, monkeypatch):
        calls = []
        original = nerve_homology.build_singular_nerve

        def counting(p):
            calls.append(p)
            return original(p)

        # Count through the defining module and any name the CLI binds.
        monkeypatch.setattr(nerve_homology, "build_singular_nerve", counting)
        monkeypatch.setattr(cli, "build_singular_nerve", counting, raising=False)
        code, _, _ = run_cli(capsys, "nerve", corpus_file("boolean-c2"))
        assert code == 0
        assert len(calls) == 1

    def test_nerve_cap_checked_before_any_poset_work(self, tmp_path, capsys, monkeypatch):
        # Braid A_6: the 15 hyperplanes x_i = x_j in C^6, above the nerve cap of 12.
        planes = [
            {"normal": [str(int(k == i) - int(k == j)) for k in range(6)], "offset": "0"}
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        path = tmp_path / "braid6.json"
        path.write_text(json.dumps({"dim": 6, "hyperplanes": planes}))

        def no_poset(*args, **kwargs):
            raise AssertionError("poset built before the nerve cap was checked")

        monkeypatch.setattr(cli, "build_intersection_poset", no_poset)
        code, out, err = run_cli(capsys, "nerve", str(path))
        assert code == 2 and out == ""
        assert "15 hyperplanes exceeds the oracle cap of 12" in err

    def test_verify_failure_exits_three(self, capsys, monkeypatch):
        # The battery has no honest failure on valid corpus input, so fake one
        # to pin the exit-code wiring.
        monkeypatch.setattr(
            cli,
            "run_all_checks",
            lambda a, max_hyperplanes=20: [CheckResult("stub", False, "forced")],
        )
        code, out, _ = run_cli(capsys, "verify", corpus_file("boolean-c2"))
        assert code == 3
        assert "FAIL" in out

    def test_verify_passes_on_corpus_member(self, capsys):
        code, out, _ = run_cli(capsys, "verify", corpus_file("concurrent3-c2"))
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 9


class TestReports:
    def test_json_outputs_are_byte_stable(self, capsys):
        for command in ("poset", "invariants", "beta", "nerve", "chambers", "decompose"):
            first = run_cli(capsys, command, corpus_file("generic3-c2"), "--format", "json")
            second = run_cli(capsys, command, corpus_file("generic3-c2"), "--format", "json")
            assert first == second, command

    def test_decompose_two_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", corpus_file("two-points-c1"), "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["degree"] == 1
        assert report["free_rank"] == 1
        assert len(report["summands"]) == 3

    def test_decompose_schema_roundtrip(self, capsys):
        _, out, _ = run_cli(
            capsys, "decompose", corpus_file("generic4-c2"), "--format", "json"
        )
        report = json.loads(out)
        assert set(report) == {
            "object",
            "degree",
            "free_rank",
            "l2_note",
            "duality_note",
            "summands",
        }
        assert "graded" in report["object"]
        for s in report["summands"]:
            assert set(s) == {"flat", "multiplicity", "module", "is_trivial_z"}
            assert set(s["flat"]) >= {"dim", "system", "rhs"}
            assert s["module"]["kind"] in (
                "FREE",
                "TRIVIAL_Z",
                "TENSOR_TRIVIAL",
                "INDUCED",
                "COPIES",
                "SUM",
            )

    def test_poset_schema_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "poset", corpus_file("generic3-c2"), "--format", "json")
        report = json.loads(out)
        assert report["rank"] == 2
        assert len(report["flats"]) == 7
        for f in report["flats"]:
            assert set(f) == {
                "index",
                "dim",
                "codim",
                "flat",
                "containing_hyperplanes",
                "covers",
            }

    def test_boolean_text_names_origin_and_trivial_module(self, capsys):
        _, out, _ = run_cli(capsys, "decompose", corpus_file("boolean-c2"))
        assert "x1 = 0, x2 = 0" in out
        assert "trivial module Z" in out

    def test_empty_arrangement_text(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", corpus_file("empty-c1"))
        assert code == 0
        assert "degree 0" in out
        assert "H^0 = Z" in out

    def test_l2_note_attached_to_reports(self, capsys):
        _, out, _ = run_cli(capsys, "decompose", corpus_file("generic3-c2"))
        assert "l2-cohomology" in out

    def test_nerve_report(self, capsys):
        code, out, _ = run_cli(capsys, "nerve", corpus_file("generic3-c2"))
        assert code == 0
        assert "H_1 = Z^1" in out
        assert "is_wedge: yes" in out

    def test_chambers_report(self, capsys):
        _, out, _ = run_cli(capsys, "chambers", corpus_file("generic3-c2"), "--format", "json")
        report = json.loads(out)
        assert report["total"] == 7 and report["bounded"] == 1
        assert all(set(c) == {"signs", "bounded"} for c in report["chambers"])


class TestVerifyCommand:
    def test_check_order_and_values(self, capsys):
        _, out, _ = run_cli(capsys, "verify", corpus_file("boolean-c2"))
        names = [
            line.split()[1].rstrip(":")
            for line in out.splitlines()
            if line.startswith(("PASS", "FAIL"))
        ]
        assert names == [
            "poset-bruteforce-agreement",
            "rank-identity",
            "mobius-sign-law",
            "poincare-reciprocity",
            "sigma-wedge",
            "nerve-euler-additivity",
            "beta-triple-oracle",
            "deconing-factorization",
            "decomposition-structure",
        ]
        # Values compared are part of the report.
        assert "flats = 4" in out
