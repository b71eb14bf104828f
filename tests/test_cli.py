from __future__ import annotations

import hashlib
import json

import pytest

from arrcoh import cli, nerve_homology
from arrcoh.verify import CheckResult
from helpers import braid, corpus_file, essential_braid, generic, shi


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


# SHA-256 of `arrcoh decompose` stdout, recorded when every decone's poset
# was still rebuilt from geometry; reading the posets off the poset above
# must not move a byte.
DECOMPOSE_DIGESTS = {
    ("braid-5", "json"): "497ecc0cd8aab2eb61769f3cc486428a0e194f7ebbc197f60baba5a82d6ea10e",
    ("braid-5", "text"): "b8a074737fbdf84138c530b6aa758dd7b7eb035a2e9fcefa44a64904a52fe3ea",
    ("shi-4", "json"): "0c853a48088f4a309811f3c60ec7e6da0174a956544549ea810f82fa1a34f97a",
    ("shi-4", "text"): "75103a04ff449bdfe70efb3134f833d71879a037ccd9e53fede913667d05307e",
    ("planes-8", "json"): "0b015f83e00ffe2669a5494d3a86738479cd46bc3cabc621ab21a08bde8027e1",
    ("planes-8", "text"): "15a4cf234a97c485d40036dc7e43fb655b6bb1aec6c40d1cd60394801db8fcd7",
    ("essential-braid-5", "json"):
        "f707b133edcdaf913ab1f40355f50acff0c6dd46bcacf3c0c79a3b2f130c903b",
    ("essential-braid-5", "text"):
        "82c3d573a292b3aaba29a1146478790b0655804f1a450582f3463ae444762ccf",
}
DIGEST_INPUTS = {
    "braid-5": lambda: braid(5),
    "shi-4": lambda: shi(4),
    "planes-8": lambda: generic(8, 3),
    "essential-braid-5": lambda: essential_braid(5),
}


@pytest.mark.parametrize("name, fmt", sorted(DECOMPOSE_DIGESTS))
def test_decompose_output_bytes_pinned(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[name, fmt]



# SHA-256 of `arrcoh chambers` and `arrcoh verify` stdout, recorded when
# chambers were still found by sweeping all 2^m sign vectors with
# Fourier-Motzkin; splitting regions hyperplane by hyperplane must not
# move a byte.
CHAMBER_DIGESTS = {
    ("chambers", "planes-8", "json"):
        "707824592548a10f0fd5b9bda84eea8d48c298419722c7612082721133fdc716",
    ("chambers", "planes-8", "text"):
        "6161a847382a5142b86c4e238d0bf0e7a7b0b48ad25099954011529282b481f2",
    ("chambers", "lines-8", "json"):
        "75ebc0991205d67265349af43f22463d18e48f15dd9ea2c896f78b92f058d99b",
    ("chambers", "lines-8", "text"):
        "6b9ba43d1c4cbf1b83dc6da767a172a11953fb02bf7c02e5032ef1cc6d1d62cc",
    ("chambers", "essential-braid-5", "json"):
        "611b6563eb080f2b1de3f303af2146310dfd0d6523c9314cbc3e5b7f6616b00e",
    ("chambers", "essential-braid-5", "text"):
        "31d14076d05b3dd2922f34730e21aab9250b678fb3b6115977fa4034da007b29",
    ("chambers", "shi-3", "json"):
        "0dde5dc468f54ffa78aa0dfbc2529afa53115984d19cd7dda9c485034cb98f6f",
    ("chambers", "shi-3", "text"):
        "24a03653709b30f84bea4f5b93e5c31c5c0596d9eb620f8a26452d8fe1b1db9a",
    ("verify", "planes-8", "json"):
        "67ad7ad57d46111368c6ce5a619f153dd7e5960c5a277a8a1c0b4c51e70aebe1",
}
CHAMBER_INPUTS = {
    "planes-8": lambda: generic(8, 3),
    "lines-8": lambda: generic(8, 2),
    "essential-braid-5": lambda: essential_braid(5),
    "shi-3": lambda: shi(3),
}


@pytest.mark.parametrize("command, name, fmt", sorted(CHAMBER_DIGESTS))
def test_chambers_output_bytes_pinned(command, name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CHAMBER_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, command, str(path), "--format", fmt)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CHAMBER_DIGESTS[command, name, fmt]


# SHA-256 of `arrcoh nerve` and `arrcoh verify` stdout, recorded when
# Smith normal form was still dense elimination on the whole matrix;
# eliminating the unit pivots sparsely first must not move a byte.
# braid(5) and essential_braid(5) have the same nerve, so their reports
# match.
NERVE_DIGESTS = {
    ("nerve", "braid-5", "json"):
        "d7e75c65b53ad2d2e85feea38c3f17e4e7fbb81f24f757fe2c5116c401a08d71",
    ("nerve", "braid-5", "text"):
        "2a686d9371a763d9d51bc8a71138aed90bf136012c1edeeac353e264af8e6e3f",
    ("nerve", "shi-4", "json"):
        "b0d372316233ff00ab4c1ea933bbe9fb2effdf8450d16635610cd550105d3278",
    ("nerve", "shi-4", "text"):
        "d068da0ad98b91acf3d9e55db175f43dd88fa0eb7e09369439eb919cf51f1a64",
    ("nerve", "essential-braid-5", "json"):
        "d7e75c65b53ad2d2e85feea38c3f17e4e7fbb81f24f757fe2c5116c401a08d71",
    ("nerve", "essential-braid-5", "text"):
        "2a686d9371a763d9d51bc8a71138aed90bf136012c1edeeac353e264af8e6e3f",
    ("verify", "braid-5", "json"):
        "64d163599470ed150b2071a236c59b09ac4569e03561287b05bd6a7762d38cfd",
}


@pytest.mark.parametrize("command, name, fmt", sorted(NERVE_DIGESTS))
def test_nerve_output_bytes_pinned(command, name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, command, str(path), "--format", fmt)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == NERVE_DIGESTS[command, name, fmt]


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
