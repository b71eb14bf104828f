from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from arrcoh import cli, nerve_homology
from arrcoh.chambers import ChamberReport
from arrcoh.exact_linalg import AffineSubspace
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

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter has no integer digit limit",
    )
    def test_integer_over_digit_limit_is_input_error(self, tmp_path, capsys):
        # json.load raises a plain ValueError, not JSONDecodeError, for it.
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "long.json"
        path.write_text('{"dim": 1, "hyperplanes": [{"normal": [1], "offset": %s}]}' % digits)
        code, out, err = run_cli(capsys, "poset", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: invalid JSON in {path}: ") and "Traceback" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter has no integer digit limit",
    )
    def test_number_over_digit_limit_in_output_is_cap_error(self, tmp_path, capsys):
        # 3000-digit coefficients are in schema, but the two lines meet in a
        # point whose coordinates have about twice as many digits.
        rng = random.Random(3000)

        def number():
            return str(rng.choice((-1, 1)) * rng.randrange(10**2999, 10**3000))

        planes = [{"normal": [number(), number()], "offset": number()} for _ in range(2)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"dim": 2, "hyperplanes": planes}))
        limit = sys.get_int_max_str_digits()
        for command in ("poset", "invariants", "beta", "decompose", "verify"):
            for fmt in ("text", "json"):
                code, out, err = run_cli(capsys, command, str(path), "--format", fmt)
                assert code == 2 and out == "", (command, fmt)
                assert err.startswith("error: ") and err.count("\n") == 1, (command, fmt)
                assert f"{limit} digits" in err and "digit limit" in err, (command, fmt)
        code, out, _ = run_cli(capsys, "chambers", str(path))
        assert code == 0 and out.startswith("chambers: 4 total, 0 bounded")

    def test_exponent_notation_is_input_error(self, tmp_path, capsys):
        # Parsed, "1e2000000" would be a two-million-digit integer.
        plane = {"normal": ["1"], "offset": "1e2000000"}
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps({"dim": 1, "hyperplanes": [plane]}))
        code, out, err = run_cli(capsys, "poset", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: hyperplanes[0]: exponent notation not allowed: '1e2000000'")
        assert "Traceback" not in err

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
        # central one reaches the deconing check, whose decone posets are
        # built under the raised cap.
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

        def counting(*args):
            calls.append(args)
            return original(*args)

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

    def test_verify_above_chamber_dimension_cap(self, tmp_path, capsys):
        # B_7, the coordinate hyperplanes of C^7: inside every cap of
        # `verify`, but above the chamber cap of dimension 6, so the
        # beta oracle leaves out its chambers column instead of exiting 2.
        planes = [
            {"normal": [str(int(i == j)) for j in range(7)], "offset": "0"} for i in range(7)
        ]
        path = tmp_path / "boolean7.json"
        path.write_text(json.dumps({"dim": 7, "hyperplanes": planes}))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, err) == (0, "")
        assert out.count("PASS") == 9 and "FAIL" not in out


class TestReports:
    def test_json_outputs_are_byte_stable(self, capsys):
        for command in ("poset", "invariants", "beta", "nerve", "chambers", "decompose"):
            first = run_cli(capsys, command, corpus_file("generic3-c2"), "--format", "json")
            second = run_cli(capsys, command, corpus_file("generic3-c2"), "--format", "json")
            assert first == second, command

    def test_each_format_is_rendered_alone(self, capsys, monkeypatch):
        # `invariants` and `beta` write their flats' equations in both
        # formats, so that an unprintable flat exits 2 in either.
        def refuse(*args, **kwargs):
            raise AssertionError("rendered the format that was not asked for")

        with monkeypatch.context() as m:
            m.setattr(cli, "equations_str", refuse)
            m.setattr(cli, "module_str", refuse)
            for command in ("poset", "nerve", "chambers", "decompose", "verify"):
                code, out, _ = run_cli(capsys, command, corpus_file("generic3-c2"), "--format", "json")
                assert code == 0 and json.loads(out), command
        monkeypatch.setattr(AffineSubspace, "to_json", refuse)
        monkeypatch.setattr(ChamberReport, "to_json", refuse)
        for command in ("poset", "chambers"):
            code, out, _ = run_cli(capsys, command, corpus_file("generic3-c2"), "--format", "text")
            assert code == 0 and out, command

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
    # Recorded while each decone still got a poset of its own; the walk
    # over views of A's poset must not move a byte.  braid(6) has the
    # deepest recursion here (rank 5), generic(12, 2) is lines.
    ("braid-6", "json"): "7243563935065ee73aadba2c601d0b0a585d220f663a83fce87f74ffa410a086",
    ("braid-6", "text"): "fa51ead5a12157ae49df003185c387cd19615c3a224a376d225c51e309626eb8",
    ("lines-12", "json"): "b3ebef24eb39d160eb831f4b7a89dabbd178aac20b29f85e19672b40e8e95acf",
    ("lines-12", "text"): "124cf108f172335521d7cebe193ee39348653f92f85099de0400434d791de3bc",
    # Recorded while the recursion still essentialized A_G and deconed it
    # with the checked `decone`; one pull-back per step must not move a
    # byte.  generic(8, 4) has rank 4: four nested rational charts.
    ("generic-8-c4", "json"):
        "361e8c5988462aead5a0f698a0bf9a03685cb79c6ef203b72373c0e9d973e47c",
    ("generic-8-c4", "text"):
        "3c5f03d941151aeef3c0e13c84c78b90cb903e461f7eb81b73fbc7d05b0e264d",
}
DIGEST_INPUTS = {
    "braid-5": lambda: braid(5),
    "braid-6": lambda: braid(6),
    "lines-12": lambda: generic(12, 2),
    "shi-4": lambda: shi(4),
    "planes-8": lambda: generic(8, 3),
    "essential-braid-5": lambda: essential_braid(5),
    "generic-8-c4": lambda: generic(8, 4),
}


@pytest.mark.parametrize("name, fmt", sorted(DECOMPOSE_DIGESTS))
def test_decompose_output_bytes_pinned(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[name, fmt]


# SHA-256 of `arrcoh poset` stdout, recorded while `intersect_flats` and
# `solve_affine` still ran separate eliminations; reduced row echelon
# form is unique, so sharing one must not move a byte.
POSET_DIGESTS = {
    ("braid-5", "json"): "0133aef56277022577fff1d2cd61ddd20dcd16e2aeb17e900f38ac6c9e8786bd",
    ("braid-5", "text"): "71e35a8dc918e746a05a1e18241e2a6d5aa08ebc5c229c622a5e33e656215b4d",
    ("braid-6", "json"): "e491997749c8b735390be6998ee842101f9d20af35cc54d1316ab9e4482adccd",
    ("braid-6", "text"): "031c323ffbcef743e3ba3983cb0debdb8b82805d12e8670b91f9d640dc04438c",
    ("essential-braid-5", "json"):
        "aab5d3e74f5322cf4737727fbee690b07db4a0225509dba7274686aa5cca3e70",
    ("essential-braid-5", "text"):
        "bb309b5d489776a252abd68fa9b0dd03575d14c6f563bf427bf4b7b3972d0b22",
    ("generic-8-c4", "json"):
        "f9b62d8c0fe1e9913d9631632aa7863c3370c975db7b75992a7f383c540019d7",
    ("generic-8-c4", "text"):
        "41d051be226f1703a355cefae876b2845d868b46b956e970a5dc1af484011921",
    ("lines-12", "json"): "76d285224feca9c5f717e131cd0e0fbe57396ec9ec1c5b781b75bf280b1172a1",
    ("lines-12", "text"): "185bdff6db455c1cd712fefcb79fb44545c50517b4e0600a85d8925e8878c2ca",
    ("planes-8", "json"): "52cd76301a1407450d0da4caa3d9023950e522a18a99a9c6b6f03ef87d17cdb5",
    ("planes-8", "text"): "ed2f1cce26e5fd2dbe4e8b5bce094c544a280c2cce7943857d538297da97eb74",
    ("shi-4", "json"): "e9e6acef74dd1b3810059ff172411b88bde262ea94c74d5386b85e28dabc2d6d",
    ("shi-4", "text"): "690b88bfac8659a6987d2034aeb245bf4eec9bf5c85a6fea4543edc127849ab3",
}


@pytest.mark.parametrize("name, fmt", sorted(POSET_DIGESTS))
def test_poset_output_bytes_pinned(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, "poset", str(path), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == POSET_DIGESTS[name, fmt]



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


# SHA-256 of `arrcoh nerve` and `arrcoh verify` stdout.  The `verify` pin
# was recorded when Smith normal form was still dense elimination on the
# whole matrix.  The `nerve` pins were re-recorded when the report
# stopped listing the degree-(l+1) group of the truncated nerve, which is
# not homology of the singular set; that group is the only difference.
# braid(5) and essential_braid(5) have the same nerve, so their reports
# match.
NERVE_DIGESTS = {
    ("nerve", "braid-5", "json"):
        "b5a7777846121d41fde1281615d4765fa03d156992cb3c6ed0937e044f777424",
    ("nerve", "braid-5", "text"):
        "0273f05ee3a34c380ed6af56fdab921c1913a4d61f666da4b7e0a942c94ad752",
    ("nerve", "shi-4", "json"):
        "19835f825847872cc0ec07f876b2477e7cc3fbff1dffe163d57d5f7e3d194fd0",
    ("nerve", "shi-4", "text"):
        "a92e905a5c5013f67b1798b6203e7f2ebdd8595f9289f6c904fb341b10976bee",
    ("nerve", "essential-braid-5", "json"):
        "b5a7777846121d41fde1281615d4765fa03d156992cb3c6ed0937e044f777424",
    ("nerve", "essential-braid-5", "text"):
        "0273f05ee3a34c380ed6af56fdab921c1913a4d61f666da4b7e0a942c94ad752",
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


# SHA-256 of `arrcoh verify` stdout, recorded when the deconing check ran
# two decompositions per hyperplane; comparing the decone poset read off
# A's poset with the one built from geometry must not move a byte.
# essential_braid(5) is central and essential, so the check runs in full.
VERIFY_DIGESTS = {
    ("essential-braid-5", "json"):
        "e62812fa2c7687e7528868849493da04ad1cee9d0709151310d654df90a35b9b",
    ("essential-braid-5", "text"):
        "57231a23a9cba32d3398c9597ca567eeeed9e4ccd12c830115832fd4157bcdf4",
}


@pytest.mark.parametrize("name, fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_bytes_pinned(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, "verify", str(path), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[name, fmt]


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


def test_import_loads_neither_dataclasses_nor_inspect():
    """`import arrcoh.cli` is start-up for every command.  The standard
    dataclass decorator imports `inspect` and compiles each generated
    method with `exec`, which once cost every process about 40 ms."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, arrcoh.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # -S: no site-packages `.pth` hooks, so the modules loaded are arrcoh's own.
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
