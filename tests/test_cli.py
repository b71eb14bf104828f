from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrcoh
from arrcoh import _writer, cli, decomposition, invariants, nerve_homology, verify
from arrcoh.arrangement import MAX_AMBIENT_DIM, Arrangement, arrangement_from_coeffs
from arrcoh.chambers import ChamberReport
from arrcoh.exact_linalg import AffineSubspace
from arrcoh.verify import CheckResult
from helpers import (
    braid,
    corpus_file,
    essential_braid,
    expand_report,
    generic,
    load_corpus,
    module_records,
    reference_decompose_text,
    reference_parse_args,
    reference_parser,
    shi,
)


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

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        # json.load raises RecursionError, not ValueError, past its depth limit.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "poset", str(path))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"error: invalid JSON in {path}: ")

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
        for command in ("poset", "invariants", "beta", "decompose"):
            for fmt in ("text", "json"):
                code, out, err = run_cli(capsys, command, str(path), "--format", fmt)
                assert code == 2 and out == "", (command, fmt)
                assert err.startswith("error: ") and err.count("\n") == 1, (command, fmt)
                assert f"{limit} digits" in err and "digit limit" in err, (command, fmt)
        code, out, _ = run_cli(capsys, "chambers", str(path))
        assert code == 0 and out.startswith("chambers: 4 total, 0 bounded")
        # `verify` prints no flat, so every check passes.  It exited 2 while
        # a decone's parts were ordered by their flats' printed text.
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0 and err == "" and out.count("PASS  ") == 9 and "FAIL" not in out
        code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["all_passed"] is True

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

    def test_dimension_cap(self, tmp_path, capsys):
        # 35 bytes that once cost seconds and hundreds of MB, linear in dim.
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 10000000, "hyperplanes": []}')
        for command in ("poset", "verify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (2, ""), command
            assert err == f"error: dimension 10000000 exceeds the cap of {MAX_AMBIENT_DIM}\n"
        path.write_text(json.dumps({"dim": MAX_AMBIENT_DIM, "hyperplanes": []}))
        for command in ("poset", "verify"):
            code, _, err = run_cli(capsys, command, str(path))
            assert (code, err) == (0, ""), command

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
            verify,
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
            "modules",
            "summands",
        }
        assert "graded" in report["object"]
        kinds = {"FREE", "TRIVIAL_Z", "TENSOR_TRIVIAL", "INDUCED", "SUM", "COPIES"}
        assert all(m["kind"] in kinds for m in report["modules"])
        for s in report["summands"]:
            assert set(s) == {"flat", "multiplicity", "module", "is_trivial_z"}
            assert set(s["flat"]) >= {"dim", "system", "rhs"}
            assert s["module"]["kind"] in kinds
            if s["multiplicity"] > 1 and s["flat"]["system"]:
                assert s["module"]["kind"] == "COPIES"
                assert s["module"]["count"] == s["multiplicity"]

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


# SHA-256 of `arrcoh decompose` stdout as it was printed before the
# `modules` table: each summand's module a fully expanded tree.  Recorded
# when every decone's poset was still rebuilt from geometry; the expanders
# in `helpers` (`expand_report` for JSON, `reference_decompose_text` for
# text) must turn today's output back into these bytes.
TREE_DIGESTS = {
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
    # Recorded while each decone still got a poset of its own.  braid(6)
    # has the deepest recursion here (rank 5), generic(12, 2) is lines.
    ("braid-6", "json"): "7243563935065ee73aadba2c601d0b0a585d220f663a83fce87f74ffa410a086",
    ("braid-6", "text"): "fa51ead5a12157ae49df003185c387cd19615c3a224a376d225c51e309626eb8",
    ("lines-12", "json"): "b3ebef24eb39d160eb831f4b7a89dabbd178aac20b29f85e19672b40e8e95acf",
    ("lines-12", "text"): "124cf108f172335521d7cebe193ee39348653f92f85099de0400434d791de3bc",
    # Recorded while the recursion still essentialized A_G and deconed it
    # with the checked `decone`.  generic(8, 4) has rank 4: four nested
    # rational charts.
    ("generic-8-c4", "json"):
        "361e8c5988462aead5a0f698a0bf9a03685cb79c6ef203b72373c0e9d973e47c",
    ("generic-8-c4", "text"):
        "3c5f03d941151aeef3c0e13c84c78b90cb903e461f7eb81b73fbc7d05b0e264d",
}
# SHA-256 of `arrcoh decompose` stdout, each decone's module printed once
# in the `modules` table and beta equal parts as one COPIES node; recorded
# when the expanders first mapped each to its `TREE_DIGESTS` value.
DECOMPOSE_DIGESTS = {
    ("braid-5", "json"): "da64a1af87b3d487b799d36415526f1452dce43f091b210d640c840ba2ee6f88",
    ("braid-5", "text"): "d6f01e0bb0b8a836f62c46613748363379fcb38b10fef3d2765eb1423f379d0d",
    ("shi-4", "json"): "d2937e3d4801dd782abedaeb9f2d55d927337c30d1b3f3209167cfbbc42663e4",
    ("shi-4", "text"): "208b82a39a16c322e01ddaabec36b01d55b87b046f5681be2a41c2d071dac01a",
    ("planes-8", "json"): "38df1126a3510f9ddf72ebb6bd5694ec11b3ab2950d62bc707a994c846270bbf",
    ("planes-8", "text"): "4ca4a45579245de440954632b248b2661b61b84f7411617c5c3d80647fd3b668",
    ("essential-braid-5", "json"):
        "588f710ba12b68ef3d4d7bb5b1ab172ea4ddb00468c0c3c900d7ca4ae07a14c9",
    ("essential-braid-5", "text"):
        "1c0b8f21ca029d9df66dd3aa44c7b4c1a6abc9deff7307c1c9c59ad0c26952fe",
    ("braid-6", "json"): "2e2036a503fafdf8af9048e0937612067ea6cffb63efe72693080c5de2aadf1b",
    ("braid-6", "text"): "dd24d2a0b51e911c5b7b12e5f69169a02afc252bf29cb1380b83dc8685613c60",
    ("lines-12", "json"): "2768a64787dffe155efeec12b0797c8705242d4a7f1ad4d60345c004cbd23e00",
    ("lines-12", "text"): "084230933033b5748d48f0913f202c1281d3d71af265207aa7624c7983cf2017",
    ("generic-8-c4", "json"):
        "b825d14345f3a5b98d88024e2cf9c39f52d952591d88f429dd6c8ec9e4823cbe",
    ("generic-8-c4", "text"):
        "2b0cd9363fa5af8efc03603db22ea2bf200c2e56f65fe18a04d3a054ca95907e",
}
DIGEST_INPUTS = {
    "braid-5": lambda: braid(5),
    "braid-6": lambda: braid(6),
    "lines-12": lambda: generic(12, 2),
    "shi-4": lambda: shi(4),
    "planes-8": lambda: generic(8, 3),
    "essential-braid-5": lambda: essential_braid(5),
    "generic-8-c4": lambda: generic(8, 4),
    "lines-8": lambda: generic(8, 2),
    "essential-braid-4": lambda: essential_braid(4),
    "planes-12": lambda: generic(12, 3),
}


@pytest.mark.parametrize("name, fmt", sorted(DECOMPOSE_DIGESTS))
def test_decompose_output_bytes_pinned(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, "decompose", str(path), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[name, fmt]


@pytest.mark.parametrize("name, fmt", sorted(TREE_DIGESTS))
def test_decompose_output_expands_to_the_tree_pinned(name, fmt, tmp_path, capsys):
    """Nothing was lost in printing each decone's module once: expanded
    back into a tree, today's output is byte for byte the old one."""
    a = DIGEST_INPUTS[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(a.to_json()))
    code, out, _ = run_cli(capsys, "decompose", str(path), "--format", fmt)
    assert code == 0
    if fmt == "json":
        tree = json.dumps(expand_report(json.loads(out)), indent=2, sort_keys=True) + "\n"
    else:
        dec = decomposition.decompose_cohomology(cli.build_intersection_poset(a))
        tree = reference_decompose_text(a, dec)
    assert hashlib.sha256(tree.encode()).hexdigest() == TREE_DIGESTS[name, fmt]


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


# SHA-256 of `arrcoh invariants` and `arrcoh beta` stdout, recorded while
# each flat's canonical system was a `RationalMatrix` record; both print
# every flat's equations, so holding the system as a tuple of rows must
# not move a byte.
INVARIANTS_DIGESTS = {
    ("braid-5", "json"): "7395319de29cc807d93590e8f9e6625c7b5147979943d05bdc97d57899ea2116",
    ("braid-5", "text"): "e81a3fc5f16cb429b8778864df68909239440ec4d99333b3a0c0dbc652144cbd",
    ("braid-6", "json"): "6257af7937c614fb7b3cca2bb82e61804eedafdd011de8ff0e4011c3f608de44",
    ("braid-6", "text"): "12f23fa93040a2739318cd65417ec22fe77a93ce7c06a639eb2e392509c9c9e3",
    ("essential-braid-5", "json"):
        "a533295cb2e15592e609876953762fcd8228f8ed1e260bae06ea4fef5e048b98",
    ("essential-braid-5", "text"):
        "6f647c3fe2407232054b338cdd461e658692820820ec015c86aebd46732eb029",
    ("generic-8-c4", "json"): "b08105f857c65e2a17a90cbe831b969353ebeada4be9be7bf3e3db7db204a050",
    ("generic-8-c4", "text"): "fdb08d3832e53b2630d6830204ab152dd0ca9f3ec549e63027bd8b918d4ef459",
    ("lines-12", "json"): "fc6428447fcefb0700a27b363d35e650926f80b5723d15d3913e8b9b3dd035a6",
    ("lines-12", "text"): "655447165eeb8a4f2593a3b5f5930d9108580e0db8cca932d445a5f053557a70",
    ("planes-8", "json"): "eccc135be0125780b760952a8ca17f1aab9e74a35790456bab9960309b2da603",
    ("planes-8", "text"): "ee035d9611ce72e937b84332ef7d866336f1b062670b00e520a6cd939546687c",
    ("shi-4", "json"): "a5d1c568a1158a483c661092e398c948334269140d404ad4a2a5da8c3bcce678",
    ("shi-4", "text"): "c257464bc66e5191363df365706d2b48bf3d7e6c380eee0bebfec4a75d44c458",
}
BETA_DIGESTS = {
    ("braid-5", "json"): "76f73b03f5783dca082a2e8dc33d586a043238ec30786cbe847c9d2d290213de",
    ("braid-5", "text"): "7a8e0b2d96ba70721f002079f13d666f20736fdd95b86fe2bcc8f11689c9d9c1",
    ("braid-6", "json"): "852f90263889fcce63c0fa79dc17b869ec4650d8d3dd0798aed515d6af1bf1e6",
    ("braid-6", "text"): "76efcb81f76f194dede5aefd0c571604d935d71a9814497c3812e69d0a48fc01",
    ("essential-braid-5", "json"):
        "76f73b03f5783dca082a2e8dc33d586a043238ec30786cbe847c9d2d290213de",
    ("essential-braid-5", "text"):
        "4512583e6a168d2f7b3dfe34f0a78cd7a926d4d48fdba4fdb2308910c71fbe69",
    ("generic-8-c4", "json"): "d931ccb8fde37415cd25a2d4284d15c176bcab523db67ceb68c17d0c18eafb9b",
    ("generic-8-c4", "text"): "221f3b18922d557784fb4a0c2822f7a170d5118dd0eeb408f4248e956a676839",
    ("lines-12", "json"): "7bc5a2c805f6d02eace6eae8342bda6d1ec191f6dc9ec9e6d74849b55016eaaa",
    ("lines-12", "text"): "f2dec014f8a43874d5909d5659c09129c70b9fd444019ecc88d137d486de3900",
    ("planes-8", "json"): "8562ba217f6cd3f4515875a0f5a33a1c6809d5d608bf8377da7d6dfae2fc7b0f",
    ("planes-8", "text"): "f36ee197e36b3e76b65e374392cfedce793ae0ea483232e05e26f6a443619a5e",
    ("shi-4", "json"): "3ad97272611dfeb5d86d7c454980d137e20554c3cbf1f2cdc0f270dc3008e763",
    ("shi-4", "text"): "35b39b63bc1375a9557832a88d8e5fcfafd85b1e570f34272172a2588ecdce66",
}


EQUATION_DIGESTS = {"invariants": INVARIANTS_DIGESTS, "beta": BETA_DIGESTS}


@pytest.mark.parametrize("command, name, fmt", sorted(
    (command, *key) for command, digests in EQUATION_DIGESTS.items() for key in digests))
def test_invariants_and_beta_output_bytes_pinned(command, name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, command, str(path), "--format", fmt)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == EQUATION_DIGESTS[command][name, fmt]


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
    # Recorded while each restriction's chambers were split in its own
    # chart.  A point in C^0 is one bounded chamber; two parallel lines
    # leave three unbounded ones and no recession rays to test.
    ("chambers", "point-c0", "json"):
        "e54582800b2ed89479ef966674febec9316d109700614fecbab150abb87829ac",
    ("chambers", "point-c0", "text"):
        "d8e983ad84adc1cacd06255cde76a966a2bd1c35911d557abf71c60b4771577e",
    ("chambers", "two-parallel-lines", "json"):
        "a06ab51c0fcfd8e09b51f19f17f4dcc01d0d9617ebdd7c1338e976036c9a42f1",
    ("chambers", "two-parallel-lines", "text"):
        "fcd49e7dafa35f694189bb679c9277bfde0ee1e2ce1179db96994cf36edbd7b6",
    ("chambers", "boolean-c3", "json"):
        "1680252609d472789f5a6e2eb7aaac5098f36c1eb5162f71587fd6aaaace988a",
    ("chambers", "boolean-c3", "text"):
        "df65fc2bebf780d980050b86667571caa77b2961215b4b183e30203894558f28",
}
CHAMBER_INPUTS = {
    "planes-8": lambda: generic(8, 3),
    "lines-8": lambda: generic(8, 2),
    "essential-braid-5": lambda: essential_braid(5),
    "shi-3": lambda: shi(3),
    "point-c0": lambda: Arrangement(0, ()),
    "two-parallel-lines": lambda: arrangement_from_coeffs(2, [((1, 0), 0), ((1, 0), 1)]),
    "boolean-c3": lambda: load_corpus()["boolean-c3"],
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
    # Recorded while unit pivots were taken from a Markowitz-cost heap;
    # invariant factors are unique, so eliminating the units in another
    # order must not move a byte.  generic(12, 3) is at the nerve cap.
    ("nerve", "planes-12", "json"):
        "3b6b79588914050feb2f76fa4cacdcc75447869a6229ae50a14470969bde73b2",
    ("nerve", "planes-12", "text"):
        "e668ce1457b568b6350f565b425e2e1cc4082672511cf1ba67fd52ec1e01c944",
    ("nerve", "generic-8-c4", "json"):
        "6ba466381fe272a73c317620a32d36f63f5571025373a3cbd44e0ee6bf48c426",
    ("nerve", "generic-8-c4", "text"):
        "c49041160815d90642a0e7485b84b916c7fba9d9998ce62ad1dfce9f8a505ccd",
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
    # Recorded while the beta oracle enumerated every restriction's
    # chambers in its own chart; reading them off one face list of A must
    # not move a byte.  All three are essential, so the chamber leg runs.
    ("lines-8", "json"): "7badab091014fe17f6767799f795628322c8f8f2e93947dd81d7121afc2d4cbc",
    ("lines-8", "text"): "ffd93356eb665a61c2bc36530121ef92b352cca4a46375a1c0f673295eb3874e",
    ("essential-braid-4", "json"):
        "47044cc1c40bdb090363a56784c55d243c04dd0f7259da8cdfa183af9a1e6735",
    ("essential-braid-4", "text"):
        "0470b063b0a4030ff8c00b64db041ef55ebfb16d13250d358ba8f78410f1e734",
    ("planes-12", "json"): "06cac87071109fced535c89efca349fcb57ebb2dddd5c417da094e938b95bf39",
    ("planes-12", "text"): "8587bce6ba98af827ca95ab5dd6bd0123b31e66a97dcf1fe677df5e0a8b2997c",
}


@pytest.mark.parametrize("name, fmt", sorted(VERIFY_DIGESTS))
def test_verify_output_bytes_pinned(name, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DIGEST_INPUTS[name]().to_json()))
    code, out, err = run_cli(capsys, "verify", str(path), "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[name, fmt]


class TestOneStoredOrder:
    """The poset stores its order once; the upward order is derived on
    first read, which only the deconing of `decompose` and `verify` makes."""

    def test_reports_that_do_not_decone_never_derive_the_upward_order(self):
        inputs = dict(load_corpus(), braid5=braid(5))
        for name, a in inputs.items():
            p = cli.build_intersection_poset(a)
            for fmt in ("json", "text"):
                cli.poset_report(a, p, fmt)
                cli.invariants_report(a, p, fmt)
                cli.beta_report(a, p, fmt)
                if 0 < len(a) <= nerve_homology.DEFAULT_NERVE_ORACLE_CAP:
                    cli.nerve_report(a, p, fmt)
            assert "strictly_above" not in vars(p), name

    def test_poset_retains_one_order_on_braid_a7(self):
        """A second build of braid A_7's 877 flats (cap 21), in a fresh
        process under tracemalloc, retains 3.04 MB on Python 3.11 while
        both directions and the covers are stored, and 1.63 MB with
        `strictly_below` alone."""
        bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
        held, _ = map(int, run_fresh(POSET_MEMORY_PROBE, str(bench)).split())
        assert held < 2_400_000

    def test_poset_build_peaks_under_twice_what_it_keeps_on_braid_a7(self):
        """`assemble_poset` drops its sort keys before it builds the order.
        The build above peaks at 2.85 MB on Python 3.11, 1.75 times what it
        retains, against 3.54 MB (2.18 times) while the keys lived until
        it returned."""
        bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
        held, peak = map(int, run_fresh(POSET_MEMORY_PROBE, str(bench)).split())
        assert peak < 2 * held


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


def run_fresh(probe: str, *argv: str) -> str:
    """Stdout of `probe` run in a fresh `python -S` process on the source tree."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout


# The tracemalloc peak of decomposing bench/inputs.generic(12, 3, 1) and
# writing its JSON, with both layers loaded and the poset built first.
MEMORY_PROBE = """
import sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import inputs
from arrcoh import _writer, decomposition
from arrcoh.arrangement import build_intersection_poset, validate_arrangement
decompose, write_json = decomposition.decompose_cohomology, _writer.write_json
p = build_intersection_poset(validate_arrangement(inputs.generic(12, 3, 1)))
tracemalloc.start()
write_json(decompose(p).to_json(), lambda text: None)
print(tracemalloc.get_traced_memory()[1])
"""

# The tracemalloc peak of `cli.run("decompose", ...)` on a file of
# bench/inputs.generic(12, 3, 1), with the JSON written to devnull and the
# command's layers loaded first; prints the exit code and the peak.
RUN_MEMORY_PROBE = """
import contextlib, json, os, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import inputs
from arrcoh import cli
with open(sys.argv[2], "w") as fh:
    json.dump(inputs.generic(12, 3, 1), fh)
vars(cli.decomposition), vars(cli._writer)
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    tracemalloc.start()
    code = cli.run("decompose", sys.argv[2], "json", 20)
print(code, tracemalloc.get_traced_memory()[1])
"""


# --- the command line --------------------------------------------------------
#
# `arrcoh` argv, each read by `cli.main` as by the argparse parser it
# replaced (`helpers.reference_parser`): the same exit code and the same
# (command, input, format, max_hyperplanes).
F = corpus_file("boolean-c2")
ARGV_CASES = [
    # every option position, both option forms, prefixes, `--`, repeats
    ["poset", F],
    ["verify", F, "--format", "json"],
    ["--format", "json", "decompose", F],
    ["beta", "--format", "json", F],
    ["nerve", F, "--format=json", "--max-hyperplanes=7"],
    ["--max-hyperplanes", "7", "chambers", F],
    ["invariants", F, "--form", "json"],
    ["poset", F, "--f=json", "--max", "3"],
    ["poset", "--", F],
    ["--format", "json", "--", "poset", F],
    ["poset", F, "--"],
    ["poset", F, "--format", "json", "--format", "text"],
    ["--max-hyperplanes", "3", "poset", F, "--max-hyperplanes", "30"],
    ["poset", F, "--max-hyperplanes", "+5"],
    # help, wherever it stands
    ["-h"],
    ["--help"],
    ["--he"],
    ["poset", "--help"],
    ["poset", F, "-h"],
    ["-h", "bogus"],
    # usage errors
    [],
    ["poset"],
    ["bogus", F],
    ["bogus", F, "-h"],
    ["poset", F, "extra"],
    ["poset", F, "--bogus"],
    ["poset", F, "-x"],
    ["poset", F, "--format"],
    ["poset", F, "--format", "xml"],
    ["--format", "--", "poset", F],
    ["poset", F, "--max-hyperplanes", "abc"],
    ["poset", F, "--max-hyperplanes", "0"],
    ["poset", F, "--max-hyperplanes", "-3"],
    ["poset", F, "--help=yes"],
    ["poset", F, "--format", "json", "--"],
    ["--=json", "poset", F, "-h"],
]


def read_argv(parse, argv: list[str], capsys) -> tuple[int, tuple | None, str, str]:
    """(exit code, what `parse` read or None, stdout, stderr)."""
    try:
        read, code = parse(list(argv)), 0
    except SystemExit as exc:
        read, code = None, exc.code
    out, err = capsys.readouterr()
    return code, read, out, err


@pytest.mark.parametrize("argv", ARGV_CASES)
def test_command_line_reads_as_the_argparse_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal
    monkeypatch.setattr(cli, "run", lambda *read: read)
    code, read, out, err = read_argv(cli.main, argv, capsys)
    assert (code, read) == read_argv(reference_parse_args, argv, capsys)[:2]
    if code == 2:
        assert out == "" and err.startswith(cli.USAGE) and err.count("arrcoh: error: ") == 1
    elif read is None:
        assert out == cli.HELP == reference_parser().format_help() and err == ""


# The memory a second build of the poset of braid A_7 (cap 21) retains,
# with the upward order never read, and its peak.
POSET_MEMORY_PROBE = """
import sys, tracemalloc
sys.path.insert(0, sys.argv[1])
import inputs
from arrcoh.arrangement import build_intersection_poset, validate_arrangement
a = validate_arrangement(inputs.braid(7))
build_intersection_poset(a, max_hyperplanes=21)
tracemalloc.start()
p = build_intersection_poset(a, max_hyperplanes=21)
print(*tracemalloc.get_traced_memory())
"""


# Runs one command in text, then in JSON, and prints the arrcoh module
# bodies executed after each.  An `exec` audit event fires for every module
# body, compiled from source or read from a cached .pyc alike.
EXECUTED_PROBE = """
import contextlib, io, json, os, sys
executed = set()

def hook(event, args):
    name = getattr(args[0], "co_filename", "") if event == "exec" else ""
    if os.sep + "arrcoh" + os.sep in name:
        executed.add(os.path.basename(name).removesuffix(".py"))

sys.addaudithook(hook)
from arrcoh.cli import main
after = []
for fmt in ("text", "json"):
    with contextlib.redirect_stdout(io.StringIO()):
        main([sys.argv[1], sys.argv[2], "--format", fmt])
    after.append(sorted(executed))
print(json.dumps(after))
"""

# command: (the layer it runs, the layers it must not execute)
COMMAND_LAYERS = {
    "poset": (
        "arrangement", {"invariants", "nerve_homology", "chambers", "decomposition", "verify"}
    ),
    "invariants": ("invariants", {"nerve_homology", "chambers", "decomposition", "verify"}),
    "beta": ("invariants", {"nerve_homology", "chambers", "decomposition", "verify"}),
    "nerve": ("nerve_homology", {"chambers", "decomposition", "verify"}),
    "chambers": ("chambers", {"decomposition", "nerve_homology", "verify"}),
    "decompose": ("decomposition", {"chambers", "nerve_homology", "verify"}),
    "verify": ("verify", set()),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_command_executes_only_its_layers(command):
    """Start-up: a command executes the bodies of the layers it runs and
    no others, and the JSON writer only for `--format json`."""
    layer, excluded = COMMAND_LAYERS[command]
    text, both = json.loads(run_fresh(EXECUTED_PROBE, command, corpus_file("generic4-c2")))
    assert layer in text and "_writer" not in text
    assert "_writer" in both and not excluded & set(both)


# Runs every command in both formats on one input and prints which of the
# standard modules that `arrcoh` no longer imports are loaded.
IMPORTS_PROBE = """
import contextlib, io, json, sys
from arrcoh.cli import COMMANDS, main
for command in COMMANDS:
    for fmt in ("text", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            main([command, sys.argv[1], "--format", fmt])
print(json.dumps([m for m in ("argparse", "fractions", "decimal", "numbers") if m in sys.modules]))
"""


def test_no_command_imports_argparse_or_fractions():
    """Start-up: the command line is parsed by hand, and an input of
    integer strings is read with `int`, so no command loads `argparse`,
    or `fractions` with `decimal` and `numbers`."""
    assert json.loads(run_fresh(IMPORTS_PROBE, corpus_file("generic4-c2"))) == []


def test_no_fraction_is_built_after_the_input_is_read(tmp_path, capsys, monkeypatch):
    """Flats, traces, decones and their memo keys are integer rows, and a
    printed value's text comes from an integer pair: once the input is
    read, no command builds a `Fraction`.  The input is central and
    essential with rational coefficients, so `verify` decones it."""
    path = tmp_path / "rational.json"
    rows = [["1", "0", "0"], ["0", "-2/3", "0"], ["0", "0", "5"], ["1", "-2/3", "0"],
            ["3/5", "1", "1/2"], ["-1", "7/4", "-7/4"]]
    path.write_text(json.dumps({"dim": 3, "hyperplanes": [
        {"normal": normal, "offset": "0"} for normal in rows
    ]}))
    made, new, load = [], Fraction.__new__, cli.load_arrangement

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def loading(input_path):
        a = load(input_path)
        monkeypatch.setattr(Fraction, "__new__", counting)
        return a

    monkeypatch.setattr(cli, "load_arrangement", loading)
    for command in cli.COMMANDS:
        for fmt in ("text", "json"):
            assert cli.main([command, str(path), "--format", fmt]) == 0, command
            monkeypatch.setattr(Fraction, "__new__", new)
    capsys.readouterr()
    assert made == []


# Eight threads read a name of one layer at once, its first reads in a
# fresh process, with the switch interval cut so that they interleave.
# Prints the threads still alive and the reads that failed.
THREADED_PROBE = """
import sys, threading
import arrcoh

sys.setswitchinterval(1e-6)
barrier, failed = threading.Barrier(8), []

def read():
    barrier.wait()
    try:
        arrcoh.verify.run_all_checks
    except AttributeError as exc:
        failed.append(exc)

threads = [threading.Thread(target=read) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(sum(thread.is_alive() for thread in threads), len(failed))
"""


def test_threads_wait_while_another_loads_a_layer():
    assert run_fresh(THREADED_PROBE) == "0 0\n"


# `arrcoh.__all__` as it stood when it was derived from `dir()`, plus
# `Copies`, the record of a COPIES node, public since it was added.
PUBLIC_NAMES = [
    "AffineSubspace", "Arrangement", "ArrcohError", "BetaValue", "Chamber",
    "ChamberReport", "Constraint", "Copies", "Flat", "Free", "GradedDecomposition",
    "HomologyResult", "Hyperplane", "Induced", "InputError", "IntPolynomial",
    "InternalConsistencyError", "IntersectionPoset", "LinearSystem", "ModuleExpr",
    "Rational", "ResourceCapError", "SimplicialComplex", "Sum", "Summand",
    "TensorTrivial", "TrivialZ", "WedgeCheck", "arrangement", "arrangement_from_coeffs",
    "as_rational", "beta_all_flats", "beta_combinatorial", "build_intersection_poset",
    "build_singular_nerve", "chamber_bounded", "chambers", "characteristic_polynomial",
    "decompose_cohomology", "decomposition", "decone", "decone_flats",
    "enumerate_chambers", "errors", "essentialize", "essentialize_with_chart",
    "euler_complement", "exact_linalg", "fm_feasible", "graded_piece_is_trivial_z",
    "intersect_flats", "invariants", "mobius_from_top", "nerve_homology",
    "poincare_polynomial", "poset_subspaces_bruteforce", "rational_str",
    "restriction_to", "rref", "sigma_wedge_check", "simplicial_homology",
    "smith_normal_form", "solve_affine", "subarrangement_at", "validate_arrangement",
]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_invariants_computes_mobius_once(capsys, monkeypatch, fmt):
    """χ, π and the Euler characteristic are read off one Möbius function."""
    calls = []
    mobius_from_top = invariants.mobius_from_top
    monkeypatch.setattr(invariants, "mobius_from_top", lambda p: calls.append(p) or mobius_from_top(p))
    code, out, _ = run_cli(capsys, "invariants", corpus_file("generic4-c2"), "--format", fmt)
    assert code == 0 and out and len(calls) == 1


def test_all_names_the_public_api():
    assert sorted(arrcoh.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(arrcoh, name)
    assert arrcoh.decone is decomposition.decone
    assert set(PUBLIC_NAMES) <= set(dir(arrcoh))
    assert not hasattr(arrcoh, "no_such_name")


def test_star_import_binds_all_in_a_fresh_process():
    probe = "from arrcoh import *; import arrcoh; print(sorted(set(arrcoh.__all__) - set(dir())))"
    assert run_fresh(probe) == "[]\n"


# Every kind of value the writer accepts: ints of any size next to bools,
# any text (non-ASCII and control characters included), lists, tuples,
# empty containers and dicts keyed by any text.
json_scalars = st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | st.text()


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=5), children, max_size=4),
        max_leaves=20,
    )


@st.composite
def json_values_with_sharing(draw):
    """A tree in which one sub-object is reached at several depths."""
    shared = draw(json_trees(json_scalars))
    tree = draw(json_trees(json_scalars | st.just(shared)))
    return {"a": shared, "b": [tree, (shared, {"\x00é": shared})], "c": [[[shared]]]}


def written(value: object) -> str:
    parts: list[str] = []
    _writer.write_json(value, parts.append)
    return "".join(parts)


@st.composite
def json_values_with_nested_sharing(draw):
    """Two shared containers, one holding the other, each reached directly
    under the document's root and again a drawn number of levels down."""
    inner = [draw(json_trees(json_scalars))]
    outer = {"inner": inner, "tree": draw(json_trees(json_scalars | st.just(inner)))}

    def nested(shared):
        for _ in range(draw(st.integers(1, 6))):
            shared = [shared] if draw(st.booleans()) else {"k": shared}
        return shared

    return [inner, outer, nested(outer), nested(inner), {"both": (outer, inner)}]


def cyclic_list() -> list:
    cycle: list = []
    cycle.append(cycle)
    return cycle


class ToJson:
    """A value the writer renders as what `make()` returns, built anew on
    every `to_json()` call, as a report's flats are."""

    def __init__(self, make):
        self.make = make

    def to_json(self):
        return self.make()


def fresh_copy(value):
    """New containers around the same scalars and `ToJson` objects."""
    if isinstance(value, dict):
        return {k: fresh_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [fresh_copy(v) for v in value]
    return value


def renders_as(value) -> ToJson:
    return ToJson(lambda: fresh_copy(value))


@st.composite
def json_values_with_to_json(draw):
    """A tree holding `to_json` objects, one of them, itself holding
    another, reached at several depths."""
    inner = renders_as(draw(json_trees(json_scalars)))
    shared = renders_as(draw(json_trees(json_scalars | st.just(inner))))
    others = json_trees(json_scalars).map(renders_as)
    tree = draw(json_trees(json_scalars | st.just(shared) | others))
    return {"a": shared, "b": [tree, (shared, {"k": [[shared]]})], "c": inner}


def more_than_two_chunks() -> list:
    """A list whose JSON text, about 30 characters an item, fills more
    than two of the writer's chunks."""
    return [{"n": i} for i in range(_writer.CHUNK_CHARS // 8)]


def dumps_to_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, default=lambda o: o.to_json()) + "\n"


class TestJsonBlocks:
    @given(json_values_with_sharing())
    @settings(max_examples=200, deadline=None)
    def test_equals_json_dumps(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert written(value) == expected

    @given(json_trees(json_scalars))
    @settings(max_examples=100, deadline=None)
    def test_equals_json_dumps_without_sharing(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert written(value) == expected

    @given(json_values_with_nested_sharing())
    @settings(max_examples=200, deadline=None)
    def test_nested_sharing_equals_json_dumps(self, value):
        assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @given(json_values_with_nested_sharing())
    @settings(max_examples=100, deadline=None)
    def test_nested_sharing_written_one_token_at_a_time(self, value):
        with mock.patch.object(_writer, "CHUNK_CHARS", 1):
            assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_unsupported_value_writes_nothing(self, capsys, monkeypatch):
        # Enough chunks before the float that some are already joined into
        # blocks: none of them may reach stdout.
        report = {"a": [{"n": i} for i in range(10_000)], "b": [1.5]}
        monkeypatch.setattr(cli, "poset_report", lambda *args: report)
        with pytest.raises(TypeError):
            cli.main(["poset", corpus_file("generic3-c2"), "--format", "json"])
        assert capsys.readouterr().out == ""

    def test_non_string_key_is_type_error(self):
        with pytest.raises(TypeError):
            _writer.write_json({1: "a"}, [].append)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (1.5, TypeError),
            ({1: "a"}, TypeError),
            (10 ** sys.get_int_max_str_digits(), ValueError),
            (cyclic_list(), ValueError),
        ],
        ids=["float", "non-str-key", "int-past-digit-limit", "cycle"],
    )
    def test_invalid_value_after_chunks_writes_nothing(self, bad, error):
        # Sorted keys put "b" after more than two chunks' worth of "a".
        chunks = []
        _writer.write_json({"a": more_than_two_chunks()}, chunks.append)
        assert len(chunks) > 2
        report = {"a": more_than_two_chunks(), "b": [bad]}
        calls = []
        with pytest.raises(error):
            _writer.write_json(report, calls.append)
        assert calls == []

    def test_int_at_digit_limit_is_written(self):
        value = [-(10 ** sys.get_int_max_str_digits() - 1)]
        assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @given(json_values_with_to_json())
    @settings(max_examples=200, deadline=None)
    def test_to_json_objects_equal_json_dumps_default(self, value):
        assert written(value) == dumps_to_json(value)

    @given(json_values_with_to_json())
    @settings(max_examples=100, deadline=None)
    def test_to_json_objects_written_one_token_at_a_time(self, value):
        with mock.patch.object(_writer, "CHUNK_CHARS", 1):
            assert written(value) == dumps_to_json(value)

    def test_top_level_to_json_object(self):
        value = renders_as({"rows": [["1", "-1/2"]], "n": 2})
        assert written(value) == dumps_to_json(value)

    @pytest.mark.parametrize("bad", ["float", "nested-float"])
    def test_to_json_returning_a_float_writes_nothing(self, bad):
        value = ToJson(lambda: 1.5) if bad == "float" else ToJson(lambda: {"k": [ToJson(lambda: 1.5)]})
        report = {"a": more_than_two_chunks(), "b": [value]}
        calls = []
        with pytest.raises(TypeError):
            _writer.write_json(report, calls.append)
        assert calls == []

    @pytest.mark.parametrize("through", ["container", "object"])
    def test_cycle_through_to_json_result_writes_nothing(self, through):
        if through == "container":
            # The result holds the list that holds the object.
            value: object = []
            value.append(ToJson(lambda: {"back": value}))
        else:
            # The result holds the object itself.
            value = ToJson(lambda: [[value]])
        report = {"a": more_than_two_chunks(), "b": [value]}
        calls = []
        with pytest.raises(ValueError, match="Circular reference"):
            _writer.write_json(report, calls.append)
        assert calls == []

    def test_to_json_results_are_never_counted(self):
        """The writer keeps no table of what it has reached: no container
        and no object is counted or shared by id.  When it writes, the ids
        it holds are only those on the path being checked, and none is
        left once the check is done.  An object reached at several places
        is checked and rendered at each: its `to_json()` is called twice
        per place."""
        returned = []

        def make():
            obj = {"system": [["1", "0"], ["0", "1/2"]], "rhs": ["3", "4"]}
            returned.append(obj)
            return obj

        flat = ToJson(make)
        calls = []
        shared = ToJson(lambda: calls.append(1) or [flat, "x"])
        plain = [flat, "y"]
        value = {"a": shared, "b": [[shared, flat, plain]], "c": flat, "d": plain}
        held = []

        def write(text):
            frame = sys._getframe(1)
            while frame.f_code is not _writer.write_json.__code__:
                frame = frame.f_back
            held.append(set(frame.f_locals["inside"]))

        with mock.patch.object(_writer, "CHUNK_CHARS", 1):
            _writer.write_json(value, write)
        assert len(held) > 1 and not any(held)
        assert len(calls) == 2 * 2
        # `flat` stands at 6 places: 1 in each of `shared`'s 2 results, 2 in
        # `value` itself and 1 in each of `plain`'s 2 places.
        assert len(returned) == 2 * 6

    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_shared_object_is_checked_once_and_rendered_once(self, k):
        """An object reached at k places is checked once and rendered once
        at each, as `json.dumps` calls its `default` once at each: its
        `to_json()` is called 2k times, and the text is the same."""
        calls = []
        inner = ToJson(lambda: {"rank": 1})
        shared = ToJson(lambda: calls.append(1) or {"inner": inner, "kind": "X"})
        value = {"a": [shared] * (k - 2), "b": [{"c": shared}, (shared,)]}
        expected = dumps_to_json(value)
        calls.clear()
        assert written(value) == expected
        assert len(calls) == 2 * k

    def test_chunks_are_bounded_in_characters(self):
        """No chunk handed to `write` holds `CHUNK_CHARS` characters before
        its last piece: a piece is what one write carries at a bound of 1,
        one line of the document at most.  Chunks of 1,024 tokens once
        reached 161,503 characters on braid A_6."""
        p = cli.build_intersection_poset(braid(6))
        report = cli.decompose_report(p.arrangement, decomposition.decompose_cohomology(p), "json")
        pieces, chunks = [], []
        with mock.patch.object(_writer, "CHUNK_CHARS", 1):
            _writer.write_json(report, pieces.append)
        _writer.write_json(report, lambda text: chunks.append(len(text)))
        assert sum(chunks) == sum(map(len, pieces)) and len(chunks) > 2
        assert all(piece.count("\n") <= 1 for piece in pieces)
        assert max(chunks) < _writer.CHUNK_CHARS + max(map(len, pieces))

    def test_memory_below_characters_written(self):
        # The printed tree repeats the decone memo's shared modules; the
        # writer holds each once, and its own output only a chunk at a time.
        p = cli.build_intersection_poset(braid(6))
        report = cli.decompose_report(p.arrangement, decomposition.decompose_cohomology(p), "json")
        size = 0

        def discard(text):
            nonlocal size
            size += len(text)

        tracemalloc.start()
        try:
            _writer.write_json(report, discard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size

    def test_decompose_and_write_peak_on_12_planes(self):
        """`decompose_cohomology` and `write_json` on 12 generic planes, in
        a fresh process under tracemalloc.  At the peak, Python 3.11 holds
        2.53 MB while flats are `Fraction` rows and each occurrence of a
        value is its own string, 2.21 MB with integer rows and each value's
        text once, 1.38 MB once no flat's JSON object is built before it is
        written (3.12 and 3.13 within 0.03 MB of that), 1.26 MB since
        the module records are written as they stand, with no dict tree
        beside them, and 0.80 MB since each decone's module is written once
        (3.12 0.77, 3.13 0.79).  3.10's objects are larger: 2.71, 2.39,
        1.57, 1.45 and 0.97 MB.  Each bound sits about 20% above the last
        figure of its version."""
        bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
        bound = 1_150_000 if sys.version_info < (3, 11) else 1_000_000
        assert int(run_fresh(MEMORY_PROBE, str(bench))) < bound

    def test_decompose_command_peak_on_12_planes(self, tmp_path):
        """`arrcoh decompose --format json` on 12 generic planes, as
        `cli.run` runs it, in a fresh process under tracemalloc.  On Python
        3.11 it peaks at 2.23 MB while the poset and a dict tree of every
        module are held as the report is written, at 1.76 MB since both
        are gone by then, and at 1.40 MB since each decone's module is
        written once (3.12 1.36, 3.13 1.40; 3.10 1.99 and then 1.69).
        Each bound sits about 15% above the last figure of its version."""
        bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
        path = tmp_path / "planes-12.json"
        code, peak = map(int, run_fresh(RUN_MEMORY_PROBE, str(bench), str(path)).split())
        bound = 1_950_000 if sys.version_info < (3, 11) else 1_600_000
        assert code == 0 and peak < bound

    def test_decompose_text_renders_each_module_once(self, monkeypatch):
        # Each decone's module is written once, as a line of the table that
        # the summands name it from: each INDUCED record writes its flat's
        # equations once, and the text holds one "Ind[" per INDUCED record.
        p = cli.build_intersection_poset(braid(5))
        dec = decomposition.decompose_cohomology(p)
        records = module_records(*dec.modules, *(s.module for s in dec.summands))
        induced = sum(isinstance(m, decomposition.Induced) for m in records)
        calls = []
        equations_str = cli.equations_str

        def counting(flat):
            calls.append(flat)
            return equations_str(flat)

        monkeypatch.setattr(cli, "equations_str", counting)
        text = cli.decompose_report(p.arrangement, dec, "text")
        assert len(calls) == len(dec.summands) + induced
        assert text.count("Ind[") == induced
        assert sum(line.startswith("  M") for line in text.splitlines()) == len(dec.modules)
