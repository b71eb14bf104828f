"""Self-checks for the benchmark's generators and oracles.

    python3 bench/selftest.py

Generators must reproduce the same files from the same seed and produce
certified general position.  Every oracle must accept the program's real
output on small inputs and reject that output after one planted fault
(a chi coefficient, a multiplicity, a count or a flag changed).  Exits 1
on the first check that does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import inputs
import oracles

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "import sys; from arrcoh.cli import main; sys.exit(main())"


def arrcoh(command: str, arrangement: dict, fmt: str, scratch: Path) -> str:
    path = scratch / "input.json"
    path.write_text(json.dumps(arrangement), encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", ENTRY, command, str(path), "--format", fmt],
                          capture_output=True, env={"PYTHONPATH": str(ROOT / "src")}, check=True)
    return done.stdout.decode()


def require(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_generators() -> None:
    for m, n in ((8, 2), (16, 2), (12, 3)):
        a, b = inputs.generic(m, n, 7), inputs.generic(m, n, 7)
        require(a == b, f"generic({m},{n}) reproduces from the same seed")
        require(a != inputs.generic(m, n, 8), f"generic({m},{n}) differs across seeds")
        require(inputs.in_general_position(inputs.rows_of(a), n), f"generic({m},{n}) passes its certificate")
    braid = inputs.braid(5)
    require(inputs.present(braid, 3) == inputs.present(braid, 3), "presentation reproduces from the same seed")
    require(inputs.present(braid, 3) != inputs.present(braid, 4), "presentation differs across seeds")
    concurrent = [([1, 0], 0), ([0, 1], 0), ([1, 1], 0)]
    parallel = [([1, 0], 0), ([2, 0], 1)]
    require(not inputs.in_general_position(concurrent, 2), "certificate rejects three concurrent lines")
    require(not inputs.in_general_position(parallel, 2), "certificate rejects parallel lines")
    require(inputs.det([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18, "integer determinant")
    require(len(braid["hyperplanes"]) == 10, "braid A_5 has 10 hyperplanes")


def bump_first_nonzero(values: list[int]) -> None:
    i = next(i for i, v in enumerate(values) if v)
    values[i] += 1


# (command, corruption) pairs: each must turn a passing output into a failing one.
def _drop_cover(o):
    f = next(f for f in o["flats"] if f["covers"])
    f["covers"] = f["covers"][1:]


def _drop_chamber(o):
    o["chambers"] = o["chambers"][1:]
    o["total"] -= 1


def _bump_multiplicity(o):
    o["summands"][-1]["multiplicity"] += 1


def _fail_check(o):
    o["checks"][3]["passed"] = False


CORRUPTIONS = {
    "poset": [("one cover dropped", _drop_cover),
              ("one flat's dimension changed", lambda o: o["flats"][-1].update(dim=o["flats"][-1]["dim"] + 1))],
    "invariants": [("one chi coefficient perturbed", lambda o: bump_first_nonzero(o["characteristic_polynomial"])),
                   ("euler characteristic changed", lambda o: o.update(euler_complement=o["euler_complement"] + 1))],
    "beta": [("beta(A) changed", lambda o: o["betas"][0].update(beta=o["betas"][0]["beta"] + 1))],
    "nerve": [("nerve beta changed", lambda o: o.update(beta=o["beta"] + 1)),
              ("wedge flag cleared", lambda o: o.update(is_wedge=False))],
    "chambers": [("one chamber dropped", _drop_chamber),
                 ("bounded count changed", lambda o: o.update(bounded=o["bounded"] + 1))],
    "decompose": [("one multiplicity changed", _bump_multiplicity),
                  ("free rank changed", lambda o: o.update(free_rank=o["free_rank"] + 1))],
    "verify": [("one check failed", _fail_check)],
}


def check_oracles(scratch: Path) -> None:
    cases = [
        ("braid A_4", inputs.present(inputs.braid(4), 3), oracles.expect_braid(4)),
        ("Shi 3", inputs.present(inputs.shi(3), 3), oracles.expect_shi(3)),
        ("essential braid A_4", inputs.present(inputs.essential_braid(4), 3),
         oracles.expect_essential_braid(4)),
        ("6 generic lines", inputs.generic(6, 2, 3), oracles.expect_generic(6, 2)),
        ("5 generic planes", inputs.generic(5, 3, 3), oracles.expect_generic(5, 3)),
    ]
    for label, arrangement, expected in cases:
        for command, corruptions in CORRUPTIONS.items():
            if command == "chambers" and label.startswith(("braid", "Shi")):
                continue  # keep the selftest quick: chambers run on the essential members
            text = arrcoh(command, arrangement, "json", scratch)
            poset = json.loads(arrcoh("poset", arrangement, "json", scratch)) \
                if command == "decompose" else None
            good = oracles.check_output(command, "json", text.encode(), expected, poset)
            require(not good, f"{command} oracle accepts the output on {label}")
            for what, corrupt in corruptions:
                bad = json.loads(text)
                corrupt(bad)
                found = oracles.check_output(command, "json", json.dumps(bad).encode(), expected, poset)
                require(bool(found), f"{command} oracle rejects {what} on {label}")
    # chi(t) of generic4-c2 is t^2 - 4t + 6, with 11 flats
    wrong = oracles.Expected(2, 4, (5, -4, 1), False, {2: 1, 1: 4, 0: 5})
    corpus = json.loads((ROOT / "corpus" / "generic4-c2.json").read_text(encoding="utf-8"))
    expected = oracles.CORPUS["generic4-c2"]
    for command in oracles.JSON_CHECKS:
        text = arrcoh(command, corpus, "text", scratch)
        require(not oracles.check_output(command, "text", text.encode(), expected),
                f"{command} text oracle accepts generic4-c2")
        if command != "verify":
            require(bool(oracles.check_output(command, "text", text.encode(), wrong)),
                    f"{command} text oracle rejects a wrong chi on generic4-c2")


def main() -> int:
    scratch = ROOT / ".bench_work" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        check_generators()
        check_oracles(scratch)
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
