"""Command-line driver.

    arrcoh <command> <input.json> [--format json|text] [--max-hyperplanes N]

Commands: poset, invariants, beta, nerve, chambers, decompose, verify.
The input schema is the arrangement JSON documented in the README.
Exit codes: 0 success, 1 invalid input, 2 cap exceeded, 3 verification
failure.  Output is deterministic: identical input yields identical
bytes (no timestamps, sorted keys).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arrangement import (
    DEFAULT_MAX_HYPERPLANES,
    Arrangement,
    IntersectionPoset,
    arrangement_stats,
    build_intersection_poset,
    validate_arrangement,
)
from .chambers import enumerate_chambers
from .decomposition import (
    Free,
    GradedDecomposition,
    Induced,
    ModuleExpr,
    Sum,
    TensorTrivial,
    TrivialZ,
    decompose_cohomology,
    graded_piece_is_trivial_z,
)
from .errors import InputError, ResourceCapError
from .exact_linalg import AffineSubspace, rational_str
from .invariants import (
    beta_all_flats,
    characteristic_polynomial,
    euler_complement,
    mobius_from_top,
    poincare_polynomial,
)
from .nerve_homology import DEFAULT_NERVE_ORACLE_CAP, sigma_wedge_check
from .verify import run_all_checks

COMMANDS = ("poset", "invariants", "beta", "nerve", "chambers", "decompose", "verify")


# --- rendering helpers ----------------------------------------------------


def format_coefficient(c: Fraction, variable: str, first: bool) -> str:
    mag = abs(c)
    body = variable if mag == 1 else f"{rational_str(mag)}*{variable}"
    if first:
        return body if c > 0 else f"-{body}"
    return f"+ {body}" if c > 0 else f"- {body}"


def equations_str(s: AffineSubspace) -> str:
    """Human-readable canonical defining equations of a flat."""
    if s.is_whole_space:
        return f"C^{s.ambient_dim} (whole space)"
    parts = []
    for i, row in enumerate(s.system.entries):
        terms = []
        for j, c in enumerate(row):
            if c != 0:
                terms.append(format_coefficient(c, f"x{j + 1}", not terms))
        parts.append(" ".join(terms) + f" = {rational_str(s.rhs[i])}")
    return ", ".join(parts)


def module_str(m: ModuleExpr) -> str:
    if isinstance(m, Free):
        return f"(Zpi)^{m.rank}"
    if isinstance(m, TrivialZ):
        return "Z"
    if isinstance(m, TensorTrivial):
        return f"({module_str(m.inner)} (x) Z[triv])"
    if isinstance(m, Induced):
        return f"Ind[{equations_str(m.flat)}]({module_str(m.inner)})"
    if isinstance(m, Sum):
        return "(" + " (+) ".join(module_str(p) for p in m.parts) + ")"
    raise InputError(f"not a module expression: {m!r}")


# --- per-command reports --------------------------------------------------


def poset_report(a: Arrangement, p: IntersectionPoset) -> tuple[dict, str]:
    stats = arrangement_stats(p)
    flats = [
        {
            "index": f.index,
            "dim": f.dim,
            "codim": f.codim,
            "flat": f.subspace.to_json(),
            "containing_hyperplanes": sorted(f.containing_hyperplanes),
            "covers": sorted(p.covers[f.index]),
        }
        for f in p.flats
    ]
    obj = {
        "dim": a.ambient_dim,
        "hyperplane_count": len(a),
        "n0": stats.n0,
        "rank": stats.rank_l,
        "is_central": stats.is_central,
        "is_essential": stats.is_essential,
        "flats": flats,
    }
    lines = [
        f"arrangement: {len(a)} hyperplanes in C^{a.ambient_dim}",
        f"poset: {len(p.flats)} flats, n0 = {stats.n0}, rank l = {stats.rank_l}, "
        f"central: {'yes' if stats.is_central else 'no'}, "
        f"essential: {'yes' if stats.is_essential else 'no'}",
    ]
    for f in p.flats:
        lines.append(
            f"  [{f.index}] dim {f.dim}  {equations_str(f.subspace)}  "
            f"| hyperplanes {sorted(f.containing_hyperplanes)} "
            f"| covers {sorted(p.covers[f.index])}"
        )
    return obj, "\n".join(lines)


def invariants_report(a: Arrangement, p: IntersectionPoset) -> tuple[dict, str]:
    mu = mobius_from_top(p)
    chi = characteristic_polynomial(p)
    pi = poincare_polynomial(p)
    euler = euler_complement(p)
    obj = {
        "mobius": [{"flat_index": f.index, "mu": mu[f.index]} for f in p.flats],
        "characteristic_polynomial": list(chi.coefficients),
        "poincare_polynomial": list(pi.coefficients),
        "euler_complement": euler,
    }
    lines = [
        f"characteristic polynomial: {chi}",
        f"poincare polynomial: {pi}",
        f"euler characteristic of the complement: {euler}",
        "mobius values mu(top, G):",
    ]
    for f in p.flats:
        lines.append(f"  [{f.index}] dim {f.dim}  {equations_str(f.subspace)}: {mu[f.index]}")
    return obj, "\n".join(lines)


def beta_report(a: Arrangement, p: IntersectionPoset) -> tuple[dict, str]:
    values = beta_all_flats(p)
    obj = {
        "betas": [
            {"flat_index": b.flat.index, "degree": b.degree, "beta": b.value}
            for b in values
        ]
    }
    lines = ["beta invariants beta(A∩G), degree l(G):"]
    for b in values:
        lines.append(
            f"  [{b.flat.index}] dim {b.flat.dim}  {equations_str(b.flat.subspace)}: "
            f"beta = {b.value} in degree {b.degree}"
        )
    return obj, "\n".join(lines)


def nerve_report(a: Arrangement, p: IntersectionPoset) -> tuple[dict, str]:
    wedge = sigma_wedge_check(p)
    nerve = wedge.nerve
    hom = wedge.homology
    counts = [len(nerve.simplices_of_dim(d)) for d in range(nerve.max_dim + 1)]
    obj = {
        "vertex_count": nerve.vertex_count,
        "simplex_counts": counts,
        "homology": [g.to_json() for g in hom.groups],
        "wedge_degree": p.rank_l - 1,
        "beta": wedge.beta,
        "is_wedge": wedge.is_wedge,
    }
    lines = [
        f"nerve of the hyperplane cover: {nerve.vertex_count} vertices, "
        f"simplex counts by dimension {counts}",
        "integer homology:",
    ]
    for g in hom.groups:
        torsion = ", ".join(f"Z/{d}" for d in g.torsion)
        desc = " + ".join(x for x in [f"Z^{g.free_rank}" if g.free_rank else "", torsion] if x) or "0"
        lines.append(f"  H_{g.degree} = {desc}")
    lines.append(
        f"wedge check: beta = {wedge.beta} in degree {p.rank_l - 1}, "
        f"is_wedge: {'yes' if wedge.is_wedge else 'NO'}"
    )
    return obj, "\n".join(lines)


def chambers_report(a: Arrangement) -> tuple[dict, str]:
    report = enumerate_chambers(a)
    obj = report.to_json()
    lines = [f"chambers: {report.total} total, {report.bounded} bounded"]
    for c in report.chambers:
        lines.append(f"  {c.signs}  {'bounded' if c.bounded else 'unbounded'}")
    return obj, "\n".join(lines)


def decompose_report(a: Arrangement, dec: GradedDecomposition) -> tuple[dict, str]:
    obj = dec.to_json()
    lines = [
        f"graded group-ring cohomology of the complement of {len(a)} "
        f"hyperplanes in C^{a.ambient_dim}",
        f"concentrated in degree {dec.concentration_degree}; free rank {dec.free_rank}",
    ]
    if graded_piece_is_trivial_z(dec):
        lines.append(f"H^{dec.concentration_degree} = Z (trivial module)")
    lines += [
        f"note: {obj['l2_note']}",
        f"note: {obj['duality_note']}",
        "summands (one per flat with positive beta):",
    ]
    for s in dec.summands:
        suffix = "  = trivial module Z" if s.is_trivial_z else ""
        lines.append(
            f"  [{s.flat_index}] {equations_str(s.subspace)} "
            f"| multiplicity {s.multiplicity} | {module_str(s.module)}{suffix}"
        )
    return obj, "\n".join(lines)


def verify_report(a: Arrangement, max_hyperplanes: int) -> tuple[dict, str, bool]:
    results = run_all_checks(a, max_hyperplanes=max_hyperplanes)
    ok = all(r.passed for r in results)
    obj = {
        "all_passed": ok,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results
    ]
    lines.append(f"verify: {'all checks passed' if ok else 'AT LEAST ONE CHECK FAILED'}")
    return obj, "\n".join(lines), ok


# --- driver ---------------------------------------------------------------


def load_arrangement(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return validate_arrangement(raw)


def run(command: str, input_path: str, output_format: str, max_hyperplanes: int) -> int:
    """Dispatch a command; prints the report and returns the exit code."""
    try:
        a = load_arrangement(input_path)
        if command == "nerve" and len(a) > DEFAULT_NERVE_ORACLE_CAP:
            # Checked before the poset: nerve homology grows like 2^|A|.
            raise ResourceCapError(
                f"{len(a)} hyperplanes exceeds the oracle cap of {DEFAULT_NERVE_ORACLE_CAP}"
            )
        if len(a) > max_hyperplanes:  # every command, `chambers` included
            raise ResourceCapError(f"{len(a)} hyperplanes exceeds the cap of {max_hyperplanes}")
        verify_ok = True
        if command == "chambers":
            obj, text = chambers_report(a)
        elif command == "verify":
            obj, text, verify_ok = verify_report(a, max_hyperplanes)
        else:
            p = build_intersection_poset(a, max_hyperplanes=max_hyperplanes)
            if command == "poset":
                obj, text = poset_report(a, p)
            elif command == "invariants":
                obj, text = invariants_report(a, p)
            elif command == "beta":
                obj, text = beta_report(a, p)
            elif command == "nerve":
                obj, text = nerve_report(a, p)
            elif command == "decompose":
                obj, text = decompose_report(a, decompose_cohomology(p))
            else:
                raise InputError(f"unknown command {command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output_format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)
    return 0 if verify_ok else 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="arrcoh",
        description=(
            "Intersection-poset invariants and the graded group-ring "
            "cohomology decomposition of a rational hyperplane arrangement "
            "complement."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="arrangement JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-hyperplanes",
        type=int,
        default=DEFAULT_MAX_HYPERPLANES,
        help=f"cap on the number of hyperplanes (default {DEFAULT_MAX_HYPERPLANES})",
    )
    args = parser.parse_args(argv)
    if args.max_hyperplanes <= 0:
        parser.error("--max-hyperplanes must be positive")
    return run(args.command, args.input, args.format, args.max_hyperplanes)


if __name__ == "__main__":
    sys.exit(main())
