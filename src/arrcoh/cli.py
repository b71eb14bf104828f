"""Command-line driver.

    arrcoh <command> <input.json> [--format json|text] [--max-hyperplanes N]

Commands: poset, invariants, beta, nerve, chambers, decompose, verify.
The input schema is the arrangement JSON documented in the README.
Exit codes: 0 success, 1 invalid input, 2 cap exceeded or a usage
error, 3 verification failure.  Output is deterministic: identical input
yields identical bytes (no timestamps, sorted keys).
"""

from __future__ import annotations

import json
import re
import sys
from typing import NoReturn

from . import _writer, chambers, decomposition, invariants, nerve_homology, verify
from .arrangement import (
    DEFAULT_MAX_HYPERPLANES,
    Arrangement,
    IntersectionPoset,
    build_intersection_poset,
    validate_arrangement,
)
from .errors import InputError, ResourceCapError
from .exact_linalg import AffineSubspace, ratio_str

# The layers imported from `.` load on first use (`arrcoh/__init__.py`).
# Per command, the layers its report runs: `run` loads them, and `_writer`
# under --format json, before it reads the input, so none compiles after.
COMMAND_LAYERS = {"poset": (), "invariants": (invariants,), "beta": (invariants,),
                  "nerve": (nerve_homology,), "chambers": (chambers,),
                  "decompose": (decomposition,), "verify": (verify,)}
COMMANDS = tuple(COMMAND_LAYERS)
FORMATS = ("text", "json")

HELP = f"""\
usage: arrcoh [-h] [--format {{text,json}}] [--max-hyperplanes MAX_HYPERPLANES]
              {{{",".join(COMMANDS)}}} input

Intersection-poset invariants and the graded group-ring cohomology
decomposition of a rational hyperplane arrangement complement.

positional arguments:
  {{{",".join(COMMANDS)}}}
  input                 arrangement JSON file

options:
  -h, --help            show this help message and exit
  --format {{text,json}}
  --max-hyperplanes MAX_HYPERPLANES
                        cap on the number of hyperplanes (default {DEFAULT_MAX_HYPERPLANES})
"""
USAGE = HELP[: HELP.index("\n\n") + 1]


# --- rendering helpers ----------------------------------------------------


def equations_str(s: AffineSubspace) -> str:
    """Human-readable canonical defining equations of a flat."""
    if s.is_whole_space:
        return f"C^{s.ambient_dim} (whole space)"
    parts = []
    for row in s.ratios():
        terms = []
        for j, (c, d) in enumerate(row[:-1]):
            if c:
                body = f"x{j + 1}" if (abs(c), d) == (1, 1) else f"{ratio_str(abs(c), d)}*x{j + 1}"
                sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
                terms.append(sign + body)
        parts.append(" ".join(terms) + f" = {ratio_str(*row[-1])}")
    return ", ".join(parts)


def module_str(m: decomposition.ModuleExpr) -> str:
    """The text of a module; a decone's module is named M<k>, k its index
    in `GradedDecomposition.modules`."""
    if isinstance(m, decomposition.Free):
        return f"(Zpi)^{m.rank}"
    if isinstance(m, decomposition.TrivialZ):
        return "Z"
    if isinstance(m, decomposition.TensorTrivial):
        return f"(M{m.inner} (x) Z[triv])"
    if isinstance(m, decomposition.Induced):
        return f"Ind[{equations_str(m.flat)}]({module_str(m.inner)})"
    if isinstance(m, decomposition.Sum):
        return "(" + " (+) ".join(map(module_str, m.parts)) + ")"
    if isinstance(m, decomposition.Copies):
        return f"({module_str(m.module)})^{m.count}"
    raise InputError(f"not a module expression: {m!r}")


# --- per-command reports --------------------------------------------------
#
# Each report builds only the requested format: the JSON object, or the text.


def poset_report(a: Arrangement, p: IntersectionPoset, fmt: str) -> dict | str:
    if fmt == "json":
        flats = [
            {
                "index": f.index,
                "dim": f.dim,
                "codim": f.codim,
                "flat": f.subspace,
                "containing_hyperplanes": sorted(f.containing_hyperplanes),
                "covers": sorted(p.covers(f.index)),
            }
            for f in p.flats
        ]
        return {
            "dim": a.ambient_dim,
            "hyperplane_count": len(a),
            "n0": p.n0,
            "rank": p.rank_l,
            "is_central": p.is_central,
            "is_essential": p.is_essential,
            "flats": flats,
        }
    lines = [
        f"arrangement: {len(a)} hyperplanes in C^{a.ambient_dim}",
        f"poset: {len(p.flats)} flats, n0 = {p.n0}, rank l = {p.rank_l}, "
        f"central: {'yes' if p.is_central else 'no'}, "
        f"essential: {'yes' if p.is_essential else 'no'}",
    ]
    for f in p.flats:
        lines.append(
            f"  [{f.index}] dim {f.dim}  {equations_str(f.subspace)}  "
            f"| hyperplanes {sorted(f.containing_hyperplanes)} "
            f"| covers {sorted(p.covers(f.index))}"
        )
    return "\n".join(lines)


def invariants_report(a: Arrangement, p: IntersectionPoset, fmt: str) -> dict | str:
    mu = invariants.mobius_from_top(p)
    chi = invariants._characteristic(p, mu)
    pi = invariants._poincare(p, mu)
    euler = invariants._euler(mu)
    # Written in both formats, so that a flat whose equations are too long
    # to print exits 2 whatever the format.
    equations = [equations_str(f.subspace) for f in p.flats]
    if fmt == "json":
        return {
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
        lines.append(f"  [{f.index}] dim {f.dim}  {equations[f.index]}: {mu[f.index]}")
    return "\n".join(lines)


def beta_report(a: Arrangement, p: IntersectionPoset, fmt: str) -> dict | str:
    values = invariants.beta_all_flats(p)
    # Written in both formats, as in `invariants_report`.
    equations = [equations_str(b.flat.subspace) for b in values]
    if fmt == "json":
        return {
            "betas": [
                {"flat_index": b.flat.index, "degree": b.degree, "beta": b.value}
                for b in values
            ]
        }
    lines = ["beta invariants beta(A∩G), degree l(G):"]
    for b, eq in zip(values, equations):
        lines.append(
            f"  [{b.flat.index}] dim {b.flat.dim}  {eq}: "
            f"beta = {b.value} in degree {b.degree}"
        )
    return "\n".join(lines)


def nerve_report(a: Arrangement, p: IntersectionPoset, fmt: str) -> dict | str:
    wedge = nerve_homology.sigma_wedge_check(p)
    nerve = wedge.nerve
    hom = wedge.homology
    counts = [len(nerve.simplices_of_dim(d)) for d in range(nerve.max_dim + 1)]
    if fmt == "json":
        return {
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
    return "\n".join(lines)


def chambers_report(a: Arrangement, fmt: str) -> dict | str:
    report = chambers.enumerate_chambers(a)
    if fmt == "json":
        return report.to_json()
    lines = [f"chambers: {report.total} total, {report.bounded} bounded"]
    for c in report.chambers:
        lines.append(f"  {c.signs}  {'bounded' if c.bounded else 'unbounded'}")
    return "\n".join(lines)


def decompose_report(
    a: Arrangement, dec: decomposition.GradedDecomposition, fmt: str
) -> dict | str:
    if fmt == "json":
        return dec.to_json()
    lines = [
        f"graded group-ring cohomology of the complement of {len(a)} "
        f"hyperplanes in C^{a.ambient_dim}",
        f"concentrated in degree {dec.concentration_degree}; free rank {dec.free_rank}",
    ]
    if decomposition.graded_piece_is_trivial_z(dec):
        lines.append(f"H^{dec.concentration_degree} = Z (trivial module)")
    lines += [
        f"note: {decomposition.L2_NOTE}",
        f"note: {decomposition.DUALITY_NOTE}",
    ]
    if dec.modules:
        lines.append("decone modules (each written once, named M<k> where it occurs):")
        lines += [f"  M{k} = {module_str(m)}" for k, m in enumerate(dec.modules)]
    lines.append("summands (one per flat with positive beta):")
    for s in dec.summands:
        suffix = "  = trivial module Z" if s.is_trivial_z else ""
        lines.append(
            f"  [{s.flat_index}] {equations_str(s.subspace)} "
            f"| multiplicity {s.multiplicity} | {module_str(s.module)}{suffix}"
        )
    return "\n".join(lines)


def verify_report(a: Arrangement, max_hyperplanes: int, fmt: str) -> tuple[dict | str, bool]:
    results = verify.run_all_checks(a, max_hyperplanes=max_hyperplanes)
    ok = all(r.passed for r in results)
    if fmt == "json":
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        return {"all_passed": ok, "checks": checks}, ok
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results
    ]
    lines.append(f"verify: {'all checks passed' if ok else 'AT LEAST ONE CHECK FAILED'}")
    return "\n".join(lines), ok


# --- driver ---------------------------------------------------------------


def load_arrangement(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path} as UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, an integer over the digit limit, or nesting
        # deeper than the parser's recursion limit.
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return validate_arrangement(raw)


def build_report(command: str, a: Arrangement, fmt: str, max_hyperplanes: int) -> tuple:
    """(the report of a command that passed the caps, whether `verify` passed)."""
    if command == "chambers":
        return chambers_report(a, fmt), True
    if command == "verify":
        return verify_report(a, max_hyperplanes, fmt)
    p = build_intersection_poset(a, max_hyperplanes=max_hyperplanes)
    if command == "poset":
        return poset_report(a, p, fmt), True
    if command == "invariants":
        return invariants_report(a, p, fmt), True
    if command == "beta":
        return beta_report(a, p, fmt), True
    if command == "nerve":
        return nerve_report(a, p, fmt), True
    if command == "decompose":
        return decompose_report(a, decomposition.decompose_cohomology(p), fmt), True
    raise InputError(f"unknown command {command!r}")


def run(command: str, input_path: str, output_format: str, max_hyperplanes: int) -> int:
    """Dispatch a command; prints the report and returns the exit code."""
    try:
        layers = COMMAND_LAYERS.get(command, ())
        for layer in layers + (_writer,) if output_format == "json" else layers:
            vars(layer)  # the first attribute read runs the layer's body
        a = load_arrangement(input_path)
        if command == "nerve" and len(a) > nerve_homology.DEFAULT_NERVE_ORACLE_CAP:
            # Checked before the poset: nerve homology grows like 2^|A|.
            raise ResourceCapError(
                f"{len(a)} hyperplanes exceeds the oracle cap of "
                f"{nerve_homology.DEFAULT_NERVE_ORACLE_CAP}"
            )
        if len(a) > max_hyperplanes:  # every command, `chambers` included
            raise ResourceCapError(f"{len(a)} hyperplanes exceeds the cap of {max_hyperplanes}")
        # The poset, and all else the report is built from, is freed when
        # `build_report` returns: none of it is held while the report is written.
        out, verify_ok = build_report(command, a, output_format, max_hyperplanes)
        if output_format == "json":
            # Every value is checked before the first write, so a report
            # that cannot be rendered writes nothing, and a flat whose
            # numbers are too long to print exits 2.  The report is then
            # written in chunks of about 64 KiB as it renders, each record
            # and flat where it stands; a `decompose` report holds each
            # decone's module once, in its `modules` table.
            _writer.write_json(out, sys.stdout.write)
        else:
            print(out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if verify_ok else 3


# --- command line -----------------------------------------------------------
#
# The command line is read as a standard `argparse` parser of the usage in
# `HELP` reads it, without importing that module: options before, between
# or after the positionals, `--opt value` or `--opt=value`, a unique prefix
# of a long option, `--` ending the options, the last of a repeated option
# winning, and the same exit codes.

OPTIONS = ("--help", "--format", "--max-hyperplanes")
# A string like this is a positional, never an option.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage_error(message: str) -> NoReturn:
    """Write the usage and the error to stderr and exit 2."""
    sys.stderr.write(f"{USAGE}arrcoh: error: {message}\n")
    raise SystemExit(2)


def _option(arg: str) -> tuple[str | None, str | None] | None:
    """How a string that starts with '-' reads: (option, its `=` value or
    None), (None, None) for an unknown option, None for a positional."""
    name, eq, value = arg.partition("=")
    if name[:2] == "--":
        matches = [o for o in OPTIONS if o.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[:2] == "-h":  # `-hh` is `-h` twice; anything else after it is an error
        return "--help", arg[2:] if arg[2:].strip("h") else None
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def parse_args(argv: list[str]) -> tuple[str, str, str, int]:
    """(command, input, format, max_hyperplanes) from the command line;
    `--help` writes `HELP` and exits 0, a usage error exits 2.  Every
    string is classified before any is read, so an ambiguous option is an
    error wherever it stands; then each value is checked where it stands,
    so an error before `--help` wins over it."""
    reads: list[tuple[str | None, str | None] | None] = []
    for k, arg in enumerate(argv):
        if arg == "--":  # the rest are positionals
            reads += [("--", None)] + [None] * (len(argv) - k - 1)
            break
        reads.append(None if arg[:1] != "-" or arg == "-" else _option(arg))
    positionals: list[str] = []
    extras: list[str] = []  # unknown options and positionals past two
    output_format, max_hyperplanes = "text", DEFAULT_MAX_HYPERPLANES
    items = iter(zip(argv, reads))
    placed = False  # the string before is the command or the input
    for arg, read in items:
        after_positional, placed = placed, False
        if read is None:
            if not positionals and arg not in COMMANDS:
                _usage_error(f"argument command: invalid choice: {arg!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
            placed = len(positionals) < 2
            (positionals if placed else extras).append(arg)
            continue
        option, value = read
        if option == "--":
            # Dropped next to the command or the input, else unrecognized.
            if len(positionals) == 2 and not after_positional:
                extras.append(arg)
        elif option is None:
            extras.append(arg)
        elif option == "--help":
            if value is not None:
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(HELP)
            raise SystemExit(0)
        else:
            if value is None:
                value, read = next(items, (None, ()))
                if read is not None:  # no value, or an option where it should be
                    _usage_error(f"argument {option}: expected one argument")
            if option == "--format":
                if value not in FORMATS:
                    _usage_error(f"argument --format: invalid choice: {value!r} "
                                 f"(choose from {', '.join(map(repr, FORMATS))})")
                output_format = value
            else:
                try:
                    max_hyperplanes = int(value)
                except ValueError:
                    _usage_error(f"argument --max-hyperplanes: invalid int value: {value!r}")
    if len(positionals) < 2:
        _usage_error("the following arguments are required: "
                     + ", ".join(("command", "input")[len(positionals):]))
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    if max_hyperplanes <= 0:
        _usage_error("--max-hyperplanes must be positive")
    return positionals[0], positionals[1], output_format, max_hyperplanes


def main(argv: list[str] | None = None) -> int:
    return run(*parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
