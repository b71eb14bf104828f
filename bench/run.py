"""Benchmark of the `arrcoh` command-line tool.

    python3 bench/run.py --workload ladder|oracles|corpus-cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is taken from
`src/` next to this directory, unmodified and uninstalled.  Each
operation is one `arrcoh <command> <file>` process, started from this
process and awaited before the next one, so no state carries over.

A run sets up its inputs (drawn from --seed) several times and reports
the median set-up time, then repeats whole passes over the workload's
operations until --seconds have elapsed (at least one pass), then checks
every output against the closed-form oracles in `oracles.py`.  With
--trace 1 it finally runs one more pass through `trace_cli.py`, which
wraps each layer's entry points in spans, checks that every output is
byte-identical to the untraced one, and reports per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 when the run finished, 2 when the checkout lacks the sources.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracles
from oracles import Expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
OP_DEADLINE_S = 150.0
PROBE_DEADLINE_S = 3.0
# The console-script entry of `arrcoh`, plus one step at exit: write the
# process's peak RSS (VmHWM, KiB) to $BENCH_HWM_FILE.  `ru_maxrss` from
# wait4 cannot serve: at exec Linux folds the spawning process's own peak
# into it, so every child would read at least this process's size.
ENTRY = """\
import os, sys
from arrcoh.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["BENCH_HWM_FILE"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM")).split()[1])
sys.exit(code)
"""
COMMANDS = ("poset", "invariants", "beta", "nerve", "chambers", "decompose", "verify")
WORKLOADS = ("ladder", "oracles", "corpus-cli")


@dataclass(frozen=True)
class Op:
    command: str
    path: str  # relative to the checkout root
    fmt: str = "json"
    expected: Expected | None = None
    exit_code: int = 0
    probe: bool = False  # a cap probe: must exit 2 within PROBE_DEADLINE_S

    @property
    def label(self) -> str:
        return f"{self.command} {Path(self.path).name} --format {self.fmt}"


@dataclass(frozen=True)
class Result:
    op: Op
    wall_s: float
    returncode: int | None  # None: killed at the deadline
    peak_rss_kb: int | None  # None: traced, or no report (killed)
    stdout: bytes
    stderr: bytes

    @property
    def failed(self) -> bool:
        return self.returncode != self.op.exit_code


# --- workloads ----------------------------------------------------------------


def _write(workdir: Path, name: str, arrangement: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(arrangement, indent=1), encoding="utf-8")
    return str(path.relative_to(ROOT))


def ladder_ops(seed: int, workdir: Path) -> list[Op]:
    present = inputs.present
    members = [(f"braid-{n}", present(inputs.braid(n), seed), oracles.expect_braid(n))
               for n in (4, 5, 6)]
    members += [(f"shi-{n}", present(inputs.shi(n), seed), oracles.expect_shi(n)) for n in (3, 4)]
    members += [(f"lines-{m}", inputs.generic(m, 2, seed), oracles.expect_generic(m, 2))
                for m in (8, 12, 16)]
    members += [(f"planes-{m}", inputs.generic(m, 3, seed), oracles.expect_generic(m, 3))
                for m in (8, 10, 12)]
    ops = []
    for name, arrangement, expected in members:
        path = _write(workdir, name, arrangement)
        ops += [Op("poset", path, expected=expected), Op("decompose", path, expected=expected)]
    return ops


def oracle_ops(seed: int, workdir: Path) -> list[Op]:
    present = inputs.present
    files = {
        "braid-4": (present(inputs.braid(4), seed), oracles.expect_braid(4)),
        "braid-5": (present(inputs.braid(5), seed), oracles.expect_braid(5)),
        "shi-3": (present(inputs.shi(3), seed), oracles.expect_shi(3)),
        "shi-4": (present(inputs.shi(4), seed), oracles.expect_shi(4)),
        "lines-8": (inputs.generic(8, 2, seed), oracles.expect_generic(8, 2)),
        "planes-8": (inputs.generic(8, 3, seed), oracles.expect_generic(8, 3)),
        "essential-braid-4": (present(inputs.essential_braid(4), seed),
                              oracles.expect_essential_braid(4)),
        "essential-braid-5": (present(inputs.essential_braid(5), seed),
                              oracles.expect_essential_braid(5)),
    }
    paths = {name: _write(workdir, name, arr) for name, (arr, _) in files.items()}
    plan = [("verify", name) for name in files]
    plan += [("nerve", "braid-5"), ("nerve", "shi-4")]
    plan += [("chambers", "lines-8"), ("chambers", "planes-8"), ("chambers", "essential-braid-4")]
    return [Op(command, paths[name], expected=files[name][1]) for command, name in plan]


def corpus_ops(seed: int, workdir: Path) -> list[Op]:
    """All 7 commands in both formats on every corpus file, then the cap probes.

    The corpus and the probes do not depend on the seed.
    """
    ops = []
    for name, expected in sorted(oracles.CORPUS.items()):
        path = str((CORPUS / f"{name}.json").relative_to(ROOT))
        for command in COMMANDS:
            # The empty arrangement has no singular set: `nerve` rejects it (exit 1).
            code = 1 if command == "nerve" and expected.hyperplanes == 0 else 0
            for fmt in ("text", "json"):
                ops.append(Op(command, path, fmt, expected, exit_code=code))
    probes = [
        ("poset", "cap-braid-7", inputs.braid(7)),  # 21 > 20 hyperplanes
        ("chambers", "cap-points-13", inputs.points(13)),  # 13 > 12 hyperplanes
        ("nerve", "cap-braid-6", inputs.braid(6)),  # 15 > 12 hyperplanes
    ]
    for command, name, arrangement in probes:
        ops.append(Op(command, _write(workdir, name, arrangement), "text", exit_code=2, probe=True))
    return ops


BUILDERS = {"ladder": ladder_ops, "oracles": oracle_ops, "corpus-cli": corpus_ops}


# --- running operations -----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], workdir: Path, deadline_s: float) -> tuple:
    """Run argv to completion or the deadline.

    Returns (wall s, exit code or None if killed, peak RSS KiB or None,
    stdout bytes, stderr bytes).
    """
    out_path, err_path, hwm_path = workdir / "stdout", workdir / "stderr", workdir / "hwm"
    hwm_path.unlink(missing_ok=True)
    env = child_env()
    env["BENCH_HWM_FILE"] = str(hwm_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], deadline_s)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            code = proc.wait()
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    peak = int(hwm_path.read_text()) if hwm_path.exists() else None
    return (wall, None if code == -signal.SIGKILL else code, peak,
            out_path.read_bytes(), err_path.read_bytes())


def run_pass(ops: list[Op], workdir: Path, trace_dir: Path | None) -> tuple[float, list[Result]]:
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        args = [op.command, op.path, "--format", op.fmt]
        if trace_dir is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(trace_dir / f"{i}.json"), str(i), *args]
        deadline = PROBE_DEADLINE_S if op.probe else OP_DEADLINE_S
        results.append(Result(op, *run_process(argv, workdir, deadline)))
    return time.perf_counter() - start, results


def setup(workload: str, seed: int, workdir: Path) -> tuple[float, list[Op]]:
    """Draw, certify and write the inputs, and import the package once (compiling it)."""
    start = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    (workdir / "inputs").mkdir(parents=True)
    ops = BUILDERS[workload](seed, workdir / "inputs")
    subprocess.run([sys.executable, "-c", "import arrcoh.cli"], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start, ops


# --- checks and metrics ----------------------------------------------------------


def check_results(passes: list[list[Result]]) -> list[str]:
    """Oracle failures of operations that did not fail, plus determinism across passes."""
    errors = []
    for results in passes:
        posets = {r.op.path: r.stdout for r in results
                  if r.op.command == "poset" and r.op.fmt == "json" and not r.failed}
        for r in results:
            if r.failed or r.op.expected is None:
                continue
            if r.op.exit_code != 0:
                if r.stdout:
                    errors.append(f"{r.op.label}: exit {r.op.exit_code} but printed a report")
                continue
            poset = None
            if r.op.command == "decompose" and r.op.fmt == "json" and r.op.path in posets:
                try:
                    poset = json.loads(posets[r.op.path])
                except ValueError:
                    pass  # the poset op itself reports malformed output
            for message in oracles.check_output(r.op.command, r.op.fmt, r.stdout, r.op.expected,
                                                poset):
                errors.append(f"{r.op.label}: {message}")
    for results in passes[1:]:
        for first, again in zip(passes[0], results):
            if first.stdout != again.stdout:
                errors.append(f"{first.op.label}: output differs between passes")
    return errors


def invocations(passes: list[list[Result]]) -> list[Result]:
    """Non-probe invocations that did not fail, over all passes: the latency samples."""
    return [r for results in passes for r in results if not r.op.probe and not r.failed]


def end_to_end(setups: list[float], walls: list[float], passes: list[list[Result]]) -> dict:
    timed = invocations(passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cli_geomean_ms": (statistics.geometric_mean(r.wall_s * 1e3 for r in timed), "ms"),
        "peak_rss_mb": (max(r.peak_rss_kb for r in timed) / 1024, "MiB"),
    }


def untraced_breakdown(passes: list[list[Result]]) -> dict:
    """Latency quantiles and per-command time of the untraced passes.

    Quantiles are over all passes' invocations; each command's time is the
    median over passes of the summed wall time of its invocations.
    """
    latencies = [r.wall_s * 1e3 for r in invocations(passes)]
    out = {
        "cli.invocations": (len(latencies), "count"),
        "cli.p50_ms": (statistics.median(latencies), "ms"),
        "cli.p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
    }
    for command in COMMANDS:
        sums = [sum(r.wall_s for r in results if r.op.command == command and not r.op.probe)
                for results in passes]
        out[f"cmd.{command}_s"] = (statistics.median(sums), "s")
    return out


class SpanTable:
    """Per-name calls, inclusive and self time over all span files of a pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.builds_in_decompose = 0
        self.import_ms: list[float] = []
        self.spans = 0
        self.op_self_ns: dict[int, int] = {}

    def add(self, record: dict) -> None:
        names, spans = record["names"], record["spans"]
        child = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        decompose = names.index("decomposition.decompose_cohomology")
        build = names.index("arrangement.build_intersection_poset")
        op_self = 0
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            own = end - start - child[i]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_ns[name] += own
            op_self += own
            if name_id == build:
                while parent >= 0 and spans[parent][0] != decompose:
                    parent = spans[parent][3]
                self.builds_in_decompose += parent >= 0
        for key, value in record["counters"].items():
            self.counters[key] += value
        self.import_ms.append(record["import_ms"])
        self.spans += len(spans)
        self.op_self_ns[record["op"]] = op_self

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def total_s(self, name: str) -> float:
        return self.total[name] / 1e9


VERIFY_CHECKS = ("poset_bruteforce", "rank_identity", "mobius_sign", "reciprocity",
                 "sigma_wedge", "nerve_euler", "beta_oracles", "deconing", "decomposition")
MODULES = ("cli", "arrangement", "exact_linalg", "invariants", "decomposition",
           "nerve_homology", "chambers", "verify")


def per_layer(t: SpanTable) -> dict:
    c = t.calls
    reports = [f"cli.{cmd}_report" for cmd in COMMANDS]
    decompose_calls = c["decomposition.decompose_cohomology"]
    sign_vectors = t.counters["sign_vectors"]
    m = {
        "cli.import_ms": (statistics.median(t.import_ms), "ms"),
        "cli.load_s": (t.self_s("cli.load_arrangement"), "s"),
        "cli.render_s": (t.self_s(*reports, "cli.json_dumps"), "s"),
        "arrangement.poset_builds": (c["arrangement.build_intersection_poset"], "count"),
        "arrangement.flats_built": (t.counters["flats_built"], "count"),
        "arrangement.poset_s": (t.self_s("arrangement.build_intersection_poset"), "s"),
        "arrangement.restriction_calls": (c["arrangement.restriction_to"], "count"),
        "arrangement.restriction_s": (t.self_s("arrangement.restriction_to"), "s"),
        "arrangement.bruteforce_s": (t.self_s("arrangement.poset_subspaces_bruteforce"), "s"),
        "arrangement.subarrangement_calls": (c["arrangement.subarrangement_at"], "count"),
        "arrangement.subarrangement_s": (t.self_s("arrangement.subarrangement_at"), "s"),
        "arrangement.essentialize_s": (t.self_s("arrangement.essentialize",
                                                "arrangement.essentialize_with_chart"), "s"),
        "exact_linalg.intersect_calls": (c["exact_linalg.intersect_flats"], "count"),
        "exact_linalg.intersect_s": (t.self_s("exact_linalg.intersect_flats"), "s"),
        "exact_linalg.contains_calls": (c["exact_linalg.AffineSubspace.contains"], "count"),
        "exact_linalg.contains_s": (t.self_s("exact_linalg.AffineSubspace.contains"), "s"),
        "invariants.mobius_calls": (c["invariants.mobius_from_top"]
                                    + c["invariants.mobius_interval_from"], "count"),
        "invariants.mobius_s": (t.self_s("invariants.mobius_from_top",
                                         "invariants.mobius_interval_from"), "s"),
        "invariants.beta_calls": (c["invariants.beta_combinatorial"], "count"),
        "invariants.beta_s": (t.self_s("invariants.beta_combinatorial", "invariants.beta_all_flats"), "s"),
        "decomposition.decompose_calls": (decompose_calls, "count"),
        "decomposition.poset_builds_per_decompose": (
            t.builds_in_decompose / decompose_calls if decompose_calls else 0.0, "ratio"),
        "decomposition.decone_calls": (c["decomposition.decone"], "count"),
        "decomposition.decone_s": (t.self_s("decomposition.decone"), "s"),
        "decomposition.self_s": (t.self_s("decomposition.decompose_cohomology"), "s"),
        "nerve_homology.nerve_builds": (c["nerve_homology.build_singular_nerve"], "count"),
        "nerve_homology.simplices": (t.counters["simplices"], "count"),
        "nerve_homology.nerve_s": (t.self_s("nerve_homology.build_singular_nerve"), "s"),
        "nerve_homology.snf_calls": (c["nerve_homology.smith_normal_form"], "count"),
        "nerve_homology.snf_entries": (t.counters["snf_entries"], "count"),
        "nerve_homology.snf_s": (t.self_s("nerve_homology.smith_normal_form"), "s"),
        "chambers.sign_vectors": (sign_vectors, "count"),
        "chambers.chambers_found": (t.counters["chambers_found"], "count"),
        "chambers.feasible_ratio": (t.counters["chambers_found"] / sign_vectors
                                    if sign_vectors else 0.0, "ratio"),
        "chambers.fm_calls": (c["chambers.fm_feasible"], "count"),
        "chambers.fm_s": (t.self_s("chambers.fm_feasible"), "s"),
        "chambers.bounded_s": (t.total_s("chambers.chamber_bounded"), "s"),
    }
    for check in VERIFY_CHECKS:
        m[f"verify.{check}_s"] = (t.total_s(f"verify.check_{check}"), "s")
    all_self = sum(t.self_ns.values())
    for module in MODULES:
        own = sum(v for k, v in t.self_ns.items() if k.startswith(module + "."))
        m[f"share.{module}"] = (own / all_self if all_self else 0.0, "ratio")
    return m


def traced_pass(ops: list[Op], workdir: Path, reference: list[Result], untraced_wall: float,
                errors: list[str]) -> tuple[list[Result], dict]:
    trace_dir = workdir / "spans"
    trace_dir.mkdir()
    wall, results = run_pass(ops, workdir, trace_dir)
    table = SpanTable()
    for i, (r, ref) in enumerate(zip(results, reference)):
        if r.stdout != ref.stdout:
            errors.append(f"{r.op.label}: traced output differs from the untraced output")
        span_file = trace_dir / f"{i}.json"
        if r.returncode is None or not span_file.exists():
            continue  # killed at the deadline: nothing was written
        table.add(json.loads(span_file.read_text(encoding="utf-8")))
        if table.op_self_ns[i] > r.wall_s * 1e9:
            errors.append(f"{r.op.label}: span self times exceed the operation's wall time")
    metrics = per_layer(table)
    metrics["trace.spans"] = (table.spans, "count")
    metrics["trace.self_over_wall"] = (
        sum(table.op_self_ns.values()) / 1e9 / sum(r.wall_s for r in results), "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    metrics["trace.overhead_pct"] = (100 * (wall - untraced_wall) / untraced_wall, "%")
    return results, metrics


# --- entry point -----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: set-ups, timed passes, checks, and the traced pass."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        setups, ops = [], []
        for _ in range(SETUP_REPEATS):
            took, ops = setup(workload, seed, workdir)
            setups.append(took)
        walls, passes = [], []
        start = time.perf_counter()
        while not passes or (not trace and time.perf_counter() - start < seconds):
            wall, results = run_pass(ops, workdir, None)
            walls.append(wall)
            passes.append(results)
        errors = check_results(passes)
        metrics = end_to_end(setups, walls, passes)
        executed = [r for results in passes for r in results]
        if trace:
            traced, layer = traced_pass(ops, workdir, passes[0], statistics.median(walls), errors)
            executed += traced
            layer.update(untraced_breakdown(passes))
        for e in errors:
            print(f"{workload}: ORACLE FAILURE {e}", file=sys.stderr)
        for r in executed:
            if r.failed:
                got = "no exit within the deadline" if r.returncode is None else f"exit {r.returncode}"
                said = r.stderr.decode(errors="replace").strip().splitlines()[-1:]
                print(f"{workload}: FAILED {r.op.label}: {got}, expected exit {r.op.exit_code}"
                      f"{''.join(': ' + line for line in said)}", file=sys.stderr)
        return {
            "correct": not errors,
            "attempted": len(executed),
            "failed": sum(r.failed for r in executed),
            "e2e": metrics,
            "layer": layer if trace else {},
            "ops": [(op.label, statistics.median(p[i].wall_s for p in passes))
                    for i, op in enumerate(ops)],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "arrcoh" / "cli.py").is_file() or not CORPUS.is_dir():
        print(f"error: no arrcoh sources at {SRC} or no corpus at {CORPUS}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        for label, wall in out["ops"]:
            print(f"{workload}: op {label}: {wall * 1e3:.1f} ms")
        print(f"{workload}: attempted {out['attempted']}, failed {out['failed']}, "
              f"correct {out['correct']}")
        for name, (value, unit) in {**out["e2e"], **out["layer"]}.items():
            print(f"{workload}: {name} = {value:.6g} {unit}")
        chosen = out["layer"] if args.trace else out["e2e"]
        summary["correct"] &= out["correct"]
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        summary["metrics"].update({prefix + k: v for k, v in as_json(chosen).items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
