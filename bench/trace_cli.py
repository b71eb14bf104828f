"""Run one `arrcoh` command with spans around each layer's public entry points.

    python3 bench/trace_cli.py <span-file> <op-id> <arrcoh arguments...>

Behaves like `arrcoh <arrcoh arguments...>` (same stdout, stderr and exit
code) and, when the command returns, writes the spans it recorded to
<span-file> as one JSON object:

    {"op": <op-id>, "import_ms": ..., "names": [...],
     "spans": [[name index, start ns, end ns, parent span index or -1], ...],
     "counters": {...}}

Spans stay in memory until then.  The package binds names with
`from .x import y`, so each wrapper is installed on the defining module
and on every `arrcoh` module that bound the same function object.  The
source tree is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# (module, attribute) pairs traced, by layer.  "Class.method" wraps a method.
# Scalar helpers (dot, rational_str, _rref, ...) are left out on purpose:
# they are called per coefficient and a span would cost more than the call.
TRACED = {
    "cli": ["main", "load_arrangement", "poset_report", "invariants_report",
            "beta_report", "nerve_report", "chambers_report", "decompose_report",
            "verify_report"],
    "arrangement": ["build_intersection_poset", "poset_subspaces_bruteforce",
                    "restriction_to", "subarrangement_at", "essentialize",
                    "essentialize_with_chart"],
    "exact_linalg": ["intersect_flats", "AffineSubspace.contains"],
    "invariants": ["mobius_from_top", "mobius_interval_from", "beta_combinatorial",
                   "beta_all_flats", "characteristic_polynomial",
                   "poincare_polynomial", "euler_complement"],
    "decomposition": ["decompose_cohomology", "decone"],
    "nerve_homology": ["build_singular_nerve", "simplicial_homology",
                       "boundary_matrix", "smith_normal_form", "sigma_wedge_check"],
    "chambers": ["enumerate_chambers", "fm_feasible", "chamber_bounded"],
    "verify": ["run_all_checks", "check_poset_bruteforce", "check_rank_identity",
               "check_mobius_sign", "check_reciprocity", "check_sigma_wedge",
               "check_nerve_euler", "check_beta_oracles", "check_deconing",
               "check_decomposition"],
}


def _add(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


# Work counters read off arguments and results of a traced call.
COUNTERS = {
    "arrangement.build_intersection_poset":
        lambda c, args, out: _add(c, "flats_built", len(out.flats)),
    "nerve_homology.build_singular_nerve":
        lambda c, args, out: _add(c, "simplices", len(out.simplices)),
    "nerve_homology.smith_normal_form":
        lambda c, args, out: _add(c, "snf_entries", len(args[0]) * len(args[0][0]) if args[0] else 0),
    "chambers.enumerate_chambers":
        lambda c, args, out: (_add(c, "sign_vectors", 2 ** len(args[0])),
                              _add(c, "chambers_found", out.total)),
}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, package: str = "arrcoh") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attrs in TRACED.items():
            home = sys.modules[f"{package}.{module_name}"]
            for attr in attrs:
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    setattr(owner, method, self.wrap(f"{module_name}.{attr}", getattr(owner, method)))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(f"{module_name}.{attr}", original)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, bound, wrapper)
        # The JSON dump is part of rendering: give `cli` its own json namespace.
        cli = sys.modules[f"{package}.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self.wrap("cli.json_dumps", json.dumps)
        cli.json = proxy

    def dump(self, path: str, op: int, import_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "op": op,
                "import_ms": import_ns / 1e6,
                "names": self.names,
                "spans": self.spans,
                "counters": self.counters,
            }, fh)


def main(argv: list[str]) -> int:
    span_path, op, args = argv[0], int(argv[1]), argv[2:]
    start = time.perf_counter_ns()
    import arrcoh.cli
    import_ns = time.perf_counter_ns() - start
    recorder = Recorder()
    recorder.install()
    sys.argv = ["arrcoh", *args]
    try:
        return arrcoh.cli.main(args)
    finally:
        sys.stdout.flush()
        recorder.dump(span_path, op, import_ns)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
