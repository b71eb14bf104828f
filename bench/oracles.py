"""Closed-form oracles for `arrcoh` outputs.

Nothing here imports `arrcoh` or compares against stored program output.
Every expected value comes from a closed form for the input's family:

  braid A_n       chi(t) = t(t-1)...(t-n+1), flats by dimension d are the
                  Stirling numbers S(n, d), total flats the Bell number B(n)
  essential braid chi(t) = (t-1)...(t-n+1) in C^(n-1), same flat counts
  Shi n           chi(t) = t(t-n)^(n-1)
  generic m in C^n
                  chi(t) = sum_k (-1)^k C(m,k) t^(n-k); flats of dimension d
                  number C(m, n-d), each lies on exactly n-d hyperplanes and
                  has beta(A∩G) = C(m-n+d-1, d)
  k points in C^1 chi(t) = t - k
  corpus          the hand-derived characteristic polynomials in CORPUS

and from facts that hold for every arrangement with characteristic
polynomial chi and rank l:

  beta(A) = free rank = |chi(1)|,  Euler characteristic of the complement
  = chi(1),  regions = |chi(-1)| and bounded regions = |chi(1)| when A is
  essential, 0 otherwise (Zaslavsky, "Facing up to arrangements", 1975),
  the singular set is a wedge of beta(A) spheres of dimension l - 1, and a
  central arrangement has a single summand, of multiplicity 1, at its
  center.

Each `check_*` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p: list[int], x: int) -> int:
    return sum(c * x**k for k, c in enumerate(p))


def product_of_roots(roots: list[int], extra_t: bool) -> list[int]:
    """Coefficients (low degree first) of t^extra_t * prod (t - r)."""
    p = [0, 1] if extra_t else [1]
    for r in roots:
        p = poly_mul(p, [-r, 1])
    return p


def stirling2(n: int, k: int) -> int:
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


@dataclass(frozen=True)
class Expected:
    """What the closed forms say about one input."""

    dim: int
    hyperplanes: int
    chi: tuple[int, ...]  # low degree first, length dim + 1
    central: bool
    flats_by_dim: dict[int, int] | None = None  # dim -> number of flats
    generic: bool = False  # general position: per-flat incidences and betas known

    @property
    def rank(self) -> int:
        return self.dim - min(d for d, c in enumerate(self.chi) if c != 0)

    @property
    def essential(self) -> bool:
        return self.rank == self.dim

    @property
    def beta(self) -> int:
        return abs(poly_eval(list(self.chi), 1))

    @property
    def regions(self) -> int:
        return abs(poly_eval(list(self.chi), -1))

    @property
    def bounded(self) -> int:
        return self.beta if self.essential else 0

    @property
    def poincare(self) -> list[int]:
        coeffs = [abs(self.chi[self.dim - k]) for k in range(self.dim + 1)]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    @property
    def flats(self) -> int | None:
        return None if self.flats_by_dim is None else sum(self.flats_by_dim.values())


def expect_braid(n: int) -> Expected:
    by_dim = {d: stirling2(n, d) for d in range(1, n + 1)}
    return Expected(n, comb(n, 2), tuple(product_of_roots(list(range(1, n)), True)), True, by_dim)


def expect_essential_braid(n: int) -> Expected:
    by_dim = {d - 1: stirling2(n, d) for d in range(1, n + 1)}
    return Expected(n - 1, comb(n, 2), tuple(product_of_roots(list(range(1, n)), False)), True, by_dim)


def expect_shi(n: int) -> Expected:
    return Expected(n, 2 * comb(n, 2), tuple(product_of_roots([n] * (n - 1), True)), False)


def expect_generic(m: int, n: int) -> Expected:
    chi = [0] * (n + 1)
    for k in range(n + 1):
        chi[n - k] = (-1) ** k * comb(m, k)
    by_dim = {d: comb(m, n - d) for d in range(n + 1)}
    return Expected(n, m, tuple(chi), False, by_dim, generic=True)


def expect_points(k: int) -> Expected:
    return Expected(1, k, (-k, 1), k <= 1, {1: 1, 0: k})


# Hand-derived expectations for corpus/*.json: (dim, hyperplanes, chi, central, flats).
CORPUS = {
    "empty-c1": Expected(1, 0, (0, 1), True, {1: 1}),
    "one-point-c1": expect_points(1),
    "two-points-c1": expect_points(2),
    "three-points-c1": expect_points(3),
    # x = 0, y = 0: (t - 1)^2
    "boolean-c2": Expected(2, 2, (1, -2, 1), True, {2: 1, 1: 2, 0: 1}),
    # the coordinate planes of C^3: (t - 1)^3
    "boolean-c3": Expected(3, 3, (-1, 3, -3, 1), True, {3: 1, 2: 3, 1: 3, 0: 1}),
    # three lines through the origin: (t - 1)(t - 2)
    "concurrent3-c2": Expected(2, 3, (2, -3, 1), True, {2: 1, 1: 3, 0: 1}),
    # three lines in general position
    "generic3-c2": expect_generic(3, 2),
    # x = 0, y = 0, x + y = 1, x - y = 2: no two parallel, no three concurrent
    "generic4-c2": expect_generic(4, 2),
}


# --- per-command checks on JSON output --------------------------------------


def order_below(flats: dict[int, dict]) -> dict[int, set[int]]:
    """Strictly-below sets of the reported order: the transitive closure of the covers."""
    below: dict[int, set[int]] = {}
    for i in sorted(flats, key=lambda i: flats[i]["dim"]):  # a flat's covers come first
        below[i] = set()
        for c in flats[i]["covers"]:
            below[i] |= {c} | below[c]
    return below


def mobius_below(g: int, flats: dict[int, dict], below: dict[int, set[int]]) -> dict[int, int]:
    """mu(G, X) for G and every X below it in the reported order."""
    mu = {g: 1}
    for x in sorted(below[g], key=lambda i: -flats[i]["dim"]):
        mu[x] = -sum(mu[y] for y in mu if x in below[y])
    return mu


def check_poset(obj: dict, e: Expected) -> list[str]:
    errors = []
    flats = obj["flats"]
    if obj["hyperplane_count"] != e.hyperplanes or obj["dim"] != e.dim:
        errors.append("dim or hyperplane count differs from the input")
    if obj["rank"] != e.rank:
        errors.append(f"rank {obj['rank']} != {e.rank}")
    if obj["is_central"] != e.central or obj["is_essential"] != e.essential:
        errors.append("central/essential flags differ from the closed form")
    if e.flats_by_dim is not None:
        counts: dict[int, int] = {}
        for f in flats:
            counts[f["dim"]] = counts.get(f["dim"], 0) + 1
        if counts != e.flats_by_dim:
            errors.append(f"flats by dimension {counts} != {e.flats_by_dim}")
    tops = [f for f in flats if f["dim"] == e.dim]
    if len(tops) != 1 or tops[0]["index"] != 0:
        errors.append("the top flat is not unique at index 0")
        return errors
    if any(len(f["containing_hyperplanes"]) == 0 for f in flats if f["index"] != 0):
        errors.append("a flat other than the top lies on no hyperplane")
    if e.generic and any(len(f["containing_hyperplanes"]) != f["codim"] for f in flats):
        errors.append("a generic flat of codimension k does not lie on exactly k hyperplanes")
    by_index = {f["index"]: f for f in flats}
    mu = mobius_below(0, by_index, order_below(by_index))
    if len(mu) != len(flats):
        errors.append("a flat does not lie below the top in the reported covers")
    chi = [0] * (e.dim + 1)
    for i, value in mu.items():
        chi[by_index[i]["dim"]] += value
    if tuple(chi) != e.chi:
        errors.append(f"chi from the reported covers {chi} != {list(e.chi)}")
    return errors


def check_invariants(obj: dict, e: Expected) -> list[str]:
    errors = []
    if tuple(obj["characteristic_polynomial"]) != e.chi:
        errors.append(f"chi {obj['characteristic_polynomial']} != {list(e.chi)}")
    if obj["poincare_polynomial"] != e.poincare:
        errors.append(f"poincare {obj['poincare_polynomial']} != {e.poincare}")
    if obj["euler_complement"] != poly_eval(list(e.chi), 1):
        errors.append(f"euler {obj['euler_complement']} != chi(1)")
    if sum(m["mu"] for m in obj["mobius"]) != poly_eval(list(e.chi), 1):
        errors.append("Möbius values do not sum to chi(1)")
    if e.flats is not None and len(obj["mobius"]) != e.flats:
        errors.append(f"{len(obj['mobius'])} Möbius values for {e.flats} flats")
    return errors


def check_beta(obj: dict, e: Expected) -> list[str]:
    errors = []
    betas = obj["betas"]
    top = [b for b in betas if b["flat_index"] == 0]
    if len(top) != 1 or top[0]["beta"] != e.beta or top[0]["degree"] != e.rank:
        errors.append(f"beta(A) at the top is not {e.beta} in degree {e.rank}")
    if any(b["beta"] < 0 for b in betas):
        errors.append("negative beta invariant")
    if e.flats is not None and len(betas) != e.flats:
        errors.append(f"{len(betas)} betas for {e.flats} flats")
    return errors


def check_nerve(obj: dict, e: Expected) -> list[str]:
    errors = []
    if obj["vertex_count"] != e.hyperplanes or obj["simplex_counts"][0] != e.hyperplanes:
        errors.append("nerve vertices differ from the hyperplane count")
    if obj["beta"] != e.beta or obj["wedge_degree"] != e.rank - 1:
        errors.append(f"nerve beta {obj['beta']} in degree {obj['wedge_degree']} "
                      f"!= {e.beta} in degree {e.rank - 1}")
    if obj["is_wedge"] is not True:
        errors.append("singular set is not reported as a wedge of spheres")
    return errors


def check_chambers(obj: dict, e: Expected) -> list[str]:
    errors = []
    if obj["total"] != e.regions:
        errors.append(f"{obj['total']} chambers != |chi(-1)| = {e.regions}")
    if obj["bounded"] != e.bounded:
        errors.append(f"{obj['bounded']} bounded chambers != {e.bounded}")
    signs = [c["signs"] for c in obj["chambers"]]
    if len(signs) != obj["total"] or len(set(signs)) != len(signs):
        errors.append("chamber list does not match the total or repeats a sign vector")
    if any(len(s) != e.hyperplanes for s in signs):
        errors.append("a sign vector has the wrong length")
    if sum(1 for c in obj["chambers"] if c["bounded"]) != obj["bounded"]:
        errors.append("bounded flags do not match the bounded count")
    return errors


def betas_from_poset(obj: dict) -> dict[str, int]:
    """beta(A∩G) = (-1)^l(G) sum_{X <= G} mu(G, X) for every reported flat,
    keyed by the flat's canonical JSON, from the reported covers alone."""
    flats = {f["index"]: f for f in obj["flats"]}
    below = order_below(flats)
    n0 = obj["dim"] - obj["rank"]
    return {
        json.dumps(flat["flat"], sort_keys=True):
            (-1) ** (flat["dim"] - n0) * sum(mobius_below(g, flats, below).values())
        for g, flat in flats.items()
    }


def check_decompose(obj: dict, e: Expected, poset: dict | None = None) -> list[str]:
    """With `poset` (the same input's poset report), every multiplicity is
    checked against beta(A∩G) computed here from that poset's covers."""
    errors = []
    summands = obj["summands"]
    if obj["degree"] != e.rank:
        errors.append(f"concentration degree {obj['degree']} != rank {e.rank}")
    if obj["free_rank"] != e.beta:
        errors.append(f"free rank {obj['free_rank']} != |chi(1)| = {e.beta}")
    if any(s["multiplicity"] <= 0 for s in summands):
        errors.append("a summand has nonpositive multiplicity")
    if e.central:
        if len(summands) != 1 or summands[0]["multiplicity"] != 1 \
                or summands[0]["flat"]["dim"] != e.dim - e.rank:
            errors.append("a central arrangement needs one summand of multiplicity 1 at its center")
    if poset is not None:
        want = sorted((k, b) for k, b in betas_from_poset(poset).items() if b > 0)
        got = sorted((json.dumps(x["flat"], sort_keys=True), x["multiplicity"]) for x in summands)
        if got != want:
            errors.append("summands differ from the flats with beta(A∩G) > 0 of the poset report")
    if e.generic:
        by_dim: dict[int, list[int]] = {}
        for s in summands:
            by_dim.setdefault(s["flat"]["dim"], []).append(s["multiplicity"])
        m, n = e.hyperplanes, e.dim
        for d in range(n + 1):
            want = [comb(m - n + d - 1, d)] * comb(m, n - d)
            if sorted(by_dim.get(d, [])) != want:
                errors.append(f"dimension-{d} summands {by_dim.get(d)} != "
                              f"{comb(m, n - d)} x C({m - n + d - 1},{d})")
    return errors


def check_verify(obj: dict, e: Expected) -> list[str]:
    checks = obj["checks"]
    errors = []
    if obj["all_passed"] is not True or not all(c["passed"] for c in checks):
        errors.append("verify reports a failed check")
    if len(checks) != 9:
        errors.append(f"verify ran {len(checks)} checks, not 9")
    return errors


JSON_CHECKS = {
    "poset": check_poset,
    "invariants": check_invariants,
    "beta": check_beta,
    "nerve": check_nerve,
    "chambers": check_chambers,
    "decompose": check_decompose,
    "verify": check_verify,
}


def check_text(command: str, text: str, e: Expected) -> list[str]:
    """Landmark facts in the human-readable report of each command."""
    lines = text.splitlines()
    wanted = {
        "poset": f"flats, n0 = {e.dim - e.rank}, rank l = {e.rank}"
        if e.flats is None else f"poset: {e.flats} flats, n0 = {e.dim - e.rank}, rank l = {e.rank}",
        "invariants": f"euler characteristic of the complement: {poly_eval(list(e.chi), 1)}",
        "beta": f"  [0] dim {e.dim}  C^{e.dim} (whole space): beta = {e.beta} in degree {e.rank}",
        "nerve": f"wedge check: beta = {e.beta} in degree {e.rank - 1}, is_wedge: yes",
        "chambers": f"chambers: {e.regions} total, {e.bounded} bounded",
        "decompose": f"concentrated in degree {e.rank}; free rank {e.beta}",
        "verify": "verify: all checks passed",
    }[command]
    if not any(wanted in line for line in lines):
        return [f"text report lacks {wanted!r}"]
    if command == "beta" and e.flats is not None and len(lines) != e.flats + 1:
        return [f"{len(lines) - 1} beta lines for {e.flats} flats"]
    return []


def check_output(command: str, fmt: str, stdout: bytes, e: Expected,
                 poset: dict | None = None) -> list[str]:
    """Dispatch on command and format; malformed output is a failure too.

    `poset` is the parsed JSON poset report of the same input, when the
    workload has one; `decompose` is then cross-checked against it.
    """
    text = stdout.decode("utf-8", errors="replace")
    if fmt == "text":
        return check_text(command, text, e)
    try:
        obj = json.loads(text)
        if command == "decompose":
            return check_decompose(obj, e, poset)
        return JSON_CHECKS[command](obj, e)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed {command} JSON: {exc!r}"]
