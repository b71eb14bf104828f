"""The cross-check battery behind the `verify` CLI command.

Every check compares two or three independently computed quantities and
reports the values compared.  Checks that do not apply to an input (for
example deconing on a non-central arrangement) report PASS with an "n/a"
note: there is nothing for them to falsify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import (
    DEFAULT_MAX_HYPERPLANES,
    Arrangement,
    IntersectionPoset,
    arrangement_stats,
    build_intersection_poset,
    poset_subspaces_bruteforce,
    restriction_to,
)
from .chambers import MAX_CHAMBER_HYPERPLANES, enumerate_chambers
from .decomposition import (
    GradedDecomposition,
    decompose_cohomology,
    decomposition_signature,
    decone,
    top_level_free_nodes,
    contains_tensor_trivial,
)
from .invariants import (
    IntPolynomial,
    beta_all_flats,
    characteristic_polynomial,
    euler_complement,
    mobius_from_top,
    poincare_polynomial,
)
from .nerve_homology import (
    DEFAULT_NERVE_ORACLE_CAP,
    WedgeCheck,
    nerve_is_truncated,
    sigma_wedge_check,
)

BRUTEFORCE_CAP = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, detail)


def check_poset_bruteforce(a: Arrangement, p: IntersectionPoset) -> CheckResult:
    name = "poset-bruteforce-agreement"
    if len(a) > BRUTEFORCE_CAP:
        return _result(name, True, f"n/a: |A| = {len(a)} exceeds the oracle cap {BRUTEFORCE_CAP}")
    expected = poset_subspaces_bruteforce(a)
    actual = frozenset(f.subspace for f in p.flats)
    return _result(
        name,
        actual == expected,
        f"breadth-first flats = {len(actual)}, subset-enumeration flats = {len(expected)}",
    )


def check_rank_identity(p: IntersectionPoset) -> CheckResult:
    name = "rank-identity"
    bad = [
        (f.index, p.level(f), f.codim)
        for f in p.flats
        if p.level(f) + f.codim != p.rank_l
    ]
    if bad:
        return _result(name, False, f"l(G) + gr(G) != l at flats {bad}")
    return _result(name, True, f"l(G) + gr(G) = {p.rank_l} on all {len(p.flats)} flats")


def check_mobius_sign(p: IntersectionPoset) -> CheckResult:
    name = "mobius-sign-law"
    mu = mobius_from_top(p)
    bad = [
        (f.index, mu[f.index])
        for f in p.flats
        if mu[f.index] * (-1) ** f.codim <= 0
    ]
    if bad:
        return _result(name, False, f"sign(mu) != (-1)^gr at flats {bad}")
    return _result(name, True, f"sign(mu(top, G)) = (-1)^gr(G) on all {len(p.flats)} flats")


def check_reciprocity(p: IntersectionPoset) -> CheckResult:
    name = "poincare-reciprocity"
    n = p.arrangement.ambient_dim
    chi = characteristic_polynomial(p)
    pi = poincare_polynomial(p)
    flipped = IntPolynomial.from_coefficients(
        [(-1) ** (n - d) * chi.coefficient(d) for d in range(n, -1, -1)]
    )
    return _result(
        name,
        pi == flipped,
        f"pi(A, t) = {pi}; (-t)^n chi(A, -1/t) = {flipped}",
    )


def check_sigma_wedge(
    a: Arrangement, p: IntersectionPoset, wedge: WedgeCheck | None
) -> CheckResult:
    name = "sigma-wedge"
    if not a.hyperplanes:
        return _result(name, True, "n/a: empty arrangement has an empty singular set")
    if len(a) > DEFAULT_NERVE_ORACLE_CAP:
        return _result(name, True, f"n/a: |A| = {len(a)} exceeds the oracle cap")
    return _result(
        name,
        wedge.is_wedge,
        f"reduced nerve homology concentrated in degree {p.rank_l - 1}, "
        f"torsion-free, rank {wedge.beta}",
    )


def check_nerve_euler(
    a: Arrangement, p: IntersectionPoset, wedge: WedgeCheck | None
) -> CheckResult:
    name = "nerve-euler-additivity"
    if not a.hyperplanes:
        return _result(name, True, "n/a: empty arrangement")
    if len(a) > DEFAULT_NERVE_ORACLE_CAP:
        return _result(name, True, f"n/a: |A| = {len(a)} exceeds the oracle cap")
    if nerve_is_truncated(p):
        return _result(name, True, "n/a: nerve truncated above the checked range")
    nerve_chi = wedge.nerve.euler_characteristic()
    expected = 1 - euler_complement(p)
    return _result(
        name,
        nerve_chi == expected,
        f"chi(nerve) = {nerve_chi}, 1 - chi(complement) = {expected}",
    )


def check_beta_oracles(
    a: Arrangement, p: IntersectionPoset, wedge: WedgeCheck | None
) -> CheckResult:
    name = "beta-triple-oracle"
    comparisons = []
    for f, b in zip(p.flats, beta_all_flats(p)):
        beta = b.value
        sub = restriction_to(p, f).arrangement
        if f.is_top and sub != a:
            return _result(name, False, "top flat: restriction differs from the arrangement")
        if not sub.hyperplanes:
            comparisons.append((f.index, beta, 1 if beta == 1 else None))
            if beta != 1:
                return _result(
                    name, False, f"flat {f.index}: empty restriction but beta = {beta}"
                )
            continue
        if len(sub) > DEFAULT_NERVE_ORACLE_CAP:
            continue
        if f.is_top:
            sub_poset, nerve_beta = p, wedge.beta
        else:
            sub_poset = build_intersection_poset(sub)
            nerve_beta = sigma_wedge_check(sub_poset).beta
        if nerve_beta != beta:
            return _result(
                name,
                False,
                f"flat {f.index}: combinatorial beta {beta} != nerve beta {nerve_beta}",
            )
        entry = [f.index, beta, nerve_beta]
        if sub_poset.n0 == 0 and len(sub) <= MAX_CHAMBER_HYPERPLANES:
            chambers = enumerate_chambers(sub)
            entry.append(chambers.bounded)
            if chambers.bounded != beta:
                return _result(
                    name,
                    False,
                    f"flat {f.index}: beta {beta} != bounded chambers {chambers.bounded}",
                )
        comparisons.append(tuple(entry))
    return _result(
        name,
        True,
        "per-flat (index, combinatorial, nerve[, chambers]): "
        + "; ".join(str(c) for c in comparisons),
    )


def check_deconing(
    a: Arrangement, p: IntersectionPoset, base: GradedDecomposition
) -> CheckResult:
    name = "deconing-factorization"
    stats = arrangement_stats(p)
    if not a.hyperplanes:
        return _result(name, True, "n/a: empty arrangement")
    if not (stats.is_central and stats.is_essential):
        return _result(name, True, "n/a: arrangement is not central and essential")
    pi_a = poincare_polynomial(p)
    one_plus_t = IntPolynomial.from_coefficients([1, 1])
    details = []
    for h in range(len(a)):
        # Geometry, not the view `decompose_cohomology` reads off p; A
        # passed the caller's cap (p exists), and the decone is smaller.
        deconed = decone(a, h)
        dp = build_intersection_poset(deconed, max_hyperplanes=len(a))
        product = one_plus_t * poincare_polynomial(dp)
        if product != pi_a:
            return _result(
                name,
                False,
                f"H_inf = {h}: (1+t) * pi(A') = {product} != pi(A) = {pi_a}",
            )
        if dp.rank_l != p.rank_l - 1:
            return _result(
                name, False, f"H_inf = {h}: rank {dp.rank_l} != {p.rank_l} - 1"
            )
        sub_dec = decompose_cohomology(dp)
        if sub_dec.concentration_degree != base.concentration_degree - 1:
            return _result(
                name,
                False,
                f"H_inf = {h}: decomposition degree did not drop by one",
            )
        forced = decompose_cohomology(p, infinity=h)
        if decomposition_signature(forced) != decomposition_signature(base):
            return _result(
                name,
                False,
                f"H_inf = {h}: decomposition invariants changed with the choice",
            )
        details.append(f"H_inf={h}: pi(A)=(1+t)*({poincare_polynomial(dp)})")
    return _result(name, True, "; ".join(details))


def check_decomposition(
    a: Arrangement, p: IntersectionPoset, dec: GradedDecomposition
) -> CheckResult:
    name = "decomposition-structure"
    if dec.concentration_degree != p.rank_l:
        return _result(
            name,
            False,
            f"concentration degree {dec.concentration_degree} != rank {p.rank_l}",
        )
    betas = [b.value for b in beta_all_flats(p)]
    for s in dec.summands:
        expected = betas[s.flat_index]
        if s.multiplicity != expected or s.multiplicity <= 0:
            return _result(
                name,
                False,
                f"flat {s.flat_index}: multiplicity {s.multiplicity} != beta {expected}",
            )
        if s.subspace.is_whole_space:
            free = top_level_free_nodes(s.module)
            if len(free) != 1 or free[0].rank != dec.free_rank:
                return _result(name, False, "top summand is not FREE(beta(A))")
        else:
            if top_level_free_nodes(s.module):
                return _result(
                    name, False, f"flat {s.flat_index}: free node outside the top summand"
                )
            if not contains_tensor_trivial(s.module):
                return _result(
                    name, False, f"flat {s.flat_index}: missing TENSOR_TRIVIAL node"
                )
    zero_beta = betas.count(0)
    return _result(
        name,
        True,
        f"degree {dec.concentration_degree}, free rank {dec.free_rank}, "
        f"{len(dec.summands)} summands ({zero_beta} flats with beta 0 omitted)",
    )


def run_all_checks(
    a: Arrangement, max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES
) -> list[CheckResult]:
    """The full battery, in the documented order; A's nerve check and
    decomposition are computed once and shared."""
    p = build_intersection_poset(a, max_hyperplanes=max_hyperplanes)
    wedge = sigma_wedge_check(p) if 0 < len(a) <= DEFAULT_NERVE_ORACLE_CAP else None
    results = [
        check_poset_bruteforce(a, p),
        check_rank_identity(p),
        check_mobius_sign(p),
        check_reciprocity(p),
        check_sigma_wedge(a, p, wedge),
        check_nerve_euler(a, p, wedge),
        check_beta_oracles(a, p, wedge),
    ]
    dec = decompose_cohomology(p)
    return results + [check_deconing(a, p, dec), check_decomposition(a, p, dec)]
