"""The cross-check battery behind the `verify` CLI command.

Every check compares two or three independently computed quantities and
reports the values compared.  Checks that do not apply to an input (for
example deconing on a non-central arrangement) report PASS with an "n/a"
note: there is nothing for them to falsify.

The flat set is checked against A's no-broken-circuit sets (`nbc_flats`)
up to the poset's cap, under its historical name; the 2^|A| subset
enumeration `poset_subspaces_bruteforce` is never run here.
"""

from __future__ import annotations


from ._record import record
from .arrangement import (
    DEFAULT_MAX_HYPERPLANES,
    Arrangement,
    IntersectionPoset,
    build_intersection_poset,
    nbc_flats,
    restriction_to,
)
from .chambers import MAX_CHAMBER_HYPERPLANES, MAX_FM_DIM, is_bounded, list_faces
from .decomposition import (
    GradedDecomposition,
    decompose_cohomology,
    decone,
    decone_flats,
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


@record
class CheckResult:
    """Outcome of one cross-check, with the values it compared."""

    name: str
    passed: bool
    detail: str


def check_poset_bruteforce(p: IntersectionPoset) -> CheckResult:
    """The closure's flats against those of the NBC sets, and the NBC
    counts by size against the coefficients of pi(A, t) from Möbius."""
    name = "poset-bruteforce-agreement"
    expected, nbc_counts = nbc_flats(p.arrangement)
    actual = frozenset(f.subspace for f in p.flats)
    betti = poincare_polynomial(p).coefficients
    detail = f"breadth-first flats = {len(actual)}, subset-enumeration flats = {len(expected)}"
    if nbc_counts != betti:
        detail += f"; NBC counts {list(nbc_counts)} != Poincaré coefficients {list(betti)}"
    return CheckResult(name, actual == expected and nbc_counts == betti, detail)


def check_rank_identity(p: IntersectionPoset) -> CheckResult:
    name = "rank-identity"
    bad = [
        (f.index, p.level(f), f.codim)
        for f in p.flats
        if p.level(f) + f.codim != p.rank_l
    ]
    if bad:
        return CheckResult(name, False, f"l(G) + gr(G) != l at flats {bad}")
    return CheckResult(name, True, f"l(G) + gr(G) = {p.rank_l} on all {len(p.flats)} flats")


def check_mobius_sign(p: IntersectionPoset) -> CheckResult:
    name = "mobius-sign-law"
    mu = mobius_from_top(p)
    bad = [
        (f.index, mu[f.index])
        for f in p.flats
        if mu[f.index] * (-1) ** f.codim <= 0
    ]
    if bad:
        return CheckResult(name, False, f"sign(mu) != (-1)^gr at flats {bad}")
    return CheckResult(name, True, f"sign(mu(top, G)) = (-1)^gr(G) on all {len(p.flats)} flats")


def check_reciprocity(p: IntersectionPoset) -> CheckResult:
    name = "poincare-reciprocity"
    n = p.arrangement.ambient_dim
    chi = characteristic_polynomial(p)
    pi = poincare_polynomial(p)
    flipped = IntPolynomial.from_coefficients(
        [(-1) ** (n - d) * chi.coefficient(d) for d in range(n, -1, -1)]
    )
    return CheckResult(
        name,
        pi == flipped,
        f"pi(A, t) = {pi}; (-t)^n chi(A, -1/t) = {flipped}",
    )


def check_sigma_wedge(p: IntersectionPoset, wedge: WedgeCheck | None) -> CheckResult:
    a = p.arrangement
    name = "sigma-wedge"
    if not a.hyperplanes:
        return CheckResult(name, True, "n/a: empty arrangement has an empty singular set")
    if len(a) > DEFAULT_NERVE_ORACLE_CAP:
        return CheckResult(name, True, f"n/a: |A| = {len(a)} exceeds the oracle cap")
    return CheckResult(
        name,
        wedge.is_wedge,
        f"reduced nerve homology concentrated in degree {p.rank_l - 1}, "
        f"torsion-free, rank {wedge.beta}",
    )


def check_nerve_euler(p: IntersectionPoset, wedge: WedgeCheck | None) -> CheckResult:
    a = p.arrangement
    name = "nerve-euler-additivity"
    if not a.hyperplanes:
        return CheckResult(name, True, "n/a: empty arrangement")
    if len(a) > DEFAULT_NERVE_ORACLE_CAP:
        return CheckResult(name, True, f"n/a: |A| = {len(a)} exceeds the oracle cap")
    if nerve_is_truncated(p):
        return CheckResult(name, True, "n/a: nerve truncated above the checked range")
    nerve_chi = wedge.nerve.euler_characteristic()
    expected = 1 - euler_complement(p)
    return CheckResult(
        name,
        nerve_chi == expected,
        f"chi(nerve) = {nerve_chi}, 1 - chi(complement) = {expected}",
    )


def check_beta_oracles(p: IntersectionPoset, wedge: WedgeCheck | None) -> CheckResult:
    name = "beta-triple-oracle"
    a = p.arrangement
    if restriction_to(p, p.top) != a:
        return CheckResult(name, False, "top flat: restriction differs from the arrangement")
    # A∩G is essential iff A is.  Its chambers are the faces of A whose
    # hull is G, listed at once for the down-set of flats within the caps.
    # They number r(A∩G) = sum of |mu(G, Y)| over Y <= G (Zaslavsky), and
    # h(G) = (-1)^d(G) r(A∩G) inverts to (-1)^d(G) = sum of h(Y) over
    # Y <= G: one bottom-up pass, as in `beta_all_flats`.
    faces, h = {}, {}
    sizes = [len(p.covers(f.index)) for f in p.flats]  # |A∩G|
    if p.n0 == 0:
        members = [f.index for f in p.flats if f.dim <= MAX_FM_DIM
                   and sizes[f.index] <= MAX_CHAMBER_HYPERPLANES]
        faces, rays = list_faces(p, members)
        for y in sorted(members, key=lambda i: p.flats[i].dim):
            h[y] = (-1) ** p.flats[y].dim - sum(h[j] for j in p.strictly_below[y])
    comparisons = []
    skipped = []
    for f, b, size in zip(p.flats, beta_all_flats(p), sizes):
        found = faces.get(f.index, {})
        for plus, minus in found:
            zeros = [i for i in range(len(a)) if not (plus | minus) >> i & 1]
            if set(zeros) != f.containing_hyperplanes:
                return CheckResult(name, False, f"flat {f.index}: a face's zero set {zeros} "
                                   f"!= C(G) = {sorted(f.containing_hyperplanes)}")
        if found and len(found) != (-1) ** f.dim * h[f.index]:
            return CheckResult(name, False, f"flat {f.index}: {len(found)} faces "
                               f"!= r(A∩G) = {(-1) ** f.dim * h[f.index]}")
        beta = b.value
        if not size:
            comparisons.append((f.index, beta, 1 if beta == 1 else None))
            if beta != 1:
                return CheckResult(
                    name, False, f"flat {f.index}: empty restriction but beta = {beta}"
                )
            continue
        if size > DEFAULT_NERVE_ORACLE_CAP:
            skipped.append(f.index)
            continue
        w = wedge if f.is_top else sigma_wedge_check(p, f)
        if not w.is_wedge:
            return CheckResult(name, False, f"flat {f.index}: reduced nerve homology of A∩G is "
                               f"not torsion-free and concentrated in degree {p.level(f) - 1}")
        nerve_beta = w.beta
        if nerve_beta != beta:
            return CheckResult(
                name,
                False,
                f"flat {f.index}: combinatorial beta {beta} != nerve beta {nerve_beta}",
            )
        entry = [f.index, beta, nerve_beta]
        if found:
            # Only the rays among G's directions can keep a face's signs.
            zero = sum(1 << i for i in f.containing_hyperplanes)
            inside = [r for r in rays if not (r[0] | r[1]) & zero]
            bounded = sum(is_bounded(signs, inside) for signs in found)
            entry.append(bounded)
            if bounded != beta:
                return CheckResult(
                    name,
                    False,
                    f"flat {f.index}: beta {beta} != bounded chambers {bounded}",
                )
        comparisons.append(tuple(entry))
    detail = "per-flat (index, combinatorial, nerve[, chambers]): " + "; ".join(
        str(c) for c in comparisons
    )
    if skipped:
        detail += (
            "; not compared, restriction above the oracle cap of "
            f"{DEFAULT_NERVE_ORACLE_CAP}: {skipped}"
        )
    return CheckResult(name, True, detail)


def check_deconing(p: IntersectionPoset) -> CheckResult:
    a = p.arrangement
    name = "deconing-factorization"
    if not a.hyperplanes:
        return CheckResult(name, True, "n/a: empty arrangement")
    if not (p.is_central and p.is_essential):
        return CheckResult(name, True, "n/a: arrangement is not central and essential")
    pi_a = poincare_polynomial(p)
    one_plus_t = IntPolynomial.from_coefficients([1, 1])
    center = p.flats[min(p.minimal_flats)]
    details = []
    for h in range(len(a)):
        # Geometry: the independent route the `decone_flats` view is
        # checked against.  A passed the caller's cap (p exists), and the
        # decone is smaller.  A is central and essential, so decone(a, h)
        # is the decone of ess(A_center) that the view describes.
        deconed = decone(a, h)
        dp = build_intersection_poset(deconed, max_hyperplanes=len(a))
        pi_deconed = poincare_polynomial(dp)
        product = one_plus_t * pi_deconed
        if product != pi_a:
            return CheckResult(
                name,
                False,
                f"H_inf = {h}: (1+t) * pi(A') = {product} != pi(A) = {pi_a}",
            )
        if dp.rank_l != p.rank_l - 1:
            return CheckResult(
                name, False, f"H_inf = {h}: rank {dp.rank_l} != {p.rank_l} - 1"
            )
        # C(center) is all of A: labels above h move down one.  A flat is
        # its containing set, so both sides are keyed by it; a view that
        # lists a flat twice has more rows than keys.
        rows = [
            (frozenset(i - (i > h) for i in p.flats[y].containing_hyperplanes), (trace, b))
            for y, trace, b in decone_flats(p, center, h, deconed)
        ]
        view = dict(rows)
        built = {
            f.containing_hyperplanes: (f.subspace, b.value)
            for f, b in zip(dp.flats, beta_all_flats(dp))
        }
        if view != built or len(rows) > len(view):
            return CheckResult(
                name,
                False,
                f"H_inf = {h}: decone view read off A's poset differs from geometry",
            )
        details.append(f"H_inf={h}: pi(A)=(1+t)*({pi_deconed})")
    return CheckResult(name, True, "; ".join(details))


def check_decomposition(p: IntersectionPoset, dec: GradedDecomposition) -> CheckResult:
    name = "decomposition-structure"
    if dec.concentration_degree != p.rank_l:
        return CheckResult(
            name,
            False,
            f"concentration degree {dec.concentration_degree} != rank {p.rank_l}",
        )
    betas = [b.value for b in beta_all_flats(p)]
    for s in dec.summands:
        expected = betas[s.flat_index]
        if s.multiplicity != expected or s.multiplicity <= 0:
            return CheckResult(
                name,
                False,
                f"flat {s.flat_index}: multiplicity {s.multiplicity} != beta {expected}",
            )
        if s.subspace.is_whole_space:
            free = top_level_free_nodes(s.module)
            if len(free) != 1 or free[0].rank != dec.free_rank:
                return CheckResult(name, False, "top summand is not FREE(beta(A))")
        else:
            if top_level_free_nodes(s.module):
                return CheckResult(
                    name, False, f"flat {s.flat_index}: free node outside the top summand"
                )
            if not contains_tensor_trivial(s.module):
                return CheckResult(
                    name, False, f"flat {s.flat_index}: missing TENSOR_TRIVIAL node"
                )
    zero_beta = betas.count(0)
    return CheckResult(
        name,
        True,
        f"degree {dec.concentration_degree}, free rank {dec.free_rank}, "
        f"{len(dec.summands)} summands ({zero_beta} flats with beta 0 omitted)",
    )


def run_all_checks(
    a: Arrangement, max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES
) -> list[CheckResult]:
    """The full battery, in the documented order; A's nerve check is
    computed once and shared."""
    p = build_intersection_poset(a, max_hyperplanes=max_hyperplanes)
    wedge = sigma_wedge_check(p) if 0 < len(a) <= DEFAULT_NERVE_ORACLE_CAP else None
    results = [
        check_poset_bruteforce(p),
        check_rank_identity(p),
        check_mobius_sign(p),
        check_reciprocity(p),
        check_sigma_wedge(p, wedge),
        check_nerve_euler(p, wedge),
        check_beta_oracles(p, wedge),
    ]
    return results + [
        check_deconing(p),
        check_decomposition(p, decompose_cohomology(p)),
    ]
