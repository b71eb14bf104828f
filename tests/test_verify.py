from __future__ import annotations

import random
import re
import sys

from arrcoh import arrangement, nerve_homology, verify
from arrcoh.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    build_intersection_poset,
    poset_subspaces_bruteforce,
)
from arrcoh.errors import InputError
from arrcoh.invariants import IntPolynomial
from arrcoh.verify import run_all_checks
from helpers import braid, essential_braid, generic, points, replace, shi


def random_arrangement(rng: random.Random) -> Arrangement:
    """Small random rational arrangement; retries past degenerate draws."""
    n = rng.randint(1, 3)
    m = rng.randint(0, 5)
    while True:
        hyperplanes = []
        try:
            for _ in range(m):
                normal = [rng.randint(-2, 2) for _ in range(n)]
                if all(x == 0 for x in normal):
                    normal[rng.randrange(n)] = 1
                hyperplanes.append(
                    Hyperplane.from_coeffs(normal, rng.randint(-2, 2))
                )
            return Arrangement(n, tuple(hyperplanes))
        except InputError:  # duplicate hyperplane drawn; redraw
            continue


def test_battery_passes_on_random_arrangements():
    """Every cross-check in the battery is a theorem about any rational
    arrangement, so random inputs must pass all of them."""
    rng = random.Random(987654321)
    for _ in range(15):
        a = random_arrangement(rng)
        for result in run_all_checks(a):
            assert result.passed, (a, result.name, result.detail)


def test_battery_covers_non_essential_and_non_central_inputs():
    cases = [
        Arrangement(2, (Hyperplane.from_coeffs((1, 0), 0),)),  # non-essential
        Arrangement(
            2,
            (
                Hyperplane.from_coeffs((1, 0), 0),
                Hyperplane.from_coeffs((1, 0), 1),
                Hyperplane.from_coeffs((0, 1), 0),
            ),
        ),  # parallel pair plus a transversal
    ]
    for a in cases:
        for result in run_all_checks(a):
            assert result.passed, (a, result.name, result.detail)


def counting(calls, original):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    return wrapper


def test_base_decomposition_computed_once(corpus, monkeypatch):
    # One call, for the decomposition-structure check; the deconing check
    # compares posets and decomposes nothing.
    calls = []
    monkeypatch.setattr(
        verify, "decompose_cohomology", counting(calls, verify.decompose_cohomology)
    )
    assert all(r.passed for r in run_all_checks(corpus["boolean-c2"]))
    assert len(calls) == 1


def test_arrangement_nerve_built_once(corpus, monkeypatch):
    # A's nerve once, shared by the wedge, Euler and top-flat beta checks,
    # then one per line of boolean-c2 for its restriction.
    calls = []
    wrapper = counting(calls, nerve_homology.build_singular_nerve)
    monkeypatch.setattr(nerve_homology, "build_singular_nerve", wrapper)
    monkeypatch.setattr(verify, "build_singular_nerve", wrapper, raising=False)
    assert all(r.passed for r in run_all_checks(corpus["boolean-c2"]))
    assert len(calls) == 3


def assert_only_deconing_fails(monkeypatch, planted):
    # A decone view with one planted fault must no longer match the decone
    # poset built from geometry, and no other check may notice.
    monkeypatch.setattr(verify, "decone_flats", planted)
    results = {r.name: r for r in run_all_checks(essential_braid(4))}
    deconing = results.pop("deconing-factorization")
    assert not deconing.passed
    assert deconing.detail == (
        "H_inf = 0: decone view read off A's poset differs from geometry"
    )
    assert all(r.passed for r in results.values())


def test_deconing_check_catches_a_dropped_minimal_flat(monkeypatch):
    original = verify.decone_flats

    def dropping_a_minimal_flat(p, g, h_infinity, deconed):
        view = original(p, g, h_infinity, deconed)
        return view[:-1]  # by descending dimension: the last is minimal

    assert_only_deconing_fails(monkeypatch, dropping_a_minimal_flat)


def test_deconing_check_catches_a_beta_off_by_one(monkeypatch):
    original = verify.decone_flats

    def shifting_the_top_beta(p, g, h_infinity, deconed):
        (y, trace, beta), *rest = original(p, g, h_infinity, deconed)
        return [(y, trace, beta + 1), *rest]

    assert_only_deconing_fails(monkeypatch, shifting_the_top_beta)


def assert_beta_oracle_names_every_flat(a, skipped):
    """Every flat is either compared or listed as not compared."""
    p = build_intersection_poset(a)
    result = verify.check_beta_oracles(p, None)
    assert result.passed, result.detail
    compared, suffix = result.detail.split("; not compared, ")
    assert suffix == f"restriction above the oracle cap of 12: {skipped}"
    indices = [int(i) for i in re.findall(r"\((\d+),", compared)]
    assert sorted(indices + skipped) == list(range(len(p.flats)))


def test_beta_oracle_lists_the_flats_above_its_cap():
    # 13 points on a line: only the top's restriction is over 12.
    assert_beta_oracle_names_every_flat(points(13), [0])
    # 13 generic lines: each line meets the other 12 in 12 points.
    assert_beta_oracle_names_every_flat(generic(13, 2), [0])


def test_beta_oracle_reads_every_restriction_off_the_poset(monkeypatch):
    # Braid A_5: all 52 flats are compared, 50 of them through the nerve
    # of a restriction that is neither A nor empty.  It is not essential,
    # so the chamber leg never runs and the top's identity check is the
    # one call of restriction_to.
    p = build_intersection_poset(braid(5))
    wedge = nerve_homology.sigma_wedge_check(p)
    builds, restrictions = [], []
    monkeypatch.setattr(
        arrangement.IntersectionPoset,
        "__init__",
        counting(builds, arrangement.IntersectionPoset.__init__),
    )
    wrapper = counting(restrictions, arrangement.restriction_to)
    monkeypatch.setattr(arrangement, "restriction_to", wrapper)
    monkeypatch.setattr(verify, "restriction_to", wrapper)
    result = verify.check_beta_oracles(p, wedge)
    assert result.passed, result.detail
    assert len(re.findall(r"\(\d+, \d+, \d+\)", result.detail)) == len(p.flats) == 52
    assert builds == []
    assert restrictions == [(p, p.top)]


def test_beta_oracle_catches_a_beta_off_by_one(monkeypatch):
    # Shifting beta at any one non-top flat with a nonempty restriction
    # must disagree with the nerve of that restriction.
    p = build_intersection_poset(braid(4))
    wedge = nerve_homology.sigma_wedge_check(p)
    original = verify.beta_all_flats
    betas = [b.value for b in original(p)]
    planted = [f.index for f in p.flats if not f.is_top and p.covers[f.index]]
    assert len(planted) == 13
    for i in planted:

        def shifting(p, *args, i=i):
            values = original(p, *args)
            values[i] = replace(values[i], value=values[i].value + 1)
            return values

        monkeypatch.setattr(verify, "beta_all_flats", shifting)
        result = verify.check_beta_oracles(p, wedge)
        assert not result.passed, i
        assert result.detail == (
            f"flat {i}: combinatorial beta {betas[i] + 1} != nerve beta {betas[i]}"
        )


def with_flat_below_top(p, subspace):
    """p with `subspace`, which no intersection of A gives, covered by the top."""
    i = len(p.flats)
    flat = Flat(i, subspace, subspace.dim, subspace.codim, frozenset())
    return replace(
        p,
        flats=p.flats + (flat,),
        strictly_below=(p.strictly_below[0] | {i},) + p.strictly_below[1:] + (frozenset(),),
        strictly_above=p.strictly_above + (frozenset({0}),),
        covers=(p.covers[0] | {i},) + p.covers[1:] + (frozenset(),),
    )


def without_last_flat(p):
    """p without its last flat, a minimal one: never the top."""
    last = len(p.flats) - 1
    return replace(
        p,
        flats=p.flats[:-1],
        strictly_below=tuple(s - {last} for s in p.strictly_below[:-1]),
        strictly_above=p.strictly_above[:-1],
        covers=tuple(s - {last} for s in p.covers[:-1]),
    )


def test_flat_set_check_catches_planted_flats_past_twelve_hyperplanes():
    # Braid A_6 has 15 hyperplanes, past the reach of the subset enumeration.
    for a, count in ((braid(5), 52), (braid(6), 203)):
        p = build_intersection_poset(a)
        result = verify.check_poset_bruteforce(p)
        assert result.passed
        assert result.detail == (
            f"breadth-first flats = {count}, subset-enumeration flats = {count}"
        )
        x1_is_7 = Hyperplane.from_coeffs((1,) + (0,) * (a.ambient_dim - 1), 7).subspace()
        for planted, found in ((with_flat_below_top(p, x1_is_7), count + 1),
                               (without_last_flat(p), count - 1)):
            result = verify.check_poset_bruteforce(planted)
            assert not result.passed, (len(a), found)
            assert result.detail.startswith(
                f"breadth-first flats = {found}, subset-enumeration flats = {count}"
            )


def test_flat_set_check_compares_nbc_counts_with_poincare(monkeypatch):
    original = verify.poincare_polynomial

    def off_by_one(p):
        coefficients = list(original(p).coefficients)
        coefficients[2] += 1
        return IntPolynomial.from_coefficients(coefficients)

    monkeypatch.setattr(verify, "poincare_polynomial", off_by_one)
    result = verify.check_poset_bruteforce(build_intersection_poset(braid(5)))
    assert not result.passed
    assert result.detail == (
        "breadth-first flats = 52, subset-enumeration flats = 52; "
        "NBC counts [1, 10, 35, 50, 24] != Poincaré coefficients [1, 10, 36, 50, 24]"
    )


def test_verify_runs_no_subset_enumeration(monkeypatch):
    def raising(*args, **kwargs):
        raise AssertionError("verify called poset_subspaces_bruteforce")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arrcoh":
            for bound, value in list(vars(module).items()):
                if value is poset_subspaces_bruteforce:
                    monkeypatch.setattr(module, bound, raising)
    for a in (braid(5), shi(4)):
        results = run_all_checks(a)
        assert len(results) == 9
        assert all(r.passed for r in results), [r for r in results if not r.passed]
