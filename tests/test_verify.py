from __future__ import annotations

import dataclasses
import random
import re

from arrcoh import arrangement, nerve_homology, verify
from arrcoh.arrangement import Arrangement, Hyperplane, build_intersection_poset
from arrcoh.errors import InputError
from arrcoh.verify import run_all_checks
from helpers import braid, essential_braid, generic


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
    points = Arrangement(1, tuple(Hyperplane.from_coeffs((1,), c) for c in range(13)))
    assert_beta_oracle_names_every_flat(points, [0])
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
            values[i] = dataclasses.replace(values[i], value=values[i].value + 1)
            return values

        monkeypatch.setattr(verify, "beta_all_flats", shifting)
        result = verify.check_beta_oracles(p, wedge)
        assert not result.passed, i
        assert result.detail == (
            f"flat {i}: combinatorial beta {betas[i] + 1} != nerve beta {betas[i]}"
        )
