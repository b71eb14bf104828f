from __future__ import annotations

import random
import re

from arrcoh import nerve_homology, verify
from arrcoh.arrangement import Arrangement, Hyperplane, build_intersection_poset
from arrcoh.errors import InputError
from arrcoh.verify import run_all_checks
from helpers import essential_braid, generic


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
