from __future__ import annotations

import random

from arrcoh import nerve_homology, verify
from arrcoh.arrangement import Arrangement, Hyperplane, assemble_poset
from arrcoh.errors import InputError
from arrcoh.verify import run_all_checks
from helpers import essential_braid


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


def test_deconing_check_catches_a_wrong_decone_view(monkeypatch):
    # A view that loses one minimal flat of the decone must no longer
    # match the decone poset built from geometry.
    original = verify.decone_poset

    def dropping_a_minimal_flat(p, g, h_infinity, deconed):
        view = original(p, g, h_infinity, deconed)
        dropped = min(view.minimal_flats)
        return assemble_poset(
            deconed,
            {f.subspace: f.containing_hyperplanes for f in view.flats if f.index != dropped},
        )

    monkeypatch.setattr(verify, "decone_poset", dropping_a_minimal_flat)
    results = {r.name: r for r in run_all_checks(essential_braid(4))}
    deconing = results.pop("deconing-factorization")
    assert not deconing.passed
    assert deconing.detail == (
        "H_inf = 0: decone poset read off A's poset differs from geometry"
    )
    assert all(r.passed for r in results.values())
