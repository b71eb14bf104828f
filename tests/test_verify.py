from __future__ import annotations

import random

from arrcoh import nerve_homology, verify
from arrcoh.arrangement import Arrangement, Hyperplane
from arrcoh.errors import InputError
from arrcoh.verify import run_all_checks


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
    # One base call, then per hyperplane one deconed and one forced-choice
    # call: 2m + 1 for the m = 2 hyperplanes of boolean-c2.
    calls = []
    monkeypatch.setattr(
        verify, "decompose_cohomology", counting(calls, verify.decompose_cohomology)
    )
    assert all(r.passed for r in run_all_checks(corpus["boolean-c2"]))
    assert len(calls) == 5


def test_arrangement_nerve_built_once(corpus, monkeypatch):
    # A's nerve once, shared by the wedge, Euler and top-flat beta checks,
    # then one per line of boolean-c2 for its restriction.
    calls = []
    wrapper = counting(calls, nerve_homology.build_singular_nerve)
    monkeypatch.setattr(nerve_homology, "build_singular_nerve", wrapper)
    monkeypatch.setattr(verify, "build_singular_nerve", wrapper, raising=False)
    assert all(r.passed for r in run_all_checks(corpus["boolean-c2"]))
    assert len(calls) == 3
