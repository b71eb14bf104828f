"""Closed-form families past type A: Coxeter B_n and D_n, Catalan and
Linial, at sizes no 2^m oracle reaches (Stanley, An Introduction to
Hyperplane Arrangements, 2007; Postnikov-Stanley, J. Combin. Theory A 91,
2000).  Every family lives in C^n; chi(A, t) sums mu over the flats by
dimension, so the non-essential Catalan and Linial carry a factor t."""

from __future__ import annotations

import math

import pytest

from arrcoh.arrangement import build_intersection_poset
from arrcoh.chambers import enumerate_chambers
from arrcoh.invariants import IntPolynomial, characteristic_polynomial, poincare_polynomial
from arrcoh.verify import run_all_checks
from helpers import catalan, coxeter_b, coxeter_d, linial


def from_roots(roots):
    """prod (t - r) over `roots`."""
    chi = IntPolynomial.from_coefficients([1])
    for r in roots:
        chi = chi * IntPolynomial.from_coefficients([-r, 1])
    return chi


def chi_b(n):
    return from_roots([2 * i - 1 for i in range(1, n + 1)])


def chi_d(n):
    return from_roots([n - 1] + [2 * i - 1 for i in range(1, n)])


def chi_catalan(n):
    return from_roots([0, *range(n + 1, 2 * n)])


def chi_linial(n):
    """(t / 2^n) sum over k of C(n, k) (t - k)^(n-1)."""
    total = [0] * (n + 1)
    for k in range(n + 1):
        for d, c in enumerate(from_roots([k] * (n - 1)).coefficients):
            total[d + 1] += math.comb(n, k) * c
    assert all(c % 2**n == 0 for c in total)
    return IntPolynomial.from_coefficients([c // 2**n for c in total])


@pytest.mark.parametrize(
    "build, n, chi, m",
    [
        (coxeter_b, 3, chi_b, 9),
        (coxeter_b, 4, chi_b, 16),
        (coxeter_b, 5, chi_b, 25),
        (coxeter_d, 4, chi_d, 12),
        (coxeter_d, 5, chi_d, 20),
        (catalan, 3, chi_catalan, 9),
        (catalan, 4, chi_catalan, 18),
        (linial, 4, chi_linial, 6),
        (linial, 5, chi_linial, 10),
    ],
    ids=["B3", "B4", "B5", "D4", "D5", "catalan-3", "catalan-4", "linial-4", "linial-5"],
)
def test_characteristic_polynomial_matches_closed_form(build, n, chi, m):
    a = build(n)
    assert len(a) == m
    p = build_intersection_poset(a, max_hyperplanes=m)
    assert characteristic_polynomial(p) == chi(n)


@pytest.mark.parametrize(
    "a, total", [(coxeter_b(3), 48), (coxeter_d(4), 192)], ids=["B3", "D4"]
)
def test_chambers_number_the_weyl_group(a, total):
    # 2^n n! chambers for B_n and 2^(n-1) n! for D_n, none bounded: both
    # are central.  Zaslavsky: the count is pi(A, 1) = |chi(A, -1)|.
    report = enumerate_chambers(a)
    assert (report.total, report.bounded) == (total, 0)
    assert report.total == poincare_polynomial(build_intersection_poset(a))(1)


@pytest.mark.parametrize(
    "a", [coxeter_b(3), coxeter_d(4), catalan(3), linial(4)],
    ids=["B3", "D4", "catalan-3", "linial-4"],
)
def test_battery_passes(a):
    for result in run_all_checks(a):
        assert result.passed, (result.name, result.detail)
