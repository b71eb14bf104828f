from __future__ import annotations

import pytest
from hypothesis import given, settings

from arrcoh.arrangement import build_intersection_poset
from arrcoh.errors import InternalConsistencyError
from arrcoh.invariants import (
    IntPolynomial,
    beta_all_flats,
    beta_combinatorial,
    characteristic_polynomial,
    euler_complement,
    mobius_from_top,
    mobius_interval_from,
    poincare_polynomial,
)
from helpers import braid, closure_arrangements, reference_mobius_interval, shi


def poly(*coeffs):
    return IntPolynomial.from_coefficients(list(coeffs))


class TestIntPolynomial:
    def test_trimming_and_zero(self):
        assert poly(1, 0, 0) == poly(1)
        assert poly() == IntPolynomial.zero()
        assert poly().degree == -1

    def test_arithmetic(self):
        assert poly(1, 1) * poly(1, 1) == poly(1, 2, 1)
        assert poly(1, -3, 3)(1) == 1

    def test_str(self):
        assert str(poly(3, -3, 1)) == "t^2 - 3t + 3"
        assert str(poly()) == "0"


class TestMobius:
    def test_boolean_hand_recursion(self, corpus_posets):
        # 4-element poset: mu(top) = 1, each line -1, origin -(1-1-1) = 1.
        p = corpus_posets["boolean-c2"]
        mu = mobius_from_top(p)
        values = {p.flats[i].dim: [] for i in range(len(p.flats))}
        for f in p.flats:
            values[f.dim].append(mu[f.index])
        assert values[2] == [1]
        assert values[1] == [-1, -1]
        assert values[0] == [1]

    def test_concurrent_triple_point(self, corpus_posets):
        p = corpus_posets["concurrent3-c2"]
        mu = mobius_from_top(p)
        origin = next(f for f in p.flats if f.dim == 0)
        assert mu[origin.index] == 2  # -(1 - 1 - 1 - 1)

    def test_top_value_is_one(self, corpus_posets):
        for name, p in corpus_posets.items():
            assert mobius_from_top(p)[p.top.index] == 1, name

    def test_sign_alternation(self, corpus_posets):
        for name, p in corpus_posets.items():
            mu = mobius_from_top(p)
            for f in p.flats:
                assert mu[f.index] * (-1) ** f.codim > 0, (name, f.index)

    def test_central_sum_vanishes(self, corpus_posets):
        for name, p in corpus_posets.items():
            if p.is_central and p.arrangement.hyperplanes:
                assert sum(mobius_from_top(p).values()) == 0, name


def assert_mobius_matches_reference(p):
    for g in p.flats:
        assert mobius_interval_from(p, g) == reference_mobius_interval(p, g), g.index


class TestMobiusAgainstReference:
    """Every interval's pushed-down mu against the pull recursion over the
    containing sets, which reads neither stored nor derived order."""

    def test_corpus(self, corpus_posets):
        for p in corpus_posets.values():
            assert_mobius_matches_reference(p)

    @pytest.mark.parametrize("a", [braid(4), braid(5), shi(3)], ids=["braid4", "braid5", "shi3"])
    def test_families(self, a):
        assert_mobius_matches_reference(build_intersection_poset(a))

    @given(closure_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_random_arrangements(self, a):
        assert_mobius_matches_reference(build_intersection_poset(a))


class TestPolynomials:
    def test_characteristic_examples(self, corpus_posets):
        assert characteristic_polynomial(corpus_posets["empty-c1"]) == poly(0, 1)
        assert characteristic_polynomial(corpus_posets["boolean-c2"]) == poly(1, -2, 1)
        assert characteristic_polynomial(corpus_posets["generic3-c2"]) == poly(3, -3, 1)

    def test_poincare_examples(self, corpus_posets):
        assert poincare_polynomial(corpus_posets["empty-c1"]) == poly(1)
        assert poincare_polynomial(corpus_posets["generic3-c2"]) == poly(1, 3, 3)
        assert poincare_polynomial(corpus_posets["concurrent3-c2"]) == poly(1, 3, 2)

    def test_poincare_constant_term(self, corpus_posets):
        for name, p in corpus_posets.items():
            assert poincare_polynomial(p).coefficient(0) == 1, name

    def test_euler_examples(self, corpus_posets):
        assert euler_complement(corpus_posets["one-point-c1"]) == 0
        assert euler_complement(corpus_posets["generic3-c2"]) == 1
        assert euler_complement(corpus_posets["concurrent3-c2"]) == 0

    def test_reciprocity(self, corpus_posets):
        # pi(A, t) = (-t)^n chi(A, -1/t) as polynomials.
        for name, p in corpus_posets.items():
            n = p.arrangement.ambient_dim
            chi = characteristic_polynomial(p)
            flipped = IntPolynomial.from_coefficients(
                [(-1) ** (n - d) * chi.coefficient(d) for d in range(n, -1, -1)]
            )
            assert poincare_polynomial(p) == flipped, name


class TestBeta:
    def test_central_top_vanishes(self, corpus_posets):
        p = corpus_posets["boolean-c2"]
        assert beta_combinatorial(p, p.top).value == 0

    def test_two_points_top(self, corpus_posets):
        p = corpus_posets["two-points-c1"]
        b = beta_combinatorial(p, p.top)
        assert (b.value, b.degree) == (1, 1)

    def test_generic3_top(self, corpus_posets):
        p = corpus_posets["generic3-c2"]
        assert beta_combinatorial(p, p.top).value == 1

    def test_generic4_top(self, corpus_posets):
        assert beta_combinatorial(
            corpus_posets["generic4-c2"], corpus_posets["generic4-c2"].top
        ).value == 3

    def test_minimal_flats_have_beta_one(self, corpus_posets):
        for name, p in corpus_posets.items():
            for i in p.minimal_flats:
                b = beta_combinatorial(p, p.flats[i])
                assert (b.value, b.degree) == (1, 0), name

    def test_degree_is_level(self, corpus_posets):
        for name, p in corpus_posets.items():
            for b in beta_all_flats(p):
                assert b.degree == p.level(b.flat), name
                assert b.value >= 0, name

    def test_beta_equals_signed_euler_of_sub_complement(self, corpus_posets):
        # At the top flat: beta(A) = (-1)^l chi(M(A)).
        for name, p in corpus_posets.items():
            expected = (-1) ** p.rank_l * euler_complement(p)
            assert beta_combinatorial(p, p.top).value == expected, name

    def test_view_levels_start_at_its_minimal_flats(self, corpus_posets):
        # The top and the three lines of generic3-c2, without the points:
        # the lines are minimal, as three points are in C^1, so beta(top) = 2
        # at level 1.
        p = corpus_posets["generic3-c2"]
        view = [f.index for f in p.flats if f.dim >= 1]
        values = [(b.flat.index, b.degree, b.value) for b in beta_all_flats(p, view)]
        assert values == [(0, 1, 2)] + [(i, 0, 1) for i in view[1:]]

    def test_view_with_minimal_flats_of_unequal_dimension_rejected(self, corpus_posets):
        p = corpus_posets["generic3-c2"]
        line = next(f.index for f in p.flats if f.dim == 1)
        point = next(f.index for f in p.flats if f.dim == 0 and f.index not in p.strictly_below[line])
        with pytest.raises(InternalConsistencyError, match="unequal dimensions"):
            beta_all_flats(p, [0, line, point])

    def test_view_with_negative_beta_rejected(self, corpus_posets):
        # Two points under the top with no line between: f(top) = 1 - 2.
        p = corpus_posets["generic3-c2"]
        points = [f.index for f in p.flats if f.dim == 0][:2]
        with pytest.raises(InternalConsistencyError, match="negative beta invariant -1"):
            beta_all_flats(p, [0, *points])
