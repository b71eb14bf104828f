from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from arrcoh import arrangement
from arrcoh.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
    arrangement_from_coeffs,
    arrangement_stats,
    build_intersection_poset,
    essential_arrangement,
    essentialize,
    essentialize_with_chart,
    nbc_flats,
    poset_subspaces_bruteforce,
    restriction_to,
    subarrangement_at,
    validate_arrangement,
)
from arrcoh.errors import InputError, InternalConsistencyError, ResourceCapError
from arrcoh.exact_linalg import (
    AffineSubspace,
    RationalMatrix,
    affine_image,
    flat_relation,
    FlatRelation,
    intersect_flats,
    solve_affine,
)
from arrcoh.invariants import beta_all_flats, mobius_interval_from, poincare_polynomial
from helpers import (
    braid,
    closure_arrangements,
    containing_subarrangement,
    essential_braid,
    fraction_closure_poset,
    generic,
    points,
    restriction_by_rref,
    shi,
    small_arrangements,
)

F = Fraction


def subspace(rows, rhs):
    sol = solve_affine(RationalMatrix.from_rows(rows), rhs)
    assert sol is not None
    return sol


def assert_order_matches_flat_relation(p):
    for f, g in itertools.combinations(p.flats, 2):
        relation = flat_relation(f.subspace, g.subspace)
        f_above = relation == FlatRelation.F1_STRICTLY_CONTAINS_F2
        g_above = relation == FlatRelation.F2_STRICTLY_CONTAINS_F1
        assert (g.index in p.strictly_below[f.index]) == f_above
        assert (f.index in p.strictly_above[g.index]) == f_above
        assert (f.index in p.strictly_below[g.index]) == g_above
        assert (g.index in p.strictly_above[f.index]) == g_above


def assert_covers_are_transitive_reduction(p):
    for f in p.flats:
        below = p.strictly_below[f.index]
        reduction = {j for j in below if not any(j in p.strictly_below[k] for k in below)}
        assert p.covers[f.index] == reduction, f.index


def assert_containing_sets_exact(a, p):
    for f in p.flats:
        for i, h in enumerate(a.hyperplanes):
            expected = h.subspace().contains(f.subspace)
            assert (i in f.containing_hyperplanes) == expected, (f.index, i)


def assert_subarrangements_match(a, p):
    for f in p.flats:
        expected = subarrangement_at(a, f).hyperplanes
        assert containing_subarrangement(p, f).hyperplanes == expected


def assert_betas_match_mobius(p):
    for g, b in zip(p.flats, beta_all_flats(p)):
        expected = (-1) ** p.level(g) * sum(mobius_interval_from(p, g).values())
        assert (b.flat, b.degree, b.value) == (g, p.level(g), expected), g.index


def assert_restrictions_match_rref(p):
    for g in p.flats:
        assert restriction_to(p, g) == restriction_by_rref(p, g), g.index


def assert_nbc_matches_poset(a):
    flats, counts = nbc_flats(a)
    p = build_intersection_poset(a)
    assert flats == frozenset(f.subspace for f in p.flats)
    assert counts == poincare_polynomial(p).coefficients
    return flats, counts


class TestValidation:
    def test_boolean_parses(self):
        raw = {
            "dim": 2,
            "hyperplanes": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["0", "1"], "offset": "0"},
            ],
        }
        a = validate_arrangement(raw)
        assert a.ambient_dim == 2 and len(a) == 2

    def test_canonical_scaling(self):
        a = validate_arrangement(
            {"dim": 1, "hyperplanes": [{"normal": ["2"], "offset": "0"}]}
        )
        assert a.hyperplanes[0] == Hyperplane((F(1),), F(0))

    def test_duplicate_rejected(self):
        raw = {
            "dim": 2,
            "hyperplanes": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["2", "0"], "offset": "0"},
            ],
        }
        with pytest.raises(InputError, match="same hyperplane"):
            validate_arrangement(raw)

    def test_zero_normal_rejected(self):
        raw = {"dim": 2, "hyperplanes": [{"normal": ["0", "0"], "offset": "1"}]}
        with pytest.raises(InputError, match="normal"):
            validate_arrangement(raw)

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({}, "dim"),
            ({"dim": 2}, "hyperplanes"),
            ({"dim": -1, "hyperplanes": []}, "dim"),
            ({"dim": 2, "hyperplanes": [{"offset": "0"}]}, "normal"),
            ({"dim": 2, "hyperplanes": [{"normal": ["1", "0"]}]}, "offset"),
            ({"dim": 2, "hyperplanes": [{"normal": ["1"], "offset": "0"}]}, "normal"),
        ],
    )
    def test_errors_name_the_field(self, raw, field):
        with pytest.raises(InputError, match=field):
            validate_arrangement(raw)


class TestPosetConstruction:
    def test_generic3_has_seven_flats(self, corpus_posets):
        p = corpus_posets["generic3-c2"]
        assert len(p.flats) == 7
        assert sorted(f.dim for f in p.flats) == [0, 0, 0, 1, 1, 1, 2]

    def test_boolean_has_four_flats(self, corpus_posets):
        p = corpus_posets["boolean-c2"]
        assert len(p.flats) == 4
        assert sorted(f.dim for f in p.flats) == [0, 1, 1, 2]

    def test_empty_arrangement(self, corpus_posets):
        p = corpus_posets["empty-c1"]
        assert len(p.flats) == 1
        assert p.rank_l == 0
        assert p.top.is_top

    def test_matches_bruteforce_oracle(self, corpus, corpus_posets):
        for name, a in corpus.items():
            expected = poset_subspaces_bruteforce(a)
            actual = frozenset(f.subspace for f in corpus_posets[name].flats)
            assert actual == expected, name
            assert assert_nbc_matches_poset(a)[0] == expected, name

    def test_minimal_flats_share_dimension(self, corpus_posets):
        for name, p in corpus_posets.items():
            dims = {p.flats[i].dim for i in p.minimal_flats}
            assert len(dims) == 1, name
            assert dims == {p.n0}, name

    def test_rank_identity_all_flats(self, corpus_posets):
        for name, p in corpus_posets.items():
            for f in p.flats:
                assert p.level(f) + f.codim == p.rank_l, (name, f.index)

    def test_order_agrees_with_flat_relation(self, corpus_posets):
        for p in corpus_posets.values():
            assert_order_matches_flat_relation(p)

    def test_covers_have_no_intermediate(self, corpus_posets):
        for p in corpus_posets.values():
            assert_covers_are_transitive_reduction(p)

    def test_containing_hyperplanes_exact(self, corpus, corpus_posets):
        for name, a in corpus.items():
            assert_containing_sets_exact(a, corpus_posets[name])

    def test_cap_enforced(self):
        a = arrangement_from_coeffs(1, [((1,), k) for k in range(5)])
        with pytest.raises(ResourceCapError):
            build_intersection_poset(a, max_hyperplanes=4)


FAMILIES = {
    "braid-4": (lambda: braid(4), 15),
    "braid-5": (lambda: braid(5), 52),
    "shi-3": (lambda: shi(3), 13),
    "shi-4": (lambda: shi(4), 73),
    "essential-braid-4": (lambda: essential_braid(4), 15),
    "generic-8-lines": (lambda: generic(8, 2), 1 + 8 + 28),
    "generic-6-planes": (lambda: generic(6, 3), 1 + 6 + 15 + 20),
}


class TestOrderBeyondCorpus:
    """The combinatorial order, covers, incidence and restrictions against
    row reductions, and the one-pass beta against the Möbius sums."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families(self, name):
        build, flat_count = FAMILIES[name]
        a = build()
        p = build_intersection_poset(a)
        assert len(p.flats) == flat_count
        assert_order_matches_flat_relation(p)
        assert_covers_are_transitive_reduction(p)
        assert_containing_sets_exact(a, p)
        assert_subarrangements_match(a, p)
        assert_betas_match_mobius(p)
        assert_restrictions_match_rref(p)

    @given(small_arrangements())
    @settings(max_examples=30, deadline=None)
    def test_random_arrangements(self, a):
        p = build_intersection_poset(a)
        assert frozenset(f.subspace for f in p.flats) == poset_subspaces_bruteforce(a)
        assert_nbc_matches_poset(a)
        assert_order_matches_flat_relation(p)
        assert_covers_are_transitive_reduction(p)
        assert_containing_sets_exact(a, p)
        assert_subarrangements_match(a, p)
        assert_betas_match_mobius(p)
        assert_restrictions_match_rref(p)


def assert_same_as_fraction_closure(a):
    p, expected = build_intersection_poset(a), fraction_closure_poset(a)
    for name in IntersectionPoset.__match_args__:
        assert getattr(p, name) == getattr(expected, name), name
    subspaces = [f.subspace for f in p.flats]
    assert subspaces == sorted(subspaces, key=lambda s: (-s.dim, s.sort_key()))
    return p


class TestIntegerClosure:
    """The closure's fraction-free integer cuts against the `Fraction`
    closure they replaced, every `IntersectionPoset` field compared."""

    def test_corpus(self, corpus):
        for a in corpus.values():
            assert_same_as_fraction_closure(a)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_families(self, name):
        assert_same_as_fraction_closure(FAMILIES[name][0]())

    @given(closure_arrangements())
    @settings(max_examples=60, deadline=None)
    def test_random_arrangements(self, a):
        p = assert_same_as_fraction_closure(a)
        assert frozenset(f.subspace for f in p.flats) == poset_subspaces_bruteforce(a)

    def test_forty_digit_coefficients(self):
        # Generic planes with 40-digit numerators and denominators, plus a
        # parallel copy of the first and a plane through the first two's
        # common line: the integer columns grow far past machine words.
        rng = random.Random(40)

        def number():
            return F(rng.choice((-1, 1)) * rng.randrange(10**39, 10**40),
                     rng.randrange(10**39, 10**40))

        rows = [([number() for _ in range(3)], number()) for _ in range(5)]
        (a0, b0), (a1, b1) = rows[:2]
        rows.append((a0, number()))
        rows.append(([x + y for x, y in zip(a0, a1)], b0 + b1))
        a = arrangement_from_coeffs(3, rows)
        p = assert_same_as_fraction_closure(a)
        assert frozenset(f.subspace for f in p.flats) == poset_subspaces_bruteforce(a)
        assert max(len(str(x.denominator)) for f in p.flats for x in f.subspace.rhs) > 40


NBC_ORACLE_FAMILIES = {
    "braid-4": lambda: braid(4),
    "braid-5": lambda: braid(5),
    "shi-3": lambda: shi(3),
    "shi-4": lambda: shi(4),
    "generic-8-planes": lambda: generic(8, 3),
    "essential-braid-5": lambda: essential_braid(5),
}


class TestNbcFlats:
    """The flats of the NBC sets against the 2^|A| subset enumeration and
    the poset, and the NBC counts by size against the Betti numbers from
    Möbius; the corpus and random cases ride on the poset's own tests."""

    @pytest.mark.parametrize("name", sorted(NBC_ORACLE_FAMILIES))
    def test_families(self, name):
        a = NBC_ORACLE_FAMILIES[name]()
        assert assert_nbc_matches_poset(a)[0] == poset_subspaces_bruteforce(a)

    @pytest.mark.parametrize(
        "a, flat_count, counts",
        [
            (generic(16, 2), 1 + 16 + 120, (1, 16, 120)),
            (braid(6), 203, (1, 15, 85, 225, 274, 120)),
            (points(13), 14, (1, 13)),
        ],
        ids=["generic-16-lines", "braid-6", "points-13"],
    )
    def test_above_the_subset_enumeration_reach(self, a, flat_count, counts):
        flats, found = assert_nbc_matches_poset(a)
        assert (len(flats), found) == (flat_count, counts)

    def test_minimal_flats_are_not_cut(self, monkeypatch):
        # A flat of codimension rank(normals) misses every hyperplane not
        # containing it; in general position no other cut is empty.
        empty = []

        def recording(f, g):
            cut = intersect_flats(f, g)
            empty.append(cut is None)
            return cut

        monkeypatch.setattr(arrangement, "intersect_flats", recording)
        for a in (generic(8, 2), generic(8, 3)):
            nbc_flats(a)
        assert empty and not any(empty)


class TestStats:
    def test_two_parallel_lines(self):
        a = arrangement_from_coeffs(2, [((1, 0), 0), ((1, 0), 1)])
        stats = arrangement_stats(build_intersection_poset(a))
        assert stats.rank_l == 1
        assert not stats.is_central
        assert not stats.is_essential

    def test_boolean(self, corpus_posets):
        stats = arrangement_stats(corpus_posets["boolean-c2"])
        assert stats.rank_l == 2 and stats.is_central and stats.is_essential

    def test_empty(self, corpus_posets):
        stats = arrangement_stats(corpus_posets["empty-c1"])
        assert stats.rank_l == 0 and stats.is_central and not stats.is_essential


class TestSubarrangement:
    def test_double_point_of_generic3(self, corpus, corpus_posets):
        a = corpus["generic3-c2"]
        p = corpus_posets["generic3-c2"]
        origin = p.flat_for(subspace([[1, 0], [0, 1]], [0, 0]))
        sub = subarrangement_at(a, origin)
        assert sub.hyperplanes == a.hyperplanes[:2]

    def test_top_gives_empty(self, corpus, corpus_posets):
        a = corpus["generic3-c2"]
        sub = subarrangement_at(a, corpus_posets["generic3-c2"].top)
        assert sub.hyperplanes == ()

    def test_single_hyperplane(self, corpus, corpus_posets):
        a = corpus["generic3-c2"]
        p = corpus_posets["generic3-c2"]
        h1 = p.flat_for(a.hyperplanes[0].subspace())
        assert subarrangement_at(a, h1).hyperplanes == (a.hyperplanes[0],)

    def test_rank_is_codim(self, corpus, corpus_posets):
        for name, a in corpus.items():
            p = corpus_posets[name]
            for f in p.flats:
                sub = subarrangement_at(a, f)
                sp = build_intersection_poset(sub)
                assert sp.rank_l == f.codim, (name, f.index)
                assert len(sp.minimal_flats) == 1  # central
                bottom = sp.flats[next(iter(sp.minimal_flats))]
                assert bottom.subspace == f.subspace, (name, f.index)

    def test_non_flat_rejected(self, corpus):
        a = corpus["generic3-c2"]
        stray = subspace([[1, 0], [0, 1]], [5, 5])
        fake = Flat(0, stray, 0, 2, frozenset())
        with pytest.raises(InputError):
            subarrangement_at(a, fake)


class TestRestriction:
    def test_generic3_on_first_line(self, corpus, corpus_posets):
        p = corpus_posets["generic3-c2"]
        a = corpus["generic3-c2"]
        h1 = p.flat_for(a.hyperplanes[0].subspace())
        r = restriction_to(p, h1)
        # On {x = 0} with chart coordinate y: H2 cuts y = 0, H3 cuts y = 1.
        assert r.arrangement == arrangement_from_coeffs(1, [((1,), 0), ((1,), 1)])
        assert len(r.flat_indices) == 2

    def test_top_restriction_is_the_arrangement(self, corpus, corpus_posets):
        for name in ("generic3-c2", "boolean-c3", "generic4-c2"):
            a = corpus[name]
            r = restriction_to(corpus_posets[name], corpus_posets[name].top)
            assert r.arrangement == a, name

    def test_minimal_restriction_empty(self, corpus_posets):
        p = corpus_posets["generic3-c2"]
        g = p.flats[min(p.minimal_flats, key=lambda i: p.flats[i].index)]
        r = restriction_to(p, g)
        assert r.arrangement.hyperplanes == ()
        assert p.level(g) == 0

    def test_lower_set_isomorphism(self, corpus, corpus_posets):
        """The restriction poset maps onto {X <= G} via the chart."""
        for name, a in corpus.items():
            p = corpus_posets[name]
            for g in p.flats:
                r = restriction_to(p, g)
                rp = build_intersection_poset(r.arrangement)
                pushed = {
                    rf.index: r.chart.push_subspace(rf.subspace) for rf in rp.flats
                }
                lower = {p.flats[j].subspace for j in p.strictly_below[g.index]}
                lower.add(g.subspace)
                assert set(pushed.values()) == lower, (name, g.index)
                assert len(pushed) == len(lower), (name, g.index)
                for rf in rp.flats:
                    for rg in rp.flats:
                        below = rg.index in rp.strictly_below[rf.index]
                        ambient_below = pushed[rf.index].contains(
                            pushed[rg.index]
                        ) and pushed[rf.index] != pushed[rg.index]
                        assert below == ambient_below, (name, g.index)

    def test_restriction_rank_is_level(self, corpus, corpus_posets):
        for name, p in corpus_posets.items():
            for g in p.flats:
                r = restriction_to(p, g)
                rp = build_intersection_poset(r.arrangement)
                assert rp.rank_l == p.level(g), (name, g.index)


class TestEssentialize:
    def test_one_line_in_plane(self):
        a = arrangement_from_coeffs(2, [((1, 0), 0)])
        ess = essentialize(a)
        assert ess == arrangement_from_coeffs(1, [((1,), 0)])

    def test_boolean_unchanged(self, corpus):
        assert essentialize(corpus["boolean-c2"]) == corpus["boolean-c2"]

    def test_one_plane_in_space(self):
        a = arrangement_from_coeffs(3, [((1, 0, 0), 7)])
        ess = essentialize(a)
        assert ess == arrangement_from_coeffs(1, [((1,), 0)])

    def test_poset_isomorphism(self):
        cases = [
            arrangement_from_coeffs(2, [((1, 0), 0)]),
            arrangement_from_coeffs(3, [((1, 0, 0), 7)]),
            arrangement_from_coeffs(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 1, 0), 0)]),
        ]
        for a in cases:
            ess, m, shift = essentialize_with_chart(a)
            p = build_intersection_poset(a)
            ep = build_intersection_poset(ess)
            image = {f.index: affine_image(f.subspace, m, shift) for f in p.flats}
            assert set(image.values()) == {f.subspace for f in ep.flats}
            assert len(set(image.values())) == len(p.flats)
            for f in p.flats:
                for g in p.flats:
                    below = g.index in p.strictly_below[f.index]
                    mapped_below = image[f.index].contains(image[g.index]) and image[
                        f.index
                    ] != image[g.index]
                    assert below == mapped_below

    def test_rank_preserved_and_essential(self, corpus):
        for name in ("one-point-c1", "boolean-c2", "boolean-c3", "concurrent3-c2"):
            a = corpus[name]
            p = build_intersection_poset(a)
            ess = essentialize(a)
            ep = build_intersection_poset(ess)
            assert ep.rank_l == p.rank_l, name
            assert ep.n0 == 0, name

    def test_non_central_rejected(self, corpus):
        with pytest.raises(InputError):
            essentialize(corpus["two-points-c1"])

    def test_pivot_entries_match_transposed_solve(self):
        # The essential normal c of a hyperplane through G solves c M = a,
        # M the system of G.
        for a in (braid(4), shi(3), generic(8, 3)):
            p = build_intersection_poset(a)
            for g in p.flats:
                sub = containing_subarrangement(p, g)
                mt = g.subspace.system.transpose()
                expected = []
                for h in sub.hyperplanes:
                    sol = solve_affine(mt, h.normal)
                    assert sol is not None and sol.dim == 0
                    expected.append(Hyperplane.from_coeffs(sol.parametrize()[0], 0))
                ess = essential_arrangement(g.subspace, sub.hyperplanes)
                assert ess == Arrangement(g.codim, tuple(expected)), g.index
                assert essentialize(sub) == ess, g.index

    def test_hyperplane_off_center_rejected(self):
        origin = subspace([[1, 0], [0, 1]], [0, 0])
        with pytest.raises(InternalConsistencyError):
            essential_arrangement(origin, [Hyperplane.from_coeffs((1, 0), 1)])
