from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcoh.arrangement import (
    Arrangement,
    Hyperplane,
    arrangement_from_coeffs,
    build_intersection_poset,
)
from arrcoh.chambers import (
    MAX_CHAMBER_HYPERPLANES,
    MAX_FM_DIM,
    Chamber,
    LinearSystem,
    chamber_bounded,
    enumerate_chambers,
    fm_feasible,
    is_bounded,
    list_faces,
)
from arrcoh.errors import InputError, ResourceCapError
from arrcoh.invariants import (
    euler_complement,
    mobius_from_top,
    mobius_interval_from,
    poincare_polynomial,
)
from helpers import (
    chamber_system,
    dot,
    essential_braid,
    feasible_point,
    generic,
    reference_chambers,
    restriction_by_rref,
    satisfies,
    shi,
    small_arrangements,
)

F = Fraction


def system(n, relations):
    return LinearSystem.from_relations(n, relations)


class TestFourierMotzkin:
    def test_open_interval(self):
        assert fm_feasible(system(1, [((1,), 0, ">"), ((1,), 1, "<")]))

    def test_empty_interval(self):
        assert not fm_feasible(system(1, [((1,), 1, ">"), ((1,), 0, "<")]))

    def test_degenerate_strict(self):
        # x > 0 and x < 0 share only the closed point.
        assert not fm_feasible(system(1, [((1,), 0, ">"), ((1,), 0, "<")]))
        assert fm_feasible(system(1, [((1,), 0, ">="), ((1,), 0, "<=")]))

    def test_dimension_zero(self):
        assert fm_feasible(system(0, []))

    def _grid_search(self, s, span=6, steps=25):
        step = F(2 * span, steps - 1)
        values = [F(-span) + step * k for k in range(steps)]
        for x in values:
            for y in values:
                if satisfies(s, (x, y)):
                    return (x, y)
        return None

    def test_agrees_with_grid_oracle(self):
        rng = random.Random(2718)
        for _ in range(40):
            relations = []
            for _ in range(3):
                coeffs = [rng.randint(-3, 3), rng.randint(-3, 3)]
                if all(c == 0 for c in coeffs):
                    coeffs[rng.randrange(2)] = 1
                relations.append((coeffs, rng.randint(-2, 2), rng.choice("<>")))
            s = system(2, relations)
            feasible = fm_feasible(s)
            witness = feasible_point(s)
            grid_hit = self._grid_search(s)
            if grid_hit is not None:
                assert feasible, relations
            if feasible:
                # Exactness certificate: an explicit rational point.
                assert witness is not None and satisfies(s, witness), relations
            else:
                assert witness is None
                assert grid_hit is None, relations

    def test_caps(self):
        with pytest.raises(ResourceCapError):
            fm_feasible(system(7, [((1,) * 7, 0, ">")]))
        relations = [((1, 0), k, ">") for k in range(25)]
        with pytest.raises(ResourceCapError):
            fm_feasible(system(2, relations))


class TestBoundedness:
    def test_triangle_interior(self):
        s = system(2, [((1, 0), 0, ">"), ((0, 1), 0, ">"), ((1, 1), 1, "<")])
        assert chamber_bounded(s)

    def test_half_plane(self):
        assert not chamber_bounded(system(2, [((1, 0), 0, ">")]))

    def test_strip(self):
        # 0 < x < 1 in the plane: the recession cone contains the y-axis.
        s = system(2, [((1, 0), 0, ">"), ((1, 0), 1, "<")])
        assert not chamber_bounded(s)

    def test_infeasible_rejected(self):
        with pytest.raises(InputError):
            chamber_bounded(system(1, [((1,), 0, ">"), ((1,), 0, "<")]))


class TestEnumeration:
    EXPECTED = {
        "empty-c1": (1, 0),
        "one-point-c1": (2, 0),
        "two-points-c1": (3, 1),
        "three-points-c1": (4, 2),
        "boolean-c2": (4, 0),
        "boolean-c3": (8, 0),
        "generic3-c2": (7, 1),
        "concurrent3-c2": (6, 0),
        "generic4-c2": (11, 3),
    }

    def test_counts(self, corpus):
        for name, (total, bounded) in self.EXPECTED.items():
            report = enumerate_chambers(corpus[name])
            assert (report.total, report.bounded) == (total, bounded), name

    def test_sign_vectors_well_formed(self, corpus):
        report = enumerate_chambers(corpus["two-points-c1"])
        assert sorted(c.signs for c in report.chambers) == ["++", "+-", "--"]
        segment = next(c for c in report.chambers if c.signs == "+-")
        assert segment.bounded  # between the two points

    def test_total_is_poincare_at_one(self, corpus, corpus_posets):
        # Chamber-count identity over the reals.
        for name, a in corpus.items():
            report = enumerate_chambers(a)
            assert report.total == poincare_polynomial(corpus_posets[name])(1), name

    def test_bounded_is_abs_euler_when_essential(self, corpus, corpus_posets):
        for name, a in corpus.items():
            p = corpus_posets[name]
            if p.is_essential:
                report = enumerate_chambers(a)
                assert report.bounded == abs(euler_complement(p)), name
                assert report.bounded == abs(sum(mobius_from_top(p).values())), name

    def test_central_essential_has_no_bounded_chambers(self, corpus, corpus_posets):
        for name, a in corpus.items():
            p = corpus_posets[name]
            if p.is_central and p.is_essential and a.hyperplanes:
                assert enumerate_chambers(a).bounded == 0, name

    def test_cap(self):
        a = arrangement_from_coeffs(1, [((1,), k) for k in range(13)])
        with pytest.raises(ResourceCapError):
            enumerate_chambers(a)
        c7 = arrangement_from_coeffs(7, [((1,) + (0,) * 6, 0)])
        with pytest.raises(ResourceCapError, match="dimension 7 exceeds the cap of 6"):
            enumerate_chambers(c7)


def sweep_chambers(a):
    """The 2^m reference: every sign vector's system decided by Fourier-Motzkin."""
    chambers = []
    for signs in itertools.product("+-", repeat=len(a)):
        s = chamber_system(a, signs)
        if fm_feasible(s):
            chambers.append(Chamber("".join(signs), chamber_bounded(s)))
    return tuple(chambers)


def centralize(a):
    """Every hyperplane moved through the origin, coinciding ones merged."""
    moved = (Hyperplane.from_coeffs(h.normal, 0) for h in a.hyperplanes)
    return Arrangement(a.ambient_dim, tuple(dict.fromkeys(moved)))


class TestSplittingMatchesSweep:
    def test_corpus(self, corpus):
        for name, a in corpus.items():
            assert enumerate_chambers(a).chambers == sweep_chambers(a), name
            assert reference_chambers(a) == sweep_chambers(a), name

    @pytest.mark.parametrize(
        "a", [essential_braid(4), generic(7, 2)], ids=["essential-braid-4", "lines-7"]
    )
    def test_families(self, a):
        assert enumerate_chambers(a).chambers == sweep_chambers(a)

    @given(st.one_of(small_arrangements(), small_arrangements().map(centralize)))
    @settings(max_examples=60, deadline=None)
    def test_random_arrangements(self, a):
        assert enumerate_chambers(a).chambers == sweep_chambers(a)
        assert reference_chambers(a) == sweep_chambers(a)


def assert_faces_are_restriction_chambers(a):
    """Every flat within the chamber caps: its faces are witnessed by
    points of G off every other hyperplane, number Zaslavsky's
    sum of |mu(G, Y)| over Y <= G, and match the chambers the reference
    finds in A∩G's own chart, bounded ones included."""
    p = build_intersection_poset(a)
    members = [
        f.index for f in p.flats
        if len(p.covers(f.index)) <= MAX_CHAMBER_HYPERPLANES and f.dim <= MAX_FM_DIM
    ]
    faces, rays = list_faces(p, members)
    assert sorted(faces) == sorted(members)
    for g in members:
        f = p.flats[g]
        for (plus, minus), (w, values) in faces[g].items():
            assert w[-1] > 0
            x = tuple(Fraction(c, w[-1]) for c in w[:-1])
            exact = [dot(h.normal, x) - h.offset for h in a.hyperplanes]
            assert plus == sum(1 << i for i, v in enumerate(exact) if v > 0)
            assert minus == sum(1 << i for i, v in enumerate(exact) if v < 0)
            assert {i for i, v in enumerate(exact) if v == 0} == f.containing_hyperplanes
            assert [(v > 0) - (v < 0) for v in values] == [(v > 0) - (v < 0) for v in exact]
        assert len(faces[g]) == sum(abs(mu) for mu in mobius_interval_from(p, f).values())
        reference = reference_chambers(restriction_by_rref(p, f)[0])
        bounded = sum(is_bounded(signs, rays) for signs in faces[g])
        assert (len(faces[g]), bounded) == (
            len(reference), sum(c.bounded for c in reference)
        ), g


class TestFaceList:
    @given(st.one_of(small_arrangements(), small_arrangements().map(centralize)))
    @settings(max_examples=60, deadline=None)
    def test_random_arrangements(self, a):
        assert_faces_are_restriction_chambers(a)

    @pytest.mark.parametrize(
        "a",
        [generic(8, 3), essential_braid(5), shi(3), generic(6, 4)],
        ids=["planes-8", "essential-braid-5", "shi-3", "generic-6-in-C4"],
    )
    def test_families(self, a):
        assert_faces_are_restriction_chambers(a)

    def test_only_the_members_are_listed(self):
        # 13 generic lines: the top has 13 > 12 hyperplanes, every line 12.
        p = build_intersection_poset(generic(13, 2))
        members = list(range(1, len(p.flats)))
        assert sorted(list_faces(p, members)[0]) == members


class TestBeyondTheSweep:
    """Sizes the 2^m sweep cannot reach, against Zaslavsky's counts:
    pi(A, 1) regions and, when A is essential, |chi(M)| bounded ones."""

    @pytest.mark.parametrize(
        "build, total, bounded",
        [
            (lambda: generic(12, 3), 299, 165),
            (lambda: generic(8, 4), 163, 35),
            (lambda: essential_braid(5), 120, 0),
            (lambda: shi(4), 125, 0),
        ],
        ids=["planes-12", "generic-8-in-C4", "essential-braid-5", "shi-4"],
    )
    def test_counts(self, build, total, bounded):
        a = build()
        p = build_intersection_poset(a)
        report = enumerate_chambers(a)
        assert (report.total, report.bounded) == (total, bounded)
        assert report.total == poincare_polynomial(p)(1)
        if p.is_essential:
            assert report.bounded == abs(euler_complement(p))
        else:
            assert report.bounded == 0  # every region holds a line
