from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrcoh import arrangement, decomposition
from arrcoh.arrangement import (
    Arrangement,
    Hyperplane,
    arrangement_from_coeffs,
    arrangement_stats,
    build_intersection_poset,
    essential_arrangement,
)
from arrcoh.decomposition import (
    Free,
    Induced,
    Sum,
    TensorTrivial,
    TrivialZ,
    contains_tensor_trivial,
    decompose_cohomology,
    decomposition_signature,
    decone,
    decone_poset,
    graded_piece_is_trivial_z,
    normalize_module_expr,
    top_level_free_nodes,
)
from arrcoh.errors import InputError
from arrcoh.exact_linalg import RationalMatrix, solve_affine
from arrcoh.invariants import beta_all_flats
from helpers import braid, decone_by_inverse, essential_braid, generic, shi

F = Fraction


def subspace(rows, rhs, cols=None):
    sol = solve_affine(RationalMatrix.from_rows(rows, cols=cols), rhs)
    assert sol is not None
    return sol


POINT_0_C1 = subspace([[1]], [0])
POINT_1_C1 = subspace([[1]], [1])
ORIGIN_C2 = subspace([[1, 0], [0, 1]], [0, 0])


class TestNormalize:
    def test_zero_summand_dropped(self):
        x = TrivialZ()
        assert normalize_module_expr(Sum((Free(0), x))) == x

    def test_nested_sums_flatten(self):
        inner = Sum((TrivialZ(), Free(2)))
        outer = Sum((Free(1), inner))
        assert normalize_module_expr(outer) == Sum((Free(3), TrivialZ()))

    def test_tensor_of_zero_is_zero(self):
        assert normalize_module_expr(TensorTrivial(Free(0))) == Free(0)

    # Bounded recursion: cap the leaves.
    exprs = st.recursive(
        st.one_of(st.builds(Free, st.integers(0, 3)), st.builds(TrivialZ)),
        lambda children: st.one_of(
            st.builds(TensorTrivial, children),
            st.builds(Induced, st.sampled_from([POINT_0_C1, ORIGIN_C2]), children),
            st.builds(Sum, st.lists(children, min_size=1, max_size=3).map(tuple)),
        ),
        max_leaves=12,
    )

    @given(exprs)
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, expr):
        once = normalize_module_expr(expr)
        assert normalize_module_expr(once) == once


@st.composite
def central_essential_arrangements(draw):
    """Central essential arrangements in C^2..C^4 through a rational point."""
    n = draw(st.integers(2, 4))
    point = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=n, max_size=n))
    normal = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    hyperplanes = [
        Hyperplane.from_coeffs(v, sum(x * c for x, c in zip(v, point)))
        for v in draw(st.lists(normal, min_size=n, max_size=n + 3))
        if any(v)
    ]
    a = Arrangement(n, tuple(dict.fromkeys(hyperplanes)))
    assume(build_intersection_poset(a).n0 == 0)
    return a


def assert_decone_matches_basis_change(a):
    for h in range(len(a)):
        expected = arrangement_from_coeffs(a.ambient_dim - 1, decone_by_inverse(a, h))
        assert decone(a, h) == expected, (a, h)


class TestDecone:
    def test_point_on_line(self):
        a = arrangement_from_coeffs(1, [((1,), 0)])
        assert decone(a, 0) == arrangement_from_coeffs(0, [])

    def test_boolean_by_hand(self):
        # H_inf = {y = 0}; chart y = 1 turns {x = 0} into the point 0 of C^1.
        a = arrangement_from_coeffs(2, [((1, 0), 0), ((0, 1), 0)])
        assert decone(a, 1) == arrangement_from_coeffs(1, [((1,), 0)])

    def test_concurrent_by_hand(self):
        # H_inf = {x = 0}; chart x = 1: {y = 0} -> point 0, {x + y = 0} -> point -1.
        a = arrangement_from_coeffs(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
        assert decone(a, 0) == arrangement_from_coeffs(1, [((1,), 0), ((1,), -1)])

    def test_size_and_rank_drop(self, corpus):
        for name in ("one-point-c1", "boolean-c2", "boolean-c3", "concurrent3-c2"):
            a = corpus[name]
            rank = build_intersection_poset(a).rank_l
            for h in range(len(a)):
                deconed = decone(a, h)
                assert len(deconed) == len(a) - 1, (name, h)
                assert deconed.ambient_dim == a.ambient_dim - 1, (name, h)
                assert build_intersection_poset(deconed).rank_l == rank - 1, (name, h)

    def test_substitution_matches_basis_change(self, corpus):
        for name in TestDeconeInvariance.CENTRAL_ESSENTIAL:
            assert_decone_matches_basis_change(corpus[name])
        assert_decone_matches_basis_change(essential_braid(4))
        assert_decone_matches_basis_change(essential_braid(5))

    @given(central_essential_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_substitution_matches_basis_change_random(self, a):
        assert_decone_matches_basis_change(a)

    def test_non_central_rejected(self, corpus):
        with pytest.raises(InputError):
            decone(corpus["two-points-c1"], 0)

    def test_non_essential_rejected(self):
        with pytest.raises(InputError):
            decone(arrangement_from_coeffs(2, [((1, 0), 0)]), 0)

    def test_bad_index_rejected(self, corpus):
        with pytest.raises(InputError):
            decone(corpus["boolean-c2"], 5)

    def test_empty_rejected(self, corpus):
        with pytest.raises(InputError):
            decone(corpus["empty-c1"], 0)


EXPECTED_FREE_RANK = {
    "empty-c1": 1,
    "one-point-c1": 0,
    "two-points-c1": 1,
    "three-points-c1": 2,
    "boolean-c2": 0,
    "boolean-c3": 0,
    "generic3-c2": 1,
    "concurrent3-c2": 0,
    "generic4-c2": 3,
}


class TestDecomposition:
    def test_degree_is_rank(self, corpus_posets):
        for name, p in corpus_posets.items():
            dec = decompose_cohomology(p)
            assert dec.concentration_degree == corpus_posets[name].rank_l, name

    def test_free_rank(self, corpus_posets):
        for name, expected in EXPECTED_FREE_RANK.items():
            assert decompose_cohomology(corpus_posets[name]).free_rank == expected, name

    def test_multiplicities_are_betas(self, corpus_posets):
        for name, p in corpus_posets.items():
            dec = decompose_cohomology(p)
            betas = {b.flat.index: b.value for b in beta_all_flats(p)}
            listed = {s.flat_index: s.multiplicity for s in dec.summands}
            assert listed == {i: v for i, v in betas.items() if v > 0}, name

    def test_recursion_depth_equals_rank(self, corpus_posets):
        for name, p in corpus_posets.items():
            assert decompose_cohomology(p).recursion_depth == p.rank_l, name

    def test_empty_arrangement(self, corpus_posets):
        dec = decompose_cohomology(corpus_posets["empty-c1"])
        assert dec.concentration_degree == 0
        assert len(dec.summands) == 1
        assert dec.summands[0].module == Free(1)
        assert graded_piece_is_trivial_z(dec)

    def test_one_point_hand_value(self, corpus_posets):
        # H^1 of the circle with group-ring coefficients, via the two-term
        # resolution of the infinite cyclic group: Z with trivial action.
        dec = decompose_cohomology(corpus_posets["one-point-c1"])
        assert dec.concentration_degree == 1 and dec.free_rank == 0
        (summand,) = dec.summands
        assert summand.module == Induced(POINT_0_C1, TensorTrivial(TrivialZ()))
        assert summand.is_trivial_z

    def test_boolean_hand_value(self, corpus_posets):
        # Koszul resolution of the rank-2 free abelian group: top cohomology
        # with group-ring coefficients is the trivial module Z.
        dec = decompose_cohomology(corpus_posets["boolean-c2"])
        assert dec.concentration_degree == 2 and dec.free_rank == 0
        (summand,) = dec.summands
        assert summand.subspace == ORIGIN_C2
        assert summand.module == Induced(
            ORIGIN_C2, TensorTrivial(Induced(POINT_0_C1, TensorTrivial(TrivialZ())))
        )
        assert summand.is_trivial_z

    def test_two_points_hand_value(self, corpus_posets):
        dec = decompose_cohomology(corpus_posets["two-points-c1"])
        assert dec.concentration_degree == 1 and dec.free_rank == 1
        by_subspace = {s.subspace: s for s in dec.summands}
        top = next(s for s in dec.summands if s.subspace.is_whole_space)
        assert top.module == Free(1)
        assert by_subspace[POINT_0_C1].module == Induced(
            POINT_0_C1, TensorTrivial(TrivialZ())
        )
        assert by_subspace[POINT_1_C1].module == Induced(
            POINT_1_C1, TensorTrivial(TrivialZ())
        )
        # Induced from a proper subgroup: not the trivial module.
        assert not by_subspace[POINT_0_C1].is_trivial_z

    def test_free_nodes_only_at_top(self, corpus_posets):
        for name, p in corpus_posets.items():
            dec = decompose_cohomology(p)
            for s in dec.summands:
                free = top_level_free_nodes(s.module)
                if s.subspace.is_whole_space:
                    assert [f.rank for f in free] == [dec.free_rank], name
                else:
                    assert free == [], (name, s.flat_index)
                    assert contains_tensor_trivial(s.module), (name, s.flat_index)

    def test_normalized_modules(self, corpus):
        # The three families add summands with beta > 1 below the top.
        families = {"braid-4": braid(4), "shi-3": shi(3), "planes-8": generic(8, 3)}
        for name, a in {**corpus, **families}.items():
            for s in decompose_cohomology(build_intersection_poset(a)).summands:
                assert normalize_module_expr(s.module) == s.module, name

    def test_deterministic(self, corpus):
        for name, a in corpus.items():
            first = decompose_cohomology(build_intersection_poset(a))
            assert first == decompose_cohomology(build_intersection_poset(a)), name


class TestDeconeInvariance:
    CENTRAL_ESSENTIAL = ("one-point-c1", "boolean-c2", "boolean-c3", "concurrent3-c2")

    def test_signature_independent_of_infinity_choice(self, corpus_posets):
        for name in self.CENTRAL_ESSENTIAL:
            p = corpus_posets[name]
            signatures = {
                decomposition_signature(decompose_cohomology(p, infinity=k))
                for k in range(len(p.arrangement))
            }
            assert len(signatures) == 1, name

    def test_degree_shift(self, corpus, corpus_posets):
        for name in self.CENTRAL_ESSENTIAL:
            a = corpus[name]
            degree = decompose_cohomology(corpus_posets[name]).concentration_degree
            for h in range(len(a)):
                deconed_degree = decompose_cohomology(
                    build_intersection_poset(decone(a, h))
                ).concentration_degree
                assert deconed_degree == degree - 1, (name, h)

    def test_flats_identified_through_the_chart(self, corpus):
        # The deconed summand flats are exactly the chart traces of the
        # original flats that survive (those not inside H_inf).
        a = corpus["concurrent3-c2"]
        deconed = decone(a, 0)
        dec = decompose_cohomology(build_intersection_poset(deconed))
        assert {s.subspace for s in dec.summands} == {
            subspace([[1]], [0]),
            subspace([[1]], [-1]),
            subspace([], [], cols=1),
        }


def assert_decone_posets_match_geometry(a):
    """The decone poset read off A's poset equals the one rebuilt from
    the deconed arrangement, at every non-top flat and every H_inf."""
    p = build_intersection_poset(a)
    for g in p.flats[1:]:
        ess = essential_arrangement(g.subspace, p.subarrangement(g).hyperplanes)
        for h in range(len(ess)):
            deconed = decone(ess, h)
            view = decone_poset(p, g, h, deconed)
            built = build_intersection_poset(deconed)
            for field in dataclasses.fields(built):
                assert getattr(view, field.name) == getattr(built, field.name), (
                    g.index, h, field.name,
                )


class TestDeconePoset:
    def test_corpus(self, corpus):
        for name in TestDeconeInvariance.CENTRAL_ESSENTIAL:
            assert_decone_posets_match_geometry(corpus[name])

    def test_families(self):
        for a in (braid(4), shi(3), essential_braid(4), generic(8, 3)):
            assert_decone_posets_match_geometry(a)

    @given(central_essential_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_random(self, a):
        assert_decone_posets_match_geometry(a)

    def test_decompose_builds_no_poset(self, monkeypatch):
        posets = [build_intersection_poset(a) for a in (braid(4), shi(3), generic(8, 3))]

        def no_poset(*args, **kwargs):
            raise AssertionError("decompose_cohomology built a poset")

        monkeypatch.setattr(arrangement, "build_intersection_poset", no_poset)
        monkeypatch.setattr(decomposition, "build_intersection_poset", no_poset, raising=False)
        for p in posets:
            for h in range(3):
                assert decompose_cohomology(p, infinity=h).summands

    def test_negative_infinity_rejected(self, corpus_posets):
        with pytest.raises(InputError):
            decompose_cohomology(corpus_posets["boolean-c2"], infinity=-1)
