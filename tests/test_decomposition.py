from __future__ import annotations

import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrcoh import _record, _writer, arrangement, decomposition
from arrcoh.arrangement import (
    Arrangement,
    Hyperplane,
    arrangement_from_coeffs,
    build_intersection_poset,
    essential_arrangement,
)
from arrcoh.decomposition import (
    Copies,
    Free,
    Induced,
    Sum,
    TensorTrivial,
    TrivialZ,
    _part_key,
    _pull_back,
    contains_tensor_trivial,
    decompose_cohomology,
    decone,
    graded_piece_is_trivial_z,
    top_level_free_nodes,
)
from arrcoh.errors import InputError
from arrcoh.exact_linalg import AffineSubspace, intersect_flats, solve_affine, vector
from arrcoh.invariants import beta_all_flats
from helpers import (
    braid,
    closure_arrangements,
    containing_subarrangement,
    decone_by_inverse,
    decone_view_rows,
    essential_braid,
    expand_modules,
    expand_report,
    generic,
    module_records,
    normalize_module_expr,
    poset_rows,
    reference_decomposition_json,
    shi,
    small_arrangements,
)

F = Fraction


def written(value: object) -> str:
    parts: list[str] = []
    _writer.write_json(value, parts.append)
    return "".join(parts)

# The module records, each written as what its `to_json()` returns.
RECORDS = (Free, TrivialZ, TensorTrivial, Induced, Sum, Copies)



def fractions_in(value):
    """Every Fraction reachable from `value` through containers and record
    fields."""
    if isinstance(value, Fraction):
        yield value
    elif isinstance(value, (tuple, list, frozenset, set)):
        for item in value:
            yield from fractions_in(item)
    elif hasattr(value, "__match_args__"):
        for name in value.__match_args__:
            yield from fractions_in(getattr(value, name))


def subspace(rows, rhs, cols=None):
    sol = solve_affine([vector(r) for r in rows], rhs, len(rows[0]) if cols is None else cols)
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


class TestPartOrder:
    """`_decone_sum` orders a decone's parts by their flats' canonical
    integer rows (`_part_key`), printing no number: FREE first, whose
    chart has the rows (), then each INDUCED part or COPIES of one, no two
    tied."""

    @staticmethod
    def assert_parts_ordered(a: Arrangement) -> None:
        dec = decompose_cohomology(build_intersection_poset(a))
        for m in module_records(*dec.modules, *(s.module for s in dec.summands)):
            if isinstance(m, Sum):
                keys = [_part_key(part) for part in m.parts]
                assert keys == sorted(set(keys)), m
                assert all(not isinstance(part, Free) for part in m.parts[1:]), m

    def test_corpus_braid_and_shi(self, corpus):
        for a in [*corpus.values(), braid(4), braid(5), braid(6), shi(3), shi(4)]:
            self.assert_parts_ordered(a)

    @given(closure_arrangements())
    @settings(max_examples=100, deadline=None)
    def test_closure_draws(self, a):
        self.assert_parts_ordered(a)


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

    def test_repeated_decone_is_a_lookup(self, monkeypatch):
        """The memo holds each decone's module: only the first occurrence
        of a nonempty decone sums and sorts its parts."""
        decones, sums = [], []
        pull_back, decone_sum = decomposition._pull_back, decomposition._decone_sum

        def recording_pull_back(normals):
            decones.append(pull_back(normals))
            return decones[-1]

        def counting_sum(parts):
            sums.append(parts)
            return decone_sum(parts)

        monkeypatch.setattr(decomposition, "_pull_back", recording_pull_back)
        monkeypatch.setattr(decomposition, "_decone_sum", counting_sum)
        decompose_cohomology(build_intersection_poset(braid(5)))
        assert len(decones) > len(set(decones))
        assert len(sums) == len({d for d in decones if d.hyperplanes})

    def test_pull_back_once_per_normals(self, monkeypatch):
        """The memo is looked up first by A_G's normals in G's pivot
        coordinates: the pull-back runs once per distinct tuple, fewer times
        than the recursion meets a decone."""
        keys, lookups = [], 0
        pull_back, summand_module = decomposition._pull_back, decomposition._summand_module

        def recording_pull_back(normals):
            keys.append(tuple(normals))
            return pull_back(normals)

        def counting_summand_module(p, a, position, y, trace, *rest):
            nonlocal lookups
            lookups += not trace.is_whole_space
            return summand_module(p, a, position, y, trace, *rest)

        monkeypatch.setattr(decomposition, "_pull_back", recording_pull_back)
        monkeypatch.setattr(decomposition, "_summand_module", counting_summand_module)
        decompose_cohomology(build_intersection_poset(braid(5)))
        assert len(keys) == len(set(keys)) < lookups

    def test_to_json_has_one_object_per_module(self, monkeypatch):
        """Each summand's module is the record itself, and every module
        record is reached once in the report: the decone memo's modules
        stand in its `modules` table, named by index, and beta equal parts
        are one COPIES node.  So `write_json` calls each record's
        `to_json()` exactly twice, to check it and to render it; before the
        table, one TRIVIAL_Z record of braid A_5 was rendered 26 times."""
        dec = decompose_cohomology(build_intersection_poset(braid(5)))
        report = dec.to_json()
        assert report["modules"] is dec.modules
        assert all(s["module"] is t.module for s, t in zip(report["summands"], dec.summands))
        records = module_records(*dec.modules, *(s.module for s in dec.summands))
        assert len({id(m) for m in records}) == len(records)
        calls: Counter = Counter()

        def counting(to_json):
            def counted(m):
                calls[id(m)] += 1
                return to_json(m)
            return counted

        for cls in RECORDS:
            monkeypatch.setattr(cls, "to_json", counting(cls.to_json))
        _writer.write_json(report, [].append)
        assert calls == Counter({id(m): 2 for m in records})
        assert any(isinstance(m, Copies) for m in records)

    def test_every_table_entry_is_named_after_it_is_listed(self):
        """Every `modules` entry is named by some TENSOR_TRIVIAL node, and
        only by one in a later entry or in a summand's module."""
        for a in [braid(4), braid(5), shi(4), generic(8, 3), generic(8, 4)]:
            report = json.loads(written(decompose_cohomology(build_intersection_poset(a)).to_json()))
            named = set()
            places = [(k, entry) for k, entry in enumerate(report["modules"])]
            places += [(len(report["modules"]), s["module"]) for s in report["summands"]]
            for k, node in places:
                pending = [node]
                while pending:
                    node = pending.pop()
                    if node["kind"] == "TENSOR_TRIVIAL":
                        assert isinstance(node["inner"], int) and 0 <= node["inner"] < k
                        named.add(node["inner"])
                    pending += node.get("parts", []) + [node[key] for key in ("inner", "module")
                                                        if isinstance(node.get(key), dict)]
            assert named == set(range(len(report["modules"]))), a

    def test_flats_and_memo_keys_hold_no_fraction(self, monkeypatch):
        """A built poset's flats and both decone memo keys (the normals
        tuples and the deconed arrangements) are integers throughout."""
        memos = []
        summand_module = decomposition._summand_module

        def recording(p, a, position, y, trace, beta, front, memo, modules):
            memos.append((front, memo))
            return summand_module(p, a, position, y, trace, beta, front, memo, modules)

        monkeypatch.setattr(decomposition, "_summand_module", recording)
        p = build_intersection_poset(shi(4))
        decompose_cohomology(p)
        front, memo = memos[0]
        assert front and memo and all(f is front and m is memo for f, m in memos)
        for value in (p.flats, list(front), list(memo)):
            assert not list(fractions_in(value))

    def test_only_printed_traces_are_solved(self, monkeypatch):
        """The recursion solves a trace only for view members with positive
        beta, the ones it prints."""
        views, traces = [], []
        view, trace = decomposition.decone_view, decomposition.decone_trace

        def recording_view(*args):
            views.append(view(*args))
            return views[-1]

        def counting_trace(*args):
            traces.append(args)
            return trace(*args)

        monkeypatch.setattr(decomposition, "decone_view", recording_view)
        monkeypatch.setattr(decomposition, "decone_trace", counting_trace)
        decompose_cohomology(build_intersection_poset(generic(8, 3)))
        betas = [b for rows in views for _, b in rows]
        assert 0 in betas
        assert len(traces) == sum(b > 0 for b in betas)

    def test_records_are_built_positionally(self, monkeypatch):
        """A record built by keyword binds its arguments in Python
        (`_record._bind`).  `beta_all_flats` builds a `BetaValue` for every
        member of every decone view, positionally: on braid A_6 the run
        binds the one `GradedDecomposition` it returns, against 785
        calls while `BetaValue` was built by keyword."""
        p = build_intersection_poset(braid(6))
        calls, bind = [], _record._bind

        def counting(qualname, *args):
            calls.append(qualname)
            return bind(qualname, *args)

        monkeypatch.setattr(_record, "_bind", counting)
        decompose_cohomology(p)
        assert len(calls) <= 1, calls[:3]

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
        assert dec.modules == (TrivialZ(),)
        assert summand.module == Induced(POINT_0_C1, TensorTrivial(0))
        assert summand.is_trivial_z

    def test_boolean_hand_value(self, corpus_posets):
        # Koszul resolution of the rank-2 free abelian group: top cohomology
        # with group-ring coefficients is the trivial module Z.
        dec = decompose_cohomology(corpus_posets["boolean-c2"])
        assert dec.concentration_degree == 2 and dec.free_rank == 0
        (summand,) = dec.summands
        assert summand.subspace == ORIGIN_C2
        assert dec.modules == (TrivialZ(), Induced(POINT_0_C1, TensorTrivial(0)))
        assert summand.module == Induced(ORIGIN_C2, TensorTrivial(1))
        assert summand.is_trivial_z

    def test_two_points_hand_value(self, corpus_posets):
        dec = decompose_cohomology(corpus_posets["two-points-c1"])
        assert dec.concentration_degree == 1 and dec.free_rank == 1
        by_subspace = {s.subspace: s for s in dec.summands}
        top = next(s for s in dec.summands if s.subspace.is_whole_space)
        assert top.module == Free(1)
        assert dec.modules == (TrivialZ(),)
        assert by_subspace[POINT_0_C1].module == Induced(POINT_0_C1, TensorTrivial(0))
        assert by_subspace[POINT_1_C1].module == Induced(POINT_1_C1, TensorTrivial(0))
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
        """Each module, expanded into the tree `decompose` once printed
        (`expand_modules`), is in the form the general normalizer gives.
        The families add summands with beta > 1 below the top, and decones
        shared between flats."""
        families = {
            "braid-4": braid(4), "braid-5": braid(5), "shi-3": shi(3), "shi-4": shi(4),
            "essential-braid-5": essential_braid(5), "planes-8": generic(8, 3),
        }
        for name, a in {**corpus, **families}.items():
            for m in expand_modules(decompose_cohomology(build_intersection_poset(a))):
                assert normalize_module_expr(m) == m, name

    def test_no_module_is_serialized(self, monkeypatch):
        """The parts are ordered by their flats alone: no module is turned
        into JSON while the decomposition is built."""

        def refuse(self):
            raise AssertionError(f"{type(self).__name__}.to_json called")

        p = build_intersection_poset(braid(5))
        expected = decompose_cohomology(p)
        for cls in RECORDS:
            monkeypatch.setattr(cls, "to_json", refuse)
        assert decompose_cohomology(p) == expected

    def test_to_json_equals_the_reference_tree(self, corpus):
        """`dec.to_json()`, written and expanded back into a tree
        (`expand_report`), is the text of the tree the package once
        printed, built from the records expanded (`expand_modules`)."""
        families = [braid(4), braid(5), braid(6), shi(3), shi(4),
                    generic(8, 3), generic(10, 3), generic(12, 3)]
        for a in [*corpus.values(), *families]:
            dec = decompose_cohomology(build_intersection_poset(a))
            assert json.dumps(
                expand_report(json.loads(written(dec.to_json()))), indent=2, sort_keys=True
            ) == json.dumps(
                reference_decomposition_json(dec), indent=2, sort_keys=True,
                default=AffineSubspace.to_json,
            )

    def test_deterministic(self, corpus):
        for name, a in corpus.items():
            first = decompose_cohomology(build_intersection_poset(a))
            assert first == decompose_cohomology(build_intersection_poset(a)), name


def induced_depth(m):
    """Deepest INDUCED nesting in an expanded module tree (`expand_modules`)."""
    if isinstance(m, Induced):
        return 1 + induced_depth(m.inner)
    if isinstance(m, TensorTrivial):
        return induced_depth(m.inner)
    if isinstance(m, Sum):
        return max(induced_depth(x) for x in m.parts)
    return 0


def is_trivial_chain(m):
    """INDUCED -> TENSOR_TRIVIAL -> ... -> TRIVIAL_Z, with no SUM or FREE node."""
    if not isinstance(m, Induced):
        return False
    while isinstance(m, Induced) and isinstance(m.inner, TensorTrivial):
        m = m.inner.inner
    return isinstance(m, TrivialZ)


def assert_depth_and_triviality_read_off(a):
    """The emitted modules, expanded, nest INDUCED exactly rank(A) deep, and a summand
    is flagged trivial iff it is the only summand, of multiplicity 1, and
    its module is FREE(1) in degree 0 or a chain ending in TRIVIAL_Z."""
    p = build_intersection_poset(a)
    dec = decompose_cohomology(p)
    trees = expand_modules(dec)
    assert max(map(induced_depth, trees)) == p.rank_l, a
    trivial = [
        len(dec.summands) == 1
        and s.multiplicity == 1
        and (m == Free(1) if p.rank_l == 0 else is_trivial_chain(m))
        for s, m in zip(dec.summands, trees)
    ]
    assert [s.is_trivial_z for s in dec.summands] == trivial, a
    assert graded_piece_is_trivial_z(dec) == any(trivial), a


def boolean(k, n, extra=None):
    """B_k in C^n (x_1, ..., x_k = 0), plus sum(x) = extra when given."""
    rows = [([int(i == j) for j in range(n)], 0) for i in range(k)]
    if extra is not None:
        rows.append(([1] * n, extra))
    return arrangement_from_coeffs(n, rows)


class TestReadOffTheRank:
    """Depth and triviality are facts of the rank, checked on the tree the
    decomposition emits."""

    def test_corpus(self, corpus):
        for a in corpus.values():
            assert_depth_and_triviality_read_off(a)

    def test_families(self):
        for a in (braid(5), shi(4), generic(8, 3), generic(8, 4)):
            assert_depth_and_triviality_read_off(a)

    def test_boolean(self):
        # With the extra hyperplane, B_k stays boolean for k < n (central
        # or not); at k = n it is not boolean, and central only for extra = 0.
        # In C^1 the only hyperplane through the origin is x_1 = 0 itself.
        for n in range(6):
            for k in range(n + 1):
                assert_depth_and_triviality_read_off(boolean(k, n))
                for extra in (0, 1):
                    if n and (n, k, extra) != (1, 1, 0):
                        assert_depth_and_triviality_read_off(boolean(k, n, extra))

    @given(small_arrangements())
    @settings(max_examples=60, deadline=None)
    def test_random(self, a):
        assert_depth_and_triviality_read_off(a)


class TestDeconeInvariance:
    CENTRAL_ESSENTIAL = ("one-point-c1", "boolean-c2", "boolean-c3", "concurrent3-c2")

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


def assert_decone_views_match_geometry(a):
    """At every non-top flat G and every H_inf in C(G), the pull-back of
    A_G's pivot-column normals is the checked decone of ess(A_G), and the
    decone's flats read off A's poset have the traces, containing sets and
    beta of the decone's poset rebuilt from geometry."""
    p = build_intersection_poset(a)
    for g in p.flats[1:]:
        members = containing_subarrangement(p, g).hyperplanes
        ess = essential_arrangement(g.subspace, members)
        pivots = g.subspace.pivot_columns()
        normals = [tuple(h.row[c] for c in pivots) for h in members]
        for h in range(len(ess)):
            deconed = decone(ess, h)
            moved = [normals[h]] + normals[:h] + normals[h + 1:]
            assert _pull_back(moved) == deconed, (g.index, h)
            view = decone_view_rows(p, g, h, deconed)
            assert view == poset_rows(build_intersection_poset(deconed)), (g.index, h)


class TestDeconePoset:
    def test_corpus(self, corpus):
        for name in TestDeconeInvariance.CENTRAL_ESSENTIAL:
            assert_decone_views_match_geometry(corpus[name])

    def test_families(self):
        for a in (braid(4), shi(3), essential_braid(4), generic(8, 3), generic(8, 4)):
            assert_decone_views_match_geometry(a)

    @given(central_essential_arrangements())
    @settings(max_examples=40, deadline=None)
    def test_random(self, a):
        assert_decone_views_match_geometry(a)

    def test_decompose_builds_no_poset(self, monkeypatch):
        """Nor does it intersect flats, essentialize or call the checked
        `decone`: every recursion step is one pull-back."""
        families = (braid(5), shi(4), generic(8, 3), generic(8, 4))
        posets = [build_intersection_poset(a) for a in families]

        def forbidden(what):
            def raising(*args, **kwargs):
                raise AssertionError(f"decompose_cohomology {what}")
            return raising

        monkeypatch.setattr(
            arrangement.IntersectionPoset, "__init__", forbidden("constructed a poset")
        )
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "arrcoh"]
        for original in (intersect_flats, essential_arrangement, decone):
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, bound, forbidden(f"called {bound}"))
        for p in posets:
            assert decompose_cohomology(p).summands


def permuted_and_rescaled(a, order, scales):
    """The same arrangement listed in `order`, each equation times a scale."""
    rows = [(a.hyperplanes[i], c) for i, c in zip(order, scales)]
    return Arrangement(
        a.ambient_dim,
        tuple(Hyperplane.from_coeffs([x * c for x in h.normal], h.offset * c) for h, c in rows),
    )


def decomposition_invariants(a):
    dec = decompose_cohomology(build_intersection_poset(a))
    return (
        dec.concentration_degree,
        dec.free_rank,
        max(map(induced_depth, expand_modules(dec))),
        sorted(s.multiplicity for s in dec.summands),
    )


class TestMetamorphic:
    """Relisting and rescaling the hyperplanes moves every H_inf = min C(G)
    and every chart of the recursion, but not the decomposition's degree,
    free rank, INDUCED nesting depth or multiplicities."""

    def test_families(self):
        rng = random.Random(20100216)
        for a in (braid(5), shi(4), generic(8, 3), generic(8, 4)):
            expected = decomposition_invariants(a)
            for _ in range(2):
                order = rng.sample(range(len(a)), len(a))
                scales = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in order]
                moved = permuted_and_rescaled(a, order, scales)
                assert decomposition_invariants(moved) == expected, (a, order)

    @given(small_arrangements(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random(self, a, data):
        order = data.draw(st.permutations(range(len(a))))
        scale = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
        scales = data.draw(st.lists(scale, min_size=len(a), max_size=len(a)))
        moved = permuted_and_rescaled(a, order, scales)
        assert decomposition_invariants(moved) == decomposition_invariants(a)
