from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrcoh.arrangement import Arrangement, Hyperplane, build_intersection_poset
from arrcoh.decomposition import decone, decone_flats
from arrcoh.errors import InputError
from arrcoh.exact_linalg import (
    AffineSubspace,
    as_rational,
    intersect_flats,
    pull_equation,
    rational_str,
    rref,
    solve_affine,
    vector,
)
from helpers import (
    FlatRelation,
    affine_image,
    closure_arrangements,
    det_cofactor,
    flat_relation,
    from_point_and_directions,
    null_space_basis,
    random_fraction_matrix,
    reference_integer_row,
    reference_intersect,
    reference_pull,
    reference_rref,
    reference_solve,
    reference_sort_key,
    scaled_rows,
)

F = Fraction


def mat(rows):
    return tuple(vector(r) for r in rows)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim: int = 4):
    """(rows, column count): at least one row of Fractions."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(small_fractions, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return tuple(map(tuple, entries)), c


def test_as_rational_rejects_floats():
    with pytest.raises(InputError):
        as_rational(0.5)


def test_rational_str_roundtrip():
    assert rational_str(F(3, 4)) == "3/4"
    assert rational_str(F(-2)) == "-2"
    assert as_rational("3/4") == F(3, 4)


# Digits: ASCII, Arabic-Indic, Devanagari and fullwidth, which `Fraction`
# and `int` both read, and the digit limit, past which neither does.
_DIGITS = st.text(st.sampled_from("0123456789" "0123456789" "٠٣٧" "०५९" "１２０"), min_size=1, max_size=8)
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_SPACE = st.sampled_from(["", "", "", " ", "\t", "\n", " \n "])


@st.composite
def coefficient_values(draw):
    """An input coefficient of any form the schema or a caller may give."""
    sign = draw(st.sampled_from(["", "", "-", "+", "--", "+-"]))
    digits, other = draw(_DIGITS), draw(_DIGITS)
    text = draw(st.sampled_from([
        digits,
        f"{digits}/{other}",
        f"{digits} / {other}",
        f"{digits}/0",
        f"{digits}.{other}",
        f".{other}",
        f"{digits}.",
        f"{digits}_{other}",
        f"_{digits}",
        f"{digits}__{other}",
        f"{digits}e{other}",
        f"{digits}.{other}E-{other}",
        "9" * _LIMIT,
        "9" * (_LIMIT + 1),
        "1" + "0" * _LIMIT + "/3",
        "",
    ]))
    text = draw(_SPACE) + sign + text + draw(_SPACE)
    return draw(st.one_of(
        st.just(text),
        st.just(text),
        st.just(text),
        st.integers(-(10**30), 10**30),
        st.fractions(max_denominator=50),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.none(),
        st.text(max_size=4),
    ))


@given(st.lists(coefficient_values(), min_size=1, max_size=3), coefficient_values())
@example(["9" * (_LIMIT + 1)], "0")  # past the digit limit
@example(["-" + "9" * _LIMIT], "1_0")  # at the limit; an underscore
@example([" 5", "٣"], "+7\n")  # whitespace; a non-ASCII digit
@example(["1/2", "-0.25"], "3")
@settings(max_examples=400, deadline=None)
def test_input_reader_reads_as_fraction(normal, offset):
    """`Hyperplane.from_coeffs` reads a plain integer string with `int`
    and any other value as `as_rational` does: the same hyperplane as
    reading every value through `Fraction`, or the same error."""

    def outcome(read):
        try:
            return read()
        except InputError as exc:
            return str(exc)

    expected = outcome(lambda: Hyperplane.from_row(reference_integer_row([*normal, offset])))
    assert outcome(lambda: Hyperplane.from_coeffs(normal, offset)) == expected


class TestRref:
    def test_identity(self):
        m = mat([[1, 0], [0, 1]])
        assert rref(m, 2) == (m, (0, 1))

    def test_proportional_rows(self):
        # The zero row is dropped.
        assert rref(mat([[1, 1], [2, 2]]), 2) == (mat([[1, 1]]), (0,))

    def test_rank_matches_determinant_oracle(self):
        rng = random.Random(20240811)
        for _ in range(60):
            rows = random_fraction_matrix(rng, 3, 3)
            _, pivots = rref(rows, 3)
            if det_cofactor(rows) != 0:
                assert len(pivots) == 3
            else:
                assert len(pivots) < 3

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, m):
        rows, cols = m
        reduced, pivots = rref(rows, cols)
        assert rref(reduced, cols) == (reduced, pivots)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_equals_transpose_rank(self, m):
        rows, cols = m
        assert len(rref(rows, cols)[1]) == len(rref(zip(*rows), len(rows))[1])

    @given(matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unique_for_the_row_space(self, m, data):
        # U m has the row space of m for an invertible integer U, so the
        # same reduced form, whatever order its rows are joined in.
        rows, cols = m
        r = len(rows)
        entries = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
        u = data.draw(st.lists(entries, min_size=r, max_size=r))
        assume(det_cofactor(u) != 0)
        um = [
            tuple(sum(u[i][k] * rows[k][j] for k in range(r)) for j in range(cols))
            for i in range(r)
        ]
        assert rref(um, cols) == rref(rows, cols)


class TestSolveAffine:
    def test_single_point(self):
        sol = solve_affine(mat([[1]]), [0], 1)
        assert sol is not None and sol.dim == 0
        assert sol.parametrize()[0] == (F(0),)

    def test_inconsistent(self):
        assert solve_affine(mat([[1], [1]]), [0, 1], 1) is None

    def test_line_in_plane(self):
        sol = solve_affine(mat([[1, 1]]), [1], 2)
        assert sol is not None and sol.dim == 1
        point, dirs = sol.parametrize()
        assert sol.contains_point(point)
        assert len(dirs) == 1

    def test_rhs_length_mismatch(self):
        with pytest.raises(InputError):
            solve_affine(mat([[1, 0]]), [1, 2], 2)

    def test_row_width_mismatch(self):
        # A short row would otherwise be silently padded by zip.
        with pytest.raises(InputError):
            solve_affine(mat([[1, 0], [1]]), [1, 2], 2)
        with pytest.raises(InputError):
            solve_affine(mat([[1, 0, 0]]), [1], 2)

    @given(matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unchanged_by_equivalent_equations(self, m, data):
        # Permuting, rescaling, or adding a combination of the equations
        # keeps the solution set, so the canonical form (or None) as well.
        rows, cols = m
        r = len(rows)
        rhs = data.draw(st.lists(small_fractions, min_size=r, max_size=r))
        equations = [(list(row), b) for row, b in zip(rows, rhs)]
        nonzero = small_fractions.filter(lambda x: x != 0)
        scales = data.draw(st.lists(nonzero, min_size=r, max_size=r))
        weights = data.draw(st.lists(small_fractions, min_size=r, max_size=r))
        combination = (
            [sum(w * row[j] for w, (row, _) in zip(weights, equations)) for j in range(cols)],
            sum(w * b for w, (_, b) in zip(weights, equations)),
        )
        joined = list(equations)
        joined.insert(data.draw(st.integers(0, r)), combination)
        variants = [
            [equations[i] for i in data.draw(st.permutations(range(r)))],
            [([s * x for x in row], s * b) for s, (row, b) in zip(scales, equations)],
            joined,
        ]
        expected = solve_affine(rows, rhs, cols)
        for variant in variants:
            system = [row for row, _ in variant]
            assert solve_affine(system, [b for _, b in variant], cols) == expected, variant


class TestAffineSubspaceValidation:
    def test_row_wider_than_ambient_dim(self):
        with pytest.raises(InputError):
            AffineSubspace(1, ((1, 0, 0),))

    def test_rhs_length_mismatch(self):
        # Each row is augmented: one without its rhs entry is refused.
        with pytest.raises(InputError):
            AffineSubspace(2, ((1, 0),))
        with pytest.raises(InputError):
            AffineSubspace(2, ((1, 0, 0), (0, 1)))


class TestIntersect:
    def test_axes_meet_in_origin(self):
        x_axis = solve_affine(mat([[0, 1]]), [0], 2)
        y_axis = solve_affine(mat([[1, 0]]), [0], 2)
        meet = intersect_flats(x_axis, y_axis)
        assert meet is not None and meet.dim == 0
        assert meet.parametrize()[0] == (F(0), F(0))

    def test_parallel_lines_disjoint(self):
        l0 = solve_affine(mat([[1, 0]]), [0], 2)
        l1 = solve_affine(mat([[1, 0]]), [1], 2)
        assert intersect_flats(l0, l1) is None

    def test_self_intersection_is_identity(self):
        f = solve_affine(mat([[1, 2, 3]]), [1], 3)
        assert intersect_flats(f, f) == f

    def test_ambient_mismatch(self):
        with pytest.raises(InputError):
            intersect_flats(
                AffineSubspace.whole_space(2), AffineSubspace.whole_space(3)
            )

    def test_matches_elimination_of_stacked_system(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 4)
            k1, k2 = rng.randint(0, n), rng.randint(0, n)
            rows1 = random_fraction_matrix(rng, k1, n, span=2)
            rows2 = random_fraction_matrix(rng, k2, n, span=2)
            rhs1 = [F(rng.randint(-2, 2)) for _ in range(k1)]
            rhs2 = [F(rng.randint(-2, 2)) for _ in range(k2)]
            f1 = solve_affine(rows1, rhs1, n)
            f2 = solve_affine(rows2, rhs2, n)
            if f1 is None or f2 is None:
                continue
            stacked = solve_affine(rows1 + rows2, rhs1 + rhs2, n)
            assert intersect_flats(f1, f2) == stacked, (rows1, rhs1, rows2, rhs2)

    def _random_flats(self, rng, count, n=3):
        flats = []
        while len(flats) < count:
            k = rng.randint(1, n)
            system = random_fraction_matrix(rng, k, n)
            rhs = [F(rng.randint(-2, 2)) for _ in range(k)]
            sol = solve_affine(system, rhs, n)
            if sol is not None:
                flats.append(sol)
        return flats

    def test_commutative_and_associative(self):
        rng = random.Random(7)
        for _ in range(40):
            f1, f2, f3 = self._random_flats(rng, 3)
            assert intersect_flats(f1, f2) == intersect_flats(f2, f1)
            left_inner = intersect_flats(f1, f2)
            right_inner = intersect_flats(f2, f3)
            left = intersect_flats(left_inner, f3) if left_inner else None
            right = intersect_flats(f1, right_inner) if right_inner else None
            # Both orders must agree, including on emptiness.
            assert left == right

    def test_dimension_bound(self):
        rng = random.Random(13)
        for _ in range(40):
            f1, f2 = self._random_flats(rng, 2)
            meet = intersect_flats(f1, f2)
            if meet is not None:
                assert meet.dim <= min(f1.dim, f2.dim)


class TestPullEquation:
    @given(
        closure_arrangements(),
        st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_equation_on_lifted_points(self, a, chart_points):
        """For every flat G and hyperplane H, a.x - b at the lift x of a
        chart point y equals coeffs.y - const for the `Fraction` reference,
        of which the integer pull-back is a positive multiple.  The lift
        sets G's free columns to y and each pivot column to r_i - M_i.y."""
        for g in build_intersection_poset(a).flats:
            flat = g.subspace
            pivots = flat.pivot_columns()
            free = [c for c in range(flat.ambient_dim) if c not in pivots]
            lifts = []
            for point in chart_points:
                y = point[: g.dim]
                x = [F(0)] * flat.ambient_dim
                for f, v in zip(free, y):
                    x[f] = v
                for row, pivot, r in zip(flat.system, pivots, flat.rhs):
                    x[pivot] = r - sum(row[f] * v for f, v in zip(free, y))
                assert flat.contains_point(x)
                lifts.append((y, x))
            for h in a.hyperplanes:
                coeffs, const = reference_pull(flat, h.normal, h.offset)
                assert len(coeffs) == g.dim
                for y, x in lifts:
                    ambient = sum(c * v for c, v in zip(h.normal, x)) - h.offset
                    assert ambient == sum(c * v for c, v in zip(coeffs, y)) - const
                assert_positive_multiple(pull_equation(flat, h.row), coeffs + (const,))


class TestFlatRelation:
    def test_line_contains_origin(self):
        line = solve_affine(mat([[1, 0]]), [0], 2)
        origin = solve_affine(mat([[1, 0], [0, 1]]), [0, 0], 2)
        assert flat_relation(line, origin) == FlatRelation.F1_STRICTLY_CONTAINS_F2
        assert flat_relation(origin, line) == FlatRelation.F2_STRICTLY_CONTAINS_F1

    def test_crossing_lines_incomparable(self):
        l1 = solve_affine(mat([[1, 0]]), [0], 2)
        l2 = solve_affine(mat([[0, 1]]), [0], 2)
        assert flat_relation(l1, l2) == FlatRelation.INCOMPARABLE

    def test_scaled_systems_equal(self):
        f1 = solve_affine(mat([[2, 4]]), [6], 2)
        f2 = solve_affine(mat([[1, 2]]), [3], 2)
        assert f1 == f2
        assert flat_relation(f1, f2) == FlatRelation.EQUAL

    def test_rejects_non_subspace(self):
        line = solve_affine(mat([[1, 0]]), [0], 2)
        with pytest.raises(InputError):
            flat_relation(line, None)


class TestHelpers:
    def test_null_space(self):
        basis = null_space_basis(mat([[1, 1, 0]]), 3)
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0

    def test_from_point_and_directions(self):
        line = from_point_and_directions(2, (F(0), F(1)), ((F(1), F(1)),))
        # The line through (0,1) with direction (1,1): x - y = -1.
        assert line == solve_affine(mat([[1, -1]]), [-1], 2)

    def test_affine_image(self):
        line = solve_affine(mat([[0, 1]]), [2], 2)  # {y = 2}
        m = mat([[1, 0], [0, 1], [1, 1]])
        image = affine_image(line, m, (F(0), F(0), F(1)))
        # Image of (t, 2) under (x, y, x+y+1): (t, 2, t+3).
        assert image.dim == 1
        assert image.contains_point((F(0), F(2), F(3)))
        assert image.contains_point((F(5), F(2), F(8)))
        assert not image.contains_point((F(0), F(2), F(4)))

    def test_affine_image_rejects_map_of_wrong_width(self):
        line = solve_affine(mat([[0, 1]]), [2], 2)
        with pytest.raises(InputError):
            affine_image(line, mat([[1, 0, 0]]), (F(0),))


def assert_positive_multiple(row, reference):
    """The integer row is s times the `Fraction` row for some s > 0."""
    assert len(row) == len(reference)
    k = next((j for j, x in enumerate(reference) if x), None)
    if k is None:
        assert not any(row)
        return
    s = row[k] / reference[k]
    assert s > 0 and all(x == s * y for x, y in zip(row, reference)), (row, reference)


long_fractions = st.fractions(min_value=-(10**24), max_value=10**24, max_denominator=10**9)


@st.composite
def long_matrices(draw, max_dim: int = 4):
    """(rows, column count) with long, signed entries, some rows repeated
    as long multiples of others so that some reduce to zero."""
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    entries = st.one_of(small_fractions, long_fractions)
    rows = [tuple(draw(entries) for _ in range(c)) for _ in range(r)]
    scale = draw(long_fractions)
    return tuple(rows + [tuple(scale * x for x in rows[0])]), c


@st.composite
def long_arrangements(draw):
    """Up to 6 hyperplanes in C^1..C^3 with long, signed coefficients,
    listed as long multiples of their equations.  They come as parallel
    classes, or all through one point (central), and with the last
    coordinate optionally absent from every normal (non-essential)."""
    n = draw(st.integers(1, 3))
    entries = st.one_of(small_fractions, long_fractions)
    essential = n == 1 or draw(st.booleans())
    point = draw(st.one_of(st.none(), st.lists(entries, min_size=n, max_size=n)))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        normal = [draw(entries) for _ in range(n)]
        if not essential:
            normal[-1] = Fraction(0)
        if not any(normal):
            continue
        if point is None:
            offsets = draw(st.lists(entries, min_size=1, max_size=2, unique=True))
        else:
            offsets = [sum(x * y for x, y in zip(normal, point))]
        for b in offsets:
            scale = draw(long_fractions.filter(bool))
            rows.append(Hyperplane.from_coeffs([scale * x for x in normal], scale * b))
    return Arrangement(n, tuple(dict.fromkeys(rows))[:6])


def assert_core_matches_reference(a):
    """Every flat's canonical rows are the `Fraction` rref of its
    containing hyperplanes scaled to primitive rows, the poset is sorted by
    the `Fraction` rows, every pull-back is a positive multiple of the
    reference's, and on a central essential A every decone and every
    trace of its view is the reference's."""
    p = build_intersection_poset(a)
    n = a.ambient_dim
    subspaces = [f.subspace for f in p.flats]
    assert subspaces == sorted(subspaces, key=reference_sort_key)
    for f in p.flats:
        members = [a.hyperplanes[i] for i in sorted(f.containing_hyperplanes)]
        expected = reference_solve([h.normal for h in members], [h.offset for h in members], n)
        assert f.subspace.rows == scaled_rows(*expected)
        assert (f.subspace.system, f.subspace.rhs) == expected
        for h in a.hyperplanes:
            coeffs, const = reference_pull(f.subspace, h.normal, h.offset)
            assert_positive_multiple(pull_equation(f.subspace, h.row), coeffs + (const,))
    if not (a.hyperplanes and p.is_central and p.is_essential):
        return
    center = p.flats[min(p.minimal_flats)]
    for h in range(len(a)):
        deconed = decone(a, h)
        chart = Hyperplane.from_coeffs(a.hyperplanes[h].normal, 1).subspace()
        assert deconed.hyperplanes == tuple(
            Hyperplane.from_coeffs(*reference_pull(chart, g.normal, 0))
            for i, g in enumerate(a.hyperplanes) if i != h
        )
        for y, trace, _ in decone_flats(p, center, h, deconed):
            members = [deconed.hyperplanes[i - (i > h)]
                       for i in sorted(p.flats[y].containing_hyperplanes)]
            expected = reference_solve(
                [g.normal for g in members], [g.offset for g in members], deconed.ambient_dim
            )
            assert trace.rows == scaled_rows(*expected)


class TestIntegerCoreAgainstReference:
    """The integer rows against the `Fraction` routines they replaced
    (`tests/helpers.py`): the same reduced forms, scaled to primitive rows
    with positive pivots, and the same order, traces and pull-backs."""

    @given(long_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rref_rows_are_the_reference_rows_scaled(self, m):
        rows, cols = m
        system, pivots = reference_rref(rows, cols)
        reduced = rref(rows, cols)
        assert reduced == (scaled_rows([r[:-1] for r in system], [r[-1] for r in system]), pivots)
        for row in reduced[0]:
            assert math.gcd(*row) == 1 and row[next(j for j, x in enumerate(row) if x)] > 0

    @given(long_matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve_and_intersect_agree_with_the_reference(self, m, data):
        rows, cols = m
        entries = st.one_of(small_fractions, long_fractions)
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        expected = reference_solve(rows, rhs, cols)
        solved = solve_affine(rows, rhs, cols)
        assert (solved is None) == (expected is None)
        if solved is None:
            return
        assert solved.rows == scaled_rows(*expected)
        assert (solved.system, solved.rhs) == expected
        half = len(rows) // 2
        first = reference_solve(rows[:half], rhs[:half], cols)
        second = reference_solve(rows[half:], rhs[half:], cols)
        meet = intersect_flats(solve_affine(rows[:half], rhs[:half], cols),
                               solve_affine(rows[half:], rhs[half:], cols))
        assert meet is not None and meet.rows == scaled_rows(
            *reference_intersect(first, second, cols)
        )

    @given(closure_arrangements())
    @settings(max_examples=60, deadline=None)
    def test_closure_arrangements(self, a):
        assert_core_matches_reference(a)

    @given(long_arrangements())
    @settings(max_examples=60, deadline=None)
    def test_long_coefficients(self, a):
        assert_core_matches_reference(a)
