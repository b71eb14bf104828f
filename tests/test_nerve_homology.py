from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcoh.arrangement import arrangement_from_coeffs, build_intersection_poset
from arrcoh.errors import InputError, ResourceCapError
from arrcoh.exact_linalg import RationalMatrix, rref_rank
from arrcoh.invariants import euler_complement
from arrcoh.nerve_homology import (
    SimplicialComplex,
    _dense_smith_normal_form,
    boundary_matrix,
    build_singular_nerve,
    nerve_is_truncated,
    sigma_wedge_check,
    simplicial_homology,
    smith_normal_form,
)
from helpers import PROJECTIVE_PLANE_FACES, braid, det_cofactor, random_int_matrix


class TestNerve:
    def test_two_points_gives_isolated_vertices(self, corpus_posets):
        nerve = build_singular_nerve(corpus_posets["two-points-c1"])
        assert nerve.vertex_count == 2
        assert nerve.simplices == frozenset({(0,), (1,)})

    def test_boolean_gives_an_edge(self, corpus_posets):
        nerve = build_singular_nerve(corpus_posets["boolean-c2"])
        assert nerve.simplices == frozenset({(0,), (1,), (0, 1)})

    def test_generic3_gives_a_circle(self, corpus_posets):
        nerve = build_singular_nerve(corpus_posets["generic3-c2"])
        assert len(nerve.simplices_of_dim(0)) == 3
        assert len(nerve.simplices_of_dim(1)) == 3
        assert len(nerve.simplices_of_dim(2)) == 0

    def test_simplices_match_subset_intersections(self, corpus, corpus_posets):
        import itertools

        from arrcoh.exact_linalg import intersect_flats

        for name, a in corpus.items():
            if not a.hyperplanes:
                continue
            p = corpus_posets[name]
            nerve = build_singular_nerve(p)
            cap = p.rank_l + 2
            subs = [h.subspace() for h in a.hyperplanes]
            expected = set()
            for r in range(1, min(len(subs), cap) + 1):
                for combo in itertools.combinations(range(len(subs)), r):
                    meet = subs[combo[0]]
                    for i in combo[1:]:
                        meet = intersect_flats(meet, subs[i])
                        if meet is None:
                            break
                    if meet is not None:
                        expected.add(combo)
            assert nerve.simplices == frozenset(expected), name

    def test_face_closure(self, corpus_posets):
        for name, p in corpus_posets.items():
            if not p.arrangement.hyperplanes:
                continue
            assert build_singular_nerve(p).face_closure_holds(), name

    def test_empty_arrangement_rejected(self, corpus_posets):
        with pytest.raises(InputError):
            build_singular_nerve(corpus_posets["empty-c1"])

    def test_cap_enforced(self):
        # The one nerve cap (12) applies to library calls too.
        a = arrangement_from_coeffs(1, [((1,), k) for k in range(13)])
        with pytest.raises(ResourceCapError, match="13 hyperplanes exceeds the oracle cap of 12"):
            build_singular_nerve(build_intersection_poset(a))

    def test_corpus_is_never_truncated(self, corpus_posets):
        for name, p in corpus_posets.items():
            assert not nerve_is_truncated(p), name


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[2]]) == (2,)
        assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
        # d1 = gcd of all entries = 2, d1*d2 = |det| = 8.
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[0, 0], [0, 0]]) == ()

    def test_divisibility_chain(self):
        rng = random.Random(4242)
        for _ in range(50):
            m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            factors = smith_normal_form(m)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_product_equals_determinant(self):
        rng = random.Random(31337)
        checked = 0
        while checked < 40:
            m = random_int_matrix(rng, 3, 3)
            det = det_cofactor([list(map(int, row)) for row in m])
            if det == 0:
                continue
            checked += 1
            factors = smith_normal_form(m)
            product = 1
            for d in factors:
                product *= d
            assert product == abs(det)

    def test_permutation_invariance(self):
        rng = random.Random(777)
        for _ in range(30):
            m = random_int_matrix(rng, 4, 3)
            rows = [row[:] for row in m]
            rng.shuffle(rows)
            cols = list(range(3))
            rng.shuffle(cols)
            permuted = [[row[c] for c in cols] for row in rows]
            assert smith_normal_form(m) == smith_normal_form(permuted)

    def test_rank_matches_rational_elimination(self):
        # Independent rank route: Fraction-based rref.
        rng = random.Random(55)
        for _ in range(30):
            m = random_int_matrix(rng, 4, 5)
            factors = smith_normal_form(m)
            _, rank = rref_rank(RationalMatrix.from_rows(m))
            assert len(factors) == rank


def determinantal_factors(m: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_k = D_k / D_(k-1), where D_k is the gcd of the
    k x k minors (cofactor determinants) and D_0 = 1."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, int(det_cofactor([[m[i][j] for j in cs] for i in rs])))
        if d == 0:
            break
        divisors.append(d)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


def mixed_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Mostly zero and +-1 entries with some non-units, and sometimes a
    zero row or a zero column."""
    values = [0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4, 6]
    m = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    return m


def nerve_boundary_matrices(c: SimplicialComplex) -> list[list[list[int]]]:
    return [boundary_matrix(c, k) for k in range(1, c.max_dim + 1)]


def int_matrices(side: int):
    """Matrices of at most side x side small entries, 0 x k and k x 0 included."""
    entries = st.sampled_from([0, 0, 1, -1, 2, -2, 3, -6])
    return st.integers(0, side).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=side)
    )


class TestSparseMatchesDense:
    """The sparse unit-pivot elimination must give the factors of the
    dense elimination it replaced, and of the determinantal divisors."""

    def test_random_mixed(self):
        rng = random.Random(2001)
        for _ in range(400):
            m = mixed_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
            assert smith_normal_form(m) == _dense_smith_normal_form(m), m

    def test_degenerate_shapes(self):
        for m in ([], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]], [[0, 1], [0, 0]]):
            assert smith_normal_form(m) == _dense_smith_normal_form(m), m

    def test_corpus_nerves(self, corpus_posets):
        for name, p in corpus_posets.items():
            if not p.arrangement.hyperplanes:
                continue
            for m in nerve_boundary_matrices(build_singular_nerve(p)):
                assert smith_normal_form(m) == _dense_smith_normal_form(m), name

    def test_braid_nerve(self):
        nerve = build_singular_nerve(build_intersection_poset(braid(5)))
        for m in nerve_boundary_matrices(nerve):
            assert smith_normal_form(m) == _dense_smith_normal_form(m)

    def test_projective_plane(self):
        rp2 = SimplicialComplex.from_maximal(6, PROJECTIVE_PLANE_FACES)
        d1, d2 = nerve_boundary_matrices(rp2)
        assert smith_normal_form(d1) == _dense_smith_normal_form(d1) == (1,) * 5
        # The Z/2 survives every unit pivot and comes out of the remainder.
        assert smith_normal_form(d2) == _dense_smith_normal_form(d2) == (1,) * 9 + (2,)

    def test_simplex_skeleton(self):
        # 6-skeleton of the simplex on 11 vertices: matrices up to 462 x 462.
        skeleton = SimplicialComplex.from_maximal(11, list(itertools.combinations(range(11), 7)))
        for m in nerve_boundary_matrices(skeleton):
            assert smith_normal_form(m) == _dense_smith_normal_form(m)

    @given(int_matrices(5))
    @settings(max_examples=200, deadline=None)
    def test_random_hypothesis(self, m):
        assert smith_normal_form(m) == _dense_smith_normal_form(m)

    def test_determinantal_divisors(self):
        rng = random.Random(1998)
        for _ in range(150):
            m = mixed_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert smith_normal_form(m) == determinantal_factors(m), m

    @given(int_matrices(4))
    @settings(max_examples=100, deadline=None)
    def test_determinantal_divisors_hypothesis(self, m):
        assert smith_normal_form(m) == determinantal_factors(m)


class TestHomology:
    def test_circle(self):
        triangle = SimplicialComplex.from_maximal(3, [(0, 1), (0, 2), (1, 2)])
        hom = simplicial_homology(triangle)
        assert hom.free_rank(0) == 1 and hom.free_rank(1) == 1
        assert hom.torsion(0) == () and hom.torsion(1) == ()

    def test_two_sphere(self):
        import itertools

        faces = list(itertools.combinations(range(4), 3))
        sphere = SimplicialComplex.from_maximal(4, faces)
        hom = simplicial_homology(sphere)
        assert [hom.free_rank(k) for k in range(3)] == [1, 0, 1]
        assert all(hom.torsion(k) == () for k in range(3))

    def test_projective_plane_torsion(self):
        rp2 = SimplicialComplex.from_maximal(6, PROJECTIVE_PLANE_FACES)
        assert len(rp2.simplices_of_dim(1)) == 15
        assert len(rp2.simplices_of_dim(2)) == 10
        hom = simplicial_homology(rp2)
        assert hom.free_rank(0) == 1
        assert hom.free_rank(1) == 0 and hom.torsion(1) == (2,)
        assert hom.free_rank(2) == 0 and hom.torsion(2) == ()
        # Independent rank route for the boundary maps.
        d2 = boundary_matrix(rp2, 2)
        _, rank_d2 = rref_rank(RationalMatrix.from_rows(d2))
        assert rank_d2 == 10  # kills all of ker d1 except the Z/2

    def test_point_is_contractible(self):
        point = SimplicialComplex.from_maximal(1, [(0,)])
        hom = simplicial_homology(point)
        assert hom.free_rank(0) == 1 and hom.reduced_rank(0) == 0


class TestWedgeCheck:
    EXPECTED_BETA = {
        "one-point-c1": 0,
        "two-points-c1": 1,
        "three-points-c1": 2,
        "boolean-c2": 0,
        "boolean-c3": 0,
        "generic3-c2": 1,
        "concurrent3-c2": 0,
        "generic4-c2": 3,
    }

    def test_corpus_wedge_and_beta(self, corpus_posets):
        for name, expected in self.EXPECTED_BETA.items():
            w = sigma_wedge_check(corpus_posets[name])
            assert w.is_wedge, name
            assert w.beta == expected, name

    def test_reduced_homology_concentrated(self, corpus_posets):
        for name, p in corpus_posets.items():
            if not p.arrangement.hyperplanes:
                continue
            w = sigma_wedge_check(p)
            for k in range(p.rank_l + 1):
                assert w.homology.torsion(k) == (), name
                if k != p.rank_l - 1:
                    assert w.homology.reduced_rank(k) == 0, (name, k)

    def test_nerve_euler_additivity(self, corpus_posets):
        # chi(nerve) = chi(singular set) = 1 - chi(complement).
        for name, p in corpus_posets.items():
            if not p.arrangement.hyperplanes:
                continue
            nerve = build_singular_nerve(p)
            assert nerve.euler_characteristic() == 1 - euler_complement(p), name

    def test_empty_rejected(self, corpus_posets):
        with pytest.raises(InputError):
            sigma_wedge_check(corpus_posets["empty-c1"])

    def test_cap_enforced(self):
        a = arrangement_from_coeffs(1, [((1,), k) for k in range(13)])
        p = build_intersection_poset(a)
        with pytest.raises(ResourceCapError):
            sigma_wedge_check(p)
