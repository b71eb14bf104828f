"""Acceptance suite: one test per criterion, exact tolerances, with one
PASS/FAIL line printed per criterion (run with -s to see them).

The corpus of nine arrangements: empty (n=1), one/two/three points in
C^1, Boolean in C^2 and C^3, 3 generic lines, 3 concurrent lines, and
4 generic lines in C^2.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


from arrcoh import cli
from arrcoh.arrangement import (
    build_intersection_poset,
    poset_subspaces_bruteforce,
    restriction_to,
)
from arrcoh.chambers import enumerate_chambers
from arrcoh.decomposition import (
    Free,
    Induced,
    TensorTrivial,
    TrivialZ,
    contains_tensor_trivial,
    decompose_cohomology,
    decone,
    top_level_free_nodes,
)
from arrcoh.invariants import IntPolynomial, beta_combinatorial, poincare_polynomial
from arrcoh.nerve_homology import (
    SimplicialComplex,
    sigma_wedge_check,
    simplicial_homology,
)
from arrcoh.exact_linalg import solve_affine, vector
from helpers import corpus_file, decone_view_rows, load_corpus, poset_rows


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"FAIL criterion {number}: {description} (took {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def corpus_items():
    return load_corpus().items()


def decompose_corpus_file(name):
    a = cli.load_arrangement(corpus_file(name))
    return decompose_cohomology(build_intersection_poset(a))


def test_criterion_1_corpus_concentration():
    with criterion(1, "decomposition concentrated in degree rank(A), whole corpus", 5.0):
        for name, a in corpus_items():
            p = build_intersection_poset(a)
            dec = decompose_cohomology(p)
            assert dec.concentration_degree == p.rank_l, name
            # Exactly one nonzero degree: the graded object carries a single
            # degree and it is nonzero (at least one summand, all positive).
            assert dec.summands, name
            assert all(s.multiplicity > 0 for s in dec.summands), name


def test_criterion_2_beta_triple_oracle():
    witnesses = {"two-points-c1": 1, "generic3-c2": 1, "generic4-c2": 3}
    with criterion(2, "beta agreement: poset formula / nerve / bounded chambers", 10.0):
        for name, a in corpus_items():
            p = build_intersection_poset(a)
            for f in p.flats:
                beta = beta_combinatorial(p, f).value
                sub = restriction_to(p, f)
                if not sub.hyperplanes:
                    assert beta == 1, (name, f.index)
                    continue
                if len(sub) > 12:
                    continue
                wedge = sigma_wedge_check(build_intersection_poset(sub))
                assert wedge.beta == beta, (name, f.index)
            if p.is_essential and len(a) <= 12:
                bounded = enumerate_chambers(a).bounded
                top_beta = beta_combinatorial(p, p.top).value
                assert bounded == top_beta, name
                if p.is_central and a.hyperplanes:
                    assert bounded == 0, name
        for name, expected in witnesses.items():
            a = cli.load_arrangement(corpus_file(name))
            p = build_intersection_poset(a)
            assert beta_combinatorial(p, p.top).value == expected, name
            assert enumerate_chambers(a).bounded == expected, name


def test_criterion_3_wedge_shadow():
    with criterion(3, "nerve homology torsion-free, concentrated in degree l-1"):
        for name, a in corpus_items():
            if not a.hyperplanes:
                continue
            p = build_intersection_poset(a)
            wedge = sigma_wedge_check(p)
            assert wedge.is_wedge, name
            for k in range(p.rank_l + 1):
                assert wedge.homology.torsion(k) == (), (name, k)
                if k != p.rank_l - 1:
                    assert wedge.homology.reduced_rank(k) == 0, (name, k)


def test_criterion_4_rank_identity():
    with criterion(4, "l(G) + gr(G) = l for all flats of all corpus arrangements"):
        for name, a in corpus_items():
            p = build_intersection_poset(a)
            for f in p.flats:
                assert p.level(f) + f.codim == p.rank_l, (name, f.index)


def test_criterion_5_deconing_shadows():
    with criterion(5, "deconing: Poincare factorization, rank/degree drop, decone view = geometry"):
        one_plus_t = IntPolynomial.from_coefficients([1, 1])
        for name, a in corpus_items():
            p = build_intersection_poset(a)
            if not (p.is_central and p.is_essential and a.hyperplanes):
                continue
            base = decompose_cohomology(p)
            center = p.flats[min(p.minimal_flats)]
            for h in range(len(a)):
                deconed = decone(a, h)
                dp = build_intersection_poset(deconed)
                assert one_plus_t * poincare_polynomial(dp) == poincare_polynomial(p), (
                    name,
                    h,
                )
                assert dp.rank_l == p.rank_l - 1, (name, h)
                assert (
                    decompose_cohomology(dp).concentration_degree
                    == base.concentration_degree - 1
                ), (name, h)
                assert decone_view_rows(p, center, h, deconed) == poset_rows(dp), (name, h)


def test_criterion_6_free_summand_structure():
    with criterion(6, "FREE only in the top summand; TENSOR_TRIVIAL below it"):
        for name, a in corpus_items():
            dec = decompose_cohomology(build_intersection_poset(a))
            for s in dec.summands:
                free = top_level_free_nodes(s.module)
                if s.subspace.is_whole_space:
                    assert [f.rank for f in free] == [dec.free_rank], name
                else:
                    # A_G is nonempty for every non-top flat.
                    assert free == [], (name, s.flat_index)
                    assert contains_tensor_trivial(s.module), (name, s.flat_index)


def test_criterion_7_hand_checked_module_values():
    def point(offset):
        return solve_affine([vector([1])], [offset], 1)

    origin_c2 = solve_affine([vector([1, 0]), vector([0, 1])], [0, 0], 2)
    with criterion(7, "hand-checked modules: one point, Boolean C^2, two points"):
        dec = decompose_corpus_file("one-point-c1")
        assert dec.concentration_degree == 1
        (s,) = dec.summands
        assert dec.modules == (TrivialZ(),)
        assert s.module == Induced(point(0), TensorTrivial(0))
        assert s.is_trivial_z

        dec = decompose_corpus_file("boolean-c2")
        assert dec.concentration_degree == 2
        (s,) = dec.summands
        assert dec.modules == (TrivialZ(), Induced(point(0), TensorTrivial(0)))
        assert s.module == Induced(origin_c2, TensorTrivial(1))
        assert s.is_trivial_z

        dec = decompose_corpus_file("two-points-c1")
        assert dec.concentration_degree == 1 and dec.free_rank == 1
        assert dec.modules == (TrivialZ(),)
        modules = {s.subspace: s.module for s in dec.summands}
        assert modules.pop(point(0)) == Induced(point(0), TensorTrivial(0))
        assert modules.pop(point(1)) == Induced(point(1), TensorTrivial(0))
        (top_module,) = modules.values()
        assert top_module == Free(1)


def test_criterion_8_homology_self_test():
    with criterion(8, "homology engine: circle, 2-sphere, projective plane", 1.0):
        import itertools

        triangle = SimplicialComplex.from_maximal(3, [(0, 1), (0, 2), (1, 2)])
        hom = simplicial_homology(triangle)
        assert (hom.free_rank(0), hom.free_rank(1)) == (1, 1)
        assert hom.torsion(1) == ()

        tetra = SimplicialComplex.from_maximal(
            4, list(itertools.combinations(range(4), 3))
        )
        hom = simplicial_homology(tetra)
        assert [hom.free_rank(k) for k in range(3)] == [1, 0, 1]

        from helpers import PROJECTIVE_PLANE_FACES

        rp2 = SimplicialComplex.from_maximal(6, PROJECTIVE_PLANE_FACES)
        hom = simplicial_homology(rp2)
        assert hom.torsion(1) == (2,)
        assert hom.free_rank(1) == 0


def test_criterion_9_poset_oracle_equivalence():
    with criterion(9, "breadth-first poset equals 2^|A| subset oracle (|A| <= 6)"):
        for name, a in corpus_items():
            assert len(a) <= 6, name
            p = build_intersection_poset(a)
            assert frozenset(f.subspace for f in p.flats) == poset_subspaces_bruteforce(
                a
            ), name


def test_criterion_10_verify_command_on_corpus(capsys):
    with criterion(10, "arrcoh verify exits 0 on every corpus file", 60.0):
        for name in load_corpus():
            code = cli.main(["verify", corpus_file(name)])
            out = capsys.readouterr().out
            assert code == 0, name
            assert "FAIL" not in out, name
