"""Independent oracles and arrangement families shared across test modules.

The oracles deliberately avoid the library's own code paths: the
determinant is cofactor expansion and the inverse is the adjugate, not
elimination, so rank, Smith-normal-form and deconing claims are checked
against arithmetic the package never performs.  The restriction A∩G is
re-derived by row reducing each covered flat's pulled-back system, and
the poset's flats by a closure that cuts in `Fraction` row reduction.
"""

from __future__ import annotations

import itertools
import pathlib
import random
from fractions import Fraction

from hypothesis import strategies as st

from arrcoh.arrangement import (
    Arrangement,
    Flat,
    FlatChart,
    Hyperplane,
    IntersectionPoset,
    RestrictedArrangement,
    arrangement_from_coeffs,
    assemble_poset,
)
from arrcoh.cli import load_arrangement
from arrcoh.decomposition import decone_flats
from arrcoh.exact_linalg import (
    AffineSubspace,
    RationalMatrix,
    dot,
    intersect_flats,
    rref_pivots,
)
from arrcoh.invariants import beta_all_flats
from arrcoh.nerve_homology import SimplicialComplex

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_file(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.json")


def load_corpus() -> dict[str, Arrangement]:
    """The corpus files by name, loaded as the CLI loads them."""
    return {
        path.stem: load_arrangement(str(path))
        for path in sorted(CORPUS_DIR.glob("*.json"))
    }


# Minimal 6-vertex triangulation of the projective plane (antipodal
# icosahedron quotient): every edge lies in exactly two of the ten
# triangles, chi = 6 - 15 + 10 = 1.
PROJECTIVE_PLANE_FACES = [
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 5),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
]


def det_cofactor(rows: list[list]) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def random_fraction_matrix(
    rng: random.Random, rows: int, cols: int, span: int = 4, max_den: int = 3
) -> list[list[Fraction]]:
    return [
        [
            Fraction(rng.randint(-span, span), rng.randint(1, max_den))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def random_int_matrix(
    rng: random.Random, rows: int, cols: int, span: int = 5
) -> list[list[int]]:
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def inverse_by_adjugate(rows: list[list]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix as adj(M) / det(M)."""
    n = len(rows)
    det = det_cofactor(rows)
    assert det != 0

    def cofactor(i: int, j: int) -> Fraction:
        minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
        return (-1) ** (i + j) * det_cofactor(minor)

    return [[cofactor(j, i) / det for j in range(n)] for i in range(n)]


def decone_by_inverse(a: Arrangement, h_infinity: int) -> list[tuple[list, Fraction]]:
    """Deconing by a basis change, as (normal, offset) rows.

    T has the unit rows e_i (i != p, p the first nonzero column of the
    chosen normal a_inf) followed by a_inf.  In coordinates x' = T x, taken
    from the center, a hyperplane with normal h has normal a' = h T^-1; its
    trace on {x'_n = 1} is a'[:-1].y = -a'[-1].
    """
    n = a.ambient_dim
    a_inf = list(a.hyperplanes[h_infinity].normal)
    p = next(j for j, x in enumerate(a_inf) if x != 0)
    t = [[Fraction(int(c == i)) for c in range(n)] for i in range(n) if i != p]
    t_inv = inverse_by_adjugate(t + [a_inf])
    rows = []
    for i, h in enumerate(a.hyperplanes):
        if i != h_infinity:
            a_prime = [sum(h.normal[r] * t_inv[r][c] for r in range(n)) for c in range(n)]
            rows.append((a_prime[:-1], -a_prime[-1]))
    return rows


def fraction_closure_poset(a: Arrangement) -> IntersectionPoset:
    """The intersection poset by a breadth-first closure in `Fraction` rref:
    every cut is an `intersect_flats` keyed by its canonical form, and each
    new flat's containing set comes from dot products with its point and
    direction basis.  The integer closure must give the same poset."""
    n = a.ambient_dim
    top = AffineSubspace.whole_space(n)
    hyper_subspaces = [h.subspace() for h in a.hyperplanes]
    containing: dict[AffineSubspace, frozenset[int]] = {top: frozenset()}
    frontier = [top]
    while frontier:
        fresh = []
        for f in frontier:
            done = set(containing[f])
            for i, hs in enumerate(hyper_subspaces):
                if i in done:
                    continue
                cut = intersect_flats(f, hs)
                if cut is None:
                    continue
                inside = containing.get(cut)
                if inside is None:
                    point, directions = cut.parametrize()
                    inside = containing[cut] = frozenset(
                        j
                        for j, h in enumerate(a.hyperplanes)
                        if dot(h.normal, point) == h.offset
                        and all(dot(h.normal, d) == 0 for d in directions)
                    )
                    fresh.append(cut)
                done |= inside
        frontier = fresh
    return assemble_poset(a, containing)


def restriction_by_rref(p: IntersectionPoset, g: Flat) -> RestrictedArrangement:
    """A∩G by pulling each covered flat's whole system back to G's chart
    and row reducing it to the one equation it must leave."""
    chart = FlatChart.for_subspace(g.subspace)
    candidates = [j for j in p.strictly_below[g.index] if p.flats[j].dim == g.dim - 1]
    candidates.sort(
        key=lambda j: (
            sorted(p.flats[j].containing_hyperplanes),
            p.flats[j].subspace.sort_key(),
        )
    )
    hyperplanes = []
    for j in candidates:
        sub = p.flats[j].subspace
        rows = []
        for row, rhs in zip(sub.system.entries, sub.rhs):
            coeffs, const = chart.pull_equation(row, rhs)
            rows.append(list(coeffs) + [const])
        reduced, pivots = rref_pivots(RationalMatrix.from_rows(rows, cols=chart.dim + 1))
        assert len(pivots) == 1 and pivots[0] < chart.dim, (g.index, j)
        row = reduced.entries[0]
        hyperplanes.append(Hyperplane.from_coeffs(row[: chart.dim], row[chart.dim]))
    return RestrictedArrangement(
        flat=g,
        arrangement=Arrangement(chart.dim, tuple(hyperplanes)),
        flat_indices=tuple(candidates),
        chart=chart,
    )


def face_closure_holds(c: SimplicialComplex) -> bool:
    """Every face of every simplex of c is in c."""
    return all(
        face in c.simplices
        for s in c.simplices
        if len(s) > 1
        for face in itertools.combinations(s, len(s) - 1)
    )


def containing_subarrangement(p: IntersectionPoset, g: Flat) -> Arrangement:
    """A_G in A's coordinates: the hyperplanes of G's containing set, in order."""
    a = p.arrangement
    return Arrangement(
        a.ambient_dim, tuple(a.hyperplanes[i] for i in sorted(g.containing_hyperplanes))
    )


def decone_view_rows(p: IntersectionPoset, g: Flat, h_infinity: int, deconed: Arrangement):
    """`decone_flats` as (trace, containing set, beta) rows, with the
    containing sets renumbered to the decone's hyperplanes, sorted like
    the flats of the decone's own poset."""
    labels = sorted(g.containing_hyperplanes)
    del labels[h_infinity]
    rows = [
        (trace, frozenset(labels.index(i) for i in p.flats[y].containing_hyperplanes), beta)
        for y, trace, beta in decone_flats(p, g, h_infinity, deconed)
    ]
    rows.sort(key=lambda row: (-row[0].dim, row[0].sort_key()))
    return rows


def poset_rows(p: IntersectionPoset):
    """Every flat of p as a (subspace, containing set, beta) row."""
    return [
        (f.subspace, f.containing_hyperplanes, b.value)
        for f, b in zip(p.flats, beta_all_flats(p))
    ]


def replace(obj, **changes):
    """Copy of the record `obj` with the fields named in `changes` replaced."""
    fields = {name: getattr(obj, name) for name in obj.__match_args__}
    return type(obj)(**{**fields, **changes})


def _unit_difference(n, i, j):
    row = [0] * n
    row[i], row[j] = 1, -1
    return row


def braid(n):
    """{x_i = x_j : i < j} in C^n."""
    pairs = itertools.combinations(range(n), 2)
    return arrangement_from_coeffs(n, [(_unit_difference(n, i, j), 0) for i, j in pairs])


def shi(n):
    """braid(n) plus {x_i - x_j = 1 : i < j}."""
    pairs = list(itertools.combinations(range(n), 2))
    rows = [(_unit_difference(n, i, j), c) for c in (0, 1) for i, j in pairs]
    return arrangement_from_coeffs(n, rows)


def essential_braid(n):
    """braid(n) restricted to x_n = 0: central and essential in C^(n-1)."""
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        row = [0] * (n - 1)
        row[i] = 1
        if j < n - 1:
            row[j] = -1
        rows.append((row, 0))
    return arrangement_from_coeffs(n - 1, rows)


def generic(m, n):
    """m hyperplanes t^0 x_1 + ... + t^(n-1) x_n = t^n, t = 1..m.

    Any n + 1 augmented rows form a Vandermonde matrix, so every n of
    the hyperplanes meet in a point and no n + 1 of them meet at all.
    """
    return arrangement_from_coeffs(
        n, [([t**k for k in range(n)], t**n) for t in range(1, m + 1)]
    )


def points(k):
    """{x = c : c = 0..k-1} in C^1."""
    return arrangement_from_coeffs(1, [((1,), c) for c in range(k)])


@st.composite
def small_arrangements(draw):
    """Rational arrangements in C^1..C^3 with up to 6 hyperplanes, drawn as
    parallel classes: each normal carries one or more offsets."""
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        normal = draw(st.lists(coeff, min_size=n, max_size=n))
        if all(x == 0 for x in normal):
            continue
        for b in draw(st.lists(coeff, min_size=1, max_size=3, unique=True)):
            rows.append(Hyperplane.from_coeffs(normal, b))
    unique = tuple(dict.fromkeys(rows))[:6]
    return Arrangement(n, unique)


@st.composite
def closure_arrangements(draw):
    """Rational arrangements in C^1..C^4 with up to 8 hyperplanes and
    denominators up to 7.  Offsets are free, giving parallel classes of up
    to 3 hyperplanes, or all through one point (central); the normals are
    optionally all orthogonal to one direction (non-essential), so the
    central draws then share a line."""
    n = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    vectors = st.lists(coeff, min_size=n, max_size=n)
    direction = draw(st.one_of(st.none(), vectors.filter(any)))
    point = draw(st.one_of(st.none(), vectors))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        normal = draw(vectors)
        if direction is not None:
            scale = sum(x * y for x, y in zip(normal, direction)) / sum(x * x for x in direction)
            normal = [x - scale * y for x, y in zip(normal, direction)]
        if not any(normal):
            continue
        if point is None:
            offsets = draw(st.lists(coeff, min_size=1, max_size=3, unique=True))
        else:
            offsets = [sum(x * y for x, y in zip(normal, point))]
        rows += [Hyperplane.from_coeffs(normal, b) for b in offsets]
    unique = tuple(dict.fromkeys(rows))[:8]
    return Arrangement(n, unique)
