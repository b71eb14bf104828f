"""Arrangement data model and the intersection poset.

An arrangement is a finite set of distinct affine hyperplanes
H = {x : a.x = b} in C^n with rational data.  The central object here is
the poset of flats: all nonempty intersections of member hyperplanes,
ordered by inclusion, with the ambient space adjoined as top element.
The poset carries the numerology everything else consumes:

  d(G)   dimension of a flat,
  gr(G)  its codimension n - d(G),
  n0     common dimension of the minimal flats (a parallel family),
  l      the arrangement rank n - n0,
  l(G)   relative level d(G) - n0, so that l(G) + gr(G) = l.

Exact linear algebra only finds the flats and writes their canonical
equations.  Construction is a breadth-first closure (cut each new flat
by every hyperplane not already containing it, dedup) rather than
all-subsets enumeration.  The cuts are integer: a flat G is carried as
integer columns spanning the image of its homogenized solution space
under the equation rows (a_i, -b_i), and cutting by H_i is one
fraction-free elimination step (Bareiss, Math. Comp. 22, 1968).  Flats
are keyed by their containing sets, and each new flat's canonical
`Fraction` equations are written once, by `intersect_flats`.  Everything
else is combinatorics on the containing sets C(G) = {H in A : H contains G}
(Orlik-Terao, Arrangements of Hyperplanes, ch. 1-2):

  incidence  C(G) is read off G's integer columns when G is found: the
             rows that vanish on every column;
  order      a flat is the intersection of its containing set, so
             G < G' iff C(G) strictly contains C(G');
  covers     the poset is ranked by dimension, so the covers of G are
             the flats below it of dimension exactly d(G) - 1;
  A_G        is C(G), read straight off the poset;
  A∩G        a flat K covered by G is G ∩ H for any H in C(K) - C(G);
             the least such H, pulled back to G's chart, is K's hyperplane
             in the restriction, ordered by that H (`restriction_covers`);
  ess. A_G   its essential coordinates are each member's entries in the
             pivot columns of G's canonical system; `decompose` reads them
             there and never builds ess(A_G) (`essential_arrangement` does).

`AffineSubspace.contains`, `subarrangement_at` and `nbc_flats` (the flats
from the no-broken-circuit sets, for `verify`) re-derive the same facts by
row reduction and never build posets; the 2^|A| subset enumeration
`poset_subspaces_bruteforce` is only the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from ._record import record
from .errors import InputError, InternalConsistencyError, ResourceCapError
from .exact_linalg import (
    AffineSubspace,
    RationalMatrix,
    Vector,
    as_rational,
    dot,
    intersect_flats,
    rational_str,
    rref_rank,
    solve_affine,
    vector,
)

DEFAULT_MAX_HYPERPLANES = 20


@record
class Hyperplane:
    """Affine hyperplane {x : normal.x = offset}, canonically scaled.

    Canonical scaling: the first nonzero entry of `normal` is 1, so two
    hyperplanes are equal iff their fields are equal.
    """

    normal: Vector
    offset: Fraction

    @staticmethod
    def from_coeffs(
        normal: Sequence[int | str | Fraction], offset: int | str | Fraction
    ) -> Hyperplane:
        a = vector(normal)
        b = as_rational(offset)
        lead = next((x for x in a if x != 0), None)
        if lead is None:
            raise InputError("hyperplane normal vector is zero")
        if lead != 1:
            a = tuple(x / lead for x in a)
            b = b / lead
        return Hyperplane(a, b)

    @property
    def ambient_dim(self) -> int:
        return len(self.normal)

    def subspace(self) -> AffineSubspace:
        # Canonical scaling makes the row (normal | offset) its own rref.
        n = len(self.normal)
        return AffineSubspace(n, RationalMatrix((self.normal,), n), (self.offset,))


@record
class Arrangement:
    """Finite set of distinct hyperplanes in C^n, in input order."""

    ambient_dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self) -> None:
        seen = set()
        for h in self.hyperplanes:
            if h.ambient_dim != self.ambient_dim:
                raise InputError(
                    f"hyperplane normal has length {h.ambient_dim}, "
                    f"expected {self.ambient_dim}"
                )
            if h in seen:
                raise InputError(f"duplicate hyperplane {h}")
            seen.add(h)

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "hyperplanes": [
                {
                    "normal": [rational_str(x) for x in h.normal],
                    "offset": rational_str(h.offset),
                }
                for h in self.hyperplanes
            ],
        }


def arrangement_from_coeffs(
    dim: int, rows: Sequence[tuple[Sequence[int | str | Fraction], int | str | Fraction]]
) -> Arrangement:
    """Convenience builder: rows of (normal coefficients, offset)."""
    return Arrangement(dim, tuple(Hyperplane.from_coeffs(a, b) for a, b in rows))


def validate_arrangement(raw: Mapping) -> Arrangement:
    """Parse and validate the arrangement JSON schema.

    Schema: {"dim": n, "hyperplanes": [{"normal": ["1", "0"], "offset": "0"}]}
    with rationals serialized as "p/q" or "p" strings (ints accepted).
    """
    if not isinstance(raw, Mapping):
        raise InputError("arrangement must be a JSON object")
    if "dim" not in raw:
        raise InputError("missing field 'dim'")
    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError(f"field 'dim' must be a nonnegative integer, got {dim!r}")
    if "hyperplanes" not in raw:
        raise InputError("missing field 'hyperplanes'")
    entries = raw["hyperplanes"]
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise InputError("field 'hyperplanes' must be a list")
    hyperplanes = []
    first_index: dict[Hyperplane, int] = {}
    for k, item in enumerate(entries):
        if not isinstance(item, Mapping):
            raise InputError(f"hyperplanes[{k}] must be an object")
        if "normal" not in item:
            raise InputError(f"hyperplanes[{k}] missing field 'normal'")
        if "offset" not in item:
            raise InputError(f"hyperplanes[{k}] missing field 'offset'")
        normal = item["normal"]
        if not isinstance(normal, Sequence) or isinstance(normal, (str, bytes)):
            raise InputError(f"hyperplanes[{k}].normal must be a list")
        if len(normal) != dim:
            raise InputError(
                f"hyperplanes[{k}].normal has length {len(normal)}, expected {dim}"
            )
        try:
            h = Hyperplane.from_coeffs(normal, item["offset"])
        except InputError as exc:
            raise InputError(f"hyperplanes[{k}]: {exc}") from exc
        if h in first_index:
            raise InputError(
                f"hyperplanes[{first_index[h]}] and hyperplanes[{k}] "
                "define the same hyperplane"
            )
        first_index[h] = k
        hyperplanes.append(h)
    return Arrangement(dim, tuple(hyperplanes))


@record
class Flat:
    """Element of the intersection poset: a flat G with its numerology."""

    index: int
    subspace: AffineSubspace
    dim: int
    codim: int
    containing_hyperplanes: frozenset[int]

    @property
    def is_top(self) -> bool:
        return self.subspace.is_whole_space


@record
class IntersectionPoset:
    """All flats of an arrangement plus the ambient space as top element.

    Flats are sorted by descending dimension then canonical form, so
    `flats[0]` is always the top.  `strictly_below[i]` / `strictly_above[i]`
    hold the full strict order as index sets, combinatorially: j is below
    i iff flat j's containing hyperplanes strictly include flat i's.
    `covers[i]` holds the flats covered by flat i (immediately below it),
    which by rank are the flats below i of dimension one less.  Each
    flat's containing set is read off the closure's integer columns.
    """

    arrangement: Arrangement
    flats: tuple[Flat, ...]
    strictly_below: tuple[frozenset[int], ...]
    strictly_above: tuple[frozenset[int], ...]
    covers: tuple[frozenset[int], ...]
    minimal_flats: frozenset[int]
    n0: int
    rank_l: int

    @property
    def top(self) -> Flat:
        return self.flats[0]

    def level(self, g: Flat) -> int:
        """Relative level l(G) = d(G) - n0."""
        return g.dim - self.n0

    def flat_for(self, subspace: AffineSubspace) -> Flat | None:
        for f in self.flats:
            if f.subspace == subspace:
                return f
        return None


def build_intersection_poset(
    a: Arrangement, max_hyperplanes: int = DEFAULT_MAX_HYPERPLANES
) -> IntersectionPoset:
    """Breadth-first closure of the arrangement under intersection.

    Integer cuts find the flats and their containing sets, one
    `intersect_flats` per flat writes its canonical equations, and
    `assemble_poset` reads the order off the containing sets.
    """
    if len(a) > max_hyperplanes:
        raise ResourceCapError(
            f"{len(a)} hyperplanes exceeds the cap of {max_hyperplanes}"
        )
    m, n = len(a), a.ambient_dim
    hyper_subspaces = [h.subspace() for h in a.hyperplanes]
    # E: row i < m is H_i's equation (a_i, -b_i) in integers, row m the
    # homogenizing coordinate t.  A flat G is carried as integer columns
    # spanning E(V_G), V_G = span{(x, 1) : x in G}, so row i vanishes on
    # every column iff H_i contains G, and G is empty iff t does.
    equations = [_integer_multiple(h.normal + (-h.offset,)) for h in a.hyperplanes]
    columns = [tuple(row[j] for row in equations) + (int(j == n),) for j in range(n + 1)]
    top = AffineSubspace.whole_space(n)
    found = {frozenset(): top}
    everything = frozenset(range(m))
    frontier = [(top, frozenset(), [c for c in columns if any(c)])]
    while frontier:
        fresh = []
        for g, c_g, spanning in frontier:
            # Hyperplanes containing g, or containing a cut of g already
            # made, cut g in nothing new.
            done = set(c_g)
            for i in range(m):
                if i in done:
                    continue
                cut = _fraction_free_cut(spanning, i)
                if not any(col[m] for col in cut):
                    continue  # g ∩ H_i is empty
                moved = set().union(*(itertools.compress(range(m), col) for col in cut))
                inside = everything.difference(moved)
                if inside not in found:
                    sub = intersect_flats(g, hyper_subspaces[i])
                    if sub is None:
                        raise InternalConsistencyError("an integer cut disagrees with its rref")
                    found[inside] = sub
                    fresh.append((sub, inside, cut))
                done |= inside
        frontier = fresh
    return assemble_poset(a, {sub: inside for inside, sub in found.items()})


def _fraction_free_cut(columns: list[tuple[int, ...]], i: int) -> list[tuple[int, ...]]:
    """Integer columns spanning the vectors of span(columns) with entry 0
    in row i, which some column has nonzero.

    One fraction-free step (Bareiss, Math. Comp. 22, 1968): with a pivot
    column k, each other column becomes c_k col_j - c_j col_k (c = row i),
    divided by its gcd; zero columns are dropped, and so is column k.  The
    pivot has the least nonzero |c_k|, which keeps the entries small.
    """
    k = min((j for j, col in enumerate(columns) if col[i]), key=lambda j: abs(columns[j][i]))
    pivot = columns[k]
    p = pivot[i]
    cut = []
    for j, col in enumerate(columns):
        if j == k:
            continue
        c = col[i]
        if c == 0:
            cut.append(col)
            continue
        new = [p * x - c * y for x, y in zip(col, pivot)]
        d = math.gcd(*new)
        if d:
            cut.append(tuple(x // d for x in new))
    return cut


def assemble_poset(
    a: Arrangement, containing: Mapping[AffineSubspace, frozenset[int]]
) -> IntersectionPoset:
    """The poset of the flats `containing` maps to their containing sets:
    sorted, ordered by the containing sets, covered by rank."""
    n = a.ambient_dim
    # By descending dimension, then canonical form (`sort_key`), with each
    # Fraction replaced by its rank among the values that occur: the same
    # order, compared in ints.
    values = sorted({x for s in containing for row in s.augmented_rows() for x in row})
    rank = {x: r for r, x in enumerate(values)}
    ordered = sorted(containing, key=lambda s: (
        -s.dim,
        [[rank[x] for x in row] for row in s.system.entries],
        [rank[x] for x in s.rhs],
    ))
    flats = [
        Flat(idx, sub, sub.dim, n - sub.dim, containing[sub])
        for idx, sub in enumerate(ordered)
    ]

    # A flat is the intersection of its containing set, so G < G' iff
    # C(G) strictly contains C(G'): the flats below G are those whose
    # containing set holds every hyperplane of C(G).
    count = len(flats)
    with_hyperplane: list[set[int]] = [set() for _ in a.hyperplanes]
    for f in flats:
        for i in f.containing_hyperplanes:
            with_hyperplane[i].add(f.index)
    everything = set(range(count))
    below = []
    for f in flats:
        lower = everything.intersection(
            *(with_hyperplane[i] for i in f.containing_hyperplanes)
        )
        lower.discard(f.index)
        below.append(frozenset(lower))
    above: list[set[int]] = [set() for _ in range(count)]
    for i in range(count):
        for j in below[i]:
            above[j].add(i)
    # The poset is ranked by dimension: the covers of G are the flats
    # below it of dimension exactly dim G - 1.
    covers = tuple(
        frozenset(j for j in below[i] if flats[j].dim == flats[i].dim - 1)
        for i in range(count)
    )

    minimal = frozenset(i for i in range(count) if not below[i])
    min_dims = {flats[i].dim for i in minimal}
    if len(min_dims) != 1:
        raise InternalConsistencyError(
            f"minimal flats have unequal dimensions {sorted(min_dims)}"
        )
    n0 = min_dims.pop()
    return IntersectionPoset(
        arrangement=a,
        flats=tuple(flats),
        strictly_below=tuple(below),
        strictly_above=tuple(frozenset(s) for s in above),
        covers=covers,
        minimal_flats=minimal,
        n0=n0,
        rank_l=n - n0,
    )


def _integer_multiple(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The vector times the lcm of its denominators: same zero tests, in ints."""
    scale = math.lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values)


def poset_subspaces_bruteforce(a: Arrangement) -> frozenset[AffineSubspace]:
    """2^|A| oracle: every nonempty subset intersection, plus the top.

    Exponential; the tests' reference for `nbc_flats`, never used to
    build posets or by `verify`.
    """
    n = a.ambient_dim
    hyper_subspaces = [h.subspace() for h in a.hyperplanes]
    found = {AffineSubspace.whole_space(n)}
    for r in range(1, len(hyper_subspaces) + 1):
        for subset in itertools.combinations(hyper_subspaces, r):
            current: AffineSubspace | None = subset[0]
            for hs in subset[1:]:
                current = intersect_flats(current, hs)
                if current is None:
                    break
            if current is not None:
                found.add(current)
    return frozenset(found)


def nbc_flats(a: Arrangement) -> tuple[frozenset[AffineSubspace], tuple[int, ...]]:
    """The flats of A (top included) and its NBC set counts by size, b_k.

    In index order, independent S = {s_1 < ... < s_k} is no-broken-circuit
    iff no H_u, u < s_j, contains H_{s_j} ∩ ... ∩ H_{s_k}, for each j.  Every
    flat is the intersection of an NBC set (Orlik-Terao, ch. 3).  Prepend
    t < s_1 to S, with ∩S = X: H_u ⊇ X ∩ H_t iff X ∩ H_u = X ∩ H_t, so a
    nonempty cut is a new NBC set iff no smaller t cut X the same way.  The
    normals of a flat of codimension r = rank(normals) span every normal,
    so a hyperplane not containing it misses it: such an X is not cut.
    """
    hyper_subspaces = [h.subspace() for h in a.hyperplanes]
    _, r = rref_rank(RationalMatrix(tuple(h.normal for h in a.hyperplanes), a.ambient_dim))
    found = {AffineSubspace.whole_space(a.ambient_dim)}
    counts = [1] + [0] * a.ambient_dim
    stack = list(enumerate(hyper_subspaces))
    while stack:
        first, x = stack.pop()
        found.add(x)
        counts[x.codim] += 1
        if x.codim == r:
            continue
        cuts = set()
        for t in range(first):
            cut = intersect_flats(x, hyper_subspaces[t])
            if cut is not None and cut not in cuts:
                cuts.add(cut)
                stack.append((t, cut))
    while counts[-1] == 0:
        counts.pop()
    return frozenset(found), tuple(counts)


@record
class ArrangementStats:
    """The rank l, centrality, essentiality and n0 (the dimension of the minimal flats) of A."""

    rank_l: int
    is_central: bool
    is_essential: bool
    n0: int


def arrangement_stats(p: IntersectionPoset) -> ArrangementStats:
    """Rank, centrality, essentiality.  The empty arrangement is central:
    the top is then the unique element of the poset, hence its minimum."""
    return ArrangementStats(
        rank_l=p.rank_l,
        is_central=len(p.minimal_flats) == 1,
        is_essential=p.n0 == 0,
        n0=p.n0,
    )


def subarrangement_at(a: Arrangement, g: Flat) -> Arrangement:
    """The central sub-arrangement A_G = {H in A : H contains G}.

    Re-derived by row reduction and checked against G; an oracle for the
    containing sets the poset stores, which `decompose` reads instead.
    """
    hyper_subspaces = [h.subspace() for h in a.hyperplanes]
    containing = [i for i, hs in enumerate(hyper_subspaces) if hs.contains(g.subspace)]
    common = AffineSubspace.whole_space(a.ambient_dim)
    for i in containing:
        cut = intersect_flats(common, hyper_subspaces[i])
        assert cut is not None  # all contain g's nonempty subspace
        common = cut
    if common != g.subspace:
        raise InputError("subspace is not a flat of this arrangement")
    return Arrangement(a.ambient_dim, tuple(a.hyperplanes[i] for i in containing))


@record
class FlatChart:
    """Deterministic rational affine chart on a flat G.

    The chart coordinates are G's free variables (non-pivot columns of
    its canonical system), so the chart map and its equation pullback are
    reproducible bit for bit from the canonical form alone.
    """

    subspace: AffineSubspace
    pivots: tuple[int, ...]
    free: tuple[int, ...]

    @staticmethod
    def for_subspace(s: AffineSubspace) -> FlatChart:
        pivots = s.pivot_columns()
        pivot_set = set(pivots)
        free = tuple(c for c in range(s.ambient_dim) if c not in pivot_set)
        return FlatChart(s, pivots, free)

    @property
    def dim(self) -> int:
        return len(self.free)

    def pull_equation(
        self, normal: Sequence[Fraction], offset: Fraction
    ) -> tuple[Vector, Fraction]:
        """Restrict an ambient equation normal.x = offset to chart coordinates."""
        rows = self.subspace.system.entries
        coeffs = []
        for j, f in enumerate(self.free):
            c = normal[f] - sum(
                (normal[self.pivots[i]] * rows[i][f] for i in range(len(self.pivots))),
                Fraction(0),
            )
            coeffs.append(c)
        const = offset - sum(
            (normal[self.pivots[i]] * self.subspace.rhs[i] for i in range(len(self.pivots))),
            Fraction(0),
        )
        return tuple(coeffs), const

    def push_subspace(self, s: AffineSubspace) -> AffineSubspace:
        """Image in ambient space of a chart-coordinate subspace.

        A chart equation sum c_j y_j = r means sum c_j x_{free_j} = r on G,
        so the image is cut out by G's system plus the re-embedded rows.
        """
        n = self.subspace.ambient_dim
        rows = list(self.subspace.system.entries)
        rhs = list(self.subspace.rhs)
        for i, row in enumerate(s.system.entries):
            ambient_row = [Fraction(0)] * n
            for j, f in enumerate(self.free):
                ambient_row[f] = row[j]
            rows.append(tuple(ambient_row))
            rhs.append(s.rhs[i])
        result = solve_affine(RationalMatrix(tuple(rows), n), rhs)
        assert result is not None  # the image of a nonempty set is nonempty
        return result


@record
class RestrictedArrangement:
    """The arrangement A∩G of codimension-one flats inside G, in chart coords.

    `flat_indices[i]` is the poset index of the flat realizing hyperplane i.
    """

    flat: Flat
    arrangement: Arrangement
    flat_indices: tuple[int, ...]
    chart: FlatChart


def restriction_covers(p: IntersectionPoset, g: Flat) -> list[int]:
    """The flats K covered by G, in the order of A∩G's hyperplanes.

    A hyperplane H meeting G but not containing it lies in one cover only,
    G ∩ H, so the sets C(K) - C(G) are disjoint.  Sorting by their minima
    is then the lexicographic order of the sorted C(K), with no ties: if
    a = min(C(K) - C(G)) < min(C(K') - C(G)), then C(K) and C(K') agree
    below a, and only C(K) holds a.
    """
    if g.index >= len(p.flats) or p.flats[g.index] != g:
        raise InputError("flat does not belong to this poset")
    c_g = g.containing_hyperplanes
    return sorted(p.covers[g.index], key=lambda j: min(p.flats[j].containing_hyperplanes - c_g))


def restriction_to(p: IntersectionPoset, g: Flat) -> RestrictedArrangement:
    """Flats one dimension below G, packaged as an arrangement inside G.

    A flat K covered by G is G ∩ H for any H containing K but not G, so
    its chart hyperplane is H's equation pulled back to G's chart.
    """
    covered = restriction_covers(p, g)
    chart = FlatChart.for_subspace(g.subspace)
    hyperplanes = []
    for j in covered:
        h = p.arrangement.hyperplanes[
            min(p.flats[j].containing_hyperplanes - g.containing_hyperplanes)
        ]
        normal, offset = chart.pull_equation(h.normal, h.offset)
        if all(x == 0 for x in normal):
            raise InternalConsistencyError(
                "codimension-one flat does not restrict to a chart hyperplane"
            )
        hyperplanes.append(Hyperplane.from_coeffs(normal, offset))
    return RestrictedArrangement(
        flat=g,
        arrangement=Arrangement(chart.dim, tuple(hyperplanes)),
        flat_indices=tuple(covered),
        chart=chart,
    )


def essential_arrangement(
    center: AffineSubspace, hyperplanes: Sequence[Hyperplane]
) -> Arrangement:
    """Hyperplanes through `center` as an essential arrangement in C^k.

    The center's canonical system M x = r is in rref with pivot columns
    p_1 < ... < p_k, so a normal a = c M has c = (a[p_1], ..., a[p_k]) in
    the coordinates u = M x - r, canonically scaled when a is.
    """
    pivots = center.pivot_columns()
    columns = [center.system.column(j) for j in range(center.ambient_dim)]
    essential = []
    for h in hyperplanes:
        c = tuple(h.normal[p] for p in pivots)
        if (tuple(dot(c, col) for col in columns) != h.normal
                or dot(c, center.rhs) != h.offset):
            raise InternalConsistencyError("hyperplane does not contain the center")
        essential.append(Hyperplane.from_coeffs(c, 0))
    return Arrangement(len(pivots), tuple(essential))


def essentialize_with_chart(
    a: Arrangement,
) -> tuple[Arrangement, RationalMatrix, Vector]:
    """Split off the center of a central arrangement.

    Returns (essential arrangement in C^l, M, s) where the quotient
    coordinates are u = M x + s; each hyperplane a.x = b with a = c M
    becomes {u : c.u = 0}.  The intersection poset maps isomorphically
    under u (flats map to flats through the affine image).
    """
    normals = tuple(h.normal for h in a.hyperplanes)
    center = solve_affine(RationalMatrix(normals, a.ambient_dim), [h.offset for h in a.hyperplanes])
    if center is None:
        raise InputError("arrangement is not central")
    shift = tuple(-b for b in center.rhs)
    return essential_arrangement(center, a.hyperplanes), center.system, shift


def essentialize(a: Arrangement) -> Arrangement:
    """Essential arrangement with isomorphic poset; requires central input."""
    return essentialize_with_chart(a)[0]
