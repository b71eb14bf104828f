"""Topological oracle: nerve of the hyperplane cover of the singular set,
and integer simplicial homology via Smith normal form.

The singular set (union of the hyperplanes) is covered by the
hyperplanes themselves: a finite closed cover by convex sets whose
nonempty intersections are affine subspaces, hence contractible, so the
nerve has the homology of the singular set.  That turns "the singular
set is a wedge of (l-1)-spheres" into a finite check: reduced nerve
homology must be torsion-free and concentrated in degree l-1, and its
rank there is the beta invariant.

A subset of hyperplanes spans a nerve simplex iff some flat lies in all
of them.  For the restriction A∩G, whose hyperplanes are the flats K
covered by G, a flat X < G lies in K iff C(X) meets C(K) - C(G), so the
nerve of every A∩G is read straight off A's poset (at the top, A∩G = A).
A∩G has rank l(G) = d(G) - n0, its minimal flats being A's below G.
Simplices above dimension l(G)+1 are dropped: homology in degrees <= l(G)
only needs chains up to dimension l(G)+1, and degrees above l(G)-1 are
exactly the ones being checked for vanishing.

Boundary matrices have +-1 entries, so Smith normal form first
eliminates unit pivots sparsely, least fill-in first, and runs dense
elimination only on what is left (Dumas-Saunders-Villard 2001;
Kaczynski-Mrozek-Slusarek 1998).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Sequence

from ._record import record
from .arrangement import Flat, IntersectionPoset, restriction_covers
from .errors import InputError, ResourceCapError

DEFAULT_NERVE_ORACLE_CAP = 12

Simplex = tuple[int, ...]


@record
class SimplicialComplex:
    """Abstract simplicial complex, closed under taking faces.

    Simplices are strictly increasing vertex-index tuples.
    """

    vertex_count: int
    simplices: frozenset[Simplex]

    @property
    def max_dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    @staticmethod
    def from_maximal(vertex_count: int, faces: Sequence[Sequence[int]]) -> SimplicialComplex:
        """Close the given faces under subsets."""
        closed: set[Simplex] = set()
        for face in faces:
            ordered = tuple(sorted(set(face)))
            for r in range(1, len(ordered) + 1):
                closed.update(itertools.combinations(ordered, r))
        return SimplicialComplex(vertex_count, frozenset(closed))

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == d + 1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)


def build_singular_nerve(p: IntersectionPoset, g: Flat | None = None) -> SimplicialComplex:
    """Nerve of the cover of the singular set of A∩G by its hyperplanes.

    G defaults to the top, where A∩G = A.  Vertex k is A∩G's k-th
    hyperplane (`restriction_covers`); the simplices are the sets of covers
    met by C(X) - C(G), X < G, up to dimension l(G) + 1.  The cap counts |A∩G|.
    """
    g = g or p.top
    covered, c_g = restriction_covers(p, g), g.containing_hyperplanes
    if not covered:
        raise InputError(f"A∩G is empty at flat {g.index}: an empty singular set has no nerve")
    if len(covered) > DEFAULT_NERVE_ORACLE_CAP:
        raise ResourceCapError(
            f"{len(covered)} hyperplanes exceeds the oracle cap of {DEFAULT_NERVE_ORACLE_CAP}"
        )
    vertex = {
        h: k for k, j in enumerate(covered) for h in p.flats[j].containing_hyperplanes - c_g
    }
    max_vertices = p.level(g) + 2  # simplices of dimension <= l(G) + 1
    simplices: set[Simplex] = set()
    for x in p.strictly_below[g.index]:
        members = sorted({vertex[h] for h in p.flats[x].containing_hyperplanes - c_g})
        for r in range(1, min(len(members), max_vertices) + 1):
            simplices.update(itertools.combinations(members, r))
    return SimplicialComplex(len(covered), frozenset(simplices))


def nerve_is_truncated(p: IntersectionPoset) -> bool:
    """True when some flat's containing set exceeds the dimension cap,
    i.e. the built nerve dropped simplices (so its Euler characteristic
    is not that of the full nerve)."""
    cap = p.rank_l + 2
    return any(len(f.containing_hyperplanes) > cap for f in p.flats)


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    Phase 1 eliminates unit pivots sparsely.  The nonzero entries are held
    as row dicts {col: value} with an index from each column to its rows.
    While some entry is +-1, the one of least Markowitz cost
    (|row| - 1)(|col| - 1) is taken, ties going to the least (row, col);
    every other row meeting its column is cleared by subtracting a
    multiple of the pivot row, and the pivot row and column are dropped.
    Each step is a Z-equivalence M ~ diag(1) + M': the row operations are
    unimodular, and the pivot row's other entries are cleared by column
    operations that touch no other row.

    Phase 2 runs dense elimination on the remainder M', which is small or
    empty for nerve boundary matrices.  SNF is unique and 1 divides
    everything, so the result is (1,) * units followed by the remainder's
    factors; torsion comes out of the remainder.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(m):
        entries = {j: int(x) for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
            for j in entries:
                col_rows.setdefault(j, set()).add(i)
    # Every unit entry sits in the heap under its current (cost, row, col);
    # an entry whose row or column changes size is pushed again, and a
    # popped entry that no longer matches its matrix entry is stale.
    heap: list[tuple[int, int, int]] = []

    def push_units(i: int, cols: Iterable[int]) -> None:
        row = rows[i]
        width = len(row) - 1
        for j in cols:
            if abs(row[j]) == 1:
                heapq.heappush(heap, (width * (len(col_rows[j]) - 1), i, j))

    for i, row in rows.items():
        push_units(i, row)
    units = 0
    while heap:
        cost, p, q = heapq.heappop(heap)
        pivot_row = rows.get(p)
        if (
            pivot_row is None
            or abs(pivot_row.get(q, 0)) != 1
            or cost != (len(pivot_row) - 1) * (len(col_rows[q]) - 1)
        ):
            continue
        del rows[p]
        u = pivot_row[q]
        for j in pivot_row:
            col_rows[j].discard(p)
        touched = col_rows.pop(q)
        for i in touched:
            row = rows[i]
            f = row[q] * u  # u = 1/u for a unit
            for j, x in pivot_row.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    if j != q:
                        col_rows[j].discard(i)
            if not row:
                del rows[i]
        units += 1
        for i in touched:
            if i in rows:
                push_units(i, rows[i])
        for j in pivot_row:
            if j != q:
                for i in col_rows[j] - touched:
                    push_units(i, (j,))
    used = sorted({j for row in rows.values() for j in row})
    rest = [[row.get(j, 0) for j in used] for row in rows.values()]
    return (1,) * units + _dense_smith_normal_form(rest)


def _dense_smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors by dense elimination on the whole matrix.

    Exact integer elimination, pivoting on the minimal absolute value to
    control coefficient growth; the divisibility chain is enforced on the
    resulting diagonal with gcd/lcm exchanges (diag(a, b) is equivalent
    to diag(gcd, lcm) over Z).
    """
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diagonal: list[int] = []
    k = 0
    while k < min(rows, cols):
        # Find the minimal-absolute-value nonzero entry in the corner block.
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[k], a[bi] = a[bi], a[k]
        for row in a:
            row[k], row[bj] = row[bj], row[k]
        while True:
            # Clear the pivot column with row operations.
            redo = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]  # strictly smaller remainder
                        redo = True
            if redo:
                continue
            # Clear the pivot row with column operations.
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    if q:
                        for row in a:
                            row[j] -= q * row[k]
                    if a[k][j] != 0:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        redo = True
                        break
            if not redo:
                break
        diagonal.append(abs(a[k][k]))
        k += 1
    # Enforce d1 | d2 | ... | dr.
    changed = True
    while changed:
        changed = False
        for i in range(len(diagonal)):
            for j in range(i + 1, len(diagonal)):
                if diagonal[j] % diagonal[i] != 0:
                    g = math.gcd(diagonal[i], diagonal[j])
                    diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
                    changed = True
    return tuple(diagonal)


@record
class HomologyGroup:
    """H_degree as Z^free_rank plus the cyclic torsion factors Z/t."""

    degree: int
    free_rank: int
    torsion: tuple[int, ...]

    def to_json(self) -> dict:
        return {"degree": self.degree, "rank": self.free_rank, "torsion": list(self.torsion)}


@record
class HomologyResult:
    """Integer homology per degree 0..max_dim (free rank plus torsion)."""

    groups: tuple[HomologyGroup, ...]

    def free_rank(self, k: int) -> int:
        if 0 <= k < len(self.groups):
            return self.groups[k].free_rank
        return 0

    def torsion(self, k: int) -> tuple[int, ...]:
        if 0 <= k < len(self.groups):
            return self.groups[k].torsion
        return ()

    def reduced_rank(self, k: int) -> int:
        rank = self.free_rank(k)
        return rank - 1 if k == 0 else rank


def boundary_matrix(c: SimplicialComplex, k: int) -> list[list[int]]:
    """Matrix of the boundary map C_k -> C_{k-1} in the sorted simplex bases."""
    k_simplices = c.simplices_of_dim(k)
    faces = c.simplices_of_dim(k - 1)
    face_index = {s: i for i, s in enumerate(faces)}
    matrix = [[0] * len(k_simplices) for _ in range(len(faces))]
    for col, simplex in enumerate(k_simplices):
        for drop in range(len(simplex)):
            face = simplex[:drop] + simplex[drop + 1 :]
            matrix[face_index[face]][col] = (-1) ** drop
    return matrix


def simplicial_homology(c: SimplicialComplex) -> HomologyResult:
    """Integer homology via Smith normal forms of the boundary matrices."""
    top = c.max_dim
    if top < 0:
        return HomologyResult(())
    counts = [len(c.simplices_of_dim(k)) for k in range(top + 1)]
    factors: list[tuple[int, ...]] = []
    for k in range(top + 2):
        if 1 <= k <= top and counts[k] > 0 and counts[k - 1] > 0:
            factors.append(smith_normal_form(boundary_matrix(c, k)))
        else:
            factors.append(())
    groups = []
    for k in range(top + 1):
        rank_dk = len(factors[k])
        rank_dk1 = len(factors[k + 1])
        free = counts[k] - rank_dk - rank_dk1
        torsion = tuple(d for d in factors[k + 1] if d > 1)
        groups.append(HomologyGroup(k, free, torsion))
    return HomologyResult(tuple(groups))


@record
class WedgeCheck:
    """Result of checking the wedge-of-spheres shape of the singular set."""

    beta: int
    is_wedge: bool
    nerve: SimplicialComplex
    homology: HomologyResult


def sigma_wedge_check(p: IntersectionPoset, g: Flat | None = None) -> WedgeCheck:
    """Homology-level wedge check for the singular set of A∩G (G = top: A).

    With l = l(G), is_wedge is true iff reduced nerve homology in degrees
    0..l is torsion-free and vanishes outside degree l-1; beta is the free
    rank in degree l-1 (for l = 1 this is components - 1).  `homology`
    keeps degrees 0..l only: the nerve is truncated above dimension l+1,
    so its degree-(l+1) group is not homology of the singular set.  A
    false result is reportable, not an error; an empty A∩G and one above
    the nerve cap are rejected by `build_singular_nerve`.
    """
    nerve = build_singular_nerve(p, g)
    l = p.level(g or p.top)
    hom = HomologyResult(simplicial_homology(nerve).groups[: l + 1])
    is_wedge = True
    for k in range(l + 1):
        if hom.torsion(k):
            is_wedge = False
        if k != l - 1 and hom.reduced_rank(k) != 0:
            is_wedge = False
    beta = hom.reduced_rank(l - 1)
    return WedgeCheck(beta=beta, is_wedge=is_wedge, nerve=nerve, homology=hom)
