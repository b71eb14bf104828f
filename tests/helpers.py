"""Independent oracles and arrangement families shared across test modules.

The oracles deliberately avoid the library's own code paths: the
determinant is cofactor expansion and the inverse is the adjugate, not
elimination, so rank, Smith-normal-form and deconing claims are checked
against arithmetic the package never performs.  The restriction A∩G is
re-derived by row reducing each covered flat's pulled-back system, its
nerve by `reference_nerve` from every flat below G (the package reads it
off the minimal flats alone), the poset's flats by a closure that cuts
in `Fraction` row reduction (the package's exact core before it moved to
integer rows, kept below as the reference), and an arrangement's
chambers by `reference_chambers`, which splits regions one
hyperplane at a time in the arrangement's own chart, with rational
witnesses and its own recession rays (the package reads every
restriction's chambers off one face list of A instead).  The Möbius
function is pulled up the containing sets by `reference_mobius_interval`
(the package pushes it down its one stored order).
The flat utilities below them (`flat_relation`, `affine_image`,
`flat_for`) and the Fourier-Motzkin witnesses (`feasible_point`,
`satisfies`, `chamber_system`) serve only tests, so they live here and
not in the package.  So do the expanders (`expand_report`,
`expand_modules`), which turn the `decompose` report and records back
into the fully expanded tree `decompose` once printed, and
`normalize_module_expr`, the general normal form of such a tree: the
expanded trees are in that form, and the tests compare them against it.
The command line is checked against the `argparse` parser it was read with
(`reference_parser`), and the input reader against reading every value
but an int through `Fraction` (`reference_integer_row`).
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import pathlib
import random
import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from hypothesis import strategies as st

from arrcoh.arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
    arrangement_from_coeffs,
    assemble_poset,
    restriction_covers,
)
from arrcoh.chambers import Chamber, LinearSystem, _elimination_levels
from arrcoh.arrangement import DEFAULT_MAX_HYPERPLANES
from arrcoh.cli import COMMANDS, equations_str, load_arrangement
from arrcoh.decomposition import (
    DUALITY_NOTE,
    L2_NOTE,
    Copies,
    Free,
    Induced,
    ModuleExpr,
    Sum,
    TensorTrivial,
    TrivialZ,
    decone_flats,
    graded_piece_is_trivial_z,
)
from arrcoh.errors import InputError
from arrcoh.exact_linalg import AffineSubspace, Row, Vector, solve_affine
from arrcoh.invariants import beta_all_flats
from arrcoh.nerve_homology import SimplicialComplex

# --- the command line and the input reader, as they were -----------------
#
# `arrcoh` read its command line with this `argparse` parser, and every
# input value that was not an int through `Fraction`.  The package now
# parses the command line by hand and reads integer strings with `int`;
# both old routes are kept as the references the new ones are tested
# against.


def reference_parser() -> argparse.ArgumentParser:
    """The `argparse` parser of `arrcoh`'s command line."""
    parser = argparse.ArgumentParser(
        prog="arrcoh",
        description=(
            "Intersection-poset invariants and the graded group-ring "
            "cohomology decomposition of a rational hyperplane arrangement "
            "complement."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="arrangement JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-hyperplanes",
        type=int,
        default=DEFAULT_MAX_HYPERPLANES,
        help=f"cap on the number of hyperplanes (default {DEFAULT_MAX_HYPERPLANES})",
    )
    return parser


def reference_parse_args(argv: list[str]) -> tuple[str, str, str, int]:
    """(command, input, format, max_hyperplanes) as `reference_parser`
    read them; raises SystemExit on `--help` and on a usage error."""
    parser = reference_parser()
    args = parser.parse_args(argv)
    if args.max_hyperplanes <= 0:
        parser.error("--max-hyperplanes must be positive")
    return args.command, args.input, args.format, args.max_hyperplanes


_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")


def reference_as_rational(value: int | str | Fraction) -> Fraction:
    """Any input value as a `Fraction`, or InputError."""
    if isinstance(value, float):
        raise InputError(f"floating point value not allowed: {value!r}")
    if isinstance(value, bool):
        raise InputError(f"boolean value not allowed: {value!r}")
    if isinstance(value, str) and _EXPONENT.search(value):
        raise InputError(f"exponent notation not allowed: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {value!r}") from exc


def reference_integer_row(values: Sequence[int | str | Fraction]) -> Row:
    """The values, each but an int read as a `Fraction`, times the lcm of
    their denominators."""
    if all(type(x) is int for x in values):
        return tuple(values)
    v = [reference_as_rational(x) for x in values]
    scale = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


# --- the Fraction reference for the integer core ------------------------
#
# The package's exact core once ran on `Fraction` rows: the reduced row
# echelon form with pivots 1, built by one row-insertion routine.  It now
# runs on primitive integer rows.  The `Fraction` routines are kept here as
# the reference the integer ones are tested against, over (system, rhs)
# pairs of `Fraction` tuples.


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise InputError(f"dot product length mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _insert_row(
    rows: list[list[Fraction]], pivots: list[int], new: list[Fraction], stop: int
) -> int | None:
    """Join `new` to the reduced system (rows, ascending pivots) in place;
    return its pivot, or None when it reduces to zero.  A leading column at
    or after `stop` is returned without joining."""
    for row, p in zip(rows, pivots):
        c = new[p]
        if c != 0:
            new = [a - c * b for a, b in zip(new, row)]
    lead = next((j for j, x in enumerate(new) if x != 0), None)
    if lead is None or lead >= stop:
        return lead
    pv = new[lead]
    if pv != 1:
        new = [x / pv for x in new]
    for i, row in enumerate(rows):
        c = row[lead]
        if c != 0:
            rows[i] = [a - c * b for a, b in zip(row, new)]
    k = bisect.bisect(pivots, lead)
    rows.insert(k, new)
    pivots.insert(k, lead)
    return lead


def reference_rref(
    rows: Iterable[Sequence[Fraction]], cols: int
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form (pivots 1, zero rows dropped) and its pivots."""
    reduced, pivots = [], []
    for row in rows:
        _insert_row(reduced, pivots, [Fraction(x) for x in row], cols)
    return tuple(map(tuple, reduced)), tuple(pivots)


def _kernel(rows: Sequence[Vector], pivots: Sequence[int], cols: int) -> tuple[Vector, ...]:
    """Kernel of a reduced system: per free column f, ascending, 1 at f and
    minus the pivot rows' entries in column f at their pivots."""
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


FractionFlat = tuple[tuple[Vector, ...], Vector]  # (system, rhs) in rref


def reference_solve(
    system: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], n: int
) -> FractionFlat | None:
    """The rref (system, rhs) of `system x = rhs`, or None when it is empty."""
    rows, pivots = [], []
    for row, b in zip(system, rhs):
        if _insert_row(rows, pivots, [Fraction(x) for x in row] + [Fraction(b)], n) == n:
            return None
    return tuple(tuple(r[:n]) for r in rows), tuple(r[n] for r in rows)


def reference_intersect(f1: FractionFlat, f2: FractionFlat, n: int) -> FractionFlat | None:
    """f1 ∩ f2 by joining f2's rows to f1's reduced rows; None when disjoint."""
    rows = [list(row) + [b] for row, b in zip(*f1)]
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in f1[0]]
    for row, b in zip(*f2):
        if _insert_row(rows, pivots, list(row) + [b], n) == n:
            return None
    return tuple(tuple(r[:n]) for r in rows), tuple(r[n] for r in rows)


def reference_pull(
    flat: AffineSubspace, normal: Sequence[Fraction], offset: Fraction
) -> tuple[Vector, Fraction]:
    """normal.x = offset restricted to the flat, in its chart (its free
    columns, ascending): on the flat x_{p_i} = r_i - M_i.y, so the
    coefficient of free column f is normal[f] - sum_i normal[p_i] M_i[f],
    and the constant is offset - sum_i normal[p_i] r_i."""
    pivots = flat.pivot_columns()
    free = [f for f in range(flat.ambient_dim) if f not in pivots]
    coeffs = [Fraction(normal[f]) for f in free]
    const = Fraction(offset)
    for row, p, r in zip(flat.system, pivots, flat.rhs):
        w = normal[p]
        for j, f in enumerate(free):
            coeffs[j] -= w * row[f]
        const -= w * r
    return tuple(coeffs), const


def reference_sort_key(s: AffineSubspace) -> tuple:
    """The poset's order on flats: descending dimension, then the rref rows
    with pivots 1, compared as Fractions."""
    return (-s.dim, s.system, s.rhs)


def scaled_rows(system: Sequence[Vector], rhs: Vector) -> tuple[Row, ...]:
    """Each rref row (row | b) times the lcm of its denominators: the
    package's canonical integer rows of the same subspace."""
    scaled = []
    for row, b in zip(system, rhs):
        values = tuple(row) + (b,)
        scale = math.lcm(*(x.denominator for x in values))
        scaled.append(tuple(x.numerator * (scale // x.denominator) for x in values))
    return tuple(scaled)


CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_file(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.json")


def load_corpus() -> dict[str, Arrangement]:
    """The corpus files by name, loaded as the CLI loads them."""
    return {
        path.stem: load_arrangement(str(path))
        for path in sorted(CORPUS_DIR.glob("*.json"))
    }


class FlatRelation(Enum):
    EQUAL = "EQUAL"
    F1_STRICTLY_CONTAINS_F2 = "F1_STRICTLY_CONTAINS_F2"
    F2_STRICTLY_CONTAINS_F1 = "F2_STRICTLY_CONTAINS_F1"
    INCOMPARABLE = "INCOMPARABLE"


def null_space_basis(rows: Sequence[Sequence[Fraction]], cols: int) -> tuple[Vector, ...]:
    """Basis of {x : rows x = 0}, one vector per free column of the rref."""
    reduced, pivots = reference_rref(rows, cols)
    return _kernel(reduced, pivots, cols)


def flat_relation(f1: AffineSubspace, f2: AffineSubspace) -> FlatRelation:
    """Exact containment classification of two nonempty flats."""
    if not isinstance(f1, AffineSubspace) or not isinstance(f2, AffineSubspace):
        raise InputError("flat_relation requires nonempty affine subspaces")
    if f1.ambient_dim != f2.ambient_dim:
        raise InputError("ambient dimension mismatch")
    if f1 == f2:
        return FlatRelation.EQUAL
    if f1.contains(f2):
        return FlatRelation.F1_STRICTLY_CONTAINS_F2
    if f2.contains(f1):
        return FlatRelation.F2_STRICTLY_CONTAINS_F1
    return FlatRelation.INCOMPARABLE


def affine_image(
    s: AffineSubspace, m_rows: Sequence[Vector], shift: Sequence[Fraction]
) -> AffineSubspace:
    """Image of a subspace under the affine map x -> M x + shift, M given
    by its rows; `dot` rejects a row whose width is not s.ambient_dim."""
    point, directions = s.parametrize()
    image_point = tuple(dot(row, point) + c for row, c in zip(m_rows, shift))
    image_dirs = tuple(tuple(dot(row, d) for row in m_rows) for d in directions)
    return from_point_and_directions(len(m_rows), image_point, image_dirs)


def from_point_and_directions(
    n: int, point: Sequence[Fraction], directions: Sequence[Vector]
) -> AffineSubspace:
    """Smallest affine subspace of Q^n through `point` containing the directions."""
    normals = null_space_basis(directions, n)
    result = solve_affine(normals, [dot(a, point) for a in normals], n)
    assert result is not None  # consistent by construction
    return result


def flat_for(p: IntersectionPoset, subspace: AffineSubspace) -> Flat | None:
    """The flat of p with the given subspace, or None."""
    return next((f for f in p.flats if f.subspace == subspace), None)


def feasible_point(s: LinearSystem) -> Vector | None:
    """A rational point satisfying the system, via back-substitution.

    Used as an exactness witness for `fm_feasible` in tests: every
    feasibility claim can be certified by an explicit point.
    """
    levels = _elimination_levels(s)
    if levels is None:
        return None
    point = [Fraction(0)] * s.ambient_dim
    for var in range(s.ambient_dim - 1, -1, -1):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for c in levels[var]:
            coef = c.coeffs[var]
            if coef == 0:
                continue
            rest = sum(
                (c.coeffs[j] * point[j] for j in range(len(c.coeffs)) if j != var),
                Fraction(0),
            )
            bound = (c.rhs - rest) / coef
            if coef > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None and hi is None:
            point[var] = Fraction(0)
        elif lo is None:
            point[var] = hi - 1
        elif hi is None:
            point[var] = lo + 1
        else:
            point[var] = (lo + hi) / 2
    return tuple(point)


def satisfies(s: LinearSystem, point: Sequence[Fraction]) -> bool:
    for c in s.constraints:
        value = dot(c.coeffs, point)
        if c.strict:
            if not value < c.rhs:
                return False
        elif not value <= c.rhs:
            return False
    return True


def chamber_system(a: Arrangement, signs: Sequence[str]) -> LinearSystem:
    relations = []
    for h, sign in zip(a.hyperplanes, signs):
        rel = ">" if sign == "+" else "<"
        relations.append((h.normal, h.offset, rel))
    return LinearSystem.from_relations(a.ambient_dim, relations)


def _restriction_points(
    rows: Sequence[tuple[Vector, Fraction]], normal: Vector, offset: Fraction
) -> list[Vector]:
    """A point of every region of `rows` cut down to {normal.x = offset}.

    Every row is canonically scaled (lead 1), so the hyperplane's one-row
    system is its canonical form, charted by its free columns: all but
    its first nonzero coordinate p.  Hyperplanes parallel to it leave no
    trace; traces that coincide are merged, so the restriction is again a
    set of distinct, canonically scaled hyperplanes, one dimension down.
    """
    flat = Hyperplane.from_coeffs(normal, offset).subspace()
    traces: dict[tuple[Vector, Fraction], None] = {}
    for a, b in rows:
        trace, const = reference_pull(flat, a, b)
        lead = next((c for c in trace if c != 0), None)
        if lead is not None:
            if lead != 1:
                trace, const = tuple(c / lead for c in trace), const / lead
            traces.setdefault((trace, const))
    # Lift y to x_p = offset - sum over the free columns of normal_i y_i.
    p = flat.pivot_columns()[0]
    rest = [(c, i - (i > p)) for i, c in enumerate(normal) if c != 0 and i != p]
    points = []
    for y in _region_witnesses(list(traces), flat.dim).values():
        x_p = offset - sum((c * y[j] for c, j in rest), Fraction(0))
        points.append(y[:p] + (x_p,) + y[p:])
    return points


def _region_witnesses(rows: Sequence[tuple[Vector, Fraction]], n: int) -> dict[str, Vector]:
    """An interior rational point of every region of the real arrangement
    `rows` (distinct hyperplanes a.x = b in Q^n), keyed by sign vector.

    Deletion-restriction: H_k splits exactly the regions that meet it,
    and those are the regions holding a point of some region of the
    restriction to H_k.  Each such point x on H_k gives the two new
    witnesses x +- delta a_k, with delta short enough not to reach any
    earlier hyperplane.  A region that H_k does not split keeps its
    witness, which then lies off H_k.
    """
    regions: dict[str, Vector] = {"": (Fraction(0),) * n}
    for k, (a_k, b_k) in enumerate(rows):
        earlier = rows[:k]
        slopes = [dot(a, a_k) for a, _ in earlier]
        split: dict[str, Vector] = {}
        for x in _restriction_points(earlier, a_k, b_k):
            values = [dot(a, x) - b for a, b in earlier]
            signs = "".join("+" if v > 0 else "-" for v in values)
            reach = [abs(v / slope) for v, slope in zip(values, slopes) if slope != 0]
            delta = min(reach) / 2 if reach else Fraction(1)
            split[signs + "+"] = tuple(v + delta * c for v, c in zip(x, a_k))
            split[signs + "-"] = tuple(v - delta * c for v, c in zip(x, a_k))
        regions = {
            signs + ("+" if dot(a_k, w) > b_k else "-"): w
            for signs, w in regions.items()
            if signs + "+" not in split
        } | split
    return regions


def _recession_rays(normals: Sequence[Vector], n: int) -> set[tuple[int, int]] | None:
    """The candidate extreme rays of every chamber's recession cone, as
    (mask of i with a_i.d > 0, mask of i with a_i.d < 0); None when the
    normals have rank < n, so that every chamber holds a line.

    With rank n each recession cone {d : s_i a_i.d >= 0} is pointed, so
    it is nonzero iff it has an extreme ray; such a ray is cut out by
    n - 1 independent tight constraints, hence is +-d for d spanning the
    null space of n - 1 independent normals.
    """
    distinct = list(dict.fromkeys(normals))
    if len(reference_rref(distinct, n)[1]) < n:
        return None
    rays: set[tuple[int, int]] = set()
    for subset in itertools.combinations(distinct, n - 1) if n else ():  # Q^0 is a point
        basis = null_space_basis(subset, n)
        if len(basis) != 1:
            continue
        for d in (basis[0], tuple(-c for c in basis[0])):
            values = [dot(a, d) for a in normals]
            rays.add((
                sum(1 << i for i, v in enumerate(values) if v > 0),
                sum(1 << i for i, v in enumerate(values) if v < 0),
            ))
    return rays


def reference_chambers(a: Arrangement) -> tuple[Chamber, ...]:
    """Every chamber of `a` in sign-vector order, by splitting its regions
    hyperplane by hyperplane in its own chart, each restriction's regions
    from the same routine one dimension down, with its own recession rays.
    """
    rows = [(h.normal, h.offset) for h in a.hyperplanes]
    rays = _recession_rays([h.normal for h in a.hyperplanes], a.ambient_dim)
    chambers = []
    for signs in sorted(_region_witnesses(rows, a.ambient_dim)):
        plus = sum(1 << i for i, s in enumerate(signs) if s == "+")
        bounded = rays is not None and not any(
            up & ~plus == 0 and down & plus == 0 for up, down in rays
        )
        chambers.append(Chamber(signs, bounded))
    return tuple(chambers)


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
    every cut is a `reference_intersect` keyed by its rref, and each new
    flat's containing set comes from dot products with its point and
    direction basis.  The integer closure must give the same poset."""
    n = a.ambient_dim
    top: FractionFlat = ((), ())
    hyper_flats = [((h.normal,), (h.offset,)) for h in a.hyperplanes]
    containing: dict[FractionFlat, frozenset[int]] = {top: frozenset()}
    frontier = [top]
    while frontier:
        fresh = []
        for f in frontier:
            done = set(containing[f])
            for i, hf in enumerate(hyper_flats):
                if i in done:
                    continue
                cut = reference_intersect(f, hf, n)
                if cut is None:
                    continue
                inside = containing.get(cut)
                if inside is None:
                    system, rhs = cut
                    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in system]
                    point = [Fraction(0)] * n
                    for p, b in zip(pivots, rhs):
                        point[p] = b
                    directions = _kernel(system, pivots, n)
                    inside = containing[cut] = frozenset(
                        j
                        for j, h in enumerate(a.hyperplanes)
                        if dot(h.normal, point) == h.offset
                        and all(dot(h.normal, d) == 0 for d in directions)
                    )
                    fresh.append(cut)
                done |= inside
        frontier = fresh
    return assemble_poset(
        a, {AffineSubspace(n, scaled_rows(*f)): inside for f, inside in containing.items()}
    )


def restriction_by_rref(p: IntersectionPoset, g: Flat) -> tuple[Arrangement, list[int]]:
    """A∩G and the covered flats' indices, by pulling each covered flat's
    whole system back to G's chart and row reducing it to the one
    equation it must leave."""
    candidates = [j for j in p.strictly_below[g.index] if p.flats[j].dim == g.dim - 1]
    candidates.sort(
        key=lambda j: (
            sorted(p.flats[j].containing_hyperplanes),
            reference_sort_key(p.flats[j].subspace),
        )
    )
    hyperplanes = []
    for j in candidates:
        sub = p.flats[j].subspace
        rows = []
        for row, rhs in zip(sub.system, sub.rhs):
            coeffs, const = reference_pull(g.subspace, row, rhs)
            rows.append(list(coeffs) + [const])
        reduced, pivots = reference_rref(rows, g.dim + 1)
        assert len(pivots) == 1 and pivots[0] < g.dim, (g.index, j)
        row = reduced[0]
        hyperplanes.append(Hyperplane.from_coeffs(row[: g.dim], row[g.dim]))
    return Arrangement(g.dim, tuple(hyperplanes)), candidates


def push_subspace(flat: AffineSubspace, s: AffineSubspace) -> AffineSubspace:
    """Image in ambient space of a subspace `s` of the flat's chart.

    A chart equation sum c_j y_j = r means sum c_j x_{free_j} = r on the
    flat, so the image is cut out by the flat's system plus the
    re-embedded rows.
    """
    n = flat.ambient_dim
    pivots = set(flat.pivot_columns())
    free = [c for c in range(n) if c not in pivots]
    rows = list(flat.system)
    rhs = list(flat.rhs)
    for row, r in zip(s.system, s.rhs):
        ambient_row = [Fraction(0)] * n
        for j, f in enumerate(free):
            ambient_row[f] = row[j]
        rows.append(tuple(ambient_row))
        rhs.append(r)
    result = solve_affine(rows, rhs, n)
    assert result is not None  # the image of a nonempty set is nonempty
    return result


def face_closure_holds(c: SimplicialComplex) -> bool:
    """Every face of every simplex of c is in c."""
    return all(
        face in c.simplices
        for s in c.simplices
        if len(s) > 1
        for face in itertools.combinations(s, len(s) - 1)
    )


def reference_nerve(p: IntersectionPoset, g: Flat) -> SimplicialComplex:
    """The nerve of A∩G's hyperplane cover read off every flat X < G: the
    sets of covers met by C(X) - C(G), up to dimension l(G) + 1.  The
    package reads it off the minimal flats below G alone."""
    covered, c_g = restriction_covers(p, g), g.containing_hyperplanes
    vertex = {
        h: k for k, j in enumerate(covered) for h in p.flats[j].containing_hyperplanes - c_g
    }
    max_vertices = p.level(g) + 2  # simplices of dimension <= l(G) + 1
    simplices: set = set()
    for x in p.strictly_below[g.index]:
        members = sorted({vertex[h] for h in p.flats[x].containing_hyperplanes - c_g})
        for r in range(1, min(len(members), max_vertices) + 1):
            simplices.update(itertools.combinations(members, r))
    return SimplicialComplex(len(covered), frozenset(simplices))


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
    rows.sort(key=lambda row: reference_sort_key(row[0]))
    return rows


def module_records(*roots: ModuleExpr) -> list:
    """The module records `roots` are built of, each reached once: the
    roots and all their parts, not entering a table entry a TENSOR_TRIVIAL
    node names."""
    found, pending = [], list(roots)
    while pending:
        m = pending.pop()
        found.append(m)
        if isinstance(m, Sum):
            pending.extend(m.parts)
        elif isinstance(m, Induced):
            pending.append(m.inner)
        elif isinstance(m, Copies):
            pending.append(m.module)
    return found


# --- the decomposition as it was printed, a tree --------------------------
#
# `decompose` printed each summand's module as a fully expanded tree: each
# decone's module written out wherever it occurred, beta equal parts one
# by one, and each decone's SUM ordered by the JSON text of its parts.
# It now prints each decone's module once, in a `modules` table that
# TENSOR_TRIVIAL nodes name by index, and beta equal parts as one COPIES
# node.  The expanders below turn the new report and the new records back
# into the old tree, so the old output is the target they are checked on.

ZERO = Free(0)


def module_to_json(m: ModuleExpr, memo: dict[int, tuple[ModuleExpr, dict]]) -> dict:
    """The JSON object of an expanded module tree (`expand_modules`), one
    per module object: `memo` maps id(m) to (m, object)."""
    if id(m) in memo:
        return memo[id(m)][1]
    if isinstance(m, Free):
        obj = {"kind": "FREE", "rank": m.rank}
    elif isinstance(m, TrivialZ):
        obj = {"kind": "TRIVIAL_Z"}
    elif isinstance(m, TensorTrivial):
        obj = {"kind": "TENSOR_TRIVIAL", "inner": module_to_json(m.inner, memo)}
    elif isinstance(m, Induced):
        obj = {"kind": "INDUCED", "flat": m.flat, "inner": module_to_json(m.inner, memo)}
    elif isinstance(m, Sum):
        obj = {"kind": "SUM", "parts": [module_to_json(x, memo) for x in m.parts]}
    else:
        raise InputError(f"not a module expression: {m!r}")
    memo[id(m)] = (m, obj)
    return obj


def _expr_key(m: ModuleExpr) -> tuple[int, str]:
    kind_rank = {Free: 0, TrivialZ: 1, TensorTrivial: 2, Induced: 3, Sum: 4}
    text = json.dumps(module_to_json(m, {}), sort_keys=True, default=AffineSubspace.to_json)
    return (kind_rank[type(m)], text)


def _json_key(node: dict) -> tuple[int, str]:
    """`_expr_key` of an expanded JSON node (no decone SUM holds a
    TRIVIAL_Z, TENSOR_TRIVIAL or SUM part)."""
    return (0 if node["kind"] == "FREE" else 3, json.dumps(node, sort_keys=True))


def _expand_node(node: dict, table: list[dict]) -> dict:
    kind = node["kind"]
    if kind == "TENSOR_TRIVIAL":
        return {"kind": kind, "inner": table[node["inner"]]}
    if kind == "INDUCED":
        return dict(node, inner=_expand_node(node["inner"], table))
    if kind == "COPIES":
        return {"kind": "SUM", "parts": [_expand_node(node["module"], table)] * node["count"]}
    if kind == "SUM":
        parts = []
        for part in node["parts"]:
            part = _expand_node(part, table)
            parts += part["parts"] if part["kind"] == "SUM" else [part]
        return {"kind": kind, "parts": sorted(parts, key=_json_key)}
    return node


def expand_report(report: dict) -> dict:
    """A `decompose` JSON report, as parsed, as it was printed before the
    `modules` table: each table entry inlined where its index stands, each
    COPIES node written out as its copies (a SUM, spliced into the SUM that
    holds it), and each decone's SUM re-sorted by `_expr_key`."""
    table: list[dict] = []
    for entry in report["modules"]:
        table.append(_expand_node(entry, table))
    old = {k: v for k, v in report.items() if k != "modules"}
    old["summands"] = [dict(s, module=_expand_node(s["module"], table)) for s in report["summands"]]
    return old


def _expand_record(m: ModuleExpr, table: list) -> ModuleExpr:
    if isinstance(m, TensorTrivial):
        return TensorTrivial(table[m.inner])
    if isinstance(m, Induced):
        return Induced(m.flat, _expand_record(m.inner, table))
    if isinstance(m, Copies):
        return Sum((_expand_record(m.module, table),) * m.count)
    if isinstance(m, Sum):
        return _sum_of_normalized([_expand_record(part, table) for part in m.parts])
    return m


def expand_modules(dec) -> list[ModuleExpr]:
    """Each summand's module of `dec` as the tree of records it was built as
    before the `modules` table, expanded as `expand_report` expands JSON; a
    TENSOR_TRIVIAL node holds its decone's module itself."""
    table: list = []
    for entry in dec.modules:
        table.append(_expand_record(entry, table))
    return [_expand_record(s.module, table) for s in dec.summands]


def reference_decomposition_json(dec) -> dict:
    """`dec.to_json()` as it was printed before the `modules` table, from
    `expand_modules`' trees."""
    memo: dict[int, tuple[ModuleExpr, dict]] = {}
    report = dec.to_json()
    del report["modules"]
    report["summands"] = [
        dict(s, module=module_to_json(m, memo)) for s, m in zip(report["summands"], expand_modules(dec))
    ]
    return report


def reference_module_str(m: ModuleExpr, memo: dict[int, tuple[ModuleExpr, str]]) -> str:
    """The text of an expanded module tree as `cli.module_str` wrote it
    before the `modules` table, once per module object: `memo` maps id(m)
    to (m, text)."""
    if id(m) in memo:
        return memo[id(m)][1]
    if isinstance(m, Free):
        text = f"(Zpi)^{m.rank}"
    elif isinstance(m, TrivialZ):
        text = "Z"
    elif isinstance(m, TensorTrivial):
        text = f"({reference_module_str(m.inner, memo)} (x) Z[triv])"
    elif isinstance(m, Induced):
        text = f"Ind[{equations_str(m.flat)}]({reference_module_str(m.inner, memo)})"
    elif isinstance(m, Sum):
        text = "(" + " (+) ".join(reference_module_str(p, memo) for p in m.parts) + ")"
    else:
        raise InputError(f"not a module expression: {m!r}")
    memo[id(m)] = (m, text)
    return text


def reference_decompose_text(a: Arrangement, dec) -> str:
    """`arrcoh decompose` text as it was printed before the `modules`
    table, from `expand_modules`' trees."""
    lines = [
        f"graded group-ring cohomology of the complement of {len(a)} "
        f"hyperplanes in C^{a.ambient_dim}",
        f"concentrated in degree {dec.concentration_degree}; free rank {dec.free_rank}",
    ]
    if graded_piece_is_trivial_z(dec):
        lines.append(f"H^{dec.concentration_degree} = Z (trivial module)")
    lines += [
        f"note: {L2_NOTE}",
        f"note: {DUALITY_NOTE}",
        "summands (one per flat with positive beta):",
    ]
    memo: dict[int, tuple[ModuleExpr, str]] = {}
    for s, m in zip(dec.summands, expand_modules(dec)):
        suffix = "  = trivial module Z" if s.is_trivial_z else ""
        lines.append(
            f"  [{s.flat_index}] {equations_str(s.subspace)} "
            f"| multiplicity {s.multiplicity} | {reference_module_str(m, memo)}{suffix}"
        )
    return "\n".join(lines) + "\n"


def _sum_of_normalized(parts: list[ModuleExpr]) -> ModuleExpr:
    """Flatten, drop zeros, merge FREE ranks, sort by each part's JSON text."""
    flat_parts: list[ModuleExpr] = []
    for part in parts:
        if isinstance(part, Sum):
            flat_parts.extend(part.parts)
        elif part != ZERO:
            flat_parts.append(part)
    free_rank = sum(p.rank for p in flat_parts if isinstance(p, Free))
    rest = sorted((p for p in flat_parts if not isinstance(p, Free)), key=_expr_key)
    merged: list[ModuleExpr] = ([Free(free_rank)] if free_rank else []) + rest
    if not merged:
        return ZERO
    if len(merged) == 1:
        return merged[0]
    return Sum(tuple(merged))


def normalize_module_expr(m: ModuleExpr) -> ModuleExpr:
    """Canonical form of an expanded module tree: zero modules and empty
    sums eliminated, nested sums flattened, FREE parts merged, the other
    parts sorted by kind and then by their whole JSON text.  Idempotent.
    The trees `expand_modules` gives are in this form."""
    if isinstance(m, (Free, TrivialZ)):
        return m
    if isinstance(m, TensorTrivial):
        inner = normalize_module_expr(m.inner)
        return ZERO if inner == ZERO else TensorTrivial(inner)
    if isinstance(m, Induced):
        inner = normalize_module_expr(m.inner)
        return ZERO if inner == ZERO else Induced(m.flat, inner)
    if isinstance(m, Sum):
        return _sum_of_normalized([normalize_module_expr(p) for p in m.parts])
    raise InputError(f"not a module expression: {m!r}")


def poset_rows(p: IntersectionPoset):
    """Every flat of p as a (subspace, containing set, beta) row."""
    return [
        (f.subspace, f.containing_hyperplanes, b.value)
        for f, b in zip(p.flats, beta_all_flats(p))
    ]


def reference_mobius_interval(p: IntersectionPoset, g) -> dict[int, int]:
    """mu(G, X) for every flat X <= G, pulled from above: mu(G, G) = 1 and
    mu(G, X) = -sum of mu(G, Y) over X < Y <= G, with the order read off
    the containing sets, Y > X iff C(Y) is a proper subset of C(X).  By
    descending dimension, every such Y is visited before X."""
    c = [f.containing_hyperplanes for f in p.flats]
    lower = sorted((x for x in range(len(c)) if c[g.index] <= c[x]), key=lambda x: -p.flats[x].dim)
    mu: dict[int, int] = {}
    for x in lower:
        mu[x] = 1 if x == g.index else -sum(v for y, v in mu.items() if c[y] < c[x])
    return mu


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


def _unit_sum(n, i, j):
    row = [0] * n
    row[i], row[j] = 1, 1
    return row


def _type_d_rows(n):
    pairs = list(itertools.combinations(range(n), 2))
    return [(f(n, i, j), 0) for f in (_unit_difference, _unit_sum) for i, j in pairs]


def coxeter_d(n):
    """{x_i - x_j = 0, x_i + x_j = 0 : i < j} in C^n."""
    return arrangement_from_coeffs(n, _type_d_rows(n))


def coxeter_b(n):
    """coxeter_d(n) plus {x_i = 0}."""
    axes = [([int(k == i) for k in range(n)], 0) for i in range(n)]
    return arrangement_from_coeffs(n, axes + _type_d_rows(n))


def catalan(n):
    """{x_i - x_j = c : i < j, c = -1, 0, 1} in C^n."""
    pairs = list(itertools.combinations(range(n), 2))
    rows = [(_unit_difference(n, i, j), c) for c in (-1, 0, 1) for i, j in pairs]
    return arrangement_from_coeffs(n, rows)


def linial(n):
    """{x_i - x_j = 1 : i < j} in C^n."""
    pairs = itertools.combinations(range(n), 2)
    return arrangement_from_coeffs(n, [(_unit_difference(n, i, j), 1) for i, j in pairs])


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
