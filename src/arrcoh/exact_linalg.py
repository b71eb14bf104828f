"""Exact rational linear algebra: row reduction, affine solution sets,
and flat intersection.

Everything downstream reduces to questions about linear systems over Q,
and poset correctness is all-or-nothing, so this module is exact by
construction: scalars are `fractions.Fraction` (arbitrary precision,
canonical p/q form), matrices are immutable tuples, and there is no
floating point anywhere.

The canonical form of an affine subspace {x : A x = b} is the reduced
row echelon form of the augmented system [A | b] with zero rows dropped.
RREF is unique, so one routine (`_insert_row`) builds every such form,
joining rows in any order.  Two subspaces are equal iff their canonical
forms are bit-equal: hashable dict keys and exact poset elements.  A
rational system also cuts out a subspace of C^n, and every incidence
question (containment, intersection, dimension) about such complex flats
is decided by the same rational eliminations, so nothing here ever
needs complex arithmetic.
"""

from __future__ import annotations

import bisect
import re
import sys
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .errors import InputError, ResourceCapError

Rational = Fraction
Vector = tuple[Fraction, ...]

_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction; floats, bools and
    exponent notation ('1e9', which can expand to millions of digits) are
    rejected."""
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


def rational_str(value: Fraction) -> str:
    """Serialize as 'p/q', or just 'p' when the denominator is 1.  A number
    with more digits than the interpreter's integer digit limit cannot be
    written: that is a ResourceCapError."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise ResourceCapError(
            f"a computed number has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's integer digit limit"
        ) from exc


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(as_rational(v) for v in values)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise InputError(f"dot product length mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@record
class RationalMatrix:
    """Immutable matrix over Q, stored as a tuple of row tuples.

    `cols` is explicit so zero-row matrices keep their width.
    """

    entries: tuple[Vector, ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.cols:
                raise InputError(
                    f"ragged matrix: row of length {len(row)}, expected {self.cols}"
                )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(
        rows: Iterable[Iterable[int | str | Fraction]], cols: int | None = None
    ) -> RationalMatrix:
        entries = tuple(vector(r) for r in rows)
        if cols is None:
            if not entries:
                raise InputError("cannot infer column count of an empty matrix")
            cols = len(entries[0])
        return RationalMatrix(entries, cols)

    @staticmethod
    def identity(n: int) -> RationalMatrix:
        rows = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        return RationalMatrix(rows, n)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> RationalMatrix:
        rows = tuple(self.column(j) for j in range(self.cols))
        return RationalMatrix(rows, self.rows)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        return tuple(dot(r, v) for r in self.entries)


def _insert_row(
    rows: list[list[Fraction]], pivots: list[int], new: list[Fraction], stop: int
) -> int | None:
    """Join `new` to the reduced system (rows, ascending pivots) in place;
    return its pivot, or None when it reduces to zero (it is dependent).

    A leading column at or after `stop` (an augmented system's rhs column:
    0 = nonzero) is returned without joining, so it costs no clearing.
    RREF is unique, so the order rows are joined in cannot change it.
    """
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


def _rref(rows: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of `rows`, padded with zero rows to their
    count; returns (rows, pivot columns)."""
    reduced, pivots = [], []
    for row in rows:
        _insert_row(reduced, pivots, row, cols)
    reduced += [[Fraction(0)] * cols for _ in range(len(rows) - len(reduced))]
    return reduced, pivots


def _kernel(rows: Sequence[Vector], pivots: Sequence[int], cols: int) -> tuple[Vector, ...]:
    """Kernel of a reduced system: per free column f, ascending, 1 at f and
    minus the pivot rows' entries in column f at their pivots."""
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def rref_rank(m: RationalMatrix) -> tuple[RationalMatrix, int]:
    """Reduced row echelon form and rank.  Idempotent on rref input."""
    reduced, pivots = rref_pivots(m)
    return reduced, len(pivots)


def rref_pivots(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    rows, pivots = _rref([list(r) for r in m.entries], m.cols)
    return RationalMatrix(tuple(tuple(r) for r in rows), m.cols), tuple(pivots)


def null_space_basis(m: RationalMatrix) -> tuple[Vector, ...]:
    """Basis of {x : m x = 0}, one vector per free column of the rref."""
    reduced, pivots = rref_pivots(m)
    return _kernel(reduced.entries, pivots, m.cols)


class FlatRelation(Enum):
    EQUAL = "EQUAL"
    F1_STRICTLY_CONTAINS_F2 = "F1_STRICTLY_CONTAINS_F2"
    F2_STRICTLY_CONTAINS_F1 = "F2_STRICTLY_CONTAINS_F1"
    INCOMPARABLE = "INCOMPARABLE"


@record
class AffineSubspace:
    """Nonempty affine subspace {x in Q^n : system x = rhs}, canonical.

    Canonical means [system | rhs] is in reduced row echelon form with no
    zero rows, so `system.rows` equals the codimension and equality of
    subspaces is plain record equality.  Construct through
    `solve_affine` or `whole_space`; the raw constructor trusts its input.
    """

    ambient_dim: int
    system: RationalMatrix
    rhs: Vector

    def __post_init__(self) -> None:
        if self.system.cols != self.ambient_dim:
            raise InputError("system width does not match ambient dimension")
        if len(self.rhs) != self.system.rows:
            raise InputError("rhs length does not match system rows")

    @staticmethod
    def whole_space(n: int) -> AffineSubspace:
        return AffineSubspace(n, RationalMatrix((), n), ())

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.system.rows

    @property
    def codim(self) -> int:
        return self.system.rows

    @property
    def is_whole_space(self) -> bool:
        return self.system.rows == 0

    def augmented_rows(self) -> list[list[Fraction]]:
        return [list(row) + [self.rhs[i]] for i, row in enumerate(self.system.entries)]

    def pivot_columns(self) -> tuple[int, ...]:
        # Canonical rref: the pivot of each row is its first nonzero entry.
        return tuple(
            next(j for j, x in enumerate(row) if x != 0) for row in self.system.entries
        )

    def contains(self, other: AffineSubspace) -> bool:
        """True iff self's equations hold on all of other (self >= other).

        self >= other iff self's augmented rows lie in the row space of
        other's augmented system, i.e. stacking them adds no rank.  An
        oracle only: the intersection poset decides incidence by integer
        cuts and its order by containing sets.
        """
        if other.ambient_dim != self.ambient_dim:
            raise InputError("ambient dimension mismatch")
        if self.is_whole_space:
            return True
        stacked = other.augmented_rows() + self.augmented_rows()
        _, pivots = _rref(stacked, self.ambient_dim + 1)
        return len(pivots) == other.system.rows

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        return all(
            dot(row, point) == self.rhs[i] for i, row in enumerate(self.system.entries)
        )

    def parametrize(self) -> tuple[Vector, tuple[Vector, ...]]:
        """A point of the subspace plus a basis of its direction space."""
        pivots = self.pivot_columns()
        point = [Fraction(0)] * self.ambient_dim
        for i, p in enumerate(pivots):
            point[p] = self.rhs[i]
        return tuple(point), _kernel(self.system.entries, pivots, self.ambient_dim)

    def sort_key(self) -> tuple:
        return (self.ambient_dim, self.system.entries, self.rhs)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "ambient_dim": self.ambient_dim,
            "system": [[rational_str(x) for x in row] for row in self.system.entries],
            "rhs": [rational_str(x) for x in self.rhs],
        }


def solve_affine(
    system: RationalMatrix, rhs: Sequence[int | str | Fraction]
) -> AffineSubspace | None:
    """Canonical solution set of `system x = rhs`, or None when empty."""
    b = vector(rhs)
    if len(b) != system.rows:
        raise InputError(
            f"rhs length {len(b)} does not match {system.rows} equations"
        )
    n = system.cols
    rows, pivots = [], []
    for i, row in enumerate(system.entries):
        if _insert_row(rows, pivots, list(row) + [b[i]], n) == n:
            return None  # 0 = nonzero: no solution
    system = RationalMatrix(tuple(tuple(r[:n]) for r in rows), n)
    return AffineSubspace(n, system, tuple(r[n] for r in rows))


def intersect_flats(f1: AffineSubspace, f2: AffineSubspace) -> AffineSubspace | None:
    """Canonical form of f1 ∩ f2; None when disjoint.

    f1's augmented system is already reduced, so f2's equations are joined
    to it one row at a time (`_insert_row`) and the stacked system is never
    eliminated in full.  RREF is unique, so the result is the canonical
    form `solve_affine` gives for the stacked equations.
    """
    if f1.ambient_dim != f2.ambient_dim:
        raise InputError("cannot intersect flats of different ambient dimension")
    n = f1.ambient_dim
    rows = f1.augmented_rows()
    pivots = list(f1.pivot_columns())
    for new in f2.augmented_rows():
        if _insert_row(rows, pivots, new, n) == n:
            return None  # 0 = nonzero: disjoint
    system = RationalMatrix(tuple(tuple(r[:n]) for r in rows), n)
    return AffineSubspace(n, system, tuple(r[n] for r in rows))


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
    s: AffineSubspace, m: RationalMatrix, shift: Sequence[Fraction]
) -> AffineSubspace:
    """Image of a subspace under the affine map x -> m x + shift."""
    if m.cols != s.ambient_dim:
        raise InputError("map width does not match subspace ambient dimension")
    point, directions = s.parametrize()
    image_point = tuple(a + b for a, b in zip(m.apply(point), shift))
    image_dirs = tuple(m.apply(d) for d in directions)
    return from_point_and_directions(m.rows, image_point, image_dirs)


def from_point_and_directions(
    n: int, point: Sequence[Fraction], directions: Sequence[Vector]
) -> AffineSubspace:
    """Smallest affine subspace of Q^n through `point` containing the directions."""
    if directions:
        dir_matrix = RationalMatrix.from_rows(directions, cols=n)
        normals = null_space_basis(dir_matrix)
    else:
        normals = tuple(RationalMatrix.identity(n).entries)
    if not normals:
        return AffineSubspace.whole_space(n)
    system = RationalMatrix.from_rows(normals, cols=n)
    rhs = tuple(dot(a, point) for a in normals)
    result = solve_affine(system, rhs)
    assert result is not None  # consistent by construction
    return result
