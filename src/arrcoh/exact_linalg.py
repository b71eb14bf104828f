"""Exact rational linear algebra: row reduction, affine solution sets,
and flat intersection.

Everything downstream reduces to questions about linear systems over Q,
and poset correctness is all-or-nothing, so this module is exact by
construction: scalars are `fractions.Fraction` (arbitrary precision,
canonical p/q form), a linear system is a tuple of `Fraction` row
vectors, and there is no floating point anywhere.  Rows are not coerced:
an int row would divide to a float, so callers pass `Fraction` rows.

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


def rref(
    rows: Iterable[Sequence[Fraction]], cols: int
) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form of `rows` (of width `cols`), zero rows
    dropped, and its pivot columns.  Idempotent on rref input."""
    reduced, pivots = [], []
    for row in rows:
        _insert_row(reduced, pivots, list(row), cols)
    return tuple(map(tuple, reduced)), tuple(pivots)


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


@record
class AffineSubspace:
    """Nonempty affine subspace {x in Q^n : system x = rhs}, canonical.

    Canonical means [system | rhs] is in reduced row echelon form with no
    zero rows, so the number of rows is the codimension and equality of
    subspaces is plain record equality.  Construct through
    `solve_affine` or `whole_space`; the raw constructor trusts its input.
    """

    ambient_dim: int
    system: tuple[Vector, ...]
    rhs: Vector

    def __post_init__(self) -> None:
        for row in self.system:
            if len(row) != self.ambient_dim:
                raise InputError(
                    f"system row of length {len(row)}, expected {self.ambient_dim}"
                )
        if len(self.rhs) != len(self.system):
            raise InputError("rhs length does not match system rows")

    @staticmethod
    def whole_space(n: int) -> AffineSubspace:
        return AffineSubspace(n, (), ())

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.system)

    @property
    def codim(self) -> int:
        return len(self.system)

    @property
    def is_whole_space(self) -> bool:
        return not self.system

    def augmented_rows(self) -> list[list[Fraction]]:
        return [list(row) + [b] for row, b in zip(self.system, self.rhs)]

    def pivot_columns(self) -> tuple[int, ...]:
        # Canonical rref: the pivot of each row is its first nonzero entry.
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.system)

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
        _, pivots = rref(stacked, self.ambient_dim + 1)
        return len(pivots) == other.codim

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        return all(dot(row, point) == b for row, b in zip(self.system, self.rhs))

    def parametrize(self) -> tuple[Vector, tuple[Vector, ...]]:
        """A point of the subspace plus a basis of its direction space."""
        pivots = self.pivot_columns()
        point = [Fraction(0)] * self.ambient_dim
        for i, p in enumerate(pivots):
            point[p] = self.rhs[i]
        return tuple(point), _kernel(self.system, pivots, self.ambient_dim)

    def sort_key(self) -> tuple:
        return (self.ambient_dim, self.system, self.rhs)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "ambient_dim": self.ambient_dim,
            "system": [[rational_str(x) for x in row] for row in self.system],
            "rhs": [rational_str(x) for x in self.rhs],
        }


def solve_affine(
    system: Sequence[Sequence[Fraction]], rhs: Sequence[int | str | Fraction], n: int
) -> AffineSubspace | None:
    """Canonical solution set in Q^n of `system x = rhs`, or None when empty."""
    b = vector(rhs)
    if len(b) != len(system):
        raise InputError(f"rhs length {len(b)} does not match {len(system)} equations")
    for row in system:
        if len(row) != n:
            raise InputError(f"equation of length {len(row)}, expected {n}")
    rows, pivots = [], []
    for row, r in zip(system, b):
        if _insert_row(rows, pivots, list(row) + [r], n) == n:
            return None  # 0 = nonzero: no solution
    return AffineSubspace(n, tuple(tuple(r[:n]) for r in rows), tuple(r[n] for r in rows))


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
    return AffineSubspace(n, tuple(tuple(r[:n]) for r in rows), tuple(r[n] for r in rows))


def pull_equation(
    flat: AffineSubspace, normal: Sequence[Fraction], offset: Fraction
) -> tuple[Vector, Fraction]:
    """Restrict normal.x = offset to the flat, in the flat's chart.

    The chart coordinates are the flat's free (non-pivot) columns,
    ascending.  On the flat each pivot variable is x_{p_i} = r_i - M_i.y,
    so the coefficient of free column f is normal[f] - sum_i
    normal[p_i] M_i[f], and the constant is offset - sum_i normal[p_i] r_i.
    """
    pivots = flat.pivot_columns()
    pivot_set = set(pivots)
    free = [f for f in range(flat.ambient_dim) if f not in pivot_set]
    coeffs = [normal[f] for f in free]
    const = offset
    for row, p, r in zip(flat.system, pivots, flat.rhs):
        w = normal[p]
        if w == 0:
            continue
        for j, f in enumerate(free):
            c = row[f]
            if c != 0:
                coeffs[j] -= w * c
        if r != 0:
            const -= w * r
    return tuple(coeffs), const

