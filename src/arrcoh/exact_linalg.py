"""Exact linear algebra over Q in integer rows: row reduction, affine
solution sets, and flat intersection.

Poset correctness is all-or-nothing, so this module is exact by
construction, with no floating point anywhere.  Input values are read
once (`integer_row`): an int or a plain integer string is read by `int`,
and any other value (`p/q`, a decimal) by `as_rational`, as a `Fraction`.
Every row is then stored as integers, a rational row times the lcm of
its denominators, and a value is written from its integer pair
(`ratio_str`).  `Fraction` is left only in `as_rational` and in views
such as `AffineSubspace.system` / `.rhs`, which no command reads; each
imports `fractions` when it first runs, so a command whose input is all
integers never loads it.

The canonical form of an affine subspace {x : A x = b} is the reduced
row echelon form of [A | b], zero rows dropped, each row scaled to
integers with gcd 1 and a positive pivot.  That form is unique, so one
fraction-free Gauss-Jordan routine (`_insert_row`) builds it, joining
rows in any order, and two subspaces are equal iff their rows are:
exact dict keys, compared and hashed in ints.  A rational system also
cuts out a subspace of C^n, and every incidence question about such
complex flats is decided by the same eliminations.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import record
from .errors import InputError, ResourceCapError

if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple["Fraction", ...]
Row = tuple[int, ...]

_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")
# An integer that `int` and `Fraction` read alike: ASCII digits, an
# optional sign, nothing else.
_INTEGER = re.compile(r"[-+]?[0-9]+")


def __getattr__(name: str):
    # `Rational` is `fractions.Fraction`, imported when first read.
    if name == "Rational":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    from fractions import Fraction

    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {value!r}") from exc


# The text of each distinct value written, keyed by it in lowest terms.
_TEXT: dict[tuple[int, int], str] = {}
# The text of each entry of a flat's row met, over the row's pivot:
# _OVER[pivot][entry], so a flat written again costs no gcd.
_OVER: dict[int, dict[int, str]] = {}


def ratio_str(num: int, den: int) -> str:
    """Serialize num/den, in lowest terms with den > 0, as 'p/q', or 'p'
    when den is 1; a value met again reuses its string.  A number longer
    than the interpreter's integer digit limit is a ResourceCapError."""
    key = (num, den)
    text = _TEXT.get(key)
    if text is None:
        try:
            text = _TEXT[key] = str(key[0]) if key[1] == 1 else f"{key[0]}/{key[1]}"
        except ValueError as exc:
            raise ResourceCapError(
                f"a computed number has more than {sys.get_int_max_str_digits()} digits, "
                "the interpreter's integer digit limit"
            ) from exc
    return text


def _entry_str(over: dict[int, str], x: int, pivot: int) -> str:
    """`ratio_str` of x / pivot, kept in `over`, which is `_OVER[pivot]`."""
    g = math.gcd(x, pivot)
    text = over[x] = ratio_str(x // g, pivot // g)
    return text


def rational_str(value: Fraction) -> str:
    """`ratio_str` of a Fraction."""
    return ratio_str(value.numerator, value.denominator)


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple(as_rational(v) for v in values)


def _read(value: int | str | Fraction) -> int | Fraction:
    """An int, or a plain integer string within the digit limit, as an
    int; any other value as `as_rational` reads it."""
    if type(value) is int:
        return value
    if type(value) is str and _INTEGER.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # over the digit limit: `as_rational` words it
            pass
    return as_rational(value)


def integer_row(values: Sequence[int | str | Fraction]) -> Row:
    """The values, read by `as_rational` (`_read`), times the lcm of
    their denominators: the same row up to a positive scale, in ints."""
    if all(type(x) is int for x in values):
        return tuple(values)
    v = [_read(x) for x in values]
    scale = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def primitive(row: Sequence[int]) -> Row:
    """The row divided by the gcd of its entries, signed so that its first
    nonzero entry is positive; a zero row is returned as it is."""
    g = math.gcd(*row)
    if g and next(filter(None, row)) < 0:
        g = -g
    return tuple(row) if g in (0, 1) else tuple(x // g for x in row)


def _reduce(new: Sequence[int], rows: Sequence[Row], pivots: Sequence[int]) -> list[int]:
    """`new` with every pivot column of the reduced system cleared, times a
    positive integer: new[p] is cleared by d new - c row, d = row[p] > 0,
    each row being zero in the other rows' pivot columns."""
    new = list(new)
    for row, p in zip(rows, pivots):
        if c := new[p]:
            g = math.gcd(c, row[p])
            d, c = row[p] // g, c // g
            new = [d * x - c * y for x, y in zip(new, row)]
    return new


def _insert_row(rows: list[Row], pivots: list[int], new: Sequence[int], stop: int) -> int | None:
    """Join the integer row `new` to the canonical rows (ascending pivots)
    in place, fraction-free: reduce it, make it primitive with a positive
    pivot, clear its pivot column from the other rows and make those
    primitive again.  Return its pivot, or None when it reduces to zero.
    A leading column at or after `stop` (an augmented system's rhs column:
    0 = nonzero) is returned without joining, so it costs no clearing.
    """
    new = _reduce(new, rows, pivots)
    first = next(filter(None, new), 0)
    lead = new.index(first) if first else None
    if lead is None or lead >= stop:
        return lead
    new = primitive(new)
    pv = new[lead]
    for i, row in enumerate(rows):
        if c := row[lead]:
            g = math.gcd(c, pv)
            rows[i] = primitive([pv // g * a - c // g * b for a, b in zip(row, new)])
    k = bisect.bisect(pivots, lead)
    rows.insert(k, new)
    pivots.insert(k, lead)
    return lead


def rref(
    rows: Iterable[Sequence[int | str | Fraction]], cols: int
) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """The canonical rows of `rows` (of width `cols`) and their pivot
    columns.  Idempotent on its output."""
    reduced: list[Row] = []
    pivots: list[int] = []
    for row in rows:
        _insert_row(reduced, pivots, integer_row(row), cols)
    return tuple(reduced), tuple(pivots)


@record
class AffineSubspace:
    """Nonempty affine subspace {x in Q^n : system x = rhs}, canonical.

    `rows` are the canonical rows of [system | rhs] (see the module
    docstring), so the number of rows is the codimension and equality of
    subspaces is plain record equality.  Construct through `solve_affine`,
    `solve_rows` or `whole_space`; the raw constructor trusts its input.
    """

    ambient_dim: int
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.ambient_dim + 1:
                raise InputError(f"row of length {len(row)}, expected {self.ambient_dim + 1}")

    @staticmethod
    def whole_space(n: int) -> AffineSubspace:
        return AffineSubspace(n, ())

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.rows)

    @property
    def codim(self) -> int:
        return len(self.rows)

    @property
    def is_whole_space(self) -> bool:
        return not self.rows

    @property
    def system(self) -> tuple[Vector, ...]:
        """The rref's coefficients (pivots 1), as `Fraction`s built when read."""
        from fractions import Fraction

        return tuple(tuple(Fraction(*q) for q in row[:-1]) for row in self.ratios())

    @property
    def rhs(self) -> Vector:
        from fractions import Fraction

        return tuple(Fraction(*row[-1]) for row in self.ratios())

    def ratios(self) -> list[list[tuple[int, int]]]:
        """Each entry of the rref (pivots 1) as (numerator, denominator) in
        lowest terms, row by row: what is printed and sorted."""
        return [[(x // g, d // g) for x in row for g in (math.gcd(x, d),)]
                for row in self.rows for d in (next(filter(None, row)),)]

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(row.index(next(filter(None, row))) for row in self.rows)

    def contains(self, other: AffineSubspace) -> bool:
        """True iff self's equations hold on all of other (self >= other):
        each of self's rows reduces to zero against other's.  An oracle
        only: the poset decides incidence by integer cuts."""
        if other.ambient_dim != self.ambient_dim:
            raise InputError("ambient dimension mismatch")
        pivots = other.pivot_columns()
        return not any(any(_reduce(row, other.rows, pivots)) for row in self.rows)

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        return all(sum(a * x for a, x in zip(row, point)) == row[-1] for row in self.rows)

    def lattice_chart(self) -> tuple[Row, tuple[Row, ...]]:
        """`parametrize` in integers, each vector with gcd 1: (y, t), t > 0,
        a multiple of (point, 1), and each direction, positive at its free
        column."""
        n, pivots = self.ambient_dim, self.pivot_columns()
        free = sorted(set(range(n)).difference(pivots))
        scale = math.lcm(*(row[p] for row, p in zip(self.rows, pivots)))
        vectors = [[0] * n + [scale]] + [[scale * (j == f) for j in range(n)] for f in free]
        for row, p in zip(self.rows, pivots):
            m = scale // row[p]
            vectors[0][p] = row[-1] * m
            for d, f in zip(vectors[1:], free):
                d[p] = -row[f] * m
        point, *directions = (tuple(x // g for x in v) for v in vectors for g in (math.gcd(*v),))
        return point, tuple(directions)

    def parametrize(self) -> tuple[Vector, tuple[Vector, ...]]:
        """A point of the subspace plus a basis of its direction space: per
        free column f, ascending, the direction with 1 at f."""
        from fractions import Fraction

        (*y, t), directions = self.lattice_chart()
        free = sorted(set(range(self.ambient_dim)).difference(self.pivot_columns()))
        return tuple(Fraction(x, t) for x in y), tuple(
            tuple(Fraction(x, d[f]) for x in d) for d, f in zip(directions, free))

    def texts(self) -> list[list[str]]:
        """Each entry of the rref (pivots 1) as printed (`ratio_str`), row
        by row: the text of the entry over its row's pivot, one gcd per
        entry the first time it is met (`_OVER`)."""
        texts = []
        for row in self.rows:
            d = next(filter(None, row))
            over = _OVER.get(d)
            if over is None:
                over = _OVER[d] = {}
            get = over.get
            texts.append([get(x) or _entry_str(over, x, d) for x in row])
        return texts

    def to_json(self) -> dict:
        system = self.texts()
        rhs = [row.pop() for row in system]
        return {"dim": self.dim, "ambient_dim": self.ambient_dim, "system": system, "rhs": rhs}


def _join(flat: AffineSubspace, rows: Iterable[Sequence[int]]) -> AffineSubspace | None:
    """The points of `flat` where each integer row (a | b) has a.x = b,
    canonical; None when there are none.  The flat's rows are already
    reduced, so the new rows are joined to them one at a time."""
    n = flat.ambient_dim
    reduced, pivots = list(flat.rows), list(flat.pivot_columns())
    for row in rows:
        if _insert_row(reduced, pivots, row, n) == n:
            return None  # 0 = nonzero: no solution
    return AffineSubspace(n, tuple(reduced))


def solve_rows(rows: Iterable[Sequence[int]], n: int) -> AffineSubspace | None:
    """Canonical solution set in Q^n of integer rows (a | b), a.x = b each."""
    return _join(AffineSubspace.whole_space(n), rows)


def solve_affine(
    system: Sequence[Sequence[int | str | Fraction]], rhs: Sequence[int | str | Fraction], n: int
) -> AffineSubspace | None:
    """Canonical solution set in Q^n of `system x = rhs`, or None when empty."""
    if len(rhs) != len(system):
        raise InputError(f"rhs length {len(rhs)} does not match {len(system)} equations")
    for row in system:
        if len(row) != n:
            raise InputError(f"equation of length {len(row)}, expected {n}")
    return solve_rows((integer_row(list(row) + [b]) for row, b in zip(system, rhs)), n)


def intersect_flats(f1: AffineSubspace, f2: AffineSubspace) -> AffineSubspace | None:
    """Canonical form of f1 ∩ f2, f2's rows joined to f1's; None when disjoint."""
    if f1.ambient_dim != f2.ambient_dim:
        raise InputError("cannot intersect flats of different ambient dimension")
    return _join(f1, f2.rows)


def pull_equation(flat: AffineSubspace, row: Sequence[int]) -> Row:
    """Restrict a.x = b, row = (a | b) in integers, to the flat, in its
    chart y (its free columns, ascending): the row (c | k) with c.y - k a
    positive multiple of a.x - b on the flat.  Clearing the pivot columns
    subtracts equations that hold on the flat (`_reduce`)."""
    pivots = flat.pivot_columns()
    pulled = _reduce(row, flat.rows, pivots)
    for p in reversed(pivots):
        del pulled[p]
    return tuple(pulled)
