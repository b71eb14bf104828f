"""Poset combinatorics: Möbius function, characteristic and Poincaré
polynomials, Euler characteristic of the complement, and the beta
invariant of a flat.

beta(G) is the number of top-dimensional spheres in the wedge the
singular set of the restricted arrangement is homotopy equivalent to.
It is computed here in closed combinatorial form,

    beta(G) = (-1)^{l(G)} * sum of mu(G, X) over flats X <= G,

which equals (-1)^{l(G)} times the Euler characteristic of the
complement of A∩G inside G (long exact sequence of a pair with
contractible total space, plus additivity of chi for complex algebraic
sets).  The nerve-homology and bounded-chamber computations elsewhere in
the package recompute the same quantity by entirely different routes and
are wired against this one as oracles.

No Möbius function is needed for it.  Write f(G) for the sum above.
Summing over Y <= G and swapping the sums,

    sum of f(Y) over Y <= G = sum over X <= G of
        (sum of mu(Y, X) over X <= Y <= G) = sum over X <= G of delta(X, G) = 1,

so f(G) = 1 - sum of f(Y) over Y < G, and one pass over the flats by
ascending dimension gives beta on every flat (`beta_all_flats`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._record import record
from .arrangement import Flat, IntersectionPoset
from .errors import InputError, InternalConsistencyError


@record
class IntPolynomial:
    """Integer polynomial, ascending coefficients, trailing zeros trimmed."""

    coefficients: tuple[int, ...]

    @staticmethod
    def from_coefficients(coeffs: list[int] | tuple[int, ...]) -> IntPolynomial:
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return IntPolynomial(tuple(trimmed))

    @staticmethod
    def zero() -> IntPolynomial:
        return IntPolynomial(())

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        size = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial.from_coefficients(
            [self.coefficient(k) + other.coefficient(k) for k in range(size)]
        )

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not self.coefficients or not other.coefficients:
            return IntPolynomial.zero()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial.from_coefficients(out)

    def __call__(self, x: int | Fraction) -> int | Fraction:
        value: int | Fraction = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "t" if mag == 1 else f"{mag}t"
            else:
                term = f"t^{k}" if mag == 1 else f"{mag}t^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def mobius_from_top(p: IntersectionPoset) -> dict[int, int]:
    """mu(top, G) for every flat, keyed by flat index."""
    return mobius_interval_from(p, p.top)


def mobius_interval_from(p: IntersectionPoset, g: Flat) -> dict[int, int]:
    """mu(G, X) for every flat X <= G (including X = G).

    Top-down recursion over the containment order: mu(G, G) = 1 and
    mu(G, X) = -sum of mu(G, Y) over Y with X < Y <= G, visiting the
    flats by descending dimension so every Y comes before X.
    """
    lower = sorted(
        set(p.strictly_below[g.index]) | {g.index},
        key=lambda j: -p.flats[j].dim,
    )
    lower_set = set(lower)
    mu: dict[int, int] = {}
    for j in lower:
        if j == g.index:
            mu[j] = 1
        else:
            mu[j] = -sum(mu[k] for k in p.strictly_above[j] if k in lower_set)
    return mu


def characteristic_polynomial(p: IntersectionPoset) -> IntPolynomial:
    """chi(A, t) = sum over flats of mu(top, G) t^{d(G)}."""
    mu = mobius_from_top(p)
    coeffs = [0] * (p.arrangement.ambient_dim + 1)
    for f in p.flats:
        coeffs[f.dim] += mu[f.index]
    return IntPolynomial.from_coefficients(coeffs)


def poincare_polynomial(p: IntersectionPoset) -> IntPolynomial:
    """pi(A, t) = sum over flats of |mu(top, G)| t^{gr(G)}.

    The coefficients are the Betti numbers of the complement, used as an
    independent cross-check layer (constant term always 1).
    """
    mu = mobius_from_top(p)
    coeffs = [0] * (p.arrangement.ambient_dim + 1)
    for f in p.flats:
        coeffs[f.codim] += abs(mu[f.index])
    return IntPolynomial.from_coefficients(coeffs)


def euler_complement(p: IntersectionPoset) -> int:
    """Euler characteristic of the complement: sum of all mu(top, G)."""
    return sum(mobius_from_top(p).values())


@record
class BetaValue:
    """beta(A∩G) of a flat G in an interval, with G's level above its bottom."""

    flat: Flat
    degree: int
    value: int


def beta_combinatorial(p: IntersectionPoset, g: Flat) -> BetaValue:
    """beta(A∩G) = (-1)^{l(G)} * sum of mu(G, X) over flats X <= G.

    Always nonnegative.  For a minimal flat the sum is the single term
    mu(G, G) = 1 and l(G) = 0, giving the convention beta(empty
    restriction) = 1.  Callers that need every flat read
    `beta_all_flats` once instead.
    """
    if g.index >= len(p.flats) or p.flats[g.index] != g:
        raise InputError("flat does not belong to this poset")
    return beta_all_flats(p)[g.index]


def beta_all_flats(
    p: IntersectionPoset, members: Sequence[int] | None = None
) -> list[BetaValue]:
    """beta(A∩G) for every flat, indexed like `p.flats`, or for the view
    `members` (flat indices by descending dimension), indexed like it.

    A view is ordered as in p, and its levels start at the dimension of
    its minimal flats.  Flats below G have smaller dimension, so visiting
    them by ascending dimension fills f(G) = 1 - sum of f(Y) over Y < G
    bottom-up (see the module docstring).  A negative value, or minimal
    flats of unequal dimension, means the poset or the view is broken.
    """
    if members is None:
        members = range(len(p.flats))
    inside = frozenset(members)
    base = p.flats[members[-1]].dim
    sums: dict[int, int] = {}
    for y in reversed(members):
        below = p.strictly_below[y] & inside
        if not below and p.flats[y].dim != base:
            raise InternalConsistencyError(
                f"minimal flats have unequal dimensions {base} and {p.flats[y].dim}"
            )
        sums[y] = 1 - sum(sums[j] for j in below)
    values = []
    for y in members:
        g = p.flats[y]
        level = g.dim - base
        value = (-1) ** level * sums[y]
        if value < 0:
            raise InternalConsistencyError(
                f"negative beta invariant {value} at flat {y}"
            )
        values.append(BetaValue(flat=g, degree=level, value=value))
    return values
