"""Real-geometry oracle: chambers of the realified arrangement.

A chamber is a sign vector s in {+,-}^|A| whose open region
{x : sign(a_i.x - b_i) = s_i for all i} is nonempty.  Feasibility of
the strict rational system is decided exactly by Fourier-Motzkin
elimination (combining each lower bound with each upper bound preserves
strictness), and boundedness by eliminating over the homogenized weak
system: a chamber is bounded iff its recession cone is {0}.

For an essential arrangement defined over the reals the bounded-chamber
count is a classical third route to the beta invariant of the whole
arrangement; it is wired as a cross-check elsewhere, never as the
definition.  Enumeration is the plain 2^|A| sweep; the cap keeps that
honest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arrangement import Arrangement
from .errors import InputError, ResourceCapError
from .exact_linalg import Vector, as_rational, dot, vector

MAX_FM_DIM = 6
MAX_FM_CONSTRAINTS = 24
MAX_CHAMBER_HYPERPLANES = 12


@dataclass(frozen=True)
class Constraint:
    """coeffs.x < rhs when strict, else coeffs.x <= rhs."""

    coeffs: Vector
    rhs: Fraction
    strict: bool

    def scaled_canonical(self) -> Constraint:
        lead = next((x for x in self.coeffs if x != 0), None)
        if lead is None:
            return self
        factor = abs(lead)  # positive scaling preserves the inequality
        if factor == 1:
            return self
        return Constraint(
            tuple(x / factor for x in self.coeffs), self.rhs / factor, self.strict
        )

    def is_constant(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def constant_holds(self) -> bool:
        return self.rhs > 0 if self.strict else self.rhs >= 0


@dataclass(frozen=True)
class LinearSystem:
    """Conjunction of strict/weak inequalities over Q^n."""

    ambient_dim: int
    constraints: tuple[Constraint, ...]

    @staticmethod
    def from_relations(
        ambient_dim: int,
        relations: Iterable[tuple[Sequence[int | str | Fraction], int | str | Fraction, str]],
    ) -> LinearSystem:
        """Build from (coefficients, rhs, relation) triples, relation in {<, >, <=, >=}."""
        constraints = []
        for coeffs, rhs, rel in relations:
            a = vector(coeffs)
            b = as_rational(rhs)
            if len(a) != ambient_dim:
                raise InputError(f"constraint has {len(a)} coefficients, expected {ambient_dim}")
            if rel in ("<", "<="):
                constraints.append(Constraint(a, b, rel == "<"))
            elif rel in (">", ">="):
                constraints.append(
                    Constraint(tuple(-x for x in a), -b, rel == ">")
                )
            else:
                raise InputError(f"unknown relation {rel!r}")
        return LinearSystem(ambient_dim, tuple(constraints))


def _dedup(constraints: Iterable[Constraint]) -> list[Constraint]:
    seen: set[Constraint] = set()
    out = []
    for c in constraints:
        canon = c.scaled_canonical()
        if canon in seen:
            continue
        seen.add(canon)
        out.append(canon)
    return out


def _eliminate(constraints: list[Constraint], var: int) -> list[Constraint] | None:
    """One Fourier-Motzkin step; None signals a detected contradiction."""
    keep: list[Constraint] = []
    uppers: list[Constraint] = []  # positive coefficient on var
    lowers: list[Constraint] = []  # negative coefficient on var
    for c in constraints:
        coef = c.coeffs[var]
        if coef == 0:
            keep.append(c)
        elif coef > 0:
            uppers.append(c)
        else:
            lowers.append(c)
    combined: list[Constraint] = []
    for lo in lowers:
        for up in uppers:
            # lo: x >= (expr_lo), up: x <= (expr_up); expr_lo (<|<=) expr_up.
            cl, cu = -lo.coeffs[var], up.coeffs[var]
            coeffs = tuple(
                lo.coeffs[j] * cu + up.coeffs[j] * cl if j != var else Fraction(0)
                for j in range(len(lo.coeffs))
            )
            rhs = lo.rhs * cu + up.rhs * cl
            combined.append(Constraint(coeffs, rhs, lo.strict or up.strict))
    result = []
    for c in _dedup(keep + combined):
        if c.is_constant():
            if not c.constant_holds():
                return None
            continue
        result.append(c)
    return result


def _check_caps(s: LinearSystem) -> None:
    if s.ambient_dim > MAX_FM_DIM:
        raise ResourceCapError(f"dimension {s.ambient_dim} exceeds the cap of {MAX_FM_DIM}")
    if len(s.constraints) > MAX_FM_CONSTRAINTS:
        raise ResourceCapError(
            f"{len(s.constraints)} constraints exceed the cap of {MAX_FM_CONSTRAINTS}"
        )


def _elimination_levels(s: LinearSystem) -> list[list[Constraint]] | None:
    """The constraints left before eliminating each variable in turn;
    None when a contradiction shows the system is infeasible."""
    _check_caps(s)
    current = _dedup(s.constraints)
    if any(c.is_constant() and not c.constant_holds() for c in current):
        return None
    current = [c for c in current if not c.is_constant()]
    levels: list[list[Constraint]] = []
    for var in range(s.ambient_dim):
        levels.append(current)
        step = _eliminate(current, var)
        if step is None:
            return None
        current = step
    return levels


def fm_feasible(s: LinearSystem) -> bool:
    """Exact emptiness test for an open/closed rational polyhedron."""
    return _elimination_levels(s) is not None


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


def chamber_bounded(s: LinearSystem) -> bool:
    """True iff the feasible region's recession cone is {0}.

    The recession cone is the weak homogenized system; it contains a
    nonzero vector iff it contains one with some |v_i| >= 1.
    """
    if not fm_feasible(s):
        raise InputError("boundedness is undefined for an infeasible system")
    n = s.ambient_dim
    cone = [Constraint(c.coeffs, Fraction(0), False) for c in s.constraints]
    for i in range(n):
        for sign in (1, -1):
            unit = tuple(Fraction(-sign if j == i else 0) for j in range(n))
            probe = LinearSystem(
                n, tuple(cone) + (Constraint(unit, Fraction(-1), False),)
            )
            if fm_feasible(probe):
                return False
    return True


@dataclass(frozen=True)
class Chamber:
    signs: str
    bounded: bool


@dataclass(frozen=True)
class ChamberReport:
    total: int
    bounded: int
    chambers: tuple[Chamber, ...]

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "bounded": self.bounded,
            "chambers": [
                {"signs": c.signs, "bounded": c.bounded} for c in self.chambers
            ],
        }


def chamber_system(a: Arrangement, signs: Sequence[str]) -> LinearSystem:
    relations = []
    for h, sign in zip(a.hyperplanes, signs):
        rel = ">" if sign == "+" else "<"
        relations.append((h.normal, h.offset, rel))
    return LinearSystem.from_relations(a.ambient_dim, relations)


def enumerate_chambers(a: Arrangement) -> ChamberReport:
    """All feasible sign vectors of the real arrangement, with boundedness."""
    m = len(a)
    if m > MAX_CHAMBER_HYPERPLANES:
        raise ResourceCapError(
            f"{m} hyperplanes exceeds the chamber cap of {MAX_CHAMBER_HYPERPLANES}"
        )
    chambers = []
    bounded_count = 0
    for signs in itertools.product("+-", repeat=m):
        system = chamber_system(a, signs)
        if not fm_feasible(system):
            continue
        bounded = chamber_bounded(system)
        bounded_count += int(bounded)
        chambers.append(Chamber("".join(signs), bounded))
    return ChamberReport(len(chambers), bounded_count, tuple(chambers))
