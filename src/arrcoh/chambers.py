"""Real-geometry oracle: chambers of the realified arrangement.

A chamber is a sign vector s in {+,-}^|A| whose open region
{x : sign(a_i.x - b_i) = s_i for all i} is nonempty.  Chambers are found
by deletion-restriction (Zaslavsky 1975; Orlik-Terao ch. 2): the
hyperplanes are added in input order, each region keeps one rational
interior witness, and H_k splits exactly the regions that some chamber
of the restriction to H_k meets; those chambers come from the same
routine one dimension down.  Boundedness needs no solver: when the
normals have full rank, a chamber is unbounded iff one of the finitely
many candidate extreme rays of the recession cones (+-d, d spanning the
null space of n - 1 independent normals) keeps its signs.

`LinearSystem`, `fm_feasible` and `chamber_bounded` decide one strict
rational system at a time by Fourier-Motzkin elimination (combining each
lower bound with each upper bound preserves strictness; a region is
bounded iff its recession cone is {0}).  They are the single-system
reference the enumeration is tested against, and are not on its path.

For an essential arrangement defined over the reals the bounded-chamber
count is a classical third route to the beta invariant of the whole
arrangement; it is wired as a cross-check elsewhere, never as the
definition.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .arrangement import Arrangement, Hyperplane
from .errors import InputError, ResourceCapError
from .exact_linalg import (
    Vector,
    as_rational,
    dot,
    null_space_basis,
    pull_equation,
    rref,
    vector,
)

MAX_FM_DIM = 6
MAX_FM_CONSTRAINTS = 24
MAX_CHAMBER_HYPERPLANES = 12


@record
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


@record
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


@record
class Chamber:
    """One chamber of the real arrangement: its sign vector and whether it is bounded."""

    signs: str
    bounded: bool


@record
class ChamberReport:
    """Every chamber in sign-vector order, with the total and bounded counts."""

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
    flat = Hyperplane(normal, offset).subspace()
    traces: dict[tuple[Vector, Fraction], None] = {}
    for a, b in rows:
        trace, const = pull_equation(flat, a, b)
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
    if len(rref(distinct, n)[1]) < n:
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


def enumerate_chambers(a: Arrangement) -> ChamberReport:
    """All feasible sign vectors of the real arrangement, with boundedness."""
    m = len(a)
    if m > MAX_CHAMBER_HYPERPLANES:
        raise ResourceCapError(
            f"{m} hyperplanes exceeds the chamber cap of {MAX_CHAMBER_HYPERPLANES}"
        )
    if a.ambient_dim > MAX_FM_DIM:
        raise ResourceCapError(f"dimension {a.ambient_dim} exceeds the cap of {MAX_FM_DIM}")
    rows = [(h.normal, h.offset) for h in a.hyperplanes]
    rays = _recession_rays([h.normal for h in a.hyperplanes], a.ambient_dim)
    chambers = []
    for signs in sorted(_region_witnesses(rows, a.ambient_dim)):
        plus = sum(1 << i for i, s in enumerate(signs) if s == "+")
        bounded = rays is not None and not any(
            up & ~plus == 0 and down & plus == 0 for up, down in rays
        )
        chambers.append(Chamber(signs, bounded))
    bounded_count = sum(c.bounded for c in chambers)
    return ChamberReport(len(chambers), bounded_count, tuple(chambers))
