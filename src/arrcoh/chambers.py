"""Real-geometry oracle: faces and chambers of the realified arrangement.

A face of A is a nonempty set {x : sign(a_i.x - b_i) = s_i for all i},
s in {+,0,-}^|A|.  Its affine hull is the flat G where s is 0, and the
faces with hull G are exactly the chambers of the restriction A∩G
(Zaslavsky 1975; Orlik-Terao ch. 2); A's chambers have hull the whole
space.  So one list of A's faces answers every flat: `list_faces` builds
it bottom-up over the intersection poset from integer homogeneous
witnesses, whose signs come from A's integer rows.  Boundedness needs no
solver: when A is essential, a face is unbounded iff one of the finitely
many candidate extreme rays of the recession cones (+-d, d spanning the
null space of n - 1 independent normals) keeps its signs.

`LinearSystem`, `fm_feasible` and `chamber_bounded` decide one strict
rational system at a time by Fourier-Motzkin elimination (combining each
lower bound with each upper bound preserves strictness; a region is
bounded iff its recession cone is {0}).  They are the single-system
reference the enumeration is tested against, and are not on its path.

For an essential arrangement defined over the reals the bounded-chamber
count of A∩G is a classical third route to beta(A∩G); `verify` reads it
off the face list as a cross-check, never as the definition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import record
from .arrangement import Arrangement, IntersectionPoset, build_intersection_poset
from .errors import InputError, ResourceCapError
from .exact_linalg import Vector, as_rational, vector

if TYPE_CHECKING:
    from fractions import Fraction

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
    from fractions import Fraction

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
    from fractions import Fraction

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


Signs = tuple[int, int]  # masks of the hyperplanes with a.x > b and with a.x < b
Faces = dict[Signs, tuple[tuple[int, ...], tuple[int, ...]]]


def _signs(values: Sequence[int]) -> Signs:
    return (sum(1 << i for i, v in enumerate(values) if v > 0),
            sum(1 << i for i, v in enumerate(values) if v < 0))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def list_faces(
    p: IntersectionPoset, members: Iterable[int]
) -> tuple[dict[int, Faces], set[Signs]]:
    """The faces of A whose affine hull is G, for each flat G of the
    down-set `members` (the chambers of A∩G), and the signs of the
    candidate extreme rays of their recession cones.

    A face is keyed by its signs and holds an integer homogeneous witness
    w = (y, t), t > 0, of the point y / t, with its values r.w on A's
    integer rows r = (a, -b), whose signs are those of a.x - b.  A minimal
    flat is one face.  Otherwise each chamber of A∩G has a facet, a face
    of some K covered by G, so the flats are visited by ascending
    dimension, and each face w of K steps to s w +- (v, 0), where v is a
    direction of G but not of K and s > |r.v| / |r.w| wherever r.w != 0,
    so no sign of w changes.

    A face is unbounded iff a ray of its recession cone keeps its signs.
    If A is not essential, every face holds a line, with signs (0, 0).
    Otherwise the cone of a face with hull G is pointed, so it is nonzero
    iff it has an extreme ray, cut out by n - 1 independent normals,
    C(G)'s and the tight ones: it is +-v for v the direction of the line
    they cut out, a flat of `members` below G.
    """
    rows = [h.row[:-1] + (-h.row[-1],) for h in p.arrangement.hyperplanes]
    faces: dict[int, Faces] = {}
    rays = {(0, 0)} if p.n0 else set()
    for g in sorted(members, key=lambda i: p.flats[i].dim):
        flat = p.flats[g]
        w, directions = flat.subspace.lattice_chart()
        covered = p.covers(g)
        if not covered:
            values = tuple(_dot(r, w) for r in rows)
            faces[g] = {_signs(values): (w, values)}
            continue
        found: Faces = {}
        for k in covered:
            # K = G ∩ H_i for every i in C(K) - C(G), so a.v != 0 there for
            # a direction v of G exactly when v is not a direction of K.
            new_zeros = p.flats[k].containing_hyperplanes - flat.containing_hyperplanes
            v = next(d for d in directions if _dot(rows[min(new_zeros)], d)) + (0,)
            slopes = [_dot(r, v) for r in rows]
            up, down = _signs(slopes)
            if flat.dim == 1:
                rays |= {(up, down), (down, up)}
            # A stepped face keeps every nonzero sign of w, and the hyperplanes
            # of C(K) - C(G), zero on w, take the sign of side * slope.
            mask = sum(1 << i for i in new_zeros)
            sides = ((1, up & mask, down & mask), (-1, down & mask, up & mask))
            for (plus, minus), (w, values) in faces[k].items():
                s = 1 + max((abs(c) // abs(x) for c, x in zip(slopes, values) if x), default=0)
                for side, to_plus, to_minus in sides:
                    signs = (plus | to_plus, minus | to_minus)
                    if signs not in found:
                        found[signs] = (tuple(s * x + side * c for x, c in zip(w, v)),
                                        tuple(s * x + side * c for x, c in zip(values, slopes)))
        faces[g] = found
    return faces, rays


def is_bounded(signs: Signs, rays: Iterable[Signs]) -> bool:
    """Whether the face with these signs is bounded: no ray of
    `list_faces` has each nonzero sign equal to the face's."""
    plus, minus = signs
    return not any(up & ~plus == 0 and down & ~minus == 0 for up, down in rays)


def enumerate_chambers(a: Arrangement) -> ChamberReport:
    """All feasible sign vectors of the real arrangement, with boundedness:
    the faces of A whose hull is the whole space."""
    m = len(a)
    if m > MAX_CHAMBER_HYPERPLANES:
        raise ResourceCapError(
            f"{m} hyperplanes exceeds the chamber cap of {MAX_CHAMBER_HYPERPLANES}"
        )
    if a.ambient_dim > MAX_FM_DIM:
        raise ResourceCapError(f"dimension {a.ambient_dim} exceeds the cap of {MAX_FM_DIM}")
    p = build_intersection_poset(a)
    faces, rays = list_faces(p, range(len(p.flats)))
    chambers = sorted(
        (Chamber("".join("-+"[s[0] >> i & 1] for i in range(m)), is_bounded(s, rays))
         for s in faces[p.top.index]),
        key=lambda c: c.signs,
    )
    bounded_count = sum(c.bounded for c in chambers)
    return ChamberReport(len(chambers), bounded_count, tuple(chambers))
