"""Symbolic graded decomposition of the group-ring cohomology of the
complement.

For an arrangement of rank l, the cohomology of the complement with
group-ring coefficients lives entirely in degree l, and its associated
graded module splits as a direct sum with one summand per flat G:
beta(A∩G) copies of the module induced up from the subgroup attached to
the central sub-arrangement A_G.  Each induced coefficient module is
itself computed recursively: A_G is essentialized, one hyperplane is
sent to infinity (deconing, which splits off a C^* factor and drops the
degree and the rank by one), and the construction recurses on the
resulting affine arrangement of strictly smaller rank.

The recursion never rebuilds a poset from geometry.  The flats of the
decone of ess(A_G) at H_inf are the traces of the flats Y > G with
H_inf not in C(Y), with the same containing sets (Orlik-Terao ch. 1-2),
so each decone's poset is read off the poset above it; linear algebra
only writes each trace's canonical equations in the decone's chart.

The emitted object is symbolic: a tree of module expressions (FREE,
TRIVIAL_Z, TENSOR_TRIVIAL, INDUCED, SUM) over the group ring,
graded by the concentration degree.  The summand at G = C^n is the only
free one, of rank beta(A); every other summand carries a TENSOR_TRIVIAL
node (an infinite cyclic factor acting trivially), which is exactly why
it is not free.  No extension data between summands is guessed: this is
the associated graded module, not the ungraded one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
    assemble_poset,
    essential_arrangement,
)
from .errors import InputError, InternalConsistencyError
from .exact_linalg import AffineSubspace, RationalMatrix, intersect_flats, solve_affine
from .invariants import beta_all_flats


# --- module expressions -------------------------------------------------


@dataclass(frozen=True)
class Free:
    """Free module of the given rank over the current group ring."""

    rank: int


@dataclass(frozen=True)
class TrivialZ:
    """The integers with trivial group action."""


@dataclass(frozen=True)
class TensorTrivial:
    """inner ⊗ Z, the extra infinite cyclic factor acting trivially on Z."""

    inner: "ModuleExpr"


@dataclass(frozen=True)
class Induced:
    """inner ⊗ over the subgroup attached to `flat`, induced up."""

    flat: AffineSubspace
    inner: "ModuleExpr"


@dataclass(frozen=True)
class Sum:
    parts: tuple["ModuleExpr", ...]


ModuleExpr = Free | TrivialZ | TensorTrivial | Induced | Sum

ZERO = Free(0)


def module_to_json(m: ModuleExpr) -> dict:
    if isinstance(m, Free):
        return {"kind": "FREE", "rank": m.rank}
    if isinstance(m, TrivialZ):
        return {"kind": "TRIVIAL_Z"}
    if isinstance(m, TensorTrivial):
        return {"kind": "TENSOR_TRIVIAL", "inner": module_to_json(m.inner)}
    if isinstance(m, Induced):
        return {"kind": "INDUCED", "flat": m.flat.to_json(), "inner": module_to_json(m.inner)}
    if isinstance(m, Sum):
        return {"kind": "SUM", "parts": [module_to_json(x) for x in m.parts]}
    raise InputError(f"not a module expression: {m!r}")


def _expr_key(m: ModuleExpr) -> tuple[int, str]:
    kind_rank = {Free: 0, TrivialZ: 1, TensorTrivial: 2, Induced: 3, Sum: 4}
    return (kind_rank[type(m)], json.dumps(module_to_json(m), sort_keys=True))


def _sum_of_normalized(parts: list[ModuleExpr]) -> ModuleExpr:
    """Flatten, drop zeros, merge FREE ranks, sort.  Parts must already be
    in normal form; they are not normalized again."""
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
    """Canonical form: zero modules and empty sums eliminated, nested
    sums flattened, FREE parts merged, parts in a deterministic order.
    Idempotent; expressions are compared for equality only in this form."""
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


def top_level_free_nodes(m: ModuleExpr) -> list[Free]:
    """FREE nodes reachable through SUM only.

    These are free direct summands over the ambient group ring; FREE
    nodes below an INDUCED or TENSOR_TRIVIAL boundary refer to smaller
    group rings and do not count.
    """
    if isinstance(m, Free):
        return [m]
    if isinstance(m, Sum):
        return [f for part in m.parts for f in top_level_free_nodes(part)]
    return []


def contains_tensor_trivial(m: ModuleExpr) -> bool:
    if isinstance(m, TensorTrivial):
        return True
    if isinstance(m, Induced):
        return contains_tensor_trivial(m.inner)
    if isinstance(m, Sum):
        return any(contains_tensor_trivial(p) for p in m.parts)
    return False


# --- deconing -----------------------------------------------------------


def decone(a: Arrangement, h_infinity: int) -> Arrangement:
    """Associated affine arrangement of a central essential arrangement.

    With p the first nonzero column of the chosen normal a_inf (a_inf[p]
    = 1 by canonical scaling), the chart is x' = (z without z_p, a_inf.z)
    for z = x - center.  A hyperplane h.z = 0 becomes the substitution
    head.y = -h_p on {x'_n = 1}, head_j = h_j - h_p a_inf[j] for j != p:
    |A| - 1 hyperplanes in C^{n-1}, with the rank dropped by one.
    """
    if not a.hyperplanes:
        raise InputError("cannot decone an empty arrangement")
    if not 0 <= h_infinity < len(a.hyperplanes):
        raise InputError(f"hyperplane index {h_infinity} out of range")
    center = AffineSubspace.whole_space(a.ambient_dim)
    for h in a.hyperplanes:
        cut = intersect_flats(center, h.subspace())
        if cut is None:
            raise InputError("deconing requires a central arrangement")
        center = cut
    if center.dim != 0:
        raise InputError("deconing requires an essential arrangement")

    a_inf = a.hyperplanes[h_infinity].normal
    pivot = next(j for j, x in enumerate(a_inf) if x != 0)
    hyperplanes = []
    for i, h in enumerate(a.hyperplanes):
        if i == h_infinity:
            continue
        last = h.normal[pivot] / a_inf[pivot]
        head = tuple(
            x - last * y for j, (x, y) in enumerate(zip(h.normal, a_inf)) if j != pivot
        )
        if all(x == 0 for x in head):
            raise InternalConsistencyError(
                "non-infinity hyperplane became parallel to the chart"
            )
        hyperplanes.append(Hyperplane.from_coeffs(head, -last))
    return Arrangement(a.ambient_dim - 1, tuple(hyperplanes))


def decone_poset(
    p: IntersectionPoset, g: Flat, h_infinity: int, deconed: Arrangement
) -> IntersectionPoset:
    """The poset of `deconed` = decone(ess(A_G), h_infinity), read off p.

    With H_inf at position `h_infinity` of sorted C(G), its flats are the
    chart traces of the flats Y > G with H_inf not in C(Y), and each keeps
    C(Y), renumbered to the decone's hyperplanes (Orlik-Terao ch. 1-2).
    Linear algebra only solves Y's hyperplanes in the decone's chart.
    """
    kept = sorted(g.containing_hyperplanes)
    h_index = kept.pop(h_infinity)
    position = {i: j for j, i in enumerate(kept)}
    containing: dict[AffineSubspace, frozenset[int]] = {}
    for y in p.strictly_above[g.index]:
        c = p.flats[y].containing_hyperplanes
        if h_index in c:
            continue
        rows = [deconed.hyperplanes[position[i]] for i in c]
        system = RationalMatrix(tuple(h.normal for h in rows), deconed.ambient_dim)
        trace = solve_affine(system, [h.offset for h in rows])
        containing[trace] = frozenset(position[i] for i in c)
    return assemble_poset(deconed, containing)


# --- the graded decomposition -------------------------------------------


@dataclass(frozen=True)
class Summand:
    """One flat's contribution to the concentrated degree."""

    flat_index: int
    subspace: AffineSubspace
    multiplicity: int
    module: ModuleExpr
    is_trivial_z: bool  # the summand is isomorphic to Z with trivial action


@dataclass(frozen=True)
class GradedDecomposition:
    arrangement: Arrangement
    concentration_degree: int
    summands: tuple[Summand, ...]
    free_rank: int
    recursion_depth: int

    def module_expression(self) -> ModuleExpr:
        """The whole concentrated degree as one normalized expression."""
        return _sum_of_normalized([s.module for s in self.summands])

    def to_json(self) -> dict:
        return {
            "object": "associated graded module of the concentrated degree",
            "degree": self.concentration_degree,
            "free_rank": self.free_rank,
            "l2_note": L2_NOTE,
            "duality_note": DUALITY_NOTE,
            "summands": [
                {
                    "flat": s.subspace.to_json(),
                    "multiplicity": s.multiplicity,
                    "module": module_to_json(s.module),
                    "is_trivial_z": s.is_trivial_z,
                }
                for s in self.summands
            ],
        }


L2_NOTE = (
    "the free summand at G = C^n injects into reduced l2-cohomology of the "
    "complement; all other summands map to 0 there"
)

DUALITY_NOTE = (
    "whenever the complement is aspherical, concentration in one degree plus "
    "torsion-freeness makes its fundamental group a duality group; "
    "asphericity is not decided here"
)

def graded_piece_is_trivial_z(d: GradedDecomposition) -> bool:
    """True iff the concentrated degree is Z with trivial group action."""
    if not d.arrangement.hyperplanes:
        return d.free_rank == 1  # rank 0: the group is trivial, Z[pi] = Z
    return (
        d.free_rank == 0
        and len(d.summands) == 1
        and d.summands[0].multiplicity == 1
        and d.summands[0].is_trivial_z
    )


def decompose_cohomology(p: IntersectionPoset, *, infinity: int = 0) -> GradedDecomposition:
    """Symbolic graded decomposition of the concentrated cohomology degree.

    One summand per flat with positive beta invariant; the summand at the
    top is FREE(beta(A)), every other is beta copies of an induced
    tensored-trivial module built recursively through deconing.  At a
    flat G the hyperplane sent to infinity is the one at position
    min(infinity, |A_G| - 1) of sorted C(G).  Every decone's poset is
    read off the poset above it (`decone_poset`), so no poset is built
    here; decompositions of sub-arrangements are memoized per call.
    """
    return _decompose(p, infinity, {})


def _decompose(
    p: IntersectionPoset,
    infinity: int,
    memo: dict[Arrangement, GradedDecomposition],
) -> GradedDecomposition:
    a = p.arrangement
    summands: list[Summand] = []
    free_rank = 0
    depth = 0
    for g, b in zip(p.flats, beta_all_flats(p)):
        beta = b.value
        if beta == 0:
            continue
        if g.is_top:
            covers_all = not a.hyperplanes
            summands.append(
                Summand(
                    flat_index=g.index,
                    subspace=g.subspace,
                    multiplicity=beta,
                    module=Free(beta),
                    is_trivial_z=covers_all and beta == 1,
                )
            )
            free_rank = beta
            continue
        ess = essential_arrangement(g.subspace, p.subarrangement(g).hyperplanes)
        h_inf = min(infinity, len(ess.hyperplanes) - 1)
        deconed = decone(ess, h_inf)
        # Charts depend on the path, so the memo is keyed by the decone.
        inner_dec = memo.get(deconed)
        if inner_dec is None:
            inner_dec = _decompose(decone_poset(p, g, h_inf, deconed), infinity, memo)
        depth = max(depth, inner_dec.recursion_depth + 1)
        if deconed.hyperplanes:
            inner = inner_dec.module_expression()
            inner_trivial = graded_piece_is_trivial_z(inner_dec)
        else:
            # Rank-0 base case: FREE(1) over the trivial group is TRIVIAL_Z.
            inner = TrivialZ()
            inner_trivial = True
        # A_G is the whole arrangement (subgroup = whole group).
        covers_all = len(g.containing_hyperplanes) == len(a.hyperplanes)
        # Already in normal form: inner is normal and nonzero, and beta
        # equal parts need no sorting.
        node = Induced(g.subspace, TensorTrivial(inner))
        module = node if beta == 1 else Sum((node,) * beta)
        summands.append(
            Summand(
                flat_index=g.index,
                subspace=g.subspace,
                multiplicity=beta,
                module=module,
                is_trivial_z=beta == 1 and covers_all and inner_trivial,
            )
        )
    result = GradedDecomposition(
        arrangement=a,
        concentration_degree=p.rank_l,
        summands=tuple(summands),
        free_rank=free_rank,
        recursion_depth=depth,
    )
    memo[a] = result
    return result


def decomposition_signature(
    d: GradedDecomposition,
) -> tuple[int, int, tuple[tuple[tuple, int], ...]]:
    """(degree, free_rank, per-flat multiplicities) for invariance checks."""
    mults = tuple(
        sorted(
            (s.subspace.sort_key(), s.multiplicity) for s in d.summands
        )
    )
    return (d.concentration_degree, d.free_rank, mults)
