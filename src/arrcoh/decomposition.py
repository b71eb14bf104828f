"""Symbolic graded decomposition of the group-ring cohomology of the
complement.

For an arrangement of rank l, the cohomology of the complement with
group-ring coefficients lives entirely in degree l, and its associated
graded module splits as a direct sum with one summand per flat G:
beta(A∩G) copies of the module induced up from the subgroup attached to
the central sub-arrangement A_G.  Each induced coefficient module is
itself computed recursively: in G's pivot coordinates A_G is central and
essential, one member H_inf is sent to infinity (deconing, which splits
off a C^* factor and drops the degree and the rank by one), and the
construction recurses on the affine arrangement of strictly smaller rank
that the others cut on {H_inf = 1}: each equation pulled back to it.

The recursion walks A's poset and builds no other.  The flats of the
decone of ess(A_G) at H_inf are the traces of the flats Y > G of A with
H_inf not in C(Y), with the same containing sets (Orlik-Terao ch. 1-2),
and a nested decone's flats are again such a set of A's flats.  So each
subproblem is a view of A's poset, a list of its flat indices, whose
beta comes from A's order (`beta_all_flats`); linear algebra only writes
each trace's canonical equations in the decone's chart.

The recursion returns the module printed for each flat, and a memo maps
each decone to its normalized module.  Depth and triviality are facts of
the rank, proved in `decompose_cohomology`.

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
from typing import Sequence

from ._record import record
from .arrangement import (
    Arrangement,
    Flat,
    FlatChart,
    Hyperplane,
    IntersectionPoset,
)
from .errors import InputError
from .exact_linalg import AffineSubspace, RationalMatrix, Vector, solve_affine
from .invariants import beta_all_flats


# --- module expressions -------------------------------------------------


@record
class Free:
    """Free module of the given rank over the current group ring."""

    rank: int


@record
class TrivialZ:
    """The integers with trivial group action."""


@record
class TensorTrivial:
    """inner ⊗ Z, the extra infinite cyclic factor acting trivially on Z."""

    inner: "ModuleExpr"


@record
class Induced:
    """inner ⊗ over the subgroup attached to `flat`, induced up."""

    flat: AffineSubspace
    inner: "ModuleExpr"


@record
class Sum:
    """Direct sum of the parts."""

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


def _pull_back(normals: Sequence[Vector]) -> Arrangement:
    """Decone of the central essential arrangement {c.u = 0 : c in normals}
    at H_inf = normals[0]: every other equation pulled back to the chart
    {H_inf = 1}.  Normals must be canonically scaled."""
    chart = FlatChart.for_subspace(Hyperplane(normals[0], 1).subspace())
    return Arrangement(
        chart.dim, tuple(Hyperplane.from_coeffs(*chart.pull_equation(c, 0)) for c in normals[1:])
    )


def decone(a: Arrangement, h_infinity: int) -> Arrangement:
    """Associated affine arrangement of a central essential arrangement.

    With z = x - center, each other h.z = 0 is pulled back to the chart
    {a_inf.z = 1} with coordinates z minus z_p, p the pivot of a_inf:
    head.y = -h_p, head_j = h_j - h_p a_inf[j] (a_inf[p] = 1 by canonical
    scaling).  |A| - 1 hyperplanes in C^{n-1}, with the rank dropped by one.
    """
    if not a.hyperplanes:
        raise InputError("cannot decone an empty arrangement")
    if not 0 <= h_infinity < len(a.hyperplanes):
        raise InputError(f"hyperplane index {h_infinity} out of range")
    normals = tuple(h.normal for h in a.hyperplanes)
    center = solve_affine(RationalMatrix(normals, a.ambient_dim), [h.offset for h in a.hyperplanes])
    if center is None:
        raise InputError("deconing requires a central arrangement")
    if center.dim != 0:
        raise InputError("deconing requires an essential arrangement")
    return _pull_back((normals[h_infinity],) + normals[:h_infinity] + normals[h_infinity + 1:])


def decone_flats(
    p: IntersectionPoset, g: Flat, h_infinity: int, deconed: Arrangement
) -> list[tuple[int, AffineSubspace, int]]:
    """The flats of `deconed` = decone(ess(A_G), h_infinity) as a view of p.

    With H_inf at position `h_infinity` of sorted C(G), they are the
    traces of the flats Y > G with H_inf not in C(Y), and keep C(Y)
    (Orlik-Terao ch. 1-2).  Returns (index of Y in p, trace in the
    decone's chart, beta), in p's order: by descending dimension, but not
    necessarily in the order of the decone's own poset, whose ties are
    broken by the traces' equations.
    """
    kept = sorted(g.containing_hyperplanes)
    h_index = kept.pop(h_infinity)
    position = {i: j for j, i in enumerate(kept)}
    traces = {}
    for y in sorted(p.strictly_above[g.index]):
        c = p.flats[y].containing_hyperplanes
        if h_index in c:
            continue
        rows = [deconed.hyperplanes[position[i]] for i in c]
        system = RationalMatrix(tuple(h.normal for h in rows), deconed.ambient_dim)
        traces[y] = solve_affine(system, [h.offset for h in rows])
    members = list(traces)
    return [(y, traces[y], b.value) for y, b in zip(members, beta_all_flats(p, members))]


# --- the graded decomposition -------------------------------------------


@record
class Summand:
    """One flat's contribution to the concentrated degree."""

    flat_index: int
    subspace: AffineSubspace
    multiplicity: int
    module: ModuleExpr
    is_trivial_z: bool  # the summand is isomorphic to Z with trivial action


@record
class GradedDecomposition:
    """The associated graded module of the one nonzero degree, l = rank(A), by summand."""

    concentration_degree: int
    summands: tuple[Summand, ...]
    free_rank: int

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
    return any(s.is_trivial_z for s in d.summands)


def decompose_cohomology(p: IntersectionPoset) -> GradedDecomposition:
    """Symbolic graded decomposition of the concentrated cohomology degree.

    One summand per flat with positive beta invariant; the summand at the
    top is FREE(beta(A)), every other is beta copies of an induced
    tensored-trivial module built recursively through deconing.  At a
    flat G the hyperplane sent to infinity is the lowest-indexed member
    of C(G).  Every decone's flats are a view of p (`decone_flats`), so
    no poset is built here.  The recursion returns modules, memoized per
    decone; the summands and the decomposition are built only here.

    Depth: INDUCED nests exactly l = rank(A) deep.  The summand at G below
    C^n is one INDUCED over the module of a decone of rank codim G - 1,
    so by induction on rank it is codim G deep; a minimal flat has codim
    l and beta 1, and no flat has codim above l.

    Triviality: a summand is Z with trivial action iff beta = 1, C(G) = A
    and the decone's piece is trivial.  C(G) = A makes A central with
    center G, and then that is the only summand: every other restriction
    is central and nonempty, so its beta is 0.  The decone of ess(A) has
    |A| - 1 hyperplanes and rank l - 1, so by induction its piece is
    trivial iff |A| = l.  Hence the test |C(G)| = |A| = codim G: G is the
    center of a boolean A.  At rank 0 it holds at G = C^n, where FREE(1)
    over the trivial group is Z.
    """
    a = p.arrangement
    betas = beta_all_flats(p)
    memo: dict[Arrangement, ModuleExpr] = {}
    summands = []
    for f, b in zip(p.flats, betas):
        if b.value:
            module = _summand_module(p, a, range(len(a)), f.index, f.subspace, b.value, memo)
            trivial = len(f.containing_hyperplanes) == len(a) == f.codim
            summands.append(Summand(f.index, f.subspace, b.value, module, trivial))
    return GradedDecomposition(p.rank_l, tuple(summands), free_rank=betas[0].value)


def _summand_module(
    p: IntersectionPoset,
    a: Arrangement,
    position: dict[int, int] | range,
    y: int,
    trace: AffineSubspace,
    beta: int,
    memo: dict[Arrangement, ModuleExpr],
) -> ModuleExpr:
    """The module printed for p's flat y, seen as the flat `trace` of `a`
    with positive beta; p's hyperplane i is a's hyperplane position[i] in
    a's chart.  `memo` maps each decone to its normalized module."""
    if trace.is_whole_space:
        return Free(beta)
    g = p.flats[y]
    kept = sorted(g.containing_hyperplanes)
    # ess(A_G) in G's pivot coordinates, H_inf = min C(G) first.
    pivots = trace.pivot_columns()
    deconed = _pull_back(
        [tuple(a.hyperplanes[position[i]].normal[c] for c in pivots) for i in kept]
    )
    # Keyed by the decone, not by G: charts depend on the path, and the
    # INDUCED flats are printed in each chart, so one G can stand for
    # several distinct decones.
    inner = memo.get(deconed)
    if inner is None:
        if deconed.hyperplanes:
            inner_position = {i: j for j, i in enumerate(kept[1:])}
            inner = _sum_of_normalized([
                _summand_module(p, deconed, inner_position, z, z_trace, z_beta, memo)
                for z, z_trace, z_beta in decone_flats(p, g, 0, deconed)
                if z_beta
            ])
        else:
            # Rank-0 base case: FREE(1) over the trivial group is TRIVIAL_Z.
            inner = TrivialZ()
        memo[deconed] = inner
    # Already in normal form: inner is normal and nonzero, and beta
    # equal parts need no sorting.
    node = Induced(trace, TensorTrivial(inner))
    return node if beta == 1 else Sum((node,) * beta)
