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
each decone to its module, looked up first by the normals the decone is
pulled back from, and built in normal form (`_decone_sum`): the
FREE part of the decone's top first, then the INDUCED parts, each repeated
beta times, ordered by the JSON text of their flat.  Zero parts and empty
sums cannot occur.  Depth and triviality are facts of the rank, proved in
`decompose_cohomology`.

The emitted object is symbolic: a tree of module expressions (FREE,
TRIVIAL_Z, TENSOR_TRIVIAL, INDUCED, SUM) over the group ring,
graded by the concentration degree.  The summand at G = C^n is the only
free one, of rank beta(A); every other summand carries a TENSOR_TRIVIAL
node (an infinite cyclic factor acting trivially), which is exactly why
it is not free.  No extension data between summands is guessed: this is
the associated graded module, not the ungraded one.
"""

from __future__ import annotations

from typing import Sequence

from ._record import record
from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
)
from .errors import InputError
from .exact_linalg import AffineSubspace, Row, primitive, pull_equation, solve_rows
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


def module_to_json(m: ModuleExpr, memo: dict[int, tuple[ModuleExpr, dict]]) -> dict:
    """The JSON object of a module, one per module object: `memo` maps id(m) to (m, object)."""
    if id(m) in memo:
        return memo[id(m)][1]
    if isinstance(m, Free):
        obj = {"kind": "FREE", "rank": m.rank}
    elif isinstance(m, TrivialZ):
        obj = {"kind": "TRIVIAL_Z"}
    elif isinstance(m, TensorTrivial):
        obj = {"kind": "TENSOR_TRIVIAL", "inner": module_to_json(m.inner, memo)}
    elif isinstance(m, Induced):
        # The flat is rendered where it stands (`_writer`): no dict per flat.
        obj = {"kind": "INDUCED", "flat": m.flat, "inner": module_to_json(m.inner, memo)}
    elif isinstance(m, Sum):
        obj = {"kind": "SUM", "parts": [module_to_json(x, memo) for x in m.parts]}
    else:
        raise InputError(f"not a module expression: {m!r}")
    memo[id(m)] = (m, obj)
    return obj


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


def _pull_back(normals: Sequence[Row]) -> Arrangement:
    """Decone of the central essential arrangement {c.u = 0 : c in normals}
    (integer normals) at H_inf = normals[0]: every other equation pulled
    back to the chart {H_inf = 1}, i.e. {c.u = c_p}, c = normals[0], c_p its lead."""
    head = normals[0]
    chart = Hyperplane.from_row(head + (next(filter(None, head)),)).subspace()
    pulled = (Hyperplane.from_row(pull_equation(chart, c + (0,))) for c in normals[1:])
    return Arrangement(chart.dim, tuple(pulled))


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
    center = solve_rows([h.row for h in a.hyperplanes], a.ambient_dim)
    if center is None:
        raise InputError("deconing requires a central arrangement")
    if center.dim != 0:
        raise InputError("deconing requires an essential arrangement")
    normals = tuple(h.row[:-1] for h in a.hyperplanes)
    return _pull_back((normals[h_infinity],) + normals[:h_infinity] + normals[h_infinity + 1:])


def decone_view(p: IntersectionPoset, g: Flat, h_infinity: int) -> list[tuple[int, int]]:
    """The flats of decone(ess(A_G), h_infinity) as a view of p.

    With H_inf at position `h_infinity` of sorted C(G), they are the
    traces of the flats Y > G with H_inf not in C(Y), and keep C(Y)
    (Orlik-Terao ch. 1-2).  Returns (index of Y in p, beta), in p's
    order: by descending dimension, but not necessarily in the order of
    the decone's own poset, whose ties are broken by the traces'
    equations (`decone_trace`)."""
    h_index = sorted(g.containing_hyperplanes)[h_infinity]
    members = [
        y for y in p.strictly_above[g.index] if h_index not in p.flats[y].containing_hyperplanes
    ]
    return [(y, b.value) for y, b in zip(members, beta_all_flats(p, members))]


def decone_trace(deconed: Arrangement, position: dict[int, int], c: frozenset[int]) -> AffineSubspace:
    """The trace of a view member with containing set c: p's hyperplane i is position[i]."""
    return solve_rows([deconed.hyperplanes[position[i]].row for i in c], deconed.ambient_dim)


def decone_flats(
    p: IntersectionPoset, g: Flat, h_infinity: int, deconed: Arrangement
) -> list[tuple[int, AffineSubspace, int]]:
    """`decone_view` as (index of Y in p, trace in the chart of `deconed`, beta)."""
    kept = sorted(g.containing_hyperplanes)
    del kept[h_infinity]
    position = {i: j for j, i in enumerate(kept)}
    return [
        (y, decone_trace(deconed, position, p.flats[y].containing_hyperplanes), b)
        for y, b in decone_view(p, g, h_infinity)
    ]


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
        memo: dict[int, tuple[ModuleExpr, dict]] = {}
        return {
            "object": "associated graded module of the concentrated degree",
            "degree": self.concentration_degree,
            "free_rank": self.free_rank,
            "l2_note": L2_NOTE,
            "duality_note": DUALITY_NOTE,
            "summands": [
                {
                    "flat": s.subspace,
                    "multiplicity": s.multiplicity,
                    "module": module_to_json(s.module, memo),
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
    of C(G).  Every decone's flats are a view of p (`decone_view`), so
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
    front: dict[tuple[Row, ...], ModuleExpr] = {}
    memo: dict[Arrangement, ModuleExpr] = {}
    summands = []
    for f, b in zip(p.flats, betas):
        if b.value:
            module = _summand_module(
                p, a, range(len(a)), f.index, f.subspace, b.value, front, memo
            )
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
    front: dict[tuple[Row, ...], ModuleExpr],
    memo: dict[Arrangement, ModuleExpr],
) -> ModuleExpr:
    """The module printed for p's flat y, seen as the flat `trace` of `a`
    with positive beta; p's hyperplane i is a's hyperplane position[i] in
    a's chart.  `memo` maps each decone to its module, in normal form, and
    `front` maps the normals a decone is pulled back from to the same module."""
    if trace.is_whole_space:
        return Free(beta)
    g = p.flats[y]
    kept = sorted(g.containing_hyperplanes)
    # ess(A_G) in G's pivot coordinates, H_inf = min C(G) first, each
    # normal primitive: the decone depends on no normal's scale.
    pivots = trace.pivot_columns()
    normals = tuple(primitive([a.hyperplanes[position[i]].row[c] for c in pivots]) for i in kept)
    # The decone is a function of these normals, so a repeated tuple skips
    # the pull-back.
    inner = front.get(normals)
    if inner is None:
        deconed = _pull_back(normals)
        # Keyed by the decone, not by G: charts depend on the path, and the
        # INDUCED flats are printed in each chart, so one G can stand for
        # several distinct decones.
        inner = memo.get(deconed)
        if inner is None:
            if deconed.hyperplanes:
                inner_position = {i: j for j, i in enumerate(kept[1:])}
                # Only members with positive beta are printed: only their traces are solved.
                inner = _decone_sum([
                    _summand_module(
                        p, deconed, inner_position, z,
                        decone_trace(deconed, inner_position, p.flats[z].containing_hyperplanes),
                        z_beta, front, memo,
                    )
                    for z, z_beta in decone_view(p, g, 0)
                    if z_beta
                ])
            else:
                # Rank-0 base case: FREE(1) over the trivial group is TRIVIAL_Z.
                inner = TrivialZ()
            memo[deconed] = inner
        front[normals] = inner
    node = Induced(trace, TensorTrivial(inner))
    return node if beta == 1 else Sum((node,) * beta)


def _flat_text(flat: AffineSubspace) -> str:
    """`json.dumps(flat.to_json(), sort_keys=True)`, joined straight from
    the entry texts, which hold nothing JSON escapes."""
    texts = flat.texts()
    rhs = ", ".join([f'"{row.pop()}"' for row in texts])
    system = ", ".join(['["' + '", "'.join(row) + '"]' for row in texts])
    return f'{{"ambient_dim": {flat.ambient_dim}, "dim": {flat.dim}, "rhs": [{rhs}], "system": [{system}]}}'


def _decone_sum(parts: list[ModuleExpr]) -> ModuleExpr:
    """A decone's module in normal form, from its printed members' modules
    (`_summand_module`, one per member with beta > 0): the top's FREE
    first, then every INDUCED node, ordered by the JSON text of its flat.

    The members have distinct containing sets, hence distinct traces, and
    only the top's trace is the whole chart (Orlik-Terao ch. 1-2): so at
    most one part is FREE, and no two flats' INDUCED nodes tie.  A flat's
    JSON text is one complete object, never a prefix of another's, so this
    is the order of the nodes' own JSON texts.  No part is zero and the sum
    is not empty: a minimal flat's restriction is empty, with beta 1."""

    def key(m: ModuleExpr) -> str:
        node = m.parts[0] if isinstance(m, Sum) else m
        # The empty key puts FREE before every flat's text.
        return "" if isinstance(node, Free) else _flat_text(node.flat)

    nodes = [n for m in sorted(parts, key=key) for n in (m.parts if isinstance(m, Sum) else (m,))]
    return nodes[0] if len(nodes) == 1 else Sum(tuple(nodes))
