"""Walkthrough: the graded decomposition of group-ring cohomology.

For an arrangement of rank l, the cohomology of the complement with
coefficients in the group ring of its fundamental group is concentrated
in degree l, and the associated graded module splits flat by flat: the
summand at G is beta(A∩G) copies of a module induced up from the central
sub-arrangement A_G, computed recursively by sending one hyperplane of
A_G to infinity (deconing).  The summand at the whole space is the only
free one; it is the part visible to reduced l2-cohomology.

Run:  python3 demos/04_decomposition.py
"""

import pathlib

from arrcoh import build_intersection_poset, decompose_cohomology, decone
from arrcoh.cli import equations_str, load_arrangement, module_str

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

print("deconing drops rank, size and degree by one, e.g. three concurrent")
print("lines through the origin with the line {x1 = 0} sent to infinity:")
before = load_arrangement(str(CORPUS / "concurrent3-c2.json"))
after = decone(before, 0)
print(f"  before: {len(before)} lines in C^2, rank "
      f"{build_intersection_poset(before).rank_l}")
print(f"  after:  {len(after)} points in C^1, rank "
      f"{build_intersection_poset(after).rank_l}:",
      "; ".join(equations_str(h.subspace()) for h in after.hyperplanes))

print("\ndecompositions of the corpus:")
for path in sorted(CORPUS.glob("*.json")):
    name, a = path.stem, load_arrangement(str(path))
    dec = decompose_cohomology(build_intersection_poset(a))
    print(f"\n  {name}: concentrated in degree {dec.concentration_degree}, "
          f"free rank {dec.free_rank}")
    for s in dec.summands:
        note = "   <- trivial module Z" if s.is_trivial_z else ""
        print(f"    at {equations_str(s.subspace):26s} x{s.multiplicity}: "
              f"{module_str(s.module, {})}{note}")

print("\nreading the two-points example: one free copy of the group ring")
print("(the l2-visible part) plus one induced-trivial summand per point,")
print("each induced from the infinite cyclic subgroup looping that point.")
