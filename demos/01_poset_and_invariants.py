"""Walkthrough: intersection posets and their combinatorial invariants.

Three lines in the plane in general position give the smallest
interesting poset: the whole plane on top, three lines, three double
points.  Everything downstream (Betti numbers, beta invariants, the
graded decomposition) is read off this poset.

Run:  python3 demos/01_poset_and_invariants.py
"""

import pathlib

from arrcoh import (
    beta_all_flats,
    build_intersection_poset,
    characteristic_polynomial,
    euler_complement,
    mobius_from_top,
    poincare_polynomial,
)
from arrcoh.cli import equations_str, load_arrangement

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
a = load_arrangement(str(CORPUS / "generic3-c2.json"))
print(f"arrangement: {len(a)} lines in C^2")
for h in a.hyperplanes:
    print("   ", equations_str(h.subspace()))

p = build_intersection_poset(a)
print(f"\nintersection poset: {len(p.flats)} flats, rank l = {p.rank_l}, "
      f"central: {p.is_central}, essential: {p.is_essential}")

mu = mobius_from_top(p)
print("\nflats with Mobius values mu(C^2, G):")
for f in p.flats:
    print(f"  dim {f.dim}  {equations_str(f.subspace):24s} mu = {mu[f.index]:+d}")

print(f"\ncharacteristic polynomial: {characteristic_polynomial(p)}")
print(f"poincare polynomial:       {poincare_polynomial(p)}")
print(f"euler char of complement:  {euler_complement(p)}")

print("\nbeta invariants (number of top spheres in the singular set of A∩G):")
for b in beta_all_flats(p):
    print(f"  dim {b.flat.dim}  {equations_str(b.flat.subspace):24s} "
          f"beta = {b.value} in degree {b.degree}")

print("\nthe identity l(G) + gr(G) = l holds on every flat:")
for f in p.flats:
    print(f"  {p.level(f)} + {f.codim} = {p.rank_l}")
