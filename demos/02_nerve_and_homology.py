"""Walkthrough: the singular set as a wedge of spheres, via nerve homology.

The union of the hyperplanes is covered by the hyperplanes themselves:
a closed convex cover whose nonempty intersections are contractible, so
the nerve carries the homology of the union.  For a rank-l arrangement
that homology must look like a wedge of (l-1)-spheres: torsion-free and
concentrated in degree l-1.

Run:  python3 demos/02_nerve_and_homology.py
"""

import pathlib

from arrcoh import (
    SimplicialComplex,
    build_intersection_poset,
    build_singular_nerve,
    sigma_wedge_check,
    simplicial_homology,
    smith_normal_form,
)
from arrcoh.cli import load_arrangement

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

print("Smith normal form drives all integer homology here, e.g.")
print("  snf([[2, 4], [6, 8]]) =", smith_normal_form([[2, 4], [6, 8]]))

print("\nsanity complexes:")
triangle = SimplicialComplex.from_maximal(3, [(0, 1), (0, 2), (1, 2)])
print("  triangle boundary:", [g.to_json() for g in simplicial_homology(triangle).groups])
rp2_faces = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
             (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
rp2 = SimplicialComplex.from_maximal(6, rp2_faces)
print("  projective plane: ", [g.to_json() for g in simplicial_homology(rp2).groups])

print("\nnerves of the corpus arrangements:")
for path in sorted(CORPUS.glob("*.json")):
    name, a = path.stem, load_arrangement(str(path))
    if not a.hyperplanes:
        print(f"  {name:16s} empty arrangement, empty singular set")
        continue
    p = build_intersection_poset(a)
    nerve = build_singular_nerve(p)
    counts = [len(nerve.simplices_of_dim(d)) for d in range(nerve.max_dim + 1)]
    w = sigma_wedge_check(p)
    print(f"  {name:16s} simplices {counts}  ->  wedge of {w.beta} "
          f"({p.rank_l - 1})-spheres, verified: {w.is_wedge}")

print("\nthree generic lines give a hollow triangle (a circle), so one 1-sphere;")
print("three concurrent lines give a solid triangle (contractible), so none.")
