"""Walkthrough: exact chamber counts over the reals.

Rational input data is real data, so the complement of the realified
arrangement decomposes into open chambers, one per feasible sign vector.
They are found exactly by splitting regions one hyperplane at a time,
each region carrying a rational witness point, and a chamber is bounded
unless one of finitely many candidate rays keeps its signs.  Two
classical identities tie the counts back to the poset:

  total chambers   = poincare polynomial evaluated at 1
  bounded chambers = |euler characteristic of the complement|   (essential)

and the bounded count is a third, fully independent route to the beta
invariant of the whole arrangement.

Run:  python3 demos/03_chambers.py
"""

import pathlib

from arrcoh import (
    beta_combinatorial,
    build_intersection_poset,
    enumerate_chambers,
    euler_complement,
    poincare_polynomial,
)
from arrcoh.cli import load_arrangement

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

for path in sorted(CORPUS.glob("*.json")):
    name, a = path.stem, load_arrangement(str(path))
    p = build_intersection_poset(a)
    report = enumerate_chambers(a)
    pi_at_1 = poincare_polynomial(p)(1)
    line = (f"  {name:16s} total {report.total:3d} (= pi(A,1) = {pi_at_1}), "
            f"bounded {report.bounded}")
    if p.is_essential:
        beta = beta_combinatorial(p, p.top).value
        line += f" (= |chi(M)| = {abs(euler_complement(p))} = beta(A) = {beta})"
    print(line)

print("\nsign vectors for the three generic lines (+ means a.x > b):")
report = enumerate_chambers(load_arrangement(str(CORPUS / "generic3-c2.json")))
for c in report.chambers:
    print(f"  {c.signs}  {'bounded (the central triangle)' if c.bounded else 'unbounded'}")
