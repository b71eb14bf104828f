"""Benchmark inputs: arrangement families written in the `arrcoh` JSON schema.

Every generator returns a plain dict `{"dim": n, "hyperplanes": [...]}`
with integer coefficients written as strings.  Nothing here imports
`arrcoh`: general position of the random families is certified with
exact integer determinants computed in this file.

Families (n is the number of coordinates unless stated otherwise):

  braid(n)            {x_i = x_j : i < j} in C^n
  shi(n)              braid(n) plus {x_i - x_j = 1 : i < j}
  essential_braid(n)  braid(n) written in C^(n-1) via y_k = x_k - x_n
  generic(m, n, seed) m hyperplanes in C^n in general position, presented
                      by `seed` and certified
  points(k)           {x = 0}, ..., {x = k - 1} in C^1

`present(arrangement, seed)` is how the benchmark seed reaches the
program: it lists the hyperplanes in a seeded order and multiplies each
equation by a seeded nonzero integer.  The arrangement, hence every
invariant the oracles check, is unchanged; the bytes the program reads
and the order it meets the hyperplanes in are not.  The geometry of the
generic members is drawn once from a fixed stream: with geometry drawn
per seed, the Fourier-Motzkin work of the chamber sweep varied by +-20%
between seeds, and that spread would hide changes to the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# Coefficients of generic members are drawn from [-COEFF, COEFF].
COEFF = 6
MAX_REDRAWS = 1000
# Each equation of a presented arrangement is multiplied by one of these.
SCALES = (-3, -2, -1, 1, 2, 3)


def _plane(normal: list[int], offset: int) -> dict:
    return {"normal": [str(c) for c in normal], "offset": str(offset)}


def _unit_difference(n: int, i: int, j: int) -> list[int]:
    row = [0] * n
    row[i], row[j] = 1, -1
    return row


def braid(n: int) -> dict:
    pairs = itertools.combinations(range(n), 2)
    return {"dim": n, "hyperplanes": [_plane(_unit_difference(n, i, j), 0) for i, j in pairs]}


def shi(n: int) -> dict:
    pairs = list(itertools.combinations(range(n), 2))
    planes = [_plane(_unit_difference(n, i, j), 0) for i, j in pairs]
    planes += [_plane(_unit_difference(n, i, j), 1) for i, j in pairs]
    return {"dim": n, "hyperplanes": planes}


def essential_braid(n: int) -> dict:
    """braid(n) restricted to x_n = 0, which is central and essential in C^(n-1)."""
    planes = []
    for i, j in itertools.combinations(range(n), 2):
        row = [0] * (n - 1)
        row[i] = 1
        if j < n - 1:
            row[j] = -1
        planes.append(_plane(row, 0))
    return {"dim": n - 1, "hyperplanes": planes}


def points(k: int) -> dict:
    return {"dim": 1, "hyperplanes": [_plane([1], c) for c in range(k)]}


def det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def _fits(rows: list[tuple[list[int], int]], candidate: tuple[list[int], int], n: int) -> bool:
    """Whether `candidate` keeps `rows` (already in general position) so.

    General position: every n normals are independent and no n+1
    hyperplanes share a point.  Together these make every k <= n
    hyperplanes meet in a distinct flat of codimension k, so the flats
    number sum_{k<=n} C(m, k).  Only subsets containing the candidate
    can newly fail, so only those are tested.
    """
    normal, offset = candidate
    for others in itertools.combinations(rows, n - 1):
        if det([r[0] for r in others] + [normal]) == 0:
            return False
    for others in itertools.combinations(rows, n):
        if det([r[0] + [r[1]] for r in others] + [normal + [offset]]) == 0:
            return False
    return True


def in_general_position(rows: list[tuple[list[int], int]], n: int) -> bool:
    return all(_fits(rows[:i], rows[i], n) for i in range(len(rows)))


def _rng(seed: int, tag: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_generic(m: int, n: int) -> dict:
    """m hyperplanes in C^n in general position, drawn from a fixed stream.

    Hyperplanes are drawn one at a time; a draw that would break general
    position is replaced by the next draw, so the result depends on
    (m, n) alone.
    """
    rng = _rng(0, f"generic-{m}-{n}")
    rows: list[tuple[list[int], int]] = []
    while len(rows) < m:
        for _ in range(MAX_REDRAWS):
            candidate = ([rng.randint(-COEFF, COEFF) for _ in range(n)], rng.randint(-COEFF, COEFF))
            if _fits(rows, candidate, n):
                rows.append(candidate)
                break
        else:
            raise RuntimeError(f"no general-position draw of {m} hyperplanes in C^{n}")
    return {"dim": n, "hyperplanes": [_plane(a, b) for a, b in rows]}


def present(arrangement: dict, seed: int) -> dict:
    """The same arrangement with hyperplanes reordered and equations rescaled by `seed`."""
    tag = json.dumps(arrangement, sort_keys=True)
    rng = _rng(seed, hashlib.sha256(tag.encode()).hexdigest())
    planes = list(arrangement["hyperplanes"])
    rng.shuffle(planes)
    scaled = []
    for h in planes:
        k = rng.choice(SCALES)
        scaled.append(_plane([int(c) * k for c in h["normal"]], int(h["offset"]) * k))
    return {"dim": arrangement["dim"], "hyperplanes": scaled}


def rows_of(arrangement: dict) -> list[tuple[list[int], int]]:
    return [([int(c) for c in h["normal"]], int(h["offset"])) for h in arrangement["hyperplanes"]]


def generic(m: int, n: int, seed: int) -> dict:
    """The generic member (m, n) as presented by `seed`, its general position re-certified."""
    arrangement = present(_draw_generic(m, n), seed)
    if not in_general_position(rows_of(arrangement), n):
        raise RuntimeError(f"generic({m}, {n}) failed its certificate")
    return arrangement
