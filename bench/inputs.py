"""Seeded inputs for the benchmark workloads.

Nothing here imports latticecenters: the same inputs feed the program
(in a child process) and the independent oracle (in the parent).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SCAN_ARGV = ("incenter-scan", "--box", "20", "--lmax", "20", "--shards", "1")
ATLAS_ARGV = ("atlas", "--lmax", "90", "--box", "40", "--shards", "1")

CERTIFY_CONDITIONS = ("F", "G", "H", "GH", "FGH")
CERTIFY_SHAPES = ("acute", "obtuse", "right")
CERTIFY_PERIMETERS = range(3, 37)

QUERY_COUNT = 5000
QUERY_PLANTED_SHARE = 0.1
# Magnitudes stop at 10**15, where the program decides every triangle
# correctly.  From about 10**16 its float estimate misses planted
# incenters, and from 10**308 it raises OverflowError (ROADMAP item 2);
# a benchmark run must have no failing operation, so widen this once
# that item is fixed.
QUERY_MAX_EXPONENT = 15

# The paper's example triangle and its lattice incenter.
PLANTED_BASE = ((0, 0), (14, 2), (8, 8))
PLANTED_INCENTER = (8, 4)

# The eight lattice symmetries of the square, as (a, b, c, d) in
# (x, y) -> (a x + b y, c x + d y).
D4 = (
    (1, 0, 0, 1),
    (0, -1, 1, 0),
    (-1, 0, 0, -1),
    (0, 1, -1, 0),
    (1, 0, 0, -1),
    (-1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, -1, -1, 0),
)

Point = tuple[int, int]


def cell_key(condition: str, shape: str, perimeter: int) -> str:
    return f"{condition}/{shape}/{perimeter}"


def certify_cells(seed: int) -> list[tuple[str, str, int]]:
    """Every standard (condition, shape, perimeter) cell, in a seeded order."""
    cells = [
        (c, s, p) for c in CERTIFY_CONDITIONS for s in CERTIFY_SHAPES for p in CERTIFY_PERIMETERS
    ]
    random.Random(f"certify/{seed}").shuffle(cells)
    return cells


@dataclass(frozen=True)
class QueryTriangle:
    vertices: tuple[Point, Point, Point]
    exponent: float  # coordinates are drawn from [-10**exponent, 10**exponent]
    planted_incenter: Point | None  # known by construction, None if not planted


def _cross(v: tuple[Point, Point, Point]) -> int:
    (ax, ay), (bx, by), (cx, cy) = v
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _stratified_exponents(rng: random.Random, n: int) -> list[float]:
    """n exponents, one uniform in each of n equal slices of
    [0, QUERY_MAX_EXPONENT], in random order."""
    out = [(j + rng.random()) * QUERY_MAX_EXPONENT / n for j in range(n)]
    rng.shuffle(out)
    return out


def query_triangles(seed: int, count: int = QUERY_COUNT) -> list[QueryTriangle]:
    """Non-degenerate triangles with log-uniform coordinate magnitudes.

    Exactly one in ten is a D4 image, translate and scale of the paper's
    example, so its lattice incenter is known.  Fixed shares and
    stratified magnitudes keep the op-latency tail made of the same mix
    on every seed; the seed picks which positions and which triangles.
    """
    rng = random.Random(f"query/{seed}")
    planted = set(rng.sample(range(count), round(count * QUERY_PLANTED_SHARE)))
    exponents = {
        True: _stratified_exponents(rng, len(planted)),
        False: _stratified_exponents(rng, count - len(planted)),
    }
    out: list[QueryTriangle] = []
    for i in range(count):
        exponent = exponents[i in planted].pop()
        bound = max(1, round(10**exponent))
        if i in planted:
            k = max(1, bound // 14)
            a, b, c, d = rng.choice(D4)
            dx, dy = rng.randint(-bound, bound), rng.randint(-bound, bound)

            def image(p: Point) -> Point:
                return (k * (a * p[0] + b * p[1]) + dx, k * (c * p[0] + d * p[1]) + dy)

            verts = (image(PLANTED_BASE[0]), image(PLANTED_BASE[1]), image(PLANTED_BASE[2]))
            out.append(QueryTriangle(verts, exponent, image(PLANTED_INCENTER)))
            continue
        while True:
            verts = tuple((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(3))
            if _cross(verts) != 0:  # type: ignore[arg-type]
                break
        out.append(QueryTriangle(verts, exponent, None))  # type: ignore[arg-type]
    return out
