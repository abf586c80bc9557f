"""Independent answers for the query workload.

Nothing here imports latticecenters.  The incenter is narrowed to one
candidate lattice point with mpmath at a precision scaled to the
coordinates, and an integer equidistance test written here decides.
Planted triangles are also checked against the incenter known by
construction.  Circumcenter, centroid and orthocenter come from the
closed-form rational formulas.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from inputs import Point, QueryTriangle

Vertices = tuple[Point, Point, Point]


def centers_digest(f: tuple[Fraction, Fraction], g: tuple[Fraction, Fraction], h: tuple[Fraction, Fraction]) -> str:
    text = f"{f[0]},{f[1]};{g[0]},{g[1]};{h[0]},{h[1]}"
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _side_lines(v: Vertices) -> list[tuple[int, int, int]]:
    # Line i (nx, ny, c) with nx*x + ny*y + c = 0 runs opposite vertex i.
    lines = []
    for i in range(3):
        (px, py), (qx, qy) = v[(i + 1) % 3], v[(i + 2) % 3]
        nx, ny = qy - py, px - qx
        lines.append((nx, ny, -(nx * px + ny * py)))
    return lines


def is_incenter(v: Vertices, p: Point) -> bool:
    """Strictly interior and at equal distance from the three side lines."""
    norms, values = [], []
    for (nx, ny, c), opposite in zip(_side_lines(v), v):
        value = nx * p[0] + ny * p[1] + c
        inside = nx * opposite[0] + ny * opposite[1] + c
        if value == 0 or (value > 0) != (inside > 0):
            return False
        norms.append(nx * nx + ny * ny)
        values.append(value)
    return (
        values[0] ** 2 * norms[1] == values[1] ** 2 * norms[0]
        and values[0] ** 2 * norms[2] == values[2] ** 2 * norms[0]
    )


def inradius_squared(v: Vertices, p: Point) -> Fraction:
    nx, ny, c = _side_lines(v)[0]
    return Fraction((nx * p[0] + ny * p[1] + c) ** 2, nx * nx + ny * ny)


def lattice_incenter(v: Vertices) -> Point | None:
    import mpmath  # here, so that workload processes importing this module skip it

    digits = max(len(str(abs(x))) for p in v for x in p)
    with mpmath.workdps(digits + 30):
        sides = [
            mpmath.sqrt((v[(i + 1) % 3][0] - v[(i + 2) % 3][0]) ** 2 + (v[(i + 1) % 3][1] - v[(i + 2) % 3][1]) ** 2)
            for i in range(3)
        ]
        total = sides[0] + sides[1] + sides[2]
        ix = sum(s * p[0] for s, p in zip(sides, v)) / total
        iy = sum(s * p[1] for s, p in zip(sides, v)) / total
        candidate = (int(mpmath.nint(ix)), int(mpmath.nint(iy)))
    return candidate if is_incenter(v, candidate) else None


def centers(v: Vertices) -> tuple[tuple[Fraction, Fraction], ...]:
    """(circumcenter, centroid, orthocenter) as exact rational pairs."""
    (ax, ay), (bx, by), (cx, cy) = v
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    fx = Fraction(a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by), d)
    fy = Fraction(a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax), d)
    gx, gy = Fraction(ax + bx + cx, 3), Fraction(ay + by + cy, 3)
    return (fx, fy), (gx, gy), (3 * gx - 2 * fx, 3 * gy - 2 * fy)


def expected_answer(q: QueryTriangle) -> tuple[str, str, str]:
    """(incenter, inradius squared, centers digest) as the program should give them."""
    point = lattice_incenter(q.vertices)
    if q.planted_incenter is not None and point != q.planted_incenter:
        raise RuntimeError(f"oracle disagrees with the planted incenter of {q.vertices}")
    digest = centers_digest(*centers(q.vertices))
    if point is None:
        return "none", "-", digest
    return f"{point[0]},{point[1]}", str(inradius_squared(q.vertices, point)), digest
