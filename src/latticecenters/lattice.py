"""Primitive lattice geometry: points, triangles, lattice lengths, area, genus.

Everything here is exact integer arithmetic.  A segment between lattice
points contains gcd(|dx|, |dy|) + 1 lattice points; that gcd is its
"lattice length", and the lattice perimeter of a triangle is the sum of
the lattice lengths of its sides (equivalently, the number of lattice
points on the boundary).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class DegenerateTriangleError(ValueError):
    """Raised when three points are collinear or not pairwise distinct."""


class ShapeClass(enum.Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"

    def __str__(self) -> str:
        return self.value


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class LatticePoint:
    """Immutable point of the integer lattice."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("lattice coordinates must be int")

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def scaled(self, n: int) -> "LatticePoint":
        return LatticePoint(self.x * n, self.y * n)

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class LatticeTriangle:
    """Ordered triple of pairwise distinct, non-collinear lattice points."""

    v0: LatticePoint
    v1: LatticePoint
    v2: LatticePoint

    def __post_init__(self) -> None:
        if len({self.v0, self.v1, self.v2}) != 3:
            raise DegenerateTriangleError(f"vertices not distinct: {self}")
        if twice_area(self) == 0:
            raise DegenerateTriangleError(f"vertices collinear: {self}")

    @property
    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.v0, self.v1, self.v2)

    def translated(self, d: LatticePoint) -> "LatticeTriangle":
        return LatticeTriangle(self.v0 + d, self.v1 + d, self.v2 + d)

    def scaled(self, n: int) -> "LatticeTriangle":
        if n < 1:
            raise ValueError("scale factor must be a positive integer")
        return LatticeTriangle(self.v0.scaled(n), self.v1.scaled(n), self.v2.scaled(n))

    def __str__(self) -> str:
        return "".join(f"({p.x},{p.y})" for p in self.vertices)


def triangle(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> LatticeTriangle:
    """Build a triangle from coordinate pairs."""
    return LatticeTriangle(LatticePoint(*a), LatticePoint(*b), LatticePoint(*c))


def lattice_length(p: LatticePoint, q: LatticePoint) -> int:
    """Lattice points on segment pq, minus one.  gcd(0, 0) = 0 for p == q."""
    return math.gcd(q.x - p.x, q.y - p.y)


def side_lengths(t: LatticeTriangle) -> tuple[int, int, int]:
    """Lattice lengths of the three sides, non-decreasing."""
    a = lattice_length(t.v1, t.v2)
    b = lattice_length(t.v2, t.v0)
    c = lattice_length(t.v0, t.v1)
    lo, mid, hi = sorted((a, b, c))
    return (lo, mid, hi)


def side_lengths_by_vertex(t: LatticeTriangle) -> tuple[int, int, int]:
    """Lattice length of the side opposite each vertex, in vertex order."""
    return (
        lattice_length(t.v1, t.v2),
        lattice_length(t.v2, t.v0),
        lattice_length(t.v0, t.v1),
    )


def lattice_perimeter(t: LatticeTriangle) -> int:
    """Number of boundary lattice points of the triangle."""
    return sum(side_lengths_by_vertex(t))


def twice_area(t: LatticeTriangle) -> int:
    """|cross product| of the edge vectors at v0; zero iff collinear."""
    ax, ay = t.v1.x - t.v0.x, t.v1.y - t.v0.y
    bx, by = t.v2.x - t.v0.x, t.v2.y - t.v0.y
    return abs(ax * by - ay * bx)


def _vertex_dots(t: LatticeTriangle) -> tuple[int, int, int]:
    # Dot product of the two edge vectors leaving each vertex.
    out = []
    for v, p, q in ((t.v0, t.v1, t.v2), (t.v1, t.v2, t.v0), (t.v2, t.v0, t.v1)):
        out.append((p.x - v.x) * (q.x - v.x) + (p.y - v.y) * (q.y - v.y))
    return tuple(out)  # type: ignore[return-value]


def classify_shape(t: LatticeTriangle) -> ShapeClass:
    """Acute, right or obtuse from the signs of the three vertex dot products."""
    dots = _vertex_dots(t)
    if all(d > 0 for d in dots):
        return ShapeClass.ACUTE
    if any(d == 0 for d in dots):
        return ShapeClass.RIGHT
    return ShapeClass.OBTUSE


def genus(t: LatticeTriangle) -> int:
    """Number of interior lattice points, via area = perimeter/2 + genus - 1."""
    two_k = twice_area(t)
    ell = lattice_perimeter(t)
    num = two_k - ell + 2
    # Always an even numerator for a lattice polygon; guard anyway.
    if num % 2 != 0 or num < 0:
        raise ArithmeticError(f"area/perimeter mismatch for {t}")
    return num // 2


def parity(p: LatticePoint) -> Parity:
    xe, ye = p.x % 2 == 0, p.y % 2 == 0
    if xe and ye:
        return Parity.EVEN
    if not xe and not ye:
        return Parity.ODD
    return Parity.MIXED
