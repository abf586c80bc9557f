"""Exact circumcenter, centroid and orthocenter of lattice triangles.

All three centers are rational points.  The orthocenter of the triangle
O, A=(x1,y1), B=(x2,y2) is

    H = (x1*x2 + y1*y2) / (x1*y2 - x2*y1) * (y2 - y1, x1 - x2)

and the circumcenter follows from the Euler relation 2F + H = 3G.  Both
are computed after translating v0 to the origin and are cross-checked
against their defining properties (altitude perpendicularity for H,
equidistance from the vertices for F).

center_numerators is the one integer derivation of the three centers,
with the same cross-checks scaled to integers: lattice_flags decides
lattice membership from it by divisibility, and check_witness reads the
centers a construction family predicts off the same numerators.  center_report
keeps Fractions for the values it reports, deriving each center once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    DegenerateTriangleError,
    LatticePoint,
    LatticeTriangle,
    ShapeClass,
    classify_shape,
    lattice_length,
    lattice_perimeter,
    side_lengths_by_vertex,
)


@dataclass(frozen=True)
class RationalPoint:
    """Point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x - other.x, self.y - other.y)

    def scaled(self, k: Fraction | int) -> "RationalPoint":
        return RationalPoint(self.x * k, self.y * k)

    def is_lattice(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def as_lattice_point(self) -> LatticePoint:
        if not self.is_lattice():
            raise ValueError(f"{self} is not a lattice point")
        return LatticePoint(int(self.x), int(self.y))

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


class CenterCondition(enum.Enum):
    """Which centers are required to be lattice points.

    The wire/CLI tokens are the single letters used throughout:
    F = circumcenter, G = centroid, H = orthocenter, I = incenter.
    A lattice circumcenter forces a lattice orthocenter, so "F and H"
    collapses to F and "F, G and H" to FGH.
    """

    CIRCUMCENTER = "F"
    CENTROID = "G"
    ORTHOCENTER = "H"
    CENTROID_AND_ORTHOCENTER = "GH"
    ALL_THREE = "FGH"
    INCENTER = "I"

    def __str__(self) -> str:
        return self.value

    def met_by(self, flags: tuple[bool, bool, bool]) -> bool:
        """Whether the (F, G, H) lattice flags meet this condition: all of those it names."""
        if self is CenterCondition.INCENTER:
            raise ValueError("incenter membership is not one of the F, G, H flags")
        return all(flags["FGH".index(letter)] for letter in self._value_)


@dataclass(frozen=True)
class CenterReport:
    """Centers of one triangle plus their lattice-membership flags."""

    circumcenter: RationalPoint
    centroid: RationalPoint
    orthocenter: RationalPoint
    circumcenter_on_lattice: bool
    centroid_on_lattice: bool
    orthocenter_on_lattice: bool
    shape: ShapeClass
    perimeter: int


def centroid(t: LatticeTriangle) -> RationalPoint:
    """Arithmetic mean of the vertices."""
    xs = t.v0.x + t.v1.x + t.v2.x
    ys = t.v0.y + t.v1.y + t.v2.y
    return RationalPoint(Fraction(xs, 3), Fraction(ys, 3))


def orthocenter(t: LatticeTriangle) -> RationalPoint:
    """Intersection of the altitudes, exact."""
    x1, y1 = t.v1.x - t.v0.x, t.v1.y - t.v0.y
    x2, y2 = t.v2.x - t.v0.x, t.v2.y - t.v0.y
    cross = x1 * y2 - x2 * y1
    if cross == 0:
        raise DegenerateTriangleError(f"collinear vertices: {t}")
    scale = Fraction(x1 * x2 + y1 * y2, cross)
    h = RationalPoint(scale * (y2 - y1) + t.v0.x, scale * (x1 - x2) + t.v0.y)
    _check_altitudes(t, h)
    return h


def _check_altitudes(t: LatticeTriangle, h: RationalPoint) -> None:
    # (H - vi) must be perpendicular to the opposite side, for each vertex.
    for v, p, q in ((t.v0, t.v1, t.v2), (t.v1, t.v2, t.v0), (t.v2, t.v0, t.v1)):
        d = (h.x - v.x) * (p.x - q.x) + (h.y - v.y) * (p.y - q.y)
        if d != 0:
            raise ArithmeticError(f"orthocenter check failed for {t}")


def circumcenter(t: LatticeTriangle) -> RationalPoint:
    """Point equidistant from the three vertices, via 2F + H = 3G (see center_report)."""
    return center_report(t).circumcenter


def center_report(t: LatticeTriangle) -> CenterReport:
    g = centroid(t)
    h = orthocenter(t)
    f = RationalPoint((3 * g.x - h.x) / 2, (3 * g.y - h.y) / 2)
    d2 = [(f.x - v.x) ** 2 + (f.y - v.y) ** 2 for v in t.vertices]
    if not d2[0] == d2[1] == d2[2]:
        raise ArithmeticError(f"circumcenter check failed for {t}")
    # Euler relation must hold exactly by construction.
    if f.scaled(2) + h != g.scaled(3):
        raise ArithmeticError(f"Euler relation violated for {t}")
    return CenterReport(
        circumcenter=f,
        centroid=g,
        orthocenter=h,
        circumcenter_on_lattice=f.is_lattice(),
        centroid_on_lattice=g.is_lattice(),
        orthocenter_on_lattice=h.is_lattice(),
        shape=classify_shape(t),
        perimeter=lattice_perimeter(t),
    )


def center_numerators(t: LatticeTriangle) -> tuple[tuple[int, tuple[int, int]], ...]:
    """F, G and H (in that order), each as (den, (nx, ny)): the point v0 + (nx, ny) / den.

    With v0 at the origin, cross*H = dot*(y2 - y1, x1 - x2), 3*G = (x1 + x2,
    y1 + y2) and 2*cross*F = cross*3*G - cross*H (Euler), so the
    denominators are 2*cross, 3 and cross.  H and F are cross-checked as in
    center_report, scaled to integers.
    """
    x1, y1 = t.v1.x - t.v0.x, t.v1.y - t.v0.y
    x2, y2 = t.v2.x - t.v0.x, t.v2.y - t.v0.y
    cross = x1 * y2 - x2 * y1
    if cross == 0:
        raise DegenerateTriangleError(f"collinear vertices: {t}")
    dot = x1 * x2 + y1 * y2
    hx, hy = dot * (y2 - y1), dot * (x1 - x2)
    gx, gy = x1 + x2, y1 + y2
    fx, fy = cross * gx - hx, cross * gy - hy
    o, a, b = (0, 0), (x1, y1), (x2, y2)
    # cross*(H - vi) must be perpendicular to the opposite side, for each vertex
    for (vx, vy), (px, py), (qx, qy) in ((o, a, b), (a, b, o), (b, o, a)):
        if (hx - cross * vx) * (px - qx) + (hy - cross * vy) * (py - qy) != 0:
            raise ArithmeticError(f"orthocenter check failed for {t}")
    # 2*cross*F must be equidistant from the vertices scaled by 2*cross
    c2 = 2 * cross
    d2 = [(fx - c2 * vx) ** 2 + (fy - c2 * vy) ** 2 for vx, vy in (o, a, b)]
    if not d2[0] == d2[1] == d2[2]:
        raise ArithmeticError(f"circumcenter check failed for {t}")
    return (c2, (fx, fy)), (3, (gx, gy)), (cross, (hx, hy))


def lattice_centers(t: LatticeTriangle) -> tuple[bool, bool, bool]:
    """Whether F, G and H (in that order) are lattice points: center_numerators' divisibility tests."""
    return lattice_flags(center_numerators(t))


def lattice_flags(numerators: tuple[tuple[int, tuple[int, int]], ...]) -> tuple[bool, bool, bool]:
    """Whether each center of center_numerators, v0 + (nx, ny) / den, is a lattice point: den | nx, ny."""
    (cf, (fx, fy)), (_, (gx, gy)), (ch, (hx, hy)) = numerators
    return (fx % cf == 0 and fy % cf == 0, gx % 3 == 0 and gy % 3 == 0, hx % ch == 0 and hy % ch == 0)


def exact_tangent(t: LatticeTriangle, vertex: int) -> Fraction:
    """tan of the interior angle at the given vertex (0, 1 or 2).

    Positive for acute vertex angles; raises on right angles where the
    tangent is undefined.
    """
    v, p, q = [t.vertices[(vertex + i) % 3] for i in range(3)]
    ax, ay = p.x - v.x, p.y - v.y
    bx, by = q.x - v.x, q.y - v.y
    dot = ax * bx + ay * by
    if dot == 0:
        raise ValueError(f"right angle at vertex {vertex}: tangent undefined")
    return Fraction(abs(ax * by - ay * bx), dot)


def orthic_m_values(t: LatticeTriangle) -> tuple[int, int, int]:
    """Lattice length from each vertex to the orthocenter.

    Requires an acute triangle whose orthocenter is a lattice point.  For
    each vertex the returned m satisfies tan(angle) = opposite side's
    lattice length / m, verified exactly by cross-multiplication.
    """
    if classify_shape(t) is not ShapeClass.ACUTE:
        raise ValueError("m-values are defined for acute triangles only")
    h = orthocenter(t)
    if not h.is_lattice():
        raise ValueError("orthocenter is not a lattice point")
    hp = h.as_lattice_point()
    opposite = side_lengths_by_vertex(t)
    ms = []
    for i, v in enumerate(t.vertices):
        m = lattice_length(v, hp)
        tan = exact_tangent(t, i)
        if tan * m != opposite[i]:
            raise ArithmeticError(f"tangent/lattice-length mismatch at vertex {i} of {t}")
        ms.append(m)
    return (ms[0], ms[1], ms[2])
