"""Exact detection of lattice incenters and their touch points.

The incenter is I = (aA + bB + cC)/(a + b + c) for the side lengths
a, b, c opposite A, B, C.  It is rational exactly when those square
roots of integers are pairwise commensurable, i.e. the triangle is a
scaled Heronian triangle (lattice_incenter proves it); the weights then
reduce to integers, and one divisibility decides.  A given point P is
checked in integers too: for side lines n.X + c = 0, the equidistance
d(P, side_i) = d(P, side_j) is (n_i.P + c_i)^2 |n_j|^2 == (n_j.P + c_j)^2 |n_i|^2.
No float is involved, whatever the size of the coordinates.

incenter_report runs all of its checks in integers when it is called
and keeps each touch point as integer numerators over a common
denominator; the touch points become Fractions only when first read,
since most callers read just the incenter and the squared inradius.

Whether some perimeter admits a triangle with lattice incenter is an
open question; the box scan (search.incenter_scan) therefore reports
witnesses and absences-in-a-box, never impossibility.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .centers import RationalPoint
from .lattice import LatticePoint, LatticeTriangle

# a foot (tx, ty, m) is the rational point (tx/m, ty/m)
Foot = tuple[int, int, int]
# (nx, ny, c, m, p, q): the line nx*x + ny*y + c = 0 through p and q, m = nx^2 + ny^2 = |q - p|^2
SideLine = tuple[int, int, int, int, LatticePoint, LatticePoint]


def _foot_point(tx: int, ty: int, m: int) -> RationalPoint:
    return RationalPoint(Fraction(tx, m), Fraction(ty, m))


@dataclass(frozen=True)
class IncenterReport:
    """The incenter, the squared inradius and the incircle's three feet.

    feet[i] = (tx, ty, m) is the touch point (tx/m, ty/m) on the side
    opposite vertex i, with m that side's squared length, and
    touch_on_lattice[i] says whether m divides tx and ty.
    touch_points holds the same points as Fractions, built on first read.
    """

    incenter: LatticePoint
    inradius_squared: Fraction
    feet: tuple[Foot, Foot, Foot]
    touch_on_lattice: tuple[bool, bool, bool]

    @functools.cached_property
    def touch_points(self) -> tuple[RationalPoint, RationalPoint, RationalPoint]:
        """The three touch points as exact rational points, built on first read."""
        return tuple(_foot_point(*foot) for foot in self.feet)  # type: ignore[return-value]


def _side_lines(t: LatticeTriangle) -> list[SideLine]:
    # side i is opposite vertex i
    sides = ((t.v1, t.v2), (t.v2, t.v0), (t.v0, t.v1))
    out = []
    for p, q in sides:
        nx, ny = q.y - p.y, p.x - q.x
        out.append((nx, ny, -(nx * p.x + ny * p.y), nx * nx + ny * ny, p, q))
    return out


def _incenter_offsets(t: LatticeTriangle, lines: list[SideLine], p: LatticePoint) -> list[int] | None:
    """n.p + c for each side line n.X + c = 0, or None unless p is the incenter."""
    vals = [nx * p.x + ny * p.y + c for nx, ny, c, _, _, _ in lines]
    for val, (nx, ny, c, _, _, _), v in zip(vals, lines, t.vertices):
        # strictly interior: on the same side of each line as the opposite vertex
        if val == 0 or (val > 0) != (nx * v.x + ny * v.y + c > 0):
            return None
    m0, m1, m2 = (line[3] for line in lines)
    if vals[0] ** 2 * m1 == vals[1] ** 2 * m0 and vals[0] ** 2 * m2 == vals[2] ** 2 * m0:
        return vals
    return None


def lattice_incenter(t: LatticeTriangle) -> LatticePoint | None:
    """The incenter, if it is a lattice point; decided exactly.

    Let n_i be the squared length of side i, the side opposite v_i.  The
    incenter is rational exactly when n0*n2 and n1*n2 are perfect squares:

    - If they are, put r_i = isqrt(n_i*n2).  Multiplying the weights
      sqrt(n_i) of the weighted-vertex formula by sqrt(n2) makes them
      integers, I = (r0*v0 + r1*v1 + n2*v2) / (r0 + r1 + n2).
    - If I is rational, its distance to side i is |m_i.I + c_i| / |m_i|,
      where m_i.X + c_i = 0 is the side's line with integer normal m_i
      and |m_i|^2 = n_i.  The three distances are equal, so every
      |m_i| / |m_j| = sqrt(n_i / n_j) is rational, and an integer n_i*n_j
      with a rational square root is a perfect square.

    So the incenter is a lattice point exactly when both products are
    squares and both coordinates of the weighted sum divide by the
    total weight.
    """
    n0, n1, n2 = (line[3] for line in _side_lines(t))
    r0, r1 = isqrt(n0 * n2), isqrt(n1 * n2)
    if r0 * r0 != n0 * n2 or r1 * r1 != n1 * n2:
        return None
    total = r0 + r1 + n2
    x, rx = divmod(r0 * t.v0.x + r1 * t.v1.x + n2 * t.v2.x, total)
    y, ry = divmod(r0 * t.v0.y + r1 * t.v1.y + n2 * t.v2.y, total)
    return None if rx or ry else LatticePoint(x, y)


def incenter_report(t: LatticeTriangle, center: LatticePoint | None = None) -> IncenterReport:
    """Inradius-squared and the three incircle touch points, exact.

    The touch point on each side is the foot of the perpendicular from
    the incenter, I - (n.I + c)/|n|^2 * n, a rational point lying within
    the closed side segment.  Every check runs in integers, scaled by
    |n|^2, when the report is made: the incenter is strictly inside and
    equidistant from the three side lines, and each foot is at the
    inradius from it and within its side segment.  The feet are kept as
    integer numerators over |n|^2; only the squared inradius is a
    Fraction here, and the touch points become Fractions on first read.
    """
    if center is None:
        center = lattice_incenter(t)
        if center is None:
            raise ValueError(f"{t} has no lattice incenter")
    lines = _side_lines(t)
    vals = _incenter_offsets(t, lines, center)
    if vals is None:
        raise ValueError(f"{center} is not the incenter of {t}")

    x, y = center.x, center.y
    # the squared inradius is vals[i]**2 / m_i, the same for every side
    v0, m0 = vals[0], lines[0][3]
    feet = []
    for v, (nx, ny, _, m, p, q) in zip(vals, lines):
        tx, ty = x * m - v * nx, y * m - v * ny
        if ((tx - x * m) ** 2 + (ty - y * m) ** 2) * m0 != v0 * v0 * m * m:
            raise ArithmeticError(f"touch point {_foot_point(tx, ty, m)} not at inradius from {center}")
        along = (tx - p.x * m) * (q.x - p.x) + (ty - p.y * m) * (q.y - p.y)
        if not 0 <= along <= m * m:
            raise ArithmeticError(f"touch point {_foot_point(tx, ty, m)} outside its side segment")
        feet.append((tx, ty, m))
    flags = tuple(tx % m == 0 and ty % m == 0 for tx, ty, m in feet)
    return IncenterReport(center, Fraction(v0 * v0, m0), tuple(feet), flags)  # type: ignore[arg-type]
