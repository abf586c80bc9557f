"""Exact detection of lattice incenters and their touch points.

The incenter is I = (aA + bB + cC)/(a + b + c) for the side lengths
a, b, c opposite A, B, C.  It is rational exactly when those square
roots of integers are pairwise commensurable, i.e. the triangle is a
scaled Heronian triangle (lattice_incenter proves it); the weights then
reduce to integers, and one divisibility decides.  A given point P is
checked in integers too: for side lines n.X + c = 0, the equidistance
d(P, side_i) = d(P, side_j) is (n_i.P + c_i)^2 |n_j|^2 == (n_j.P + c_j)^2 |n_i|^2.
No float is involved, whatever the size of the coordinates.

Whether some perimeter admits a triangle with lattice incenter is an
open question; the box scan (search.incenter_scan) therefore reports
witnesses and absences-in-a-box, never impossibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .centers import RationalPoint
from .lattice import LatticePoint, LatticeTriangle


@dataclass(frozen=True)
class IncenterReport:
    incenter: LatticePoint
    inradius_squared: Fraction
    touch_points: tuple[RationalPoint, RationalPoint, RationalPoint]
    touch_on_lattice: tuple[bool, bool, bool]


def _side_lines(t: LatticeTriangle) -> list[tuple[int, int, int, LatticePoint, LatticePoint]]:
    # (nx, ny, c, p, q) per side, line nx*x + ny*y + c = 0 through p and q.
    sides = ((t.v1, t.v2), (t.v2, t.v0), (t.v0, t.v1))
    out = []
    for p, q in sides:
        nx, ny = q.y - p.y, p.x - q.x
        c = -(nx * p.x + ny * p.y)
        out.append((nx, ny, c, p, q))
    return out


def _is_lattice_incenter(t: LatticeTriangle, p: LatticePoint) -> bool:
    lines = _side_lines(t)
    vals = [nx * p.x + ny * p.y + c for nx, ny, c, _, _ in lines]
    for val, (nx, ny, c, _, _), v in zip(vals, lines, t.vertices):
        # strictly interior: on the same side of each line as the opposite vertex
        if val == 0 or (val > 0) != (nx * v.x + ny * v.y + c > 0):
            return False
    norms = [nx * nx + ny * ny for nx, ny, _, _, _ in lines]
    return (
        vals[0] ** 2 * norms[1] == vals[1] ** 2 * norms[0]
        and vals[0] ** 2 * norms[2] == vals[2] ** 2 * norms[0]
    )


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
    n0, n1, n2 = (nx * nx + ny * ny for nx, ny, _, _, _ in _side_lines(t))
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
    |n|^2; only the reported values are Fractions.
    """
    if center is None:
        center = lattice_incenter(t)
        if center is None:
            raise ValueError(f"{t} has no lattice incenter")
    if not _is_lattice_incenter(t, center):
        raise ValueError(f"{center} is not the incenter of {t}")

    lines = _side_lines(t)
    vals = [nx * center.x + ny * center.y + c for nx, ny, c, _, _ in lines]
    norms = [nx * nx + ny * ny for nx, ny, _, _, _ in lines]
    # the squared inradius is vals[i]**2 / norms[i], the same for every side
    v0, m0 = vals[0], norms[0]

    touches = []
    flags = []
    for v, m, (nx, ny, _, p, q) in zip(vals, norms, lines):
        # touch point (tx, ty) / m, with m = |n|^2 = |q - p|^2
        tx, ty = center.x * m - v * nx, center.y * m - v * ny
        tp = RationalPoint(Fraction(tx, m), Fraction(ty, m))
        if ((tx - center.x * m) ** 2 + (ty - center.y * m) ** 2) * m0 != v0 * v0 * m * m:
            raise ArithmeticError(f"touch point {tp} not at inradius from {center}")
        along = (tx - p.x * m) * (q.x - p.x) + (ty - p.y * m) * (q.y - p.y)
        if not 0 <= along <= m * m:
            raise ArithmeticError(f"touch point {tp} outside its side segment")
        touches.append(tp)
        flags.append(tp.is_lattice())
    r2 = Fraction(v0 * v0, m0)
    return IncenterReport(center, r2, tuple(touches), tuple(flags))
