"""SVG diagrams of lattice triangles with marked centers and circles.

Coordinates come in as exact integers or rationals and are scaled onto
the viewbox; decimal output is produced by exact rounding to three
places, so the figures are derived from the same exact data as
everything else (radii of incircles may be irrational and are rendered
via integer square root, the one place approximation is inherent).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .centers import RationalPoint, center_report
from .constructions import acute_G
from .incenter import incenter_report, lattice_incenter
from .lattice import LatticePoint, LatticeTriangle, triangle

_SCALE = 30
_MARGIN = Fraction(3, 2)


def _dec(value: Fraction) -> str:
    """Exact decimal rendering with up to three places."""
    scaled = Fraction(value) * 1000
    num, den = scaled.numerator, scaled.denominator
    n = (2 * abs(num) + den) // (2 * den)  # round half away from zero
    if n == 0:
        return "0"
    sign = "-" if num < 0 else ""
    whole, frac = divmod(n, 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:03d}".rstrip("0")


def _sqrt_dec(value: Fraction) -> str:
    # Three-place decimal of sqrt(value) via integer square root.
    scaled = value * 1000_000
    return _dec(Fraction(isqrt(scaled.numerator // scaled.denominator), 1000))


class Diagram:
    """Accumulates SVG elements in lattice coordinates (y up)."""

    def __init__(self) -> None:
        self.elements: list[str] = []
        self._xs: list[Fraction] = []
        self._ys: list[Fraction] = []

    def _see(self, x: Fraction, y: Fraction) -> None:
        self._xs.append(Fraction(x))
        self._ys.append(Fraction(y))

    def _pt(self, x: Fraction, y: Fraction) -> str:
        return f"{_dec(Fraction(x) * _SCALE)},{_dec(-Fraction(y) * _SCALE)}"

    def polygon(self, points, fill: str = "#cfe2ff", stroke: str = "#1f4e9c") -> None:
        for x, y in points:
            self._see(x, y)
        coords = " ".join(self._pt(x, y) for x, y in points)
        self.elements.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" stroke-width="2"/>'
        )

    def circle(self, cx, cy, radius_squared: Fraction, stroke: str = "#333333") -> None:
        r2 = Fraction(radius_squared)
        reach = Fraction(isqrt(r2.numerator // r2.denominator) + 1)
        self._see(cx - reach, cy - reach)
        self._see(cx + reach, cy + reach)
        r = _sqrt_dec(r2 * _SCALE * _SCALE)
        self.elements.append(
            f'<circle cx="{_dec(Fraction(cx) * _SCALE)}" cy="{_dec(-Fraction(cy) * _SCALE)}" '
            f'r="{r}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def mark(self, x, y, label: str, color: str = "#b30000") -> None:
        self._see(x, y)
        px, py = Fraction(x) * _SCALE, -Fraction(y) * _SCALE
        self.elements.append(
            f'<circle cx="{_dec(px)}" cy="{_dec(py)}" r="3.5" fill="{color}"/>'
        )
        self.elements.append(
            f'<text x="{_dec(px + 6)}" y="{_dec(py - 6)}" font-size="14" '
            f'font-family="sans-serif">{label}</text>'
        )

    def grid_dots(self) -> None:
        x0, x1 = self._xs and (min(self._xs), max(self._xs)) or (0, 1)
        y0, y1 = self._ys and (min(self._ys), max(self._ys)) or (0, 1)
        dots = []
        for x in range(int(x0) - 1, int(x1) + 2):
            for y in range(int(y0) - 1, int(y1) + 2):
                dots.append(
                    f'<circle cx="{_dec(Fraction(x) * _SCALE)}" cy="{_dec(Fraction(-y) * _SCALE)}" '
                    f'r="1" fill="#999999"/>'
                )
        self.elements.insert(0, "".join(dots))
        self._see(x0 - 1, y0 - 1)
        self._see(x1 + 1, y1 + 1)

    def render(self) -> str:
        x0 = (min(self._xs) - _MARGIN) * _SCALE
        y0 = (-max(self._ys) - _MARGIN) * _SCALE
        w = (max(self._xs) - min(self._xs) + 2 * _MARGIN) * _SCALE
        h = (max(self._ys) - min(self._ys) + 2 * _MARGIN) * _SCALE
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_dec(x0)} {_dec(y0)} {_dec(w)} {_dec(h)}">'
        )
        return head + "".join(self.elements) + "</svg>\n"


def triangle_diagram(
    t: LatticeTriangle,
    marks: list[tuple[RationalPoint | LatticePoint, str]] = (),
    circles: list[tuple[RationalPoint | LatticePoint, Fraction]] = (),
) -> str:
    d = Diagram()
    d.polygon([(v.x, v.y) for v in t.vertices])
    for center, r2 in circles:
        d.circle(center.x, center.y, r2)
    for i, v in enumerate(t.vertices):
        d.mark(v.x, v.y, f"V{i}", color="#1f4e9c")
    for point, label in marks:
        d.mark(point.x, point.y, label)
    d.grid_dots()
    return d.render()


def _euler_figure() -> str:
    t = triangle((0, 0), (9, 3), (0, 6))
    rep = center_report(t)
    f = rep.circumcenter
    r2 = (f.x - t.v0.x) ** 2 + (f.y - t.v0.y) ** 2
    return triangle_diagram(
        t,
        marks=[(rep.circumcenter, "F"), (rep.centroid, "G"), (rep.orthocenter, "H")],
        circles=[(rep.circumcenter, r2)],
    )


def _model_figure() -> str:
    # Generic acute triangle O, A=(z,0), B=(x,y) with lattice centroid.
    w = acute_G(7)
    return triangle_diagram(w.triangle, marks=[(w.report.centroid, "G")])


def _incircle_figure(t: LatticeTriangle) -> str:
    center = lattice_incenter(t)
    if center is None:
        raise ValueError(f"{t} has no lattice incenter")
    rep = incenter_report(t, center)
    marks: list = [(center, "I")]
    marks += [(tp, f"T{i}") for i, tp in enumerate(rep.touch_points)]
    return triangle_diagram(t, marks=marks, circles=[(center, rep.inradius_squared)])


FIGURES = {
    "euler": _euler_figure,
    "model": _model_figure,
    "incircle-345": lambda: _incircle_figure(triangle((0, 0), (4, 0), (4, 3))),
    "incircle": lambda: _incircle_figure(triangle((0, 0), (14, 2), (8, 8))),
}


def render_figure(name: str) -> str:
    try:
        maker = FIGURES[name]
    except KeyError:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}") from None
    return maker()
