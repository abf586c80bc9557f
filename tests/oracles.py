"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the code paths under test: boundary
and interior lattice points are counted point by point, orbits are
partitioned through explicit symmetry images, and angle sums are checked
through high-precision floating point.  The previous incenter,
incenter-report, pi-triple (an angle scan and the eager hyperbola
sweep), full-grid search and per-multiset exclusion algorithms are kept
here as the references their faster replacements are tested against,
and so are the exact k*pi + arctan(t) angle algebra and
the canonical-key orbit enumeration, which only tests use, the atlas
writer that ran json.dumps over the whole document, and the search's
floating-point incenter screen.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from latticecenters.angles import Rational
from latticecenters.centers import CenterCondition, CenterReport, RationalPoint
from latticecenters.feasibility import (
    ExclusionCertificate,
    ExclusionReport,
    Rule,
    SideMultiset,
    gcd_violation,
    partitions,
    subtriangle_multisets,
)
from latticecenters.incenter import _incenter_offsets, _side_lines
from latticecenters.lattice import LatticePoint, LatticeTriangle, ShapeClass, triangle
from latticecenters.search import (
    SCHEMA_VERSION,
    AchievabilityAtlas,
    AtlasEntry,
    SearchConfig,
    _cell_sort_key,
)

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


def grid_points(box_radius: int) -> list[tuple[int, int]]:
    # [-B, B]^2 in grid-index order: point (x, y) has index (x + B) * (2B + 1) + (y + B)
    span = range(-box_radius, box_radius + 1)
    return [(x, y) for x in span for y in span]


def cone_points(width: int) -> list[tuple[int, int]]:
    # 0 <= y <= x <= width without the origin: each D4 orbit of a nonzero
    # point of [-width, width]^2 has exactly one member here, (max, min) of |x|, |y|
    return [(x, y) for x in range(1, width + 1) for y in range(0, x + 1)]


CanonicalKey = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


def canonical_key(t: LatticeTriangle) -> CanonicalKey:
    """Smallest coordinate tuple over translations, D4 images and relabelings.

    Two triangles share a key exactly when a composition of integer
    translations, the eight lattice symmetries of the square, and vertex
    permutations maps one onto the other.  All of those preserve shape
    class, side lattice lengths, and the lattice membership of every
    center, so any such invariant may be computed once per key.
    """
    vs = [(v.x, v.y) for v in t.vertices]
    best: CanonicalKey | None = None
    for a, b, c, d in D4:
        img = [(a * x + b * y, c * x + d * y) for x, y in vs]
        mnx = min(x for x, _ in img)
        mny = min(y for _, y in img)
        norm = tuple(sorted((x - mnx, y - mny) for x, y in img))
        if best is None or norm < best:
            best = norm  # type: ignore[assignment]
    assert best is not None
    return best


def iter_canonical_triangles(width: int, lmax: int | None = None) -> Iterator[LatticeTriangle]:
    """One representative per orbit of triangles fitting a width x width box.

    The first edge vector is restricted to the cone 0 <= y <= x (every
    orbit has a member there, see cone_points), remaining duplicates are
    removed by canonical key.  Optional perimeter cap lmax prunes early.
    """
    if width < 1:
        raise ValueError("width must be positive")
    grid = grid_points(width)
    seen: set[CanonicalKey] = set()
    origin = LatticePoint(0, 0)
    for px, py in cone_points(width):
        gp = math.gcd(px, py)
        if lmax is not None and gp + 2 > lmax:
            continue
        p = LatticePoint(px, py)
        for qx, qy in grid:
            if px * qy - py * qx == 0:
                continue
            if max(px, qx, 0) - min(0, qx) > width:
                continue
            if max(py, qy, 0) - min(0, qy) > width:
                continue
            if lmax is not None:
                perim = gp + math.gcd(qx, qy) + math.gcd(px - qx, py - qy)
                if perim > lmax:
                    continue
            t = LatticeTriangle(origin, p, LatticePoint(qx, qy))
            key = canonical_key(t)
            if key in seen:
                continue
            seen.add(key)
            yield t


def segment_point_count(p: LatticePoint, q: LatticePoint) -> int:
    """Lattice points on the closed segment, counted one by one."""
    count = 0
    for x in range(min(p.x, q.x), max(p.x, q.x) + 1):
        for y in range(min(p.y, q.y), max(p.y, q.y) + 1):
            # (x, y) on segment pq iff collinear and inside the bbox.
            if (q.x - p.x) * (y - p.y) == (q.y - p.y) * (x - p.x):
                count += 1
    return count


def boundary_count(t: LatticeTriangle) -> int:
    total = 0
    for p, q in ((t.v0, t.v1), (t.v1, t.v2), (t.v2, t.v0)):
        total += segment_point_count(p, q) - 1  # drop one shared endpoint each
    return total


def interior_count(t: LatticeTriangle) -> int:
    """Lattice points strictly inside, by edge-function sign agreement."""
    xs = [v.x for v in t.vertices]
    ys = [v.y for v in t.vertices]
    edges = []
    for v, p, q in ((t.v0, t.v1, t.v2), (t.v1, t.v2, t.v0), (t.v2, t.v0, t.v1)):
        nx, ny = q.y - p.y, p.x - q.x
        c = -(nx * p.x + ny * p.y)
        ref = nx * v.x + ny * v.y + c
        edges.append((nx, ny, c, 1 if ref > 0 else -1))
    count = 0
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            if all((nx * x + ny * y + c > 0) == (s > 0) and nx * x + ny * y + c != 0
                   for nx, ny, c, s in edges):
                count += 1
    return count


def incenter_bbox_scan(t: LatticeTriangle) -> LatticePoint | None:
    """The lattice incenter, by testing every interior point of the bounding box.

    A point is the incenter when it lies strictly inside and its squared
    distances to the three side lines, d_i^2 = e_i^2 / |n_i|^2 for the
    edge function e_i and normal n_i, agree; compared cross-multiplied.
    """
    xs = [v.x for v in t.vertices]
    ys = [v.y for v in t.vertices]
    edges = []
    for v, p, q in ((t.v0, t.v1, t.v2), (t.v1, t.v2, t.v0), (t.v2, t.v0, t.v1)):
        nx, ny = q.y - p.y, p.x - q.x
        c = -(nx * p.x + ny * p.y)
        edges.append((nx, ny, c, nx * v.x + ny * v.y + c > 0))
    hits = []
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            vals = [nx * x + ny * y + c for nx, ny, c, _ in edges]
            if any(e == 0 or (e > 0) != side for e, (_, _, _, side) in zip(vals, edges)):
                continue
            (e0, e1, e2), (m0, m1, m2) = vals, [nx * nx + ny * ny for nx, ny, _, _ in edges]
            if e0 * e0 * m1 == e1 * e1 * m0 and e0 * e0 * m2 == e2 * e2 * m0:
                hits.append(LatticePoint(x, y))
    assert len(hits) <= 1, hits
    return hits[0] if hits else None


def orbit_signature(t: LatticeTriangle) -> frozenset:
    """Translation-normalized vertex tuples over all D4 images."""
    vs = [(v.x, v.y) for v in t.vertices]
    out = set()
    for a, b, c, d in D4:
        img = [(a * x + b * y, c * x + d * y) for x, y in vs]
        mnx = min(x for x, _ in img)
        mny = min(y for _, y in img)
        out.add(tuple(sorted((x - mnx, y - mny) for x, y in img)))
    return frozenset(out)


def report_flags(rep: CenterReport) -> tuple[bool, bool, bool]:
    """The (F, G, H) lattice flags of a Fraction center report, as CenterCondition.met_by takes them."""
    return (rep.circumcenter_on_lattice, rep.centroid_on_lattice, rep.orthocenter_on_lattice)


def random_triangle(rng: random.Random, radius: int) -> LatticeTriangle:
    while True:
        pts = [
            LatticePoint(rng.randint(-radius, radius), rng.randint(-radius, radius))
            for _ in range(3)
        ]
        try:
            return LatticeTriangle(*pts)
        except ValueError:
            continue


def pi_triple_solutions_bruteforce(numerators, bound: int) -> set:
    """All denominator triples up to the bound whose arctans sum to pi.

    Uses the symmetric-function identity directly: with positive
    tangents t_i, the sum equals pi iff t0+t1+t2 == t0*t1*t2 and the
    second symmetric function differs from 1.  With t_i = n_i / M_i for
    integers n_i = L*p_i and M_i = L*m_i (L the common denominator of
    the p_i), both tests are cross-multiplied by M0*M1*M2.
    """
    p = [Fraction(x) for x in numerators]
    scale = math.lcm(*(x.denominator for x in p))
    n0, n1, n2 = (int(x * scale) for x in p)
    out = set()
    for m0 in range(1, bound + 1):
        big0 = scale * m0
        for m1 in range(1, bound + 1):
            big1 = scale * m1
            for m2 in range(1, bound + 1):
                big2 = scale * m2
                s1 = n0 * big1 * big2 + n1 * big0 * big2 + n2 * big0 * big1
                s2 = n0 * n1 * big2 + n0 * n2 * big1 + n1 * n2 * big0
                if s1 == n0 * n1 * n2 and s2 != big0 * big1 * big2:
                    out.add((m0, m1, m2))
    return out


# --- the k*pi + arctan(t) normal form ------------------------------------
#
# Exact sums of arctangents of rationals with quadrant tracking: general
# angles k*pi + arctan(t) have a unique normal form (arctan part in
# (-pi/2, pi/2), or a half-pi marker) closed under addition.  The
# reference that every comparison with pi (angles._pi_gap) is tested
# against.


class PiOrder(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class ExactAngle:
    """k*pi + arctan(tail), or k*pi + pi/2 when half_pi is set."""

    pi_multiples: int
    tail: Fraction | None  # None together with half_pi=True
    half_pi: bool = False

    def __post_init__(self) -> None:
        if self.half_pi:
            if self.tail is not None:
                raise ValueError("half-pi angles carry no tangent tail")
        else:
            object.__setattr__(self, "tail", Fraction(self.tail))

    def _order_key(self) -> tuple:
        # Within one k, every finite arctan lies below the half-pi mark.
        if self.half_pi:
            return (self.pi_multiples, 1, Fraction(0))
        return (self.pi_multiples, 0, self.tail)

    def __lt__(self, other: "ExactAngle") -> bool:
        return self._order_key() < other._order_key()

    def __float__(self) -> float:
        if self.half_pi:
            return self.pi_multiples * math.pi + math.pi / 2
        return self.pi_multiples * math.pi + math.atan(self.tail)

    def __str__(self) -> str:
        head = f"{self.pi_multiples}*pi"
        if self.half_pi:
            return f"{head} + pi/2"
        return f"{head} + arctan({self.tail})"


ZERO_ANGLE = ExactAngle(0, Fraction(0))
PI_ANGLE = ExactAngle(1, Fraction(0))


def angle_from_tan(t: Rational) -> ExactAngle:
    """Angle in (0, pi/2) with the given positive rational tangent."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError(f"tangent must be positive, got {t}")
    return ExactAngle(0, t)


def angle_add(a: ExactAngle, b: ExactAngle) -> ExactAngle:
    """Exact sum; the result is again in normal form."""
    k = a.pi_multiples + b.pi_multiples
    if a.half_pi and b.half_pi:
        return ExactAngle(k + 1, Fraction(0))
    if a.half_pi or b.half_pi:
        v = b.tail if a.half_pi else a.tail
        assert v is not None
        if v == 0:
            return ExactAngle(k, None, half_pi=True)
        # pi/2 + arctan(v) = (v>0: pi - arctan(1/v); v<0: arctan(-1/v))
        return ExactAngle(k + 1 if v > 0 else k, -1 / v)
    u, v = a.tail, b.tail
    assert u is not None and v is not None
    prod = u * v
    if prod == 1:
        # u and v share a sign; two negative arctans land at -pi/2.
        return ExactAngle(k if u > 0 else k - 1, None, half_pi=True)
    w = (u + v) / (1 - prod)
    if prod > 1:
        # Both tails share a sign; the sum crossed +-pi/2.
        k += 1 if u > 0 else -1
    return ExactAngle(k, w)


def angle_neg(a: ExactAngle) -> ExactAngle:
    if a.half_pi:
        return ExactAngle(-a.pi_multiples - 1, None, half_pi=True)
    assert a.tail is not None
    return ExactAngle(-a.pi_multiples, -a.tail)


def angle_sum(angles: Iterable[ExactAngle]) -> ExactAngle:
    total = ZERO_ANGLE
    for a in angles:
        total = angle_add(total, a)
    return total


def arctan_sum(tangents: Iterable[Rational]) -> ExactAngle:
    return angle_sum(angle_from_tan(t) for t in tangents)


def compare_to_pi(a: ExactAngle) -> PiOrder:
    """Exact trichotomy of the represented angle against pi."""
    key = a._order_key()
    pi_key = PI_ANGLE._order_key()
    if key < pi_key:
        return PiOrder.LESS
    if key == pi_key:
        return PiOrder.EQUAL
    return PiOrder.GREATER


def pi_triples_angle_scan(numerators) -> list:
    """The TangentSum solutions by an m0 x m1 scan over exact angles.

    Each m_i is bounded by a linear search for the largest value keeping
    the sum at least pi with the other two denominators at 1; for each
    (m0, m1) in that grid the residue pi - arctan(t0) - arctan(t1) is
    formed in the k*pi + arctan(t) normal form and m2 read off its tail.
    Solutions come in increasing (m0, m1) order.
    """
    p = [Fraction(x) for x in numerators]

    def bound(i: int) -> int:
        others = angle_sum(angle_from_tan(p[j]) for j in range(3) if j != i)
        m = 1
        while compare_to_pi(angle_add(others, angle_from_tan(p[i] / m))) is not PiOrder.LESS:
            m += 1
        return m - 1

    m0_max, m1_max = bound(0), bound(1)
    solutions = []
    for m0 in range(1, m0_max + 1):
        a0 = angle_from_tan(p[0] / m0)
        for m1 in range(1, m1_max + 1):
            partial = angle_add(a0, angle_from_tan(p[1] / m1))
            residue = angle_add(PI_ANGLE, angle_neg(partial))
            # Need residue = arctan(p2/m2) for a positive integer m2.
            if residue.half_pi or residue.pi_multiples != 0 or residue.tail <= 0:
                continue
            m2 = p[2] / residue.tail
            if m2.denominator == 1:
                solutions.append((m0, m1, int(m2)))
    return solutions


# Side lengths are bracketed at scale 2**_SQRT_BITS; 4 bits keep each
# axis of the incenter's bounding range narrower than one unit.
_SQRT_BITS = 4


def _scaled_sqrt_bracket(n: int) -> tuple[int, int]:
    # floor and ceil of sqrt(n) * 2**_SQRT_BITS
    lo = math.isqrt(n << (2 * _SQRT_BITS))
    return lo, lo + (lo * lo != n << (2 * _SQRT_BITS))


def _axis_candidates(coords: tuple[int, ...], lo: tuple[int, ...], hi: tuple[int, ...]) -> range:
    # Integers within [N_lo/D_hi, N_hi/D_lo], the bounds of
    # sum(w_i x_i)/sum(w_i) over lo_i <= w_i <= hi_i.  Shifting by the
    # minimum makes every coordinate non-negative, so the bounds are
    # monotone in each weight.
    base = min(coords)
    shifted = [x - base for x in coords]
    n_lo = sum(w * x for w, x in zip(lo, shifted))
    n_hi = sum(w * x for w, x in zip(hi, shifted))
    return range(base - (-n_lo // sum(hi)), base + n_hi // sum(lo) + 1)


def lattice_incenter_brackets(t: LatticeTriangle) -> LatticePoint | None:
    """The lattice incenter, located by bracketing the side lengths.

    Each side length is bracketed as floor/ceil of its square root at
    scale 2**_SQRT_BITS, which encloses the weighted-vertex incenter in
    an integer-bounded box.  Each axis of the box is shorter than one
    unit (its width is at most 5W / (2**(_SQRT_BITS+1) W - 3) for a
    triangle of width W), so at most one lattice point can lie in it;
    that candidate faces the exact integer equidistance test, and the
    incenter is the only interior point that can pass it.
    """
    # side i is opposite vertex i, and m_i = |n_i|^2 is its squared length
    lines = _side_lines(t)
    lo, hi = zip(*(_scaled_sqrt_bracket(m) for _, _, _, m, _, _ in lines))
    for x in _axis_candidates((t.v0.x, t.v1.x, t.v2.x), lo, hi):
        for y in _axis_candidates((t.v0.y, t.v1.y, t.v2.y), lo, hi):
            if _incenter_offsets(t, lines, LatticePoint(x, y)) is not None:
                return LatticePoint(x, y)
    return None


def incenter_report_fractions(
    t: LatticeTriangle, center: LatticePoint | None = None
) -> tuple[LatticePoint, Fraction, tuple[RationalPoint, ...], tuple[bool, ...]]:
    """The four values incenter_report gives, derived with Fractions.

    Returns (incenter, inradius_squared, touch_points, touch_on_lattice).
    A missing center is located by lattice_incenter_brackets.  The touch
    point on side pq is the projection p + s (q - p) of the incenter,
    s = (I - p).(q - p) / |q - p|^2, which must fall within the closed
    segment (0 <= s <= 1); the incenter must lie strictly on the side of
    each edge that holds the opposite vertex, and its squared distance
    to the three projections, a Fraction, must be one value.
    """
    if center is None:
        center = lattice_incenter_brackets(t)
        if center is None:
            raise ValueError(f"{t} has no lattice incenter")
    radii = set()
    touches = []
    for p, q, opposite in ((t.v1, t.v2, t.v0), (t.v2, t.v0, t.v1), (t.v0, t.v1, t.v2)):
        dx, dy = q.x - p.x, q.y - p.y
        here = dx * (center.y - p.y) - dy * (center.x - p.x)
        there = dx * (opposite.y - p.y) - dy * (opposite.x - p.x)
        if here == 0 or (here > 0) != (there > 0):
            raise ValueError(f"{center} is not the incenter of {t}")
        s = Fraction((center.x - p.x) * dx + (center.y - p.y) * dy, dx * dx + dy * dy)
        if not 0 <= s <= 1:
            raise ArithmeticError(f"touch point outside the side {p}{q}")
        tp = RationalPoint(p.x + s * dx, p.y + s * dy)
        radii.add((tp.x - center.x) ** 2 + (tp.y - center.y) ** 2)
        touches.append(tp)
    if len(radii) != 1:
        raise ValueError(f"{center} is not the incenter of {t}")
    return center, radii.pop(), tuple(touches), tuple(tp.is_lattice() for tp in touches)


def incenter_screen(px: int, py: int, qx: np.ndarray, qy: np.ndarray, box_radius: int) -> np.ndarray:
    """Pairs whose float incenter is within rounding error of a lattice point.

    With eps = 2**-52 and coordinates at most B: squared sides
    (< 8 B^2 <= 2^53) are exact, sqrt is correctly rounded and hypot
    within an ulp, so each side carries relative error eps and the sum
    about 2 eps.  The worst case is cancellation in b*px + c*qx, off by
    about 2 eps (b + c) B, which is 2 eps B after division by the
    perimeter; its error adds 2 eps |I| <= 2 eps B.  So a lattice
    incenter is computed within 5 eps B (x - rint(x) is exact), and the
    tolerance 64 eps B keeps a margin of more than ten.
    """
    tol = 64 * box_radius * np.finfo(np.float64).eps
    fa = np.sqrt(((px - qx) ** 2 + (py - qy) ** 2).astype(np.float64))
    fb = np.hypot(qx.astype(np.float64), qy.astype(np.float64))
    fc = math.hypot(px, py)
    total = fa + fb + fc
    ix = (fb * px + fc * qx) / total
    iy = (fb * py + fc * qy) / total
    return (np.abs(ix - np.rint(ix)) <= tol) & (np.abs(iy - np.rint(iy)) <= tol)


def search_shard_full_grid(config: SearchConfig, shard_id: int, cells_needed: frozenset) -> dict:
    """The search shard sweeping every nonzero grid point as first vertex.

    First vertices P run over [-B, B]^2 in grid-index order, round-robin
    over shards; for each P the first surviving Q per cell wins, so a
    cell ends with its smallest (p_idx, q_idx).  Incenter pairs pass the
    float screen and are then confirmed by lattice_incenter_brackets.
    The D4 cone sweep of search._search_shard must give the same merged
    candidates.
    """
    pts = grid_points(config.box_radius)
    qx = np.array([p[0] for p in pts], dtype=np.int64)
    qy = np.array([p[1] for p in pts], dtype=np.int64)
    gcd_q = np.gcd(np.abs(qx), np.abs(qy))
    lmax = config.lmax

    shape_by_code = {0: ShapeClass.ACUTE, 1: ShapeClass.RIGHT, 2: ShapeClass.OBTUSE}
    allowed_codes = {code for code, s in shape_by_code.items() if s in config.shapes}
    conditions = [c for c in config.conditions if any(c == cell[0] for cell in cells_needed)]

    found: dict = {}
    remaining = set(cells_needed)

    for p_idx in range(shard_id, len(pts), config.shard_count):
        if not remaining:
            break
        px, py = pts[p_idx]
        if px == 0 and py == 0:
            continue
        gp = math.gcd(px, py)
        if gp + 2 > lmax:
            continue  # partial perimeter already over budget

        cross = px * qy - py * qx
        valid = cross != 0
        gcd_pq = np.gcd(np.abs(px - qx), np.abs(py - qy))
        perim = gp + gcd_q + gcd_pq
        valid &= perim <= lmax
        if not valid.any():
            continue

        d0 = px * qx + py * qy
        d1 = px * (px - qx) + py * (py - qy)
        d2 = qx * (qx - px) + qy * (qy - py)
        min_dot = np.minimum(d0, np.minimum(d1, d2))
        shape_code = np.where(min_dot > 0, 0, np.where(min_dot == 0, 1, 2))
        shape_ok = np.isin(shape_code, list(allowed_codes))
        base = valid & shape_ok
        if not base.any():
            continue

        safe_cross = np.where(valid, cross, 1)
        hx_num = d0 * (qy - py)
        hy_num = d0 * (px - qx)
        masks: dict = {}
        need = {c for c in conditions if any(cell[0] == c for cell in remaining)}
        need_h = {
            CenterCondition.ORTHOCENTER,
            CenterCondition.CENTROID_AND_ORTHOCENTER,
            CenterCondition.ALL_THREE,
        } & need
        need_g = {
            CenterCondition.CENTROID,
            CenterCondition.CENTROID_AND_ORTHOCENTER,
            CenterCondition.ALL_THREE,
        } & need
        need_f = {CenterCondition.CIRCUMCENTER, CenterCondition.ALL_THREE} & need
        h_mask = g_mask = f_mask = None
        if need_h or need_f:
            h_mask = (hx_num % safe_cross == 0) & (hy_num % safe_cross == 0)
        if need_g:
            g_mask = ((px + qx) % 3 == 0) & ((py + qy) % 3 == 0)
        if need_f:
            fx_num = (px + qx) * cross - hx_num
            fy_num = (py + qy) * cross - hy_num
            f_mask = (fx_num % (2 * safe_cross) == 0) & (fy_num % (2 * safe_cross) == 0)
        if CenterCondition.ORTHOCENTER in need:
            masks[CenterCondition.ORTHOCENTER] = h_mask
        if CenterCondition.CENTROID in need:
            masks[CenterCondition.CENTROID] = g_mask
        if CenterCondition.CIRCUMCENTER in need:
            masks[CenterCondition.CIRCUMCENTER] = f_mask
        if CenterCondition.CENTROID_AND_ORTHOCENTER in need:
            masks[CenterCondition.CENTROID_AND_ORTHOCENTER] = g_mask & h_mask
        if CenterCondition.ALL_THREE in need:
            masks[CenterCondition.ALL_THREE] = f_mask & g_mask & h_mask
        if CenterCondition.INCENTER in need:
            masks[CenterCondition.INCENTER] = incenter_screen(px, py, qx, qy, config.box_radius)

        for cond, cond_mask in masks.items():
            combined = base & cond_mask
            if not combined.any():
                continue
            survivors = np.flatnonzero(combined)
            cell_ids = shape_code[survivors] * (lmax + 1) + perim[survivors]
            exact = cond is not CenterCondition.INCENTER
            if exact:
                _, first = np.unique(cell_ids, return_index=True)
                picks = survivors[np.sort(first)]
            else:
                picks = survivors  # float screen may have false positives
            for q_idx in picks:
                code = int(shape_code[q_idx])
                cell = (cond, shape_by_code[code], int(perim[q_idx]))
                if cell not in remaining:
                    continue
                qxx, qyy = int(qx[q_idx]), int(qy[q_idx])
                if not exact and lattice_incenter_brackets(triangle((0, 0), (px, py), (qxx, qyy))) is None:
                    continue  # a false positive of the float screen
                found[cell] = (p_idx, int(q_idx), px, py, qxx, qyy)
                remaining.discard(cell)
    return found


# --- the per-multiset filter chain ----------------------------------------
#
# One function per exclusion rule, each issuing its own certificate: the
# reference that the rule table behind exclusion_report is tested against.


def one_one_m_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.ORTHOCENTER) -> ExclusionCertificate | None:
    """Acute triangles with sides (1,1,m) have no lattice orthocenter."""
    if not (s.a == 1 and s.b == 1):
        return None
    return ExclusionCertificate(
        Rule.ONE_ONE_M,
        "two unit sides force two angles <= pi/4, so the third is >= pi/2",
        condition,
        ShapeClass.ACUTE,
        s.perimeter,
        s,
    )


def mid3_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.CIRCUMCENTER) -> ExclusionCertificate | None:
    """A lattice circumcenter of an acute triangle needs middle side >= 3."""
    if s.b >= 3:
        return None
    return ExclusionCertificate(
        Rule.MID3,
        f"middle side length {s.b} < 3",
        condition,
        ShapeClass.ACUTE,
        s.perimeter,
        s,
    )


def centroid_mod3_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.CENTROID) -> ExclusionCertificate | None:
    """With a lattice centroid, side lengths divisible by 3 come all-or-none."""
    count = sum(1 for x in s.as_tuple() if x % 3 == 0)
    if count in (0, 3):
        return None
    return ExclusionCertificate(
        Rule.CENTROID_MOD3,
        f"{count} of 3 side lengths divisible by 3; must be 0 or 3",
        condition,
        None,
        s.perimeter,
        s,
    )


def _all_mod3_certificate(
    s: SideMultiset, rule: Rule, condition: CenterCondition, shape: ShapeClass | None, why: str
) -> ExclusionCertificate | None:
    if all(x % 3 == 0 for x in s.as_tuple()):
        return None
    return ExclusionCertificate(rule, why, condition, shape, s.perimeter, s)


def gh_mod3_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.CENTROID_AND_ORTHOCENTER) -> ExclusionCertificate | None:
    """Lattice centroid + lattice orthocenter force all sides divisible by 3."""
    return _all_mod3_certificate(
        s,
        Rule.GH_MOD3,
        condition,
        None,
        "lattice centroid and orthocenter force every side length divisible by 3",
    )


def right_centroid_mod3_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.CENTROID) -> ExclusionCertificate | None:
    """A right triangle with lattice centroid has all sides divisible by 3."""
    return _all_mod3_certificate(
        s,
        Rule.RIGHT_CENTROID_MOD3,
        condition,
        ShapeClass.RIGHT,
        "right angle plus lattice centroid force every side length divisible by 3",
    )


def even_perimeter_certificate(perimeter: int, condition: CenterCondition) -> ExclusionCertificate | None:
    """A lattice circumcenter forces an even lattice perimeter."""
    if perimeter % 2 == 0:
        return None
    return ExclusionCertificate(
        Rule.EVEN_PERIMETER,
        "lattice circumcenter forces even perimeter",
        condition,
        None,
        perimeter,
    )


def halved_numerators_fractions(s: SideMultiset) -> tuple[Fraction, Fraction, Fraction]:
    """The TangentSum numerators as Fractions: even side lengths halved."""
    return tuple(Fraction(x, 2) if x % 2 == 0 else Fraction(x) for x in s.as_tuple())  # type: ignore[return-value]


def pi_triples_hyperbola_sweep(numerators) -> list[tuple[int, int, int]]:
    """The TangentSum solutions as one eager list, by the (m0, m1) sweep under
    the hyperbola M0*M1 < n0*n1, with every numerator taken as a Fraction.

    The numerators are scaled by their common denominator L to integers
    n_i, M_i = L*m_i, and m2 is read off
    M2 = n2*(n0*n1 - M0*M1) / (n0*M1 + M0*n1) with one division per pair.
    """
    p = [Fraction(x) for x in numerators]
    if len(p) != 3 or any(x <= 0 for x in p):
        raise ValueError("expected three positive rationals")
    scale = math.lcm(*(x.denominator for x in p))
    n0, n1, n2 = (int(x * scale) for x in p)
    m0_max = max(0, n0 * (n1 * n2 - scale * scale) // (scale * scale * (n1 + n2)))
    solutions = []
    for m0 in range(1, m0_max + 1):
        big0 = scale * m0
        m1_max = n1 * (n0 * n2 - scale * big0) // (scale * (n2 * big0 + scale * n0))
        num, den = n2 * (n0 * n1 - big0 * scale), scale * (n0 * scale + big0 * n1)
        num_step, den_step = n2 * big0 * scale, scale * scale * n0
        for m1 in range(1, m1_max + 1):
            if num % den == 0:
                solutions.append((m0, m1, num // den))
            num -= num_step
            den += den_step
    return solutions


def tangent_sum_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.CIRCUMCENTER) -> ExclusionCertificate | None:
    """Angle analysis for acute triangles with a lattice circumcenter.

    The three angles are arctan(n_i / m_i) with n_i the (halved-if-even)
    side lengths, and they must sum to exactly pi.  If no denominator
    triple works, or every solution produces a sub-triangle violating the
    pairwise-gcd law, the multiset is impossible.  Every solution is
    found before any is tested.
    """
    numerators = halved_numerators_fractions(s)
    solutions = pi_triples_hyperbola_sweep(numerators)
    nums = f"({numerators[0]},{numerators[1]},{numerators[2]})"
    if not solutions:
        return ExclusionCertificate(
            Rule.TANGENT_SUM,
            f"no denominators make arctans of {nums} sum to pi",
            condition,
            ShapeClass.ACUTE,
            s.perimeter,
            s,
        )
    kills = []
    for sol in solutions:
        subs = subtriangle_multisets(s, sol)
        killed = next((sub for sub in subs if gcd_violation(sub) is not None), None)
        if killed is None:
            return None  # a solution survives; the filter proves nothing
        kills.append(f"m={sol} -> sub-triangle {killed} violates the pairwise-gcd law")
    return ExclusionCertificate(
        Rule.TANGENT_SUM,
        f"solutions for {nums}: " + "; ".join(kills),
        condition,
        ShapeClass.ACUTE,
        s.perimeter,
        s,
    )


def gcd_filter_two_pass(s: SideMultiset, condition: CenterCondition) -> ExclusionCertificate | None:
    """The pairwise-gcd rule computing every gcd twice: once for the verdict,
    once for the detail text of the first offending pair."""
    total = math.gcd(s.a, s.b, s.c)
    if all(math.gcd(x, y) == total for x, y in ((s.a, s.b), (s.a, s.c), (s.b, s.c))):
        return None
    pairs = {(x, y): math.gcd(x, y) for x, y in ((s.a, s.b), (s.a, s.c), (s.b, s.c))}
    bad = next((p, g) for p, g in pairs.items() if g != total)
    return ExclusionCertificate(
        Rule.GCD_LEMMA,
        f"gcd{bad[0]}={bad[1]} differs from gcd of all three = {total}",
        condition,
        None,
        s.perimeter,
        s,
    )


def exclusion_report_per_multiset(perimeter: int, condition: CenterCondition, shape: ShapeClass) -> ExclusionReport:
    """exclusion_report running the whole filter chain, the pairwise-gcd
    rule included, on each side multiset of each cell in turn."""
    H, F = CenterCondition.ORTHOCENTER, CenterCondition.CIRCUMCENTER
    G, GH, FGH = CenterCondition.CENTROID, CenterCondition.CENTROID_AND_ORTHOCENTER, CenterCondition.ALL_THREE
    needs_h, needs_f = condition in (H, F, GH, FGH), condition in (F, FGH)
    needs_g, needs_gh = condition in (G, GH, FGH), condition in (GH, FGH)
    acute, right = shape is ShapeClass.ACUTE, shape is ShapeClass.RIGHT
    if needs_f:
        cert = even_perimeter_certificate(perimeter, condition)
        if cert is not None:
            return ExclusionReport(perimeter, condition, shape, True, (cert,))
    filters = [
        gcd_filter_two_pass,
        *([one_one_m_filter] if needs_h and acute else []),
        *([mid3_filter] if needs_f and acute else []),
        *([centroid_mod3_filter] if needs_g else []),
        *([right_centroid_mod3_filter] if needs_g and right else []),
        *([gh_mod3_filter] if needs_gh else []),
        *([tangent_sum_filter] if needs_f and acute else []),
    ]
    certificates, survivors = [], []
    for s in partitions(perimeter):
        cert = next((c for c in (f(s, condition) for f in filters) if c is not None), None)
        if cert is None:
            survivors.append(s)
        else:
            certificates.append(cert)
    return ExclusionReport(perimeter, condition, shape, not survivors, tuple(certificates), tuple(survivors))


def certificate_to_json(cert: ExclusionCertificate) -> dict:
    """ExclusionCertificate.to_json as it read through Enum.value."""
    return {
        "rule": cert.rule.value,
        "condition": cert.condition.value,
        "shape": cert.shape.value if cert.shape is not None else "any",
        "perimeter": cert.perimeter,
        "multiset": list(cert.multiset.as_tuple()) if cert.multiset else None,
        "detail": cert.detail,
    }


def entry_to_json(entry: AtlasEntry) -> dict:
    """An atlas entry's JSON object, certificates included."""
    out = entry.fields()
    if entry.certificates:
        out["certificates"] = [c.to_json() for c in entry.certificates]
    return out


def atlas_json_bytes(atlas: AchievabilityAtlas) -> bytes:
    """The atlas document as json.dumps wrote it: every entry's JSON object, whole."""
    ordered = sorted(atlas.entries, key=_cell_sort_key)
    document = {
        "schema_version": SCHEMA_VERSION,
        "config": atlas.config.document_echo(),
        "entries": [entry_to_json(atlas.entries[cell]) for cell in ordered],
    }
    return (json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n").encode()
