"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the code paths under test: boundary
and interior lattice points are counted point by point, orbits are
partitioned through explicit symmetry images, and angle sums are checked
through high-precision floating point.  The previous incenter and
pi-triple algorithms are kept here as the references their faster
replacements are tested against.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from latticecenters.angles import (
    PI_ANGLE,
    PiOrder,
    angle_add,
    angle_from_tan,
    angle_neg,
    angle_sum,
    compare_to_pi,
)
from latticecenters.lattice import LatticePoint, LatticeTriangle

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


def arctan_sum_float(tangents, dps: int = 30) -> "object":
    """High-precision (>= 60 bit) floating sum of arctans, via mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        return sum(mpmath.atan(mpmath.mpf(t.numerator) / t.denominator) for t in map(Fraction, tangents))


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
