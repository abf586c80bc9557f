import random
from fractions import Fraction

import pytest

from latticecenters.incenter import incenter_report, lattice_incenter
from latticecenters.search import incenter_scan
from latticecenters.lattice import LatticePoint, LatticeTriangle, ShapeClass, lattice_perimeter, triangle

import oracles


class TestLatticeIncenter:
    def test_reference_examples(self):
        assert lattice_incenter(triangle((0, 0), (14, 2), (8, 8))) == LatticePoint(8, 4)
        assert lattice_incenter(triangle((0, 0), (14, 2), (21, 51))) == LatticePoint(9, 7)
        assert lattice_incenter(triangle((0, 0), (4, 0), (0, 3))) == LatticePoint(1, 1)
        assert lattice_incenter(triangle((0, 0), (4, 0), (4, 3))) == LatticePoint(3, 1)

    def test_none_when_incenter_not_lattice(self):
        assert lattice_incenter(triangle((0, 0), (3, 0), (0, 3))) is None
        assert lattice_incenter(triangle((0, 0), (1, 0), (0, 1))) is None

    def test_matches_weighted_vertex_formula(self):
        # the classical weighted-vertex formula, evaluated at 80-bit
        # precision, must land within 1e-15 of every exact hit
        import mpmath

        rng = random.Random(12)
        candidates = [oracles.random_triangle(rng, 18) for _ in range(1500)]
        for base in (
            triangle((0, 0), (14, 2), (8, 8)),
            triangle((0, 0), (14, 2), (21, 51)),
            triangle((0, 0), (4, 0), (4, 3)),
        ):
            candidates += [base.scaled(k) for k in range(1, 6)]
        found = 0
        with mpmath.workprec(80):
            for t in candidates:
                hit = lattice_incenter(t)
                if hit is None:
                    continue
                found += 1
                a = mpmath.hypot(t.v1.x - t.v2.x, t.v1.y - t.v2.y)
                b = mpmath.hypot(t.v2.x - t.v0.x, t.v2.y - t.v0.y)
                c = mpmath.hypot(t.v0.x - t.v1.x, t.v0.y - t.v1.y)
                s = a + b + c
                ix = (a * t.v0.x + b * t.v1.x + c * t.v2.x) / s
                iy = (a * t.v0.y + b * t.v1.y + c * t.v2.y) / s
                tol = mpmath.mpf("1e-15")
                assert abs(ix - hit.x) < tol and abs(iy - hit.y) < tol
        assert found >= 15

    def test_large_triangles_located_exactly(self):
        # scaled copies of the reference example, up to sizes where a
        # float estimate of the incenter is off by units or overflows
        for k in (100, 10**17, 3 * 10**17 + 1, 10**310):
            big = triangle((0, 0), (14 * k, 2 * k), (8 * k, 8 * k))
            assert lattice_incenter(big) == LatticePoint(8 * k, 4 * k)

    def test_agrees_with_bbox_scan_on_small_anchored_triangles(self):
        span = range(-4, 5)
        checked = found = 0
        for px in span:
            for py in span:
                for qx in span:
                    for qy in span:
                        if px * qy - py * qx == 0:
                            continue
                        t = triangle((0, 0), (px, py), (qx, qy))
                        hit = lattice_incenter(t)
                        assert hit == oracles.incenter_bbox_scan(t), t
                        checked += 1
                        found += hit is not None
        assert checked > 5000 and found > 0

    def test_agrees_with_bbox_scan_on_random_triangles(self):
        rng = random.Random(15)
        candidates = [oracles.random_triangle(rng, 12) for _ in range(400)]
        base = triangle((0, 0), (14, 2), (21, 51))
        candidates += [
            LatticeTriangle(*(LatticePoint(v.x + dx, v.y + dy) for v in base.vertices))
            for dx, dy in ((0, 0), (-30, 7), (11, -40))
        ]
        found = 0
        for t in candidates:
            hit = lattice_incenter(t)
            assert hit == oracles.incenter_bbox_scan(t), t
            found += hit is not None
        assert found >= 3

    @pytest.mark.parametrize("k", [1, 3, 10**17 + 1])
    def test_agrees_with_brackets_on_anchored_grid(self, k):
        span = range(-7, 8)
        checked = found = 0
        for px in span:
            for py in span:
                for qx in span:
                    for qy in span:
                        if px * qy - py * qx == 0:
                            continue
                        t = triangle((0, 0), (k * px, k * py), (k * qx, k * qy))
                        hit = lattice_incenter(t)
                        assert hit == oracles.lattice_incenter_brackets(t), t
                        checked += 1
                        found += hit is not None
        assert checked == 48896 and found >= 96

    def test_agrees_with_brackets_on_random_and_planted_triangles(self):
        # random triangles up to 10^200, and lattice-incenter triangles
        # scaled and translated to the same sizes, each also with one
        # coordinate moved by one
        rng = random.Random(16)
        span = range(-6, 7)
        anchored = (triangle((0, 0), (px, py), (qx, qy)) for px in span for py in span for qx in span for qy in span
                    if px * qy - py * qx)
        small = [t for t in anchored if oracles.lattice_incenter_brackets(t)]
        assert len(small) >= 20
        found = 0
        for e in (1, 5, 15, 16, 17, 30, 60, 100, 200):
            r = 10**e
            for _ in range(60):
                t = oracles.random_triangle(rng, r)
                assert lattice_incenter(t) == oracles.lattice_incenter_brackets(t), t
                planted = rng.choice(small).scaled(rng.randint(1, r)).translated(
                    LatticePoint(rng.randint(-r, r), rng.randint(-r, r))
                )
                v0 = planted.v0
                nudged = LatticeTriangle(LatticePoint(v0.x + 1, v0.y), planted.v1, planted.v2)
                for t in (planted, nudged):
                    hit = lattice_incenter(t)
                    assert hit == oracles.lattice_incenter_brackets(t), t
                    found += hit is not None
        assert found >= 9 * 60

    def test_agrees_with_brackets_on_scaled_heronian_bases(self):
        bases = (((0, 0), (14, 2), (8, 8)), ((0, 0), (14, 2), (21, 51)), ((0, 0), (4, 0), (4, 3)))
        for base in bases:
            for k in (1, 7, 10**5, 10**15, 3 * 10**17 + 1, 10**30, 10**100 + 7):
                big = triangle(*base).scaled(k)
                for d in (LatticePoint(0, 0), LatticePoint(-(10**29), 3), LatticePoint(5, 10**99)):
                    t = big.translated(d)
                    hit = lattice_incenter(t)
                    assert hit is not None and hit == oracles.lattice_incenter_brackets(t), t

    def test_scaling(self):
        rng = random.Random(13)
        base = triangle((0, 0), (14, 2), (8, 8))
        for k in (2, 3, 5):
            assert lattice_incenter(base.scaled(k)) == LatticePoint(8 * k, 4 * k)
        for _ in range(300):
            t = oracles.random_triangle(rng, 10)
            hit = lattice_incenter(t)
            if hit is not None:
                k = rng.randint(2, 4)
                assert lattice_incenter(t.scaled(k)) == LatticePoint(k * hit.x, k * hit.y)


class TestIncenterReport:
    def test_irrational_inradius_example(self):
        rep = incenter_report(triangle((0, 0), (14, 2), (8, 8)))
        assert rep.inradius_squared == 8  # inradius 2*sqrt(2), irrational

    def test_touch_points_example(self):
        rep = incenter_report(triangle((0, 0), (14, 2), (21, 51)))
        assert rep.incenter == LatticePoint(9, 7)
        assert rep.inradius_squared == 32  # inradius 4*sqrt(2)
        expected = {
            (Fraction(49, 5), Fraction(7, 5)),
            (Fraction(73, 5), Fraction(31, 5)),
            (Fraction(49, 13), Fraction(119, 13)),
        }
        assert {(p.x, p.y) for p in rep.touch_points} == expected
        assert rep.touch_on_lattice == (False, False, False)

    def test_345_touch_points(self):
        rep = incenter_report(triangle((0, 0), (4, 0), (4, 3)))
        assert rep.inradius_squared == 1
        assert sorted(rep.touch_on_lattice) == [False, True, True]

    def test_touch_points_perpendicular_and_on_segment(self):
        rng = random.Random(14)
        candidates = [oracles.random_triangle(rng, 15) for _ in range(1000)]
        candidates += [
            triangle((0, 0), (14, 2), (8, 8)).scaled(k) for k in range(1, 5)
        ]
        candidates += [triangle((0, 0), (4, 0), (4, 3)).scaled(k) for k in range(1, 5)]
        checked = 0
        for t in candidates:
            hit = lattice_incenter(t)
            if hit is None:
                continue
            rep = incenter_report(t, hit)
            checked += 1
            sides = ((t.v1, t.v2), (t.v2, t.v0), (t.v0, t.v1))
            for tp, (p, q) in zip(rep.touch_points, sides):
                dx, dy = q.x - p.x, q.y - p.y
                assert (tp.x - hit.x) * dx + (tp.y - hit.y) * dy == 0
                along = (tp.x - p.x) * dx + (tp.y - p.y) * dy
                assert 0 <= along <= dx * dx + dy * dy
        assert checked >= 8

    @staticmethod
    def _assert_matches_fractions(t, hit=None):
        rep = incenter_report(t, hit)
        incenter, r2, touches, flags = oracles.incenter_report_fractions(t, hit)
        assert rep.incenter == incenter, t
        assert rep.inradius_squared == r2, t
        assert rep.touch_points == touches, t
        assert rep.touch_on_lattice == flags, t

    def test_matches_fraction_report(self):
        span = range(-6, 7)
        checked = 0
        for px in span:
            for py in span:
                for qx in span:
                    for qy in span:
                        if px * qy - py * qx == 0:
                            continue
                        t = triangle((0, 0), (px, py), (qx, qy))
                        hit = lattice_incenter(t)
                        if hit is None:
                            continue
                        self._assert_matches_fractions(t, hit)
                        checked += 1
        assert checked > 50
        bases = (((0, 0), (14, 2), (8, 8)), ((0, 0), (14, 2), (21, 51)), ((0, 0), (4, 0), (4, 3)))
        for base in bases:
            for k in (1, 7, 10**5, 10**15, 3 * 10**17 + 1, 10**30):
                big = triangle(*base).scaled(k)
                for t in (big, big.translated(LatticePoint(-(10**29), 3))):
                    self._assert_matches_fractions(t)

    def test_touch_points_built_lazily_and_once(self):
        for t in (triangle((0, 0), (14, 2), (21, 51)), triangle((0, 0), (4, 0), (4, 3)).scaled(10**20)):
            rep = incenter_report(t)
            assert "touch_points" not in rep.__dict__
            first = rep.touch_points
            assert rep.touch_points is first
            assert first == oracles.incenter_report_fractions(t)[2]

    def test_wrong_center_rejected(self):
        t = triangle((0, 0), (14, 2), (8, 8))
        with pytest.raises(ValueError):
            incenter_report(t, LatticePoint(7, 4))

    def test_no_lattice_incenter_rejected(self):
        with pytest.raises(ValueError):
            incenter_report(triangle((0, 0), (3, 0), (0, 3)))


class TestIncenterScan:
    def test_small_scan_rows_replay(self):
        from math import isqrt

        scan = incenter_scan(10, 14)
        assert scan.rows  # the box contains lattice-incenter triangles
        for row in scan.rows:
            assert lattice_incenter(row.triangle) is not None
            assert lattice_perimeter(row.triangle) == row.perimeter
            rep = incenter_report(row.triangle)
            assert rep.inradius_squared == row.inradius_squared

        def is_square(fr):
            return (
                isqrt(fr.numerator) ** 2 == fr.numerator
                and isqrt(fr.denominator) ** 2 == fr.denominator
            )

        # irrational inradii show up even in small boxes
        assert any(not is_square(row.inradius_squared) for row in scan.rows)

    def test_345_family_cell_is_found(self):
        # the 3-4-5 right triangle has perimeter 12 and lattice incenter,
        # so a (right, 12) witness must appear once the box reaches it
        scan = incenter_scan(12, 12)
        assert 12 in {r.perimeter for r in scan.rows if r.shape is ShapeClass.RIGHT}

    def test_at_most_one_row_per_cell(self):
        scan = incenter_scan(9, 12)
        cells = [(r.shape, r.perimeter) for r in scan.rows]
        assert len(cells) == len(set(cells))

    def test_each_row_locates_its_incenter_once(self, monkeypatch):
        import latticecenters.incenter as incenter_mod

        located = []

        def counting(t):
            center = lattice_incenter(t)
            if center is not None:
                located.append(t)
            return center

        monkeypatch.setattr(incenter_mod, "lattice_incenter", counting)
        scan = incenter_scan(10, 14)
        assert scan.rows
        assert sorted(map(str, located)) == sorted(str(r.triangle) for r in scan.rows)
