import collections
import itertools
import random
from fractions import Fraction

import pytest

from latticecenters.centers import (
    CenterCondition,
    center_numerators,
    center_report,
    centroid,
    circumcenter,
    exact_tangent,
    lattice_centers,
    orthic_m_values,
    orthocenter,
)
from latticecenters.lattice import (
    DegenerateTriangleError,
    LatticePoint,
    Parity,
    ShapeClass,
    lattice_length,
    parity,
    triangle,
    twice_area,
)
import oracles


def rational(p):
    return (p.x, p.y)


class TestCentroid:
    def test_examples(self):
        assert rational(centroid(triangle((0, 0), (9, 3), (0, 6)))) == (3, 3)
        assert rational(centroid(triangle((0, 0), (1, 2), (2, 1)))) == (1, 1)
        assert rational(centroid(triangle((0, 0), (3, 0), (0, 3)))) == (1, 1)

    def test_non_lattice(self):
        g = centroid(triangle((0, 0), (3, 0), (1, 2)))
        assert (g.x, g.y) == (Fraction(4, 3), Fraction(2, 3))
        assert not g.is_lattice()


class TestOrthocenter:
    def test_examples(self):
        assert rational(orthocenter(triangle((0, 0), (9, 3), (0, 6)))) == (1, 3)
        assert rational(orthocenter(triangle((0, 0), (3, 0), (1, 2)))) == (1, 1)
        assert rational(orthocenter(triangle((0, 0), (6, 3), (3, 6)))) == (4, 4)

    def test_right_triangle_orthocenter_at_right_angle_vertex(self):
        assert rational(orthocenter(triangle((0, 0), (1, 0), (0, 1)))) == (0, 0)
        assert rational(orthocenter(triangle((5, 5), (7, 5), (5, 8)))) == (5, 5)

    def test_altitude_perpendicularity(self):
        rng = random.Random(9)
        for _ in range(300):
            t = oracles.random_triangle(rng, 30)
            h = orthocenter(t)
            for v, p, q in ((t.v0, t.v1, t.v2), (t.v1, t.v2, t.v0), (t.v2, t.v0, t.v1)):
                assert (h.x - v.x) * (p.x - q.x) + (h.y - v.y) * (p.y - q.y) == 0


class TestCircumcenter:
    def test_examples(self):
        assert rational(circumcenter(triangle((0, 0), (9, 3), (0, 6)))) == (4, 3)
        assert rational(circumcenter(triangle((0, 0), (6, 0), (4, 4)))) == (3, 1)
        assert rational(circumcenter(triangle((0, 0), (4, 0), (3, 3)))) == (2, 1)

    def test_equidistance(self):
        rng = random.Random(11)
        for _ in range(300):
            t = oracles.random_triangle(rng, 30)
            f = circumcenter(t)
            d2 = {(f.x - v.x) ** 2 + (f.y - v.y) ** 2 for v in t.vertices}
            assert len(d2) == 1


class TestCenterReport:
    def test_all_lattice_flags(self):
        rep = center_report(triangle((0, 0), (9, 3), (0, 6)))
        assert rep.circumcenter_on_lattice
        assert rep.centroid_on_lattice
        assert rep.orthocenter_on_lattice

    def test_mixed_flags(self):
        rep = center_report(triangle((0, 0), (3, 0), (1, 2)))
        assert rep.orthocenter_on_lattice
        assert not rep.centroid_on_lattice

    def test_unit_right_triangle(self):
        rep = center_report(triangle((0, 0), (1, 0), (0, 1)))
        assert rep.orthocenter_on_lattice
        assert rep.shape is ShapeClass.RIGHT

    def test_euler_relation_randomized(self):
        rng = random.Random(23)
        for _ in range(1000):
            t = oracles.random_triangle(rng, 30)
            rep = center_report(t)
            assert rep.circumcenter.scaled(2) + rep.orthocenter == rep.centroid.scaled(3)

    def test_translation_equivariance(self):
        rng = random.Random(31)
        for _ in range(100):
            t = oracles.random_triangle(rng, 20)
            d = LatticePoint(rng.randint(-50, 50), rng.randint(-50, 50))
            a, b = center_report(t), center_report(t.translated(d))
            for name in ("circumcenter", "centroid", "orthocenter"):
                p, q = getattr(a, name), getattr(b, name)
                assert (p.x + d.x, p.y + d.y) == (q.x, q.y)

    def test_condition_satisfaction(self):
        flags = _report_flags(triangle((0, 0), (6, 3), (3, 6)))
        assert CenterCondition.CENTROID_AND_ORTHOCENTER.met_by(flags)
        assert not CenterCondition.ALL_THREE.met_by(flags)


def _report_flags(t):
    """center_report's lattice flags, once its F, G and H are checked against center_numerators."""
    rep = center_report(t)
    for (den, (nx, ny)), p in zip(center_numerators(t), (rep.circumcenter, rep.centroid, rep.orthocenter)):
        assert (Fraction(nx, den) + t.v0.x, Fraction(ny, den) + t.v0.y) == (p.x, p.y), t
    return oracles.report_flags(rep)


class TestLatticeCenters:
    """center_numerators' values and lattice_centers' flags against the Fractions of center_report."""

    def test_numerators_of_the_reference_triangle(self):
        # F = (4, 3), G = (3, 3), H = (1, 3); cross = 54, so the denominators are 108, 3 and 54
        assert center_numerators(triangle((0, 0), (9, 3), (0, 6))) == ((108, (432, 324)), (3, (9, 9)), (54, (54, 162)))
        # moved by (5, 5), with v1 and v2 swapped: relative to v0, and cross changes sign
        assert center_numerators(triangle((5, 5), (5, 11), (14, 8))) == (
            (-108, (-432, -324)), (3, (9, 9)), (-54, (-54, -162))
        )

    def test_every_small_anchored_triangle(self):
        span = range(-6, 7)
        seen = collections.Counter()
        for p in ((x, y) for x in span for y in span):
            for q in ((x, y) for x in span for y in span):
                try:
                    t = triangle((0, 0), p, q)
                except DegenerateTriangleError:
                    continue
                flags = lattice_centers(t)
                assert flags == _report_flags(t), t
                seen[flags] += 1
        # F on the lattice forces H, so six of the eight flag patterns occur
        assert len(seen) == 6 and not any(f and not h for f, _, h in seen)

    def test_scaled_and_translated_random_triangles(self):
        rng = random.Random(8)
        hits = 0
        for _ in range(2000):
            k = rng.choice([1, 2, 3, 6, rng.randint(1, 10**30)])
            d = LatticePoint(rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30))
            t = oracles.random_triangle(rng, 12).scaled(k).translated(d)
            flags = lattice_centers(t)
            assert flags == _report_flags(t), t
            hits += all(flags)
        assert hits > 100

    def test_conditions_read_one_table(self):
        for flags in itertools.product((False, True), repeat=3):
            f, g, h = flags
            want = {"F": f, "G": g, "H": h, "GH": g and h, "FGH": f and g and h}
            for cond in CenterCondition:
                if cond is CenterCondition.INCENTER:
                    with pytest.raises(ValueError):
                        cond.met_by(flags)
                else:
                    assert cond.met_by(flags) is want[cond.value], (cond, flags)


class TestOrthicMValues:
    def test_reference_triangle(self):
        # H = (1,3); vertex-to-H lattice lengths against opposite sides 3, 6, 3
        assert orthic_m_values(triangle((0, 0), (9, 3), (0, 6))) == (1, 8, 1)

    def test_nine_perimeter_triangle(self):
        assert orthic_m_values(triangle((0, 0), (6, 3), (3, 6))) == (4, 1, 1)

    def test_tangent_consistency(self):
        t = triangle((0, 0), (9, 3), (0, 6))
        assert exact_tangent(t, 0) == 3
        assert exact_tangent(t, 1) == Fraction(3, 4)
        assert exact_tangent(t, 2) == 3

    def test_right_triangle_rejected(self):
        with pytest.raises(ValueError):
            orthic_m_values(triangle((0, 0), (1, 0), (0, 1)))

    def test_non_lattice_orthocenter_rejected(self):
        # acute with H = (16/7, 12/7)
        t = triangle((0, 0), (4, 0), (2, 3))
        with pytest.raises(ValueError, match="lattice"):
            orthic_m_values(t)


def _sweep_reports(width, lmax=None):
    for t in oracles.iter_canonical_triangles(width, lmax):
        yield t, center_report(t)


class TestLatticeCenterLemmas:
    """Consequences of lattice centers, checked over every small orbit."""

    def test_circumcenter_implies_orthocenter_and_parity(self):
        seen = 0
        for t, rep in _sweep_reports(10):
            if not rep.circumcenter_on_lattice:
                continue
            seen += 1
            assert rep.orthocenter_on_lattice
            assert rep.perimeter % 2 == 0
            assert twice_area(t) % 2 == 0
            for p, q in ((t.v0, t.v1), (t.v1, t.v2), (t.v2, t.v0)):
                assert parity(p - q) is not Parity.MIXED
        assert seen > 20  # the sweep must actually exercise the lemma

    def test_even_opposite_side_gives_even_orthocenter_distance(self):
        from latticecenters.lattice import side_lengths_by_vertex

        seen = 0
        for t, rep in _sweep_reports(10):
            if not rep.circumcenter_on_lattice:
                continue
            h = rep.orthocenter.as_lattice_point()
            for v, opp in zip(t.vertices, side_lengths_by_vertex(t)):
                if opp % 2 == 0 and v != h:
                    seen += 1
                    assert lattice_length(v, h) % 2 == 0
        assert seen > 20

    def test_centroid_and_orthocenter_force_sides_divisible_by_3(self):
        from latticecenters.lattice import side_lengths

        seen = 0
        for t, rep in _sweep_reports(10):
            if rep.centroid_on_lattice and rep.orthocenter_on_lattice:
                seen += 1
                assert all(s % 3 == 0 for s in side_lengths(t))
        assert seen > 5
