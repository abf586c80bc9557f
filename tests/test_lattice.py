import random

import pytest

from latticecenters.lattice import (
    DegenerateTriangleError,
    LatticePoint,
    LatticeTriangle,
    Parity,
    ShapeClass,
    classify_shape,
    genus,
    lattice_length,
    lattice_perimeter,
    parity,
    side_lengths,
    triangle,
    twice_area,
)

import oracles


O = LatticePoint(0, 0)


class TestLatticeLength:
    def test_examples(self):
        assert lattice_length(O, LatticePoint(9, 3)) == 3
        assert lattice_length(O, O) == 0
        # frozen from the segment-counting oracle: 3 points on the segment
        assert oracles.segment_point_count(O, LatticePoint(14, 2)) - 1 == 2
        assert lattice_length(O, LatticePoint(14, 2)) == 2

    def test_matches_point_count_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            p = LatticePoint(rng.randint(-25, 25), rng.randint(-25, 25))
            q = LatticePoint(rng.randint(-25, 25), rng.randint(-25, 25))
            assert lattice_length(p, q) == oracles.segment_point_count(p, q) - 1


class TestSides:
    def test_side_lengths_examples(self):
        assert side_lengths(triangle((0, 0), (9, 3), (0, 6))) == (3, 3, 6)
        assert side_lengths(triangle((0, 0), (1, 2), (2, 1))) == (1, 1, 1)
        assert side_lengths(triangle((0, 0), (6, 0), (3, 9))) == (3, 3, 6)

    def test_perimeter_examples(self):
        assert lattice_perimeter(triangle((0, 0), (3, 0), (1, 2))) == 6
        assert lattice_perimeter(triangle((0, 0), (4, 0), (3, 3))) == 8
        assert lattice_perimeter(triangle((0, 0), (1, 2), (2, 1))) == 3

    def test_perimeter_counts_boundary_points(self):
        rng = random.Random(77)
        for _ in range(100):
            t = oracles.random_triangle(rng, 12)
            assert lattice_perimeter(t) == oracles.boundary_count(t)


class TestShape:
    def test_examples(self):
        assert classify_shape(triangle((0, 0), (9, 3), (0, 6))) is ShapeClass.ACUTE
        assert classify_shape(triangle((0, 0), (3, 0), (0, 1))) is ShapeClass.RIGHT
        assert classify_shape(triangle((0, 0), (1, 0), (-1, 1))) is ShapeClass.OBTUSE

    def test_invariant_under_symmetries(self):
        rng = random.Random(5)
        for _ in range(200):
            t = oracles.random_triangle(rng, 20)
            shape = classify_shape(t)
            # vertex permutation
            assert classify_shape(LatticeTriangle(t.v2, t.v0, t.v1)) is shape
            assert classify_shape(LatticeTriangle(t.v1, t.v0, t.v2)) is shape
            # translation
            d = LatticePoint(rng.randint(-9, 9), rng.randint(-9, 9))
            assert classify_shape(t.translated(d)) is shape
            # all eight square symmetries
            for a, b, c, d4 in oracles.D4:
                img = LatticeTriangle(
                    *(LatticePoint(a * v.x + b * v.y, c * v.x + d4 * v.y) for v in t.vertices)
                )
                assert classify_shape(img) is shape


class TestAreaAndGenus:
    def test_twice_area_examples(self):
        assert twice_area(triangle((0, 0), (9, 3), (0, 6))) == 54
        assert twice_area(triangle((0, 0), (1, 0), (0, 1))) == 1
        assert twice_area(triangle((0, 0), (14, 2), (8, 8))) == 96

    def test_genus_examples(self):
        assert genus(triangle((0, 0), (1, 0), (0, 1))) == 0
        # frozen from the interior-count oracle
        assert oracles.interior_count(triangle((0, 0), (9, 3), (0, 6))) == 22
        assert genus(triangle((0, 0), (9, 3), (0, 6))) == 22
        assert oracles.interior_count(triangle((0, 0), (4, 0), (3, 3))) == 3
        assert genus(triangle((0, 0), (4, 0), (3, 3))) == 3

    def test_pick_consistency_small_box(self):
        # every orbit with bounding box inside an 9x9 point grid
        for t in oracles.iter_canonical_triangles(8):
            assert genus(t) == oracles.interior_count(t)


class TestGcdLemma:
    def test_pairwise_gcd_equals_total(self):
        import math

        rng = random.Random(40)
        for _ in range(500):
            t = oracles.random_triangle(rng, 20)
            a, b, c = side_lengths(t)
            total = math.gcd(a, b, c)
            assert math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == total


class TestParity:
    @pytest.mark.parametrize(
        "point,expected",
        [((2, 4), Parity.EVEN), ((3, 5), Parity.ODD), ((2, 5), Parity.MIXED)],
    )
    def test_examples(self, point, expected):
        assert parity(LatticePoint(*point)) is expected


class TestDegenerate:
    def test_collinear_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            triangle((0, 0), (1, 1), (3, 3))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            triangle((0, 0), (1, 1), (0, 0))

    def test_int_coordinates_enforced(self):
        with pytest.raises(TypeError):
            LatticePoint(1.5, 2)  # type: ignore[arg-type]
