import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecenters.angles import (
    FRONTIER_ROW_LIMIT,
    angle_over_pi_bounds,
    certified_ratio_string,
    frontier_rows,
    iter_pi_triples,
    pi_signs,
    render_table,
    solve_pi_triples,
    sums_to_pi,
)
from latticecenters.feasibility import SideMultiset, halved_numerators

import oracles
from oracles import (
    PI_ANGLE,
    ExactAngle,
    PiOrder,
    angle_add,
    angle_from_tan,
    angle_neg,
    arctan_sum,
    compare_to_pi,
)

TABLE_145 = [
    ((1, 1, 1), "1.03958"),
    ((1, 1, 2), "0.981297"),
    ((1, 2, 1), "0.937167"),
    ((2, 1, 1), "0.937167"),
]

TABLE_235 = [
    ((1, 1, 1), "1.08475"),
    ((1, 1, 2), "1.02646"),
    ((1, 2, 1), "1"),
    ((2, 1, 1), "0.982334"),
    ((1, 1, 3), "0.975563"),
    ((1, 2, 2), "0.941714"),
    ((1, 3, 1), "0.937167"),
    ((2, 1, 2), "0.924048"),
    ((2, 2, 1), "0.897584"),
    ((3, 1, 1), "0.937167"),
]


nonzero_tangents = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12
).filter(lambda f: f != 0)


class TestAngleConstruction:
    def test_examples(self):
        assert angle_from_tan(1) == ExactAngle(0, Fraction(1))
        assert angle_from_tan(Fraction(3, 2)) == ExactAngle(0, Fraction(3, 2))
        assert angle_from_tan(5) == ExactAngle(0, Fraction(5))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            angle_from_tan(0)
        with pytest.raises(ValueError):
            angle_from_tan(Fraction(-1, 2))


class TestAngleAddition:
    def test_half_pi_carry(self):
        a = angle_add(angle_from_tan(1), angle_from_tan(1))
        assert a.half_pi and a.pi_multiples == 0

    def test_classical_pi_identity(self):
        assert arctan_sum([1, 2, 3]) == PI_ANGLE

    def test_table2_equality_row(self):
        assert arctan_sum([1, Fraction(3, 2), 5]) == PI_ANGLE

    def test_half_pi_plus_angle(self):
        # pi/2 + arctan(5) = pi - arctan(1/5)
        a = angle_add(ExactAngle(0, None, half_pi=True), angle_from_tan(5))
        assert a == ExactAngle(1, Fraction(-1, 5))

    def test_two_half_pis(self):
        h = ExactAngle(0, None, half_pi=True)
        assert angle_add(h, h) == PI_ANGLE

    def test_negation(self):
        a = arctan_sum([2, 3])
        assert angle_add(a, angle_neg(a)) == ExactAngle(0, Fraction(0))
        h = ExactAngle(0, None, half_pi=True)
        assert angle_add(h, angle_neg(h)) == ExactAngle(0, Fraction(0))

    @given(nonzero_tangents, nonzero_tangents)
    def test_commutative(self, u, v):
        a, b = ExactAngle(0, u), ExactAngle(0, v)
        assert angle_add(a, b) == angle_add(b, a)

    @settings(max_examples=300)
    @given(nonzero_tangents, nonzero_tangents, nonzero_tangents)
    def test_associative(self, u, v, w):
        a, b, c = (ExactAngle(0, t) for t in (u, v, w))
        left = angle_add(angle_add(a, b), c)
        right = angle_add(a, angle_add(b, c))
        assert left == right


class TestCompareToPi:
    def test_table_examples(self):
        f = lambda m0, m1, m2: arctan_sum([Fraction(1, m0), Fraction(2, m1), Fraction(5, m2)])
        assert compare_to_pi(f(1, 1, 1)) is PiOrder.GREATER
        assert compare_to_pi(f(1, 1, 2)) is PiOrder.LESS
        g = arctan_sum([1, Fraction(3, 2), 5])
        assert compare_to_pi(g) is PiOrder.EQUAL

    def test_agrees_with_high_precision_floats(self):
        import mpmath

        rng = random.Random(301)
        with mpmath.workdps(30):  # ~100 bits
            pi = +mpmath.pi
            for _ in range(10_000):
                ts = [
                    Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3)
                ]
                value = sum(mpmath.atan(mpmath.mpf(t.numerator) / t.denominator) for t in ts)
                exact = compare_to_pi(arctan_sum(ts))
                if exact is PiOrder.EQUAL:
                    assert abs(value - pi) < mpmath.mpf(10) ** -25
                elif exact is PiOrder.LESS:
                    assert value < pi
                else:
                    assert value > pi

    def test_equality_matches_symmetric_functions(self):
        rng = random.Random(302)
        for _ in range(3000):
            ts = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(3)]
            assert (compare_to_pi(arctan_sum(ts)) is PiOrder.EQUAL) == sums_to_pi(ts)
        # and on the known equality cases
        assert sums_to_pi([1, 2, 3])
        assert sums_to_pi([1, Fraction(3, 2), 5])


class TestPiSigns:
    def test_table_examples(self):
        assert pi_signs((1, 2, 5), [(1, 1, 1), (1, 1, 2)]) == [1, -1]
        assert pi_signs((1, Fraction(3, 2), 5), [(1, 1, 1)]) == [0]

    def test_matches_exact_angle_reference(self):
        rng = random.Random(303)
        for _ in range(3000):
            nums = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(3)]
            row = tuple(rng.randint(1, 6) for _ in range(3))
            angle = arctan_sum([n / m for n, m in zip(nums, row)])
            assert pi_signs(nums, [row]) == [compare_to_pi(angle).value], (nums, row)


class TestMonotonicity:
    def test_summand_decreases_in_denominator(self):
        for p in (Fraction(1), Fraction(2), Fraction(5), Fraction(7, 2)):
            tails = [p / m for m in range(1, 30)]
            assert all(a > b for a, b in zip(tails, tails[1:]))


class TestSolver:
    def test_paper_cases(self):
        assert solve_pi_triples((1, 2, 5)) == []
        assert solve_pi_triples((1, 3, 5)) == [(1, 2, 1)]

    def test_no_solutions_for_unit_numerators(self):
        # three arctans of 1/m never exceed 3*pi/4, so pi is unreachable
        assert oracles.pi_triple_solutions_bruteforce((1, 1, 1), 10) == set()
        assert solve_pi_triples((1, 1, 1)) == []

    def test_classical_identity_found(self):
        assert solve_pi_triples((1, 2, 3)) == [(1, 1, 1)]

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            nums = tuple(rng.randint(1, 6) for _ in range(3))
            got = set(solve_pi_triples(nums))
            expected = oracles.pi_triple_solutions_bruteforce(nums, 25)
            assert got == expected, nums
            assert all(max(sol) <= 25 for sol in got)

    def test_matches_angle_scan_on_every_small_multiset(self):
        # same list, same (m0, m1) order: certificate text prints it; the
        # integer numerators and their Fraction forms give the same list
        for perimeter in range(3, 25):
            for a in range(1, perimeter // 3 + 1):
                for b in range(a, (perimeter - a) // 2 + 1):
                    s = SideMultiset(a, b, perimeter - a - b)
                    nums = halved_numerators(s)
                    assert all(type(n) is int for n in nums), nums
                    expected = oracles.pi_triples_angle_scan(nums)
                    assert list(iter_pi_triples(nums)) == expected, nums
                    assert solve_pi_triples(nums) == expected, nums
                    assert solve_pi_triples(oracles.halved_numerators_fractions(s)) == expected, nums

    def test_matches_eager_sweep_to_perimeter_60(self):
        for perimeter in range(3, 61):
            for a in range(1, perimeter // 3 + 1):
                for b in range(a, (perimeter - a) // 2 + 1):
                    s = SideMultiset(a, b, perimeter - a - b)
                    want = oracles.pi_triples_hyperbola_sweep(oracles.halved_numerators_fractions(s))
                    assert list(iter_pi_triples(halved_numerators(s))) == want, s

    def test_rejects_non_positive_numerators(self):
        for nums in ((0, 1, 2), (1, -2, 3), (Fraction(1, 2), 0, 1), (1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="three positive"):
                solve_pi_triples(nums)

    def test_matches_angle_scan_on_rational_numerators(self):
        cases = [
            ((Fraction(7, 2), 3, 5), [(3, 1, 3)]),
            ((1, Fraction(3, 2), 5), [(1, 1, 1)]),
            ((Fraction(5, 2), Fraction(7, 3), 4), [(1, 1, 4)]),
            ((Fraction(15, 2), 4, Fraction(9, 2)), [(3, 2, 4), (15, 1, 1)]),
            ((Fraction(9, 2), Fraction(11, 2), Fraction(13, 4)), []),
        ]
        for nums, expected in cases:
            assert list(iter_pi_triples(nums)) == expected
            assert solve_pi_triples(nums) == expected
            assert oracles.pi_triples_angle_scan(nums) == expected
            assert oracles.pi_triples_hyperbola_sweep(nums) == expected


def _level(rows, total):
    return [r for r in rows if sum(r) == total]


class TestRenderTable:
    def test_frontier_row_selection(self):
        assert frontier_rows((1, 2, 5)) == [r for r, _ in TABLE_145]
        assert frontier_rows((1, 3, 5)) == [r for r, _ in TABLE_235]

    def test_frontier_closes_at_first_level_below_pi(self):
        def below(nums, row):
            return compare_to_pi(arctan_sum([n / m for n, m in zip(nums, row)])) is PiOrder.LESS

        for perimeter in range(3, 13):
            for a in range(1, perimeter // 3 + 1):
                for b in range(a, (perimeter - a) // 2 + 1):
                    nums = halved_numerators(SideMultiset(a, b, perimeter - a - b))
                    rows = frontier_rows(nums)
                    last = max(map(sum, rows))
                    assert all(below(nums, r) for r in _level(rows, last))
                    for total in range(3, last):
                        assert not all(below(nums, r) for r in _level(rows, total))

    def test_large_frontier_closes(self):
        nums = (3, 5, 37)
        rows = frontier_rows(nums)
        assert len(rows) == 47905  # closes at total 67
        assert max(map(sum, rows)) == 67
        assert not all(
            compare_to_pi(arctan_sum([Fraction(n, m) for n, m in zip(nums, row)])) is PiOrder.LESS
            for row in _level(rows, 66)
        )

    def test_frontier_over_row_limit_refused(self):
        with pytest.raises(ValueError, match=str(FRONTIER_ROW_LIMIT)):
            frontier_rows((20, 41, 43))

    def test_reference_tables_digit_for_digit(self):
        assert render_table((1, 2, 5)) == TABLE_145
        assert render_table((1, 3, 5)) == TABLE_235

    def test_equal_row_is_exact_not_decimal(self):
        # the "1" must come from exact arithmetic, never from rounding
        assert certified_ratio_string([1, Fraction(3, 2), 5]) == "1"
        assert compare_to_pi(arctan_sum([1, Fraction(3, 2), 5])) is PiOrder.EQUAL

    def test_certified_digits_match_high_precision(self):
        import mpmath

        rng = random.Random(17)
        with mpmath.workdps(40):
            for _ in range(50):
                ts = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
                if sums_to_pi(ts):
                    continue
                value = sum(
                    mpmath.atan(mpmath.mpf(t.numerator) / t.denominator) for t in ts
                ) / mpmath.pi
                if abs(value - 1) < mpmath.mpf("1e-5"):
                    continue  # formatting of near-1 values differs at the margin
                assert certified_ratio_string(ts) == mpmath.nstr(value, 6)

    def test_interval_bounds_bracket(self):
        # worst series argument is 1/2: remainder ~ (1/2)^(2n+1) / (2n+1)
        lo, hi = angle_over_pi_bounds([1, 2, 5], terms=40)
        assert lo < hi
        assert hi - lo < Fraction(1, 10**20)
