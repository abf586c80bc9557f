"""Exact arithmetic on sums of arctangents of rationals, without floats.

Three positive tangents n_i / M_i (integers) have arctangents summing
to at least pi exactly when n0*M1*M2 + n1*M0*M2 + n2*M0*M1 <= n0*n1*n2,
with equality exactly at pi.  `_pi_gap` evaluates that identity, and
every comparison with pi goes through it: the TangentSum solver,
`sums_to_pi`, the table frontier, and `pi_signs` (the status column of
the angles command).  Rational tangent numerators are first scaled to
integers by their common denominator L; integer numerators (the
TangentSum rule's, whose even sides halve exactly) are taken as they
are, with L = 1.

The solver `iter_pi_triples` yields its solutions one at a time, so the
TangentSum rule stops sweeping at the first solution that survives it.

A separate directed-rounding layer produces certified decimal digits of
angle-sum / pi ratios; it never feeds back into the exact comparisons.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import compress
from operator import mod, not_
from typing import Iterator, Sequence

Rational = Fraction | int

_HALF = Fraction(1, 2)


def _integer_numerators(numerators: Sequence[Rational]) -> tuple[tuple[int, int, int], int]:
    """(n, L): three positive rationals scaled by their common denominator L to integers.

    Integers are returned as they are, with L = 1.
    """
    if all(isinstance(x, int) for x in numerators):
        n, scale = tuple(numerators), 1
    else:
        p = [Fraction(x) for x in numerators]
        scale = math.lcm(*(x.denominator for x in p))
        n = tuple(int(x * scale) for x in p)
    if len(n) != 3 or any(x <= 0 for x in n):
        raise ValueError("expected three positive rationals")
    return n, scale  # type: ignore[return-value]


def _pi_gap(n: tuple[int, int, int], scale: int, m: tuple[int, int, int]) -> int:
    """An integer with the sign of (sum of arctan(n_i / (L*m_i))) - pi."""
    big0, big1, big2 = (scale * x for x in m)
    return n[0] * n[1] * n[2] - n[0] * big1 * big2 - n[1] * big0 * big2 - n[2] * big0 * big1


def _denominator_bound(n: tuple[int, int, int], scale: int, i: int) -> int:
    """Largest m_i with _pi_gap >= 0 at m_j = m_k = 1, or 0: no sum reaching pi has a larger m_i."""
    j, k = (i + 1) % 3, (i + 2) % 3
    return max(0, n[i] * (n[j] * n[k] - scale * scale) // (scale * scale * (n[j] + n[k])))


def sums_to_pi(tangents: Sequence[Rational]) -> bool:
    """Whether three positive tangents have arctangents summing to exactly pi."""
    n, scale = _integer_numerators(tangents)
    return _pi_gap(n, scale, (1, 1, 1)) == 0


def pi_signs(numerators: Sequence[Rational], rows: Sequence[tuple[int, int, int]]) -> list[int]:
    """For each denominator row m, the sign (-1, 0 or 1) of
    (sum of arctan(p_i / m_i)) - pi, with p the numerators."""
    n, scale = _integer_numerators(numerators)
    return [(gap > 0) - (gap < 0) for gap in (_pi_gap(n, scale, m) for m in rows)]


def iter_pi_triples(numerators: Sequence[Rational]) -> Iterator[tuple[int, int, int]]:
    """Each (m0, m1, m2) in N^3 with sum of arctan(p_i / m_i) equal to pi,
    in increasing (m0, m1) order, yielded as the sweep reaches it.

    With the p_i scaled to integers n_i (L = 1 when they are integers
    already) and M_i = L*m_i, the equation
    n0*M1*M2 + n1*M0*M2 + n2*M0*M1 = n0*n1*n2 fixes
    M2 = n2*(n0*n1 - M0*M1) / (n0*M1 + M0*n1) for each (m0, m1) under the
    hyperbola M0*M1 < n0*n1.  m0 <= n0*(n1*n2 - L^2) / (L^2*(n1 + n2)),
    the closed form of "the sum at (m0, 1, 1) reaches pi".  The numerators
    are checked when the first solution is drawn.
    """
    (n0, n1, n2), scale = _integer_numerators(numerators)
    for m0 in range(1, _denominator_bound((n0, n1, n2), scale, 0) + 1):
        big0 = scale * m0
        # m2 >= 1 iff n2*(n0*n1 - M0*M1) >= L*(n0*M1 + M0*n1)
        m1_max = n1 * (n0 * n2 - scale * big0) // (scale * (n2 * big0 + scale * n0))
        # m2 = num / den, both linear in m1: a range each, indexed by m1 - 1,
        # and their remainders taken pairwise by map
        num, den = n2 * (n0 * n1 - big0 * scale), scale * (n0 * scale + big0 * n1)
        num_step, den_step = n2 * big0 * scale, scale * scale * n0
        nums = range(num, num - m1_max * num_step, -num_step)
        dens = range(den, den + m1_max * den_step, den_step)
        for i in compress(range(m1_max), map(not_, map(mod, nums, dens))):
            yield (m0, i + 1, nums[i] // dens[i])


def solve_pi_triples(numerators: Sequence[Rational]) -> list[tuple[int, int, int]]:
    """All the solutions of iter_pi_triples, in its (m0, m1) order."""
    return list(iter_pi_triples(numerators))


# --- certified decimal rendering (directed rounding, no floats) ----------


def _atan_taylor_bounds(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    # Alternating series; consecutive partial sums bracket the limit.
    # Only called with |x| <= 1/2 so convergence is geometric (ratio 1/4).
    xx = x * x
    power = x
    s_prev = Fraction(0)
    s = Fraction(0)
    for k in range(terms + 1):
        s_prev = s
        term = power / (2 * k + 1)
        s = s + term if k % 2 == 0 else s - term
        power *= xx
    return (min(s_prev, s), max(s_prev, s))


@functools.cache
def pi_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of pi from 16*arctan(1/5) - 4*arctan(1/239)."""
    lo1, hi1 = _atan_taylor_bounds(Fraction(1, 5), terms)
    lo2, hi2 = _atan_taylor_bounds(Fraction(1, 239), terms)
    return (16 * lo1 - 4 * hi2, 16 * hi1 - 4 * lo2)


def arctan_bounds(x: Rational, terms: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of arctan(x), tightening as terms grows."""
    x = Fraction(x)
    if x < 0:
        lo, hi = arctan_bounds(-x, terms)
        return (-hi, -lo)
    if x > 1:
        plo, phi = pi_bounds(terms)
        lo, hi = arctan_bounds(1 / x, terms)
        return (plo / 2 - hi, phi / 2 - lo)
    if x > _HALF:
        # arctan(x) = pi/4 + arctan((x-1)/(x+1)), argument now in (-1/3, 0].
        plo, phi = pi_bounds(terms)
        lo, hi = _atan_taylor_bounds((x - 1) / (x + 1), terms)
        return (plo / 4 + lo, phi / 4 + hi)
    return _atan_taylor_bounds(x, terms)


def angle_over_pi_bounds(tangents: Sequence[Rational], terms: int) -> tuple[Fraction, Fraction]:
    lo = hi = Fraction(0)
    for t in tangents:
        a, b = arctan_bounds(t, terms)
        lo += a
        hi += b
    plo, phi = pi_bounds(terms)
    return (lo / phi, hi / plo)


def _format_significant(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(value.numerator) / Decimal(value.denominator)
    text = str(d)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def certified_ratio_string(tangents: Sequence[Rational], digits: int = 6) -> str:
    """Decimal digits of (sum of arctans)/pi, certified by interval refinement.

    The exact comparator decides the ratio-equals-one case; decimals are
    only ever produced through two-sided rational bounds that agree on
    every printed digit.
    """
    if sums_to_pi(tangents):
        return "1"
    for terms in (12, 24, 48, 96, 192):
        lo, hi = angle_over_pi_bounds(tangents, terms)
        slo = _format_significant(lo, digits)
        shi = _format_significant(hi, digits)
        if slo == shi:
            return slo
    raise ArithmeticError(f"could not certify {digits} digits for tangents {tangents}")


# Largest denominator table frontier_rows builds; larger requests raise
# ValueError.  Rendering 48k rows takes about 25 s on a 2-core x86 host.
FRONTIER_ROW_LIMIT = 50_000


def frontier_rows(numerators: Sequence[Rational]) -> list[tuple[int, int, int]]:
    """Denominator triples ordered by total, up to the first total whose
    rows all fall below pi (after which monotonicity keeps them below).

    A row reaching pi has each m_i within _denominator_bound, so that
    total is at most their sum plus one.  Tables over FRONTIER_ROW_LIMIT
    rows raise ValueError.
    """
    n, scale = _integer_numerators(numerators)
    closing = max(3, sum(_denominator_bound(n, scale, i) for i in range(3)) + 1)
    rows: list[tuple[int, int, int]] = []
    for total in range(3, closing + 1):
        level = [
            (m0, m1, total - m0 - m1)
            for m0 in range(1, total - 1)
            for m1 in range(1, total - m0)
        ]
        rows.extend(level)
        if len(rows) > FRONTIER_ROW_LIMIT:
            raise ValueError(
                f"the denominator table for numerators ({', '.join(map(str, numerators))}) "
                f"would exceed {FRONTIER_ROW_LIMIT} rows"
            )
        if all(_pi_gap(n, scale, row) < 0 for row in level):
            break
    return rows


def render_table(
    numerators: Sequence[Rational],
    rows: Sequence[tuple[int, int, int]] | None = None,
    digits: int = 6,
) -> list[tuple[tuple[int, int, int], str]]:
    """(row, certified decimal of angle-sum/pi) for each denominator row."""
    if rows is None:
        rows = frontier_rows(numerators)
    p = [Fraction(x) for x in numerators]
    out = []
    for m0, m1, m2 in rows:
        tangents = [p[0] / m0, p[1] / m1, p[2] / m2]
        out.append(((m0, m1, m2), certified_ratio_string(tangents, digits)))
    return out
