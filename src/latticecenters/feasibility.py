"""Side-multiset filters that rule out perimeter/center-condition pairs.

A lattice triangle with side lattice lengths (l0, l1, l2) obeys
gcd(li, lj) = gcd(l0, l1, l2) for every pair.  Further constraints follow
from requiring a center to be a lattice point: an acute triangle with two
unit sides cannot have a lattice orthocenter; a lattice circumcenter
forces an even perimeter and a middle side of length at least 3; a
lattice centroid forces the side lengths to be all or none divisible
by 3; lattice centroid plus orthocenter (or right angle plus lattice
centroid) force every side length divisible by 3.

Each exclusion is recorded as a certificate naming its rule and data,
and a report for a perimeter is "proven impossible" only when every side
multiset is killed by some certificate.  Surviving multisets yield an
honest "unknown": realizability beyond these filters is the business of
the construction and search modules.  The report is a deterministic
function of its cell, so a stored certificate list is checked by
re-deriving the report and comparing (see search.atlas_from_document);
`replay` re-runs the rule of one certificate on its own data.

A perimeter's side multisets and their pairwise-gcd verdicts do not
depend on the center condition or the shape.  `PerimeterSides` holds
them, so that a caller resolving many cells (an atlas build or load)
computes them once per perimeter and passes the table to every report
of that perimeter.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import solve_pi_triples
from .centers import CenterCondition
from .lattice import ShapeClass


class Rule(enum.Enum):
    GCD_LEMMA = "GcdLemma"
    ONE_ONE_M = "OneOneM"
    MID3 = "Mid3"
    CENTROID_MOD3 = "CentroidMod3"
    EVEN_PERIMETER = "EvenPerimeter"
    TANGENT_SUM = "TangentSum"
    RIGHT_CENTROID_MOD3 = "RightCentroidMod3"
    GH_MOD3 = "GHmod3"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class SideMultiset:
    """Non-decreasing triple of positive side lattice lengths."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if not (0 < self.a <= self.b <= self.c):
            raise ValueError(f"side multiset must be positive non-decreasing: {self}")

    @classmethod
    def of(cls, x: int, y: int, z: int) -> "SideMultiset":
        a, b, c = sorted((x, y, z))
        return cls(a, b, c)

    @property
    def perimeter(self) -> int:
        return self.a + self.b + self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class ExclusionCertificate:
    """One applied exclusion rule, replayable from its own fields."""

    rule: Rule
    detail: str
    condition: CenterCondition
    shape: ShapeClass | None  # None means the rule holds for every shape
    perimeter: int
    multiset: SideMultiset | None = None

    @property
    def scope(self) -> str:
        shape = self.shape.value if self.shape is not None else "any"
        return f"{self.condition.value}/{shape}"

    def text(self) -> str:
        where = f"perimeter={self.perimeter}"
        if self.multiset is not None:
            where += f" sides={self.multiset}"
        return f"{self.rule}[{where} scope={self.scope}]: {self.detail}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule.value,
            "condition": self.condition.value,
            "shape": self.shape.value if self.shape is not None else "any",
            "perimeter": self.perimeter,
            "multiset": list(self.multiset.as_tuple()) if self.multiset else None,
            "detail": self.detail,
        }


def partitions(perimeter: int) -> list[SideMultiset]:
    """All non-decreasing positive triples summing to the perimeter."""
    if perimeter < 3:
        raise ValueError(f"a lattice triangle has perimeter >= 3, got {perimeter}")
    out = []
    for a in range(1, perimeter // 3 + 1):
        for b in range(a, (perimeter - a) // 2 + 1):
            out.append(SideMultiset(a, b, perimeter - a - b))
    return out


def gcd_violation(s: SideMultiset) -> str | None:
    """Why s breaks the pairwise-gcd law (the first offending pair), or None.

    The law holds exactly when the three pairwise gcds are equal: each
    then divides all three sides, so it is the gcd of all three.
    """
    a, b, c = s.a, s.b, s.c
    ab, ac, bc = math.gcd(a, b), math.gcd(a, c), math.gcd(b, c)
    if ab == ac == bc:
        return None
    total = math.gcd(ab, c)
    x, y, g = (a, b, ab) if ab != total else (a, c, ac) if ac != total else (b, c, bc)
    return f"gcd{(x, y)}={g} differs from gcd of all three = {total}"


def gcd_filter(s: SideMultiset, condition: CenterCondition, shape: ShapeClass | None = None) -> ExclusionCertificate | None:
    """Kill multisets whose pairwise gcds differ from the total gcd."""
    detail = gcd_violation(s)
    if detail is None:
        return None
    return ExclusionCertificate(Rule.GCD_LEMMA, detail, condition, None, s.perimeter, s)


class PerimeterSides:
    """Every side multiset of one perimeter with its gcd_violation verdict.

    Shared by all the cells of the perimeter and computed on first use,
    so a cell settled by the perimeter alone costs nothing.
    exclusion_report makes its own when it is not given one.
    """

    def __init__(self, perimeter: int) -> None:
        self.perimeter = perimeter

    @functools.cached_property
    def sides(self) -> tuple[tuple[SideMultiset, str | None], ...]:
        return tuple((s, gcd_violation(s)) for s in partitions(self.perimeter))


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


def halved_numerators(s: SideMultiset) -> tuple[Fraction, Fraction, Fraction]:
    """Tangent numerators for the circumcenter angle analysis.

    With a lattice circumcenter, the angle opposite a side of even
    lattice length has an even vertex-to-orthocenter lattice length, so
    that numerator halves.
    """
    return tuple(Fraction(x, 2) if x % 2 == 0 else Fraction(x) for x in s.as_tuple())  # type: ignore[return-value]


def subtriangle_multisets(
    s: SideMultiset, solution: tuple[int, int, int]
) -> list[SideMultiset]:
    """Side multisets of the three orthocenter-vertex-vertex sub-triangles.

    For a hypothetical acute triangle realizing multiset s with a lattice
    circumcenter, a solution (m0, m1, m2) of the angle equation fixes the
    lattice length from the orthocenter to vertex i as 2*mi when the
    opposite side is even and mi otherwise.  Each pair of vertices then
    spans a genuine lattice sub-triangle with the orthocenter.
    """
    sides = s.as_tuple()
    dist = [2 * m if ell % 2 == 0 else m for ell, m in zip(sides, solution)]
    subs = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        subs.append(SideMultiset.of(dist[i], dist[j], sides[k]))
    return subs


def tangent_sum_filter(s: SideMultiset, condition: CenterCondition = CenterCondition.CIRCUMCENTER) -> ExclusionCertificate | None:
    """Angle analysis for acute triangles with a lattice circumcenter.

    The three angles are arctan(n_i / m_i) with n_i the (halved-if-even)
    side lengths, and they must sum to exactly pi.  If no denominator
    triple works, or every solution produces a sub-triangle violating the
    pairwise-gcd law, the multiset is impossible.
    """
    numerators = halved_numerators(s)
    solutions = solve_pi_triples(numerators)
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


def replay(cert: ExclusionCertificate) -> bool:
    """Re-run the named rule on the certificate's own data."""
    s = cert.multiset
    if cert.rule is Rule.EVEN_PERIMETER:
        return cert.perimeter % 2 == 1
    if s is None:
        return False
    if cert.rule is Rule.GCD_LEMMA:
        return gcd_violation(s) is not None
    if cert.rule is Rule.ONE_ONE_M:
        return s.a == 1 and s.b == 1
    if cert.rule is Rule.MID3:
        return s.b < 3
    if cert.rule is Rule.CENTROID_MOD3:
        return sum(1 for x in s.as_tuple() if x % 3 == 0) in (1, 2)
    if cert.rule in (Rule.GH_MOD3, Rule.RIGHT_CENTROID_MOD3):
        return not all(x % 3 == 0 for x in s.as_tuple())
    if cert.rule is Rule.TANGENT_SUM:
        fresh = tangent_sum_filter(s, cert.condition)
        return fresh is not None
    raise ValueError(f"unknown rule {cert.rule}")


@dataclass(frozen=True)
class ExclusionReport:
    """Outcome of running every applicable filter on every side multiset."""

    perimeter: int
    condition: CenterCondition
    shape: ShapeClass
    proven_impossible: bool
    certificates: tuple[ExclusionCertificate, ...] = ()
    survivors: tuple[SideMultiset, ...] = ()

    def text(self) -> str:
        head = f"perimeter {self.perimeter}, {self.condition.value} on lattice, {self.shape}"
        if self.proven_impossible:
            lines = [f"{head}: impossible"]
            lines += ["  " + c.text() for c in self.certificates]
        else:
            lines = [f"{head}: not settled by the filters"]
            lines += [f"  surviving side multisets: {', '.join(map(str, self.survivors))}"]
        return "\n".join(lines)


def _multiset_filters(condition: CenterCondition, shape: ShapeClass):
    # the rules after the pairwise-gcd law, whose verdicts PerimeterSides holds
    needs_h = condition in (
        CenterCondition.ORTHOCENTER,
        CenterCondition.CIRCUMCENTER,
        CenterCondition.CENTROID_AND_ORTHOCENTER,
        CenterCondition.ALL_THREE,
    )
    needs_f = condition in (CenterCondition.CIRCUMCENTER, CenterCondition.ALL_THREE)
    needs_g = condition in (
        CenterCondition.CENTROID,
        CenterCondition.CENTROID_AND_ORTHOCENTER,
        CenterCondition.ALL_THREE,
    )
    needs_gh = condition in (CenterCondition.CENTROID_AND_ORTHOCENTER, CenterCondition.ALL_THREE)

    filters = []
    if needs_h and shape is ShapeClass.ACUTE:
        filters.append(lambda s: one_one_m_filter(s, condition))
    if needs_f and shape is ShapeClass.ACUTE:
        filters.append(lambda s: mid3_filter(s, condition))
    if needs_g:
        filters.append(lambda s: centroid_mod3_filter(s, condition))
    if needs_g and shape is ShapeClass.RIGHT:
        filters.append(lambda s: right_centroid_mod3_filter(s, condition))
    if needs_gh:
        filters.append(lambda s: gh_mod3_filter(s, condition))
    # The angle analysis is the priciest filter; run it last.
    if needs_f and shape is ShapeClass.ACUTE:
        filters.append(lambda s: tangent_sum_filter(s, condition))
    return filters


def exclusion_report(
    perimeter: int,
    condition: CenterCondition,
    shape: ShapeClass,
    sides: PerimeterSides | None = None,
) -> ExclusionReport:
    """Run all applicable filters on all side multisets of a perimeter.

    sides: the perimeter's PerimeterSides, when the caller shares one
    across cells; the report is the same either way.
    """
    if condition is CenterCondition.INCENTER:
        raise ValueError("no exclusion rules exist for the incenter; scans are empirical only")
    if sides is not None and sides.perimeter != perimeter:
        raise ValueError(f"sides of perimeter {sides.perimeter} given for perimeter {perimeter}")
    certificates: list[ExclusionCertificate] = []

    needs_f = condition in (CenterCondition.CIRCUMCENTER, CenterCondition.ALL_THREE)
    if needs_f:
        cert = even_perimeter_certificate(perimeter, condition)
        if cert is not None:
            return ExclusionReport(perimeter, condition, shape, True, (cert,))

    if sides is None:
        sides = PerimeterSides(perimeter)
    survivors: list[SideMultiset] = []
    filters = _multiset_filters(condition, shape)
    for s, gcd_detail in sides.sides:
        if gcd_detail is not None:
            certificates.append(ExclusionCertificate(Rule.GCD_LEMMA, gcd_detail, condition, None, perimeter, s))
            continue
        for f in filters:
            cert = f(s)
            if cert is not None:
                certificates.append(cert)
                break
        else:
            survivors.append(s)
    return ExclusionReport(
        perimeter,
        condition,
        shape,
        proven_impossible=not survivors,
        certificates=tuple(certificates),
        survivors=tuple(survivors),
    )


def prop1_witness(n: int) -> tuple[int, int, int] | None:
    """Distinct pairwise-coprime positive x < y < z with x + y + z = n."""
    if n < 1:
        raise ValueError("n must be positive")
    for x in range(1, n // 3 + 1):
        for y in range(x + 1, (n - x + 1) // 2):
            z = n - x - y
            if z <= y:
                continue
            if math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1:
                return (x, y, z)
    return None


def prop2_witness(n: int) -> tuple[int, int, int] | None:
    """Pairwise-coprime positive x <= y <= z, none divisible by 3, summing to n."""
    if n < 1:
        raise ValueError("n must be positive")
    for x in range(1, n // 3 + 1):
        if x % 3 == 0:
            continue
        for y in range(x, (n - x) // 2 + 1):
            z = n - x - y
            if y % 3 == 0 or z % 3 == 0:
                continue
            if math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1:
                return (x, y, z)
    return None


def right_centroid_possible(perimeter: int) -> tuple[bool, str]:
    """Whether a right triangle with lattice centroid can have this perimeter."""
    if perimeter < 3:
        raise ValueError("a lattice triangle has perimeter >= 3")
    if perimeter % 3 != 0:
        return (False, "all side lengths are multiples of 3, so the perimeter must be too")
    if perimeter < 9:
        return (False, "all side lengths are multiples of 3, so the perimeter is at least 9")
    return (True, "realized by right triangles with legs on the axes of lengths 3n and 3")
