"""Exclusion rules for perimeter/center-condition pairs.

A lattice triangle with side lattice lengths (l0, l1, l2) obeys
gcd(li, lj) = gcd(l0, l1, l2) for every pair.  Further constraints follow
from requiring a center to be a lattice point: an acute triangle with two
unit sides cannot have a lattice orthocenter; a lattice circumcenter
forces an even perimeter and a middle side of length at least 3; a
lattice centroid forces the side lengths to be all or none divisible
by 3; lattice centroid plus orthocenter (or right angle plus lattice
centroid) force every side length divisible by 3.

Each rule is written once, as one row of the table `RULES`, in priority
order: the center conditions it holds for, the one shape it needs (or
any), whether it tests the perimeter or one side multiset, and that test,
returning the detail text of a violation.  `exclusion_report` walks the
rows that apply to a cell, perimeter rows first, and `replay` re-issues
one certificate from the certificate's own data through the same row.

Each exclusion is recorded as a certificate naming its rule and data,
and a report for a perimeter is "proven impossible" only when every side
multiset is killed by some certificate.  Surviving multisets yield an
honest "unknown": realizability beyond these rules is the business of
the construction and search modules.  The report is a deterministic
function of its cell, so an atlas document's certificates are checked
by rebuilding its atlas and comparing (search.atlas_from_document).

A perimeter's side multisets and their pairwise-gcd verdicts do not
depend on the center condition or the shape.  `PerimeterSides` holds
them, so that a caller resolving many cells (an atlas build or load)
computes them once per perimeter and passes the table to every report
of that perimeter.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Callable

from .angles import iter_pi_triples
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


def _slot_setters(cls: type) -> tuple:
    """The __set__ of each field's slot descriptor, in field order: a frozen record's __init__ stores
    through these, since its __setattr__ raises and object.__setattr__ looks the slot up on every call."""
    return tuple(cls.__dict__[f.name].__set__ for f in dataclasses.fields(cls))


@dataclass(frozen=True, order=True, slots=True, init=False)
class SideMultiset:
    """Non-decreasing triple of positive side lattice lengths."""

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int) -> None:
        if not (0 < a <= b <= c):
            raise ValueError(f"side multiset must be positive non-decreasing: ({a},{b},{c})")
        set_a, set_b, set_c = _SIDE_SETTERS
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)

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


_SIDE_SETTERS = _slot_setters(SideMultiset)


@dataclass(frozen=True, slots=True, init=False)
class ExclusionCertificate:
    """One applied exclusion rule, replayable from its own fields."""

    rule: Rule
    detail: str
    condition: CenterCondition
    shape: ShapeClass | None  # None means the rule holds for every shape
    perimeter: int
    multiset: SideMultiset | None = None

    def __init__(
        self, rule: Rule, detail: str, condition: CenterCondition, shape: ShapeClass | None, perimeter: int,
        multiset: SideMultiset | None = None,
    ) -> None:
        set_rule, set_detail, set_condition, set_shape, set_perimeter, set_multiset = _CERTIFICATE_SETTERS
        set_rule(self, rule)
        set_detail(self, detail)
        set_condition(self, condition)
        set_shape(self, shape)
        set_perimeter(self, perimeter)
        set_multiset(self, multiset)

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
        # _value_ is the plain attribute behind the Enum.value descriptor
        m = self.multiset
        return {
            "rule": self.rule._value_,
            "condition": self.condition._value_,
            "shape": self.shape._value_ if self.shape is not None else "any",
            "perimeter": self.perimeter,
            "multiset": [m.a, m.b, m.c] if m is not None else None,
            "detail": self.detail,
        }

    def json_text(self) -> str:
        """json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")), built directly.

        The enum values and "any" are plain ASCII with nothing to escape, so they are quoted as
        they are; only the detail goes through the JSON string encoder.
        """
        m, shape = self.multiset, self.shape._value_ if self.shape is not None else "any"
        sides = f"[{m.a},{m.b},{m.c}]" if m is not None else "null"
        return (
            f'{{"condition":"{self.condition._value_}","detail":{_json_str(self.detail)},"multiset":{sides},'
            f'"perimeter":{self.perimeter},"rule":"{self.rule._value_}","shape":"{shape}"}}'
        )


_CERTIFICATE_SETTERS = _slot_setters(ExclusionCertificate)


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
    return f"gcd({x}, {y})={g} differs from gcd of all three = {total}"


# Largest perimeter whose side multisets are enumerated; PerimeterSides
# raises ValueError beyond it.  A perimeter l has about l^2 / 12 of them, and
# `construct --format json` on an unachievable cell at l = 2000 (333k
# multisets) peaks at 0.84 GB and takes 6-8 s in process on a 2-core x86
# host, growing as l^2.
MAX_PERIMETER = 2000


class PerimeterSides:
    """Every side multiset of one perimeter with its gcd_violation verdict.

    Shared by all the cells of the perimeter and computed on first use,
    so a cell settled by the perimeter alone costs nothing (a perimeter
    over MAX_PERIMETER raises ValueError only then).  It also
    holds the certificates issued so far: a certificate names no cell
    shape, so each (condition, rule, multiset) certificate is issued
    once and shared by every cell of the perimeter that needs it.
    exclusion_report makes its own when it is not given one.
    """

    def __init__(self, perimeter: int) -> None:
        self.perimeter = perimeter
        # (condition, rule) -> {index of the multiset in sides, or None for the perimeter: certificate}
        self.issued: dict[tuple[CenterCondition, Rule], dict[int | None, ExclusionCertificate]] = {}

    @functools.cached_property
    def sides(self) -> tuple[tuple[SideMultiset, str | None], ...]:
        if self.perimeter > MAX_PERIMETER:
            raise ValueError(f"perimeter {self.perimeter} is over {MAX_PERIMETER}, too many side multisets to list")
        return tuple((s, gcd_violation(s)) for s in partitions(self.perimeter))


def halved_numerators(s: SideMultiset) -> tuple[int, int, int]:
    """Tangent numerators for the circumcenter angle analysis.

    With a lattice circumcenter, the angle opposite a side of even
    lattice length has an even vertex-to-orthocenter lattice length, so
    that numerator halves.  Only even sides halve, so the numerators are
    integers and the solver takes them with common denominator 1.
    """
    return tuple(x // 2 if x % 2 == 0 else x for x in s.as_tuple())  # type: ignore[return-value]


def _gcd_law_holds(x: int, y: int, z: int) -> bool:
    """gcd_violation(SideMultiset.of(x, y, z)) is None, without building the
    multiset or the text: the lengths may come in any order."""
    return math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z)


def _subtriangle_sides(
    sides: tuple[int, int, int], solution: tuple[int, int, int]
) -> tuple[tuple[int, int, int], ...]:
    """The side lengths of the sub-triangles of subtriangle_multisets, unsorted."""
    d0, d1, d2 = (2 * m if ell % 2 == 0 else m for ell, m in zip(sides, solution))
    return ((d0, d1, sides[2]), (d1, d2, sides[0]), (d2, d0, sides[1]))


def subtriangle_multisets(
    s: SideMultiset, solution: tuple[int, int, int]
) -> list[SideMultiset]:
    """Side multisets of the three orthocenter-vertex-vertex sub-triangles.

    For an acute triangle that realizes multiset s with a lattice
    circumcenter, a solution (m0, m1, m2) of the angle equation fixes the
    lattice length from the orthocenter to vertex i as 2*mi when the
    opposite side is even and mi otherwise.  Each pair of vertices then
    spans a genuine lattice sub-triangle with the orthocenter.
    """
    return [SideMultiset.of(*sub) for sub in _subtriangle_sides(s.as_tuple(), solution)]


def tangent_sum_filter(s: SideMultiset) -> str | None:
    """Angle analysis for acute triangles with a lattice circumcenter.

    The three angles are arctan(n_i / m_i) with n_i the (halved-if-even)
    side lengths, and they must sum to exactly pi.  If no denominator
    triple works, or every solution produces a sub-triangle violating the
    pairwise-gcd law, the multiset is impossible: the result is the
    detail text saying why, and None when some solution survives.  The
    solutions are drawn one at a time, so the sweep stops at the first
    survivor; a detail lists them all.
    """
    numerators, sides = halved_numerators(s), s.as_tuple()
    kills = []  # (solution, the first of its sub-triangles breaking the gcd law)
    for sol in iter_pi_triples(numerators):
        killed = next((sub for sub in _subtriangle_sides(sides, sol) if not _gcd_law_holds(*sub)), None)
        if killed is None:
            return None  # a solution survives; the rule proves nothing
        kills.append((sol, SideMultiset.of(*killed)))
    nums = f"({numerators[0]},{numerators[1]},{numerators[2]})"
    if not kills:
        return f"no denominators make arctans of {nums} sum to pi"
    return f"solutions for {nums}: " + "; ".join(
        f"m={sol} -> sub-triangle {killed} violates the pairwise-gcd law" for sol, killed in kills
    )


def _all_mod3(detail: str) -> Callable[[SideMultiset], str | None]:
    return lambda s: None if s.a % 3 == s.b % 3 == s.c % 3 == 0 else detail


def _centroid_mod3(s: SideMultiset) -> str | None:
    count = (s.a % 3 == 0) + (s.b % 3 == 0) + (s.c % 3 == 0)
    return None if count in (0, 3) else f"{count} of 3 side lengths divisible by 3; must be 0 or 3"


@dataclass(frozen=True)
class RuleRow:
    """Where one exclusion rule holds and what it tests.

    test returns the detail text of a violation, or None.  It tests the
    perimeter if on_perimeter holds, and one side multiset otherwise.
    """

    conditions: frozenset[CenterCondition]
    shape: ShapeClass | None  # the one shape the rule needs; None for any
    test: Callable[[Any], str | None]
    on_perimeter: bool = False

    def applies(self, condition: CenterCondition, shape: ShapeClass) -> bool:
        return condition in self.conditions and self.shape in (None, shape)


# the conditions needing each center, read from their letters
_F, _G, _H = (frozenset(c for c in CenterCondition if letter in c.value) for letter in "FGH")
_H |= _F  # a lattice circumcenter forces a lattice orthocenter
_GH = _G & _H

# In priority order.  GcdLemma holds for every cell; PerimeterSides holds its verdicts.
RULES: dict[Rule, RuleRow] = {
    Rule.EVEN_PERIMETER: RuleRow(
        _F, None, lambda perimeter: "lattice circumcenter forces even perimeter" if perimeter % 2 else None,
        on_perimeter=True,
    ),
    Rule.GCD_LEMMA: RuleRow(_G | _H, None, gcd_violation),
    Rule.ONE_ONE_M: RuleRow(
        _H,
        ShapeClass.ACUTE,
        lambda s: "two unit sides force two angles <= pi/4, so the third is >= pi/2" if s.a == s.b == 1 else None,
    ),
    Rule.MID3: RuleRow(_F, ShapeClass.ACUTE, lambda s: f"middle side length {s.b} < 3" if s.b < 3 else None),
    # with a lattice centroid, side lengths divisible by 3 come all-or-none
    Rule.CENTROID_MOD3: RuleRow(_G, None, _centroid_mod3),
    Rule.RIGHT_CENTROID_MOD3: RuleRow(
        _G, ShapeClass.RIGHT, _all_mod3("right angle plus lattice centroid force every side length divisible by 3")
    ),
    Rule.GH_MOD3: RuleRow(
        _GH, None, _all_mod3("lattice centroid and orthocenter force every side length divisible by 3")
    ),
    # the priciest test runs last; looked up by name so it can be rebound
    Rule.TANGENT_SUM: RuleRow(_F, ShapeClass.ACUTE, lambda s: tangent_sum_filter(s)),
}


def replay(cert: ExclusionCertificate) -> bool:
    """Whether the certificate's rule re-issues it from the certificate's own data.

    The condition must be one the rule holds for, the shape the rule's
    own, the multiset absent for a perimeter rule and of the stated
    perimeter for a multiset rule, and the detail the text the rule's
    test gives now.
    """
    row, s = RULES[cert.rule], cert.multiset
    if (s is None) is not row.on_perimeter or (s is not None and s.perimeter != cert.perimeter):
        return False
    if cert.condition not in row.conditions or cert.shape is not row.shape:
        return False
    detail = row.test(cert.perimeter if s is None else s)
    return detail is not None and detail == cert.detail


@dataclass(frozen=True)
class ExclusionReport:
    """Outcome of running every applicable rule on every side multiset."""

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


def exclusion_report(
    perimeter: int,
    condition: CenterCondition,
    shape: ShapeClass,
    sides: PerimeterSides | None = None,
) -> ExclusionReport:
    """Run the rows of RULES that apply to a cell, in table order.

    The first perimeter row that fires settles the cell with its one
    certificate.  Otherwise each side multiset gets the certificate of
    the first rule it violates: the pairwise-gcd law, its verdict read
    from PerimeterSides, then the other multiset rows.
    sides: the perimeter's PerimeterSides, when the caller shares one
    across cells; the report is the same either way, but its
    certificates are then the ones the table already issued.
    A cell that no row applies to raises ValueError.
    """
    rows = {r: row for r, row in RULES.items() if row.applies(condition, shape)}
    if not rows:
        raise ValueError(f"no exclusion rule applies to {condition}/{shape}")
    sides = sides or PerimeterSides(perimeter)
    if sides.perimeter != perimeter:
        raise ValueError(f"sides of perimeter {sides.perimeter} given for perimeter {perimeter}")
    for rule, row in rows.items():
        detail = row.test(perimeter) if row.on_perimeter else None
        if detail is not None:
            issued = sides.issued.setdefault((condition, rule), {})
            cert = issued.get(None)
            if cert is None:
                cert = issued[None] = ExclusionCertificate(rule, detail, condition, row.shape, perimeter)
            return ExclusionReport(perimeter, condition, shape, True, (cert,))

    tests = {  # (rule, its test, its shape, the certificates of it issued so far)
        r: (r, row.test, row.shape, sides.issued.setdefault((condition, r), {}))
        for r, row in rows.items() if not row.on_perimeter
    }
    gcd_rule, tests = tests.pop(Rule.GCD_LEMMA), list(tests.values())  # its verdicts come from sides
    certificates: list[ExclusionCertificate] = []
    survivors: list[SideMultiset] = []
    for i, (s, detail) in enumerate(sides.sides):
        rule, test, rule_shape, issued = gcd_rule
        if detail is None:
            for rule, test, rule_shape, issued in tests:
                detail = test(s)
                if detail is not None:
                    break
        if detail is None:
            survivors.append(s)
            continue
        cert = issued.get(i)
        if cert is None:
            cert = issued[i] = ExclusionCertificate(rule, detail, condition, rule_shape, perimeter, s)
        certificates.append(cert)
    return ExclusionReport(perimeter, condition, shape, not survivors, tuple(certificates), tuple(survivors))


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

