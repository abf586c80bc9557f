"""Deterministic witness constructions for achievable perimeters, and the one witness check.

Every witness passes check_witness, with any closed-form center its
construction predicts, before it is returned.  That check, all in
integers, is also the one the search makes (the atlas loader rebuilds
what it loads).  A witness computes its Fraction center report only when
it is read.  Requests for a perimeter the cell does not admit raise
UnachievableError; the feasibility module can then explain why with
certificates.

ACHIEVABLE states, once, which perimeters each (condition, shape) cell
admits, as a PerimeterSet: three numbers that give both the predicate
and its words.  build_witness refuses the others, and the constructions
assume their perimeter is admitted.  An admitted request is built by the first
of these that applies:

- the explicit table, _ACUTE_EXPLICIT: one triangle for each of the ten
  acute cells (F at 8, 14 and 16, four GH and three FGH) that nothing
  below reaches;
- the affine table, _AFFINE: the F and H families and right G, twelve
  rows in all.  A row serves the perimeters l = step*j + r, and its
  vertices and predicted centers are affine in j;
- the G recursions, acute_G and obtuse_G: parametric heights 3^k,
  doubling, scaling by a prime factor that is 5 mod 6, and shears;
- tripling: tripling a triangle keeps F and H on the lattice and puts G
  there too, so a GH (FGH) witness of perimeter l is 3 times the H (F)
  witness of perimeter l/3, of the same shape.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from . import incenter as incenter_mod
from .centers import CenterCondition, CenterReport, center_numerators, center_report, lattice_flags
from .lattice import LatticePoint, LatticeTriangle, ShapeClass, classify_shape, lattice_perimeter, triangle

_SHEAR_CAP = 64
_POWER_CAP = 64


class ConstructionError(ArithmeticError):
    """A family produced a triangle that failed its own verification."""


class UnachievableError(ValueError):
    """The requested perimeter lies outside the cell's achievable set."""


@dataclass(frozen=True)
class PerimeterSet:
    """The perimeters l >= least that modulus divides, except the finitely many exceptions.

    Each set of the paper's characterisation has this form, so admits (the predicate) and words (the
    phrase) both read these three numbers.  A row is written canonically (least is the set's least
    member, exceptions ascend and lie above it in the modulus's class), so equal sets print equal words.
    """

    modulus: int
    least: int
    exceptions: tuple[int, ...] = ()

    def admits(self, perimeter: int) -> bool:
        return perimeter >= self.least and perimeter % self.modulus == 0 and perimeter not in self.exceptions

    @property
    def words(self) -> str:
        noun = {1: "all perimeters", 2: "even perimeters"}.get(self.modulus, f"multiples of {self.modulus}")
        text = f"{noun} >= {self.least}"
        return f"{text} except {' and '.join(map(str, self.exceptions))}" if self.exceptions else text


_C, _S = CenterCondition, ShapeClass

# The paper's characterisation: (condition, shape) -> the perimeters it admits.
ACHIEVABLE: dict[tuple[CenterCondition, ShapeClass], PerimeterSet] = {
    (_C.CIRCUMCENTER, _S.ACUTE): PerimeterSet(2, 8, (10,)),
    (_C.CIRCUMCENTER, _S.OBTUSE): PerimeterSet(2, 4),
    (_C.CIRCUMCENTER, _S.RIGHT): PerimeterSet(2, 4),
    (_C.CENTROID, _S.ACUTE): PerimeterSet(1, 3, (5, 11)),
    (_C.CENTROID, _S.OBTUSE): PerimeterSet(1, 3, (5, 11)),
    (_C.CENTROID, _S.RIGHT): PerimeterSet(3, 9),
    (_C.ORTHOCENTER, _S.ACUTE): PerimeterSet(1, 6, (7,)),
    (_C.ORTHOCENTER, _S.OBTUSE): PerimeterSet(1, 3),
    (_C.ORTHOCENTER, _S.RIGHT): PerimeterSet(1, 3),
    **{(_C.CENTROID_AND_ORTHOCENTER, s): PerimeterSet(3, 9) for s in _S},
    **{(_C.ALL_THREE, s): PerimeterSet(6, 12) for s in _S},
}


@dataclass(frozen=True)
class WitnessRequest:
    condition: CenterCondition
    shape: ShapeClass
    perimeter: int

    def __post_init__(self) -> None:
        if self.perimeter < 3:
            raise ValueError("a lattice triangle has perimeter >= 3")


@dataclass(frozen=True)
class Witness:
    triangle: LatticeTriangle
    family_tag: str

    @functools.cached_property
    def report(self) -> CenterReport:
        """The triangle's exact centers, computed on first read."""
        return center_report(self.triangle)


def check_witness(
    tri: LatticeTriangle, condition: CenterCondition, shape: ShapeClass, perimeter: int, **centers: tuple[int, int]
) -> LatticePoint | None:
    """Raise ValueError, with its reason, unless tri has the shape and perimeter and meets the condition.

    The flags and each center predicted in centers (letter -> lattice point) are read off one
    center_numerators.  For I, returns the lattice incenter, located once; None otherwise.
    """
    if condition is CenterCondition.INCENTER:
        center = incenter_mod.lattice_incenter(tri)
        meets = center is not None
    else:
        center, numerators = None, center_numerators(tri)
        meets = condition.met_by(lattice_flags(numerators))
    found, length = classify_shape(tri), lattice_perimeter(tri)
    if found is not shape:
        reason = f"is {found}, wanted {shape}"
    elif length != perimeter:
        reason = f"has perimeter {length}, wanted {perimeter}"
    elif not meets:
        reason = f"misses lattice condition {condition}"
    else:
        for letter, (x, y) in centers.items():
            den, (nx, ny) = numerators["FGH".index(letter)]
            if (nx, ny) != (den * (x - tri.v0.x), den * (y - tri.v0.y)):
                reason = f"has {letter} = {tri.v0.as_tuple()} + ({nx},{ny})/{den}, expected {(x, y)}"
                break
        else:
            return center
    raise ValueError(f"witness {tri} does not verify for {condition}/{shape}/{perimeter}: it {reason}")


def _verified(tri: LatticeTriangle, request: WitnessRequest, tag: str, **centers: tuple[int, int]) -> Witness:
    """tri as the family's Witness once check_witness passes it; a refusal leads with the family tag."""
    try:
        check_witness(tri, request.condition, request.shape, request.perimeter, **centers)
    except ValueError as refusal:
        raise ConstructionError(f"{tag}: {refusal}") from refusal
    return Witness(tri, tag)


def sheared(t: LatticeTriangle, k: int) -> LatticeTriangle:
    """Apply the unimodular map (x, y) -> (x - k*y, y) to all vertices."""
    return LatticeTriangle(*(LatticePoint(v.x - k * v.y, v.y) for v in t.vertices))


def delta(n: int) -> int | None:
    """Smallest prime divisor of n congruent to 5 mod 6, if any."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n
    for p in (2, 3):
        while m % p == 0:
            m //= p
    d = 5
    while d * d <= m:
        if m % d == 0:
            if d % 6 == 5:
                return d
            while m % d == 0:
                m //= d
        d += 2
    return m if m > 1 and m % 6 == 5 else None


# --- affine families ------------------------------------------------------

# The F and H families and right G: (condition, shape) -> rows (step, r, tag, P, Q, centers).  A row
# serves the perimeters l = step*j + r (0 <= r < step); its witness is O, P(j), Q(j) with the lattice
# centers(j) it predicts, each point written (base, slope) for base + j*slope.  Rows of a cell have
# distinct residues and, with the explicit table, cover every perimeter ACHIEVABLE admits; the tests
# check that tiling, and each row's witness at every j, by finite checks that cover every l.
_AFFINE = {
    (_C.ORTHOCENTER, _S.ACUTE): (
        (2, 0, "orthocenter/even", ((0, 0), (1, 0)), ((1, -1), (0, 1)), {"H": ((1, 1), (0, 0))}),
        (4, 1, "orthocenter/odd-1mod4", ((1, 0), (2, 0)), ((2, -1), (0, 2)), {"H": ((2, 2), (0, 0))}),
        (4, 3, "orthocenter/odd-3mod4", ((3, 0), (2, 0)), ((6, -9), (0, 6)), {"H": ((6, 2), (0, 0))}),
    ),
    (_C.ORTHOCENTER, _S.OBTUSE): (
        (1, 0, "orthocenter/obtuse", ((1, 0), (0, 0)), ((2, -2), (-1, 1)), {"H": ((2, 1), (-1, -1))}),
    ),
    (_C.ORTHOCENTER, _S.RIGHT): (
        (1, 0, "orthocenter/right", ((-2, 0), (1, 0)), ((0, 1), (0, 0)), {"H": ((0, 0), (0, 0))}),
    ),
    (_C.CIRCUMCENTER, _S.ACUTE): (
        # 0 and 2 mod 8 are one family, (0,0), (2n+2,0), (4,2n-2) with F = (n+1,n-3), at l = 4n+4 and 4n+2
        (8, 0, "circumcenter/0or2mod8", ((0, 0), (4, 0)), ((4, -4), (0, 4)), {"F": ((0, -4), (2, 2))}),
        (8, 2, "circumcenter/0or2mod8", ((2, 0), (4, 0)), ((4, -2), (0, 4)), {"F": ((1, -3), (2, 2))}),
        (8, 4, "circumcenter/4mod8", ((2, 0), (4, 0)), ((4, -4), (0, 8)), {"F": ((1, -3), (2, 4))}),
        (8, 6, "circumcenter/6mod8", ((1, 1), (2, 0)), ((0, 4), (0, 6)), {"F": ((-1, 2), (1, 3))}),
    ),
    (_C.CIRCUMCENTER, _S.OBTUSE): (
        (2, 0, "circumcenter/obtuse", ((2, 0), (0, 0)), ((3, -3), (-2, 2)), {"F": ((1, -2), (0, 2))}),
    ),
    (_C.CIRCUMCENTER, _S.RIGHT): (
        (2, 0, "circumcenter/right", ((1, 1), (0, 0)), ((3, -3), (-2, 2)), {"F": ((2, -1), (-1, 1))}),
    ),
    (_C.CENTROID, _S.RIGHT): (
        (3, 0, "centroid/right", ((-6, 0), (3, 0)), ((0, 3), (0, 0)), {"G": ((-2, 1), (1, 0))}),
    ),
}


def _at(point: tuple[tuple[int, int], tuple[int, int]], j: int) -> tuple[int, int]:
    (x, y), (dx, dy) = point
    return x + j * dx, y + j * dy


def _affine(rows, request: WitnessRequest) -> Witness:
    """The witness of the first row whose residue matches the perimeter, built at j = perimeter // step."""
    ell = request.perimeter
    for step, r, tag, p, q, centers in rows:
        if ell % step == r:
            j = ell // step
            tri = triangle((0, 0), _at(p, j), _at(q, j))
            return _verified(tri, request, tag, **{letter: _at(c, j) for letter, c in centers.items()})


# --- centroid families ----------------------------------------------------


def _grown_height_witness(
    z: int, x: int, y_base: int, request: WitnessRequest, tag: str
) -> Witness:
    # Triangle O,(z,0),(x,y_base*3^k); raising k keeps all side lengths and
    # the lattice centroid but eventually makes the apex angle acute.
    for k in range(1, _POWER_CAP + 1):
        tri = triangle((0, 0), (z, 0), (x, y_base * 3**k))
        if classify_shape(tri) is ShapeClass.ACUTE:
            return _verified(tri, request, tag)
    raise ConstructionError(f"{tag}: no exponent up to {_POWER_CAP} gave an acute triangle")


def acute_G(perimeter: int) -> Witness:
    """Acute triangle with lattice centroid."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.CENTROID, ShapeClass.ACUTE, ell)
    if ell == 3:
        return _verified(triangle((0, 0), (1, 2), (2, 1)), request, "centroid/base-3", G=(1, 1))
    if ell % 3 == 0:
        base = acute_G(3).triangle
        return _verified(base.scaled(ell // 3), request, "centroid/scaled-base")
    if ell % 6 == 1:
        return _grown_height_witness(ell - 2, 4, ell - 2, request, "centroid/1mod6")
    if ell % 6 == 4:
        return _grown_height_witness(ell // 2, 1, (ell - 2) // 2, request, "centroid/4mod6")
    if ell % 6 == 2:
        # Half the perimeter is 1 mod 3, so the halved witness exists; double it.
        inner = acute_G(ell // 2)
        return _verified(inner.triangle.scaled(2), request, "centroid/doubled")
    # 5 mod 6: ell is prime to 6, and primes that are all 1 mod 6 multiply
    # to 1 mod 6, so ell has a prime factor p = delta(ell) that is 5 mod 6;
    # p is ell itself exactly when ell is prime.  A composite splits off p,
    # and the cofactor is 1 mod 6 and handled above.  Primes get direct
    # families keyed by the residue mod 18.
    p = delta(ell)
    if p != ell:
        inner = acute_G(ell // p)
        return _verified(inner.triangle.scaled(p), request, "centroid/factored")
    r = ell % 18
    offset = {5: 8, 11: 14, 17: 2}[r]
    x = {5: 7, 11: 13, 17: 1}[r]
    d = delta(ell - offset)
    if d is None:
        raise ConstructionError(f"delta({ell - offset}) undefined in centroid family")
    return _grown_height_witness(ell - 1 - d, x, d, request, f"centroid/{r}mod18")


def obtuse_G(perimeter: int) -> Witness:
    """Obtuse triangle with lattice centroid, the acute one sheared."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.CENTROID, ShapeClass.OBTUSE, ell)
    if ell == 3:
        return _verified(triangle((0, 0), (1, 0), (-1, 3)), request, "centroid/obtuse-3", G=(0, 1))
    base = acute_G(ell).triangle
    for k in range(1, _SHEAR_CAP + 1):
        tri = sheared(base, k)
        if classify_shape(tri) is ShapeClass.OBTUSE:
            return _verified(tri, request, "centroid/sheared")
    raise ConstructionError(f"no shear up to {_SHEAR_CAP} made {base} obtuse")


# --- combined conditions and dispatch ------------------------------------

# Tripling a triangle triples its perimeter, keeps F and H on the lattice
# and puts G there too (the vertex sums become multiples of 3).  So a GH
# (FGH) witness of perimeter ell is the tripled H (F) witness of ell / 3:
# combined condition -> inner condition.
_TRIPLED = {_C.CENTROID_AND_ORTHOCENTER: _C.ORTHOCENTER, _C.ALL_THREE: _C.CIRCUMCENTER}

# The acute cells no family reaches, F at 8, 14 and 16 and GH (FGH) where ell / 3 has no acute H (F)
# witness: (condition, perimeter) -> ((P, Q) of the triangle O, P, Q, its lattice centers)
_ACUTE_EXPLICIT = {
    (CenterCondition.CIRCUMCENTER, 8): (((4, 0), (3, 3)), dict(F=(2, 1))),
    (CenterCondition.CIRCUMCENTER, 14): (((8, 0), (3, 5)), dict(F=(4, 1))),
    (CenterCondition.CIRCUMCENTER, 16): (((8, 0), (1, 7)), dict(F=(4, 3))),
    (CenterCondition.CENTROID_AND_ORTHOCENTER, 9): (((6, 3), (3, 6)), dict(G=(3, 3), H=(4, 4))),
    (CenterCondition.CENTROID_AND_ORTHOCENTER, 12): (((6, 0), (3, 9)), dict(G=(3, 3), H=(3, 1))),
    (CenterCondition.CENTROID_AND_ORTHOCENTER, 15): (((9, 0), (3, 9)), dict(G=(4, 3), H=(3, 2))),
    (CenterCondition.CENTROID_AND_ORTHOCENTER, 21): (((15, 0), (3, 9)), dict(G=(6, 3), H=(3, 4))),
    (CenterCondition.ALL_THREE, 12): (((6, 0), (3, 9)), dict(F=(3, 4), G=(3, 3), H=(3, 1))),
    (CenterCondition.ALL_THREE, 18): (((12, 6), (6, 12)), dict(F=(5, 5), G=(6, 6), H=(8, 8))),
    (CenterCondition.ALL_THREE, 30): (((18, 0), (6, 18)), dict(F=(9, 7), G=(8, 6), H=(6, 4))),
}

# the tag prefix of the explicit and tripled witnesses of each condition that has them
_TAG_PREFIX = {
    _C.CIRCUMCENTER: "circumcenter", _C.CENTROID_AND_ORTHOCENTER: "centroid+orthocenter", _C.ALL_THREE: "all-centers"
}


def _tripled(request: WitnessRequest) -> Witness:
    # ACHIEVABLE admits ell only where the explicit table lists the cell or ell / 3 lies in the inner cell's set
    # (tests/test_constructions.py checks this for every ell)
    inner = _build(WitnessRequest(_TRIPLED[request.condition], request.shape, request.perimeter // 3))
    return _verified(inner.triangle.scaled(3), request, f"{_TAG_PREFIX[request.condition]}/tripled")


# (condition, shape) -> the factory that builds an admitted request the explicit table does not list
_FACTORIES: dict[tuple[CenterCondition, ShapeClass], Callable[[WitnessRequest], Witness]] = {
    **{key: functools.partial(_affine, rows) for key, rows in _AFFINE.items()},
    (_C.CENTROID, _S.ACUTE): lambda request: acute_G(request.perimeter),
    (_C.CENTROID, _S.OBTUSE): lambda request: obtuse_G(request.perimeter),
    **{(condition, shape): _tripled for condition in _TRIPLED for shape in ShapeClass},
}


def _build(request: WitnessRequest) -> Witness:
    # the explicit table's witness where it lists the request, else the cell's factory's
    explicit = request.shape is ShapeClass.ACUTE and _ACUTE_EXPLICIT.get((request.condition, request.perimeter))
    if not explicit:
        return _FACTORIES[(request.condition, request.shape)](request)
    (p, q), centers = explicit
    return _verified(triangle((0, 0), p, q), request, f"{_TAG_PREFIX[request.condition]}/explicit", **centers)


def build_witness(request: WitnessRequest) -> Witness:
    """Check the perimeter against ACHIEVABLE, then build and verify the cell's witness."""
    key = (request.condition, request.shape)
    if key not in ACHIEVABLE:
        raise ValueError(f"no construction family for {request.condition}/{request.shape}")
    admitted = ACHIEVABLE[key]
    if not admitted.admits(request.perimeter):
        raise UnachievableError(
            f"no {request.shape} triangle meets lattice condition {request.condition} "
            f"at perimeter {request.perimeter}; achievable: {admitted.words}"
        )
    return _build(request)
