"""Deterministic witness factories for achievable perimeters, and the one witness check.

Each factory produces a lattice triangle of the requested shape and
perimeter whose required centers land on the lattice, and passes it,
with any closed-form center the family predicts, through check_witness
before returning.  That check, all in integers, is also the one the
search makes (the atlas loader rebuilds what it loads).  A witness
computes its Fraction center report only when it is read.  Requests for
a perimeter the cell does not admit raise UnachievableError; the
feasibility module can then explain why with certificates.

ACHIEVABLE states, once, which perimeters each (condition, shape) cell
admits; build_witness refuses the others, and the factories assume
their perimeter is admitted.

Only F, G and H have families of their own.  Tripling a triangle keeps
F and H on the lattice and puts G there too, so a G-and-H (F, G, H)
witness of perimeter l is 3 times the H (F) witness of perimeter l/3,
of the same shape.  The ten acute cells that no family and no tripling
reaches are built from one table of explicit triangles.
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


_C, _S = CenterCondition, ShapeClass
_EVEN_FROM_4 = (lambda l: l % 2 == 0 and l >= 4, "even perimeters >= 4")
_NOT_5_11 = (lambda l: l >= 3 and l not in (5, 11), "all perimeters except 5 and 11")
_ALL = (lambda l: l >= 3, "all perimeters")
_GH = (lambda l: l % 3 == 0 and l >= 9, "multiples of 3 except 3 and 6")
_FGH = (lambda l: l % 6 == 0 and l >= 12, "multiples of 6 except 6")

# The paper's characterisation: (condition, shape) -> (whether perimeter l is
# achievable, that set in words).  GH and FGH admit the same set for every shape.
ACHIEVABLE: dict[tuple[CenterCondition, ShapeClass], tuple[Callable[[int], bool], str]] = {
    (_C.CIRCUMCENTER, _S.ACUTE): (
        lambda l: l % 2 == 0 and (l == 8 or l >= 12), "even perimeters except 2, 4, 6 and 10"
    ),
    (_C.CIRCUMCENTER, _S.OBTUSE): _EVEN_FROM_4,
    (_C.CIRCUMCENTER, _S.RIGHT): _EVEN_FROM_4,
    (_C.CENTROID, _S.ACUTE): _NOT_5_11,
    (_C.CENTROID, _S.OBTUSE): _NOT_5_11,
    (_C.CENTROID, _S.RIGHT): (lambda l: l % 3 == 0 and l >= 9, "multiples of 3, at least 9"),
    (_C.ORTHOCENTER, _S.ACUTE): (lambda l: l == 6 or l >= 8, "6 and everything >= 8"),
    (_C.ORTHOCENTER, _S.OBTUSE): _ALL,
    (_C.ORTHOCENTER, _S.RIGHT): _ALL,
    **{(_C.CENTROID_AND_ORTHOCENTER, s): _GH for s in _S},
    **{(_C.ALL_THREE, s): _FGH for s in _S},
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


# --- orthocenter families -------------------------------------------------


def acute_H(perimeter: int) -> Witness:
    """Acute triangle with lattice orthocenter."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.ORTHOCENTER, ShapeClass.ACUTE, ell)
    if ell % 2 == 0:
        n = ell // 2
        return _verified(triangle((0, 0), (n, 0), (1, n - 1)), request, "orthocenter/even", H=(1, 1))
    if ell % 4 == 1:
        tri = triangle((0, 0), ((ell + 1) // 2, 0), (2, (ell - 3) // 2))
        return _verified(tri, request, "orthocenter/odd-1mod4", H=(2, 2))
    tri = triangle((0, 0), ((ell + 3) // 2, 0), (6, 3 * (ell - 9) // 2))
    return _verified(tri, request, "orthocenter/odd-3mod4", H=(6, 2))


def obtuse_H(perimeter: int) -> Witness:
    """Obtuse triangle with lattice orthocenter."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.ORTHOCENTER, ShapeClass.OBTUSE, ell)
    tri = triangle((0, 0), (1, 0), (2 - ell, ell - 2))
    return _verified(tri, request, "orthocenter/obtuse", H=(2 - ell, 1 - ell))


def right_H(perimeter: int) -> Witness:
    """Right triangle; the orthocenter sits at the right-angle vertex."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.ORTHOCENTER, ShapeClass.RIGHT, ell)
    return _verified(triangle((0, 0), (ell - 2, 0), (0, 1)), request, "orthocenter/right", H=(0, 0))


# --- circumcenter families ------------------------------------------------

def acute_F(perimeter: int) -> Witness:
    """Acute triangle with lattice circumcenter."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.CIRCUMCENTER, ShapeClass.ACUTE, ell)
    explicit = _acute_explicit(request, "circumcenter")
    if explicit is not None:
        return explicit
    r = ell % 8
    if r == 4:
        n = (ell - 4) // 8
        tri = triangle((0, 0), (4 * n + 2, 0), (4, 8 * n - 4))
        return _verified(tri, request, "circumcenter/4mod8", F=(2 * n + 1, 4 * n - 3))
    if r == 6:
        n = (ell - 6) // 8
        tri = triangle((0, 0), (2 * n + 1, 1), (0, 6 * n + 4))
        return _verified(tri, request, "circumcenter/6mod8", F=(n - 1, 3 * n + 2))
    # 0 or 2 mod 8: one family covers both, via the parity of n.
    n = (ell - 2) // 4 if r == 2 else (ell - 4) // 4
    tri = triangle((0, 0), (2 * n + 2, 0), (4, 2 * n - 2))
    return _verified(tri, request, "circumcenter/0or2mod8", F=(n + 1, n - 3))


def obtuse_F(perimeter: int) -> Witness:
    """Obtuse triangle with lattice circumcenter."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.CIRCUMCENTER, ShapeClass.OBTUSE, ell)
    return _verified(triangle((0, 0), (2, 0), (3 - ell, ell - 3)), request, "circumcenter/obtuse", F=(1, ell - 2))


def right_F(perimeter: int) -> Witness:
    """Right triangle with lattice circumcenter."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.CIRCUMCENTER, ShapeClass.RIGHT, ell)
    tri = triangle((0, 0), (1, 1), (3 - ell, ell - 3))
    return _verified(tri, request, "circumcenter/right", F=((4 - ell) // 2, (ell - 2) // 2))


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


def right_G(perimeter: int) -> Witness:
    """Right triangle with lattice centroid."""
    ell = perimeter
    request = WitnessRequest(CenterCondition.CENTROID, ShapeClass.RIGHT, ell)
    n = (ell - 6) // 3
    return _verified(triangle((0, 0), (3 * n, 0), (0, 3)), request, "centroid/right", G=(n, 1))


# --- combined conditions --------------------------------------------------

# Tripling a triangle triples its perimeter, keeps F and H on the lattice
# and puts G there too (the vertex sums become multiples of 3).  So a GH
# (FGH) witness of perimeter ell is the tripled H (F) witness of ell / 3:
# combined condition -> (inner condition, tag prefix).
_TRIPLED = {
    CenterCondition.CENTROID_AND_ORTHOCENTER: (CenterCondition.ORTHOCENTER, "centroid+orthocenter"),
    CenterCondition.ALL_THREE: (CenterCondition.CIRCUMCENTER, "all-centers"),
}

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


def _acute_explicit(request: WitnessRequest, tag: str) -> Witness | None:
    # the table's witness, tagged tag/explicit, where the table lists the request's cell
    explicit = _ACUTE_EXPLICIT.get((request.condition, request.perimeter))
    if explicit is None or request.shape is not ShapeClass.ACUTE:
        return None
    (p, q), centers = explicit
    return _verified(triangle((0, 0), p, q), request, f"{tag}/explicit", **centers)


def _tripled(request: WitnessRequest) -> Witness:
    inner_condition, tag = _TRIPLED[request.condition]
    inner = _FACTORIES[(inner_condition, request.shape)]
    # ACHIEVABLE admits ell only where the table lists the cell or ell / 3 lies in the inner cell's set
    return _acute_explicit(request, tag) or _verified(
        inner(request.perimeter // 3).triangle.scaled(3), request, f"{tag}/tripled"
    )


_FACTORIES = {
    (CenterCondition.ORTHOCENTER, ShapeClass.ACUTE): acute_H,
    (CenterCondition.ORTHOCENTER, ShapeClass.OBTUSE): obtuse_H,
    (CenterCondition.ORTHOCENTER, ShapeClass.RIGHT): right_H,
    (CenterCondition.CIRCUMCENTER, ShapeClass.ACUTE): acute_F,
    (CenterCondition.CIRCUMCENTER, ShapeClass.OBTUSE): obtuse_F,
    (CenterCondition.CIRCUMCENTER, ShapeClass.RIGHT): right_F,
    (CenterCondition.CENTROID, ShapeClass.ACUTE): acute_G,
    (CenterCondition.CENTROID, ShapeClass.OBTUSE): obtuse_G,
    (CenterCondition.CENTROID, ShapeClass.RIGHT): right_G,
}


def build_witness(request: WitnessRequest) -> Witness:
    """Check the perimeter against ACHIEVABLE, then build and verify the family's witness."""
    key = (request.condition, request.shape)
    if key not in ACHIEVABLE:
        raise ValueError(f"no construction family for {request.condition}/{request.shape}")
    achievable, expression = ACHIEVABLE[key]
    if not achievable(request.perimeter):
        raise UnachievableError(
            f"no {request.shape} triangle meets lattice condition {request.condition} "
            f"at perimeter {request.perimeter}; achievable: {expression}"
        )
    factory = _FACTORIES.get(key)
    return factory(request.perimeter) if factory is not None else _tripled(request)
