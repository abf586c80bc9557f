import hashlib
import math
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticecenters import centers as centers_mod
from latticecenters import constructions as cons
from latticecenters.centers import CenterCondition, RationalPoint, center_report
from latticecenters.constructions import (
    ACHIEVABLE,
    ConstructionError,
    UnachievableError,
    WitnessRequest,
    build_witness,
    check_witness,
    delta,
    sheared,
)
from latticecenters.feasibility import exclusion_report
from latticecenters.incenter import lattice_incenter
from latticecenters.lattice import LatticePoint, ShapeClass, classify_shape, lattice_perimeter, side_lengths, triangle
from latticecenters.search import SearchConfig, search_witnesses

import oracles


def verts(w):
    return tuple(v.as_tuple() for v in w.triangle.vertices)


F, G, H = CenterCondition.CIRCUMCENTER, CenterCondition.CENTROID, CenterCondition.ORTHOCENTER
ACUTE, OBTUSE, RIGHT = ShapeClass.ACUTE, ShapeClass.OBTUSE, ShapeClass.RIGHT


def built(condition, shape, ell):
    return build_witness(WitnessRequest(condition, shape, ell))


def refused(condition, shape, ell):
    with pytest.raises(UnachievableError):
        build_witness(WitnessRequest(condition, shape, ell))


class TestAcuteOrthocenter:
    def test_paper_triangles(self):
        assert verts(built(H, ACUTE, 6)) == ((0, 0), (3, 0), (1, 2))
        assert verts(built(H, ACUTE, 9)) == ((0, 0), (5, 0), (2, 3))
        assert verts(built(H, ACUTE, 11)) == ((0, 0), (7, 0), (6, 3))

    def test_rejections(self):
        for ell in (3, 4, 5, 7):
            refused(CenterCondition.ORTHOCENTER, ShapeClass.ACUTE, ell)

    def test_coverage(self):
        for ell in [6] + list(range(8, 121)):
            w = built(H, ACUTE, ell)
            assert w.report.perimeter == ell
            assert w.report.shape is ShapeClass.ACUTE
            assert w.report.orthocenter_on_lattice


class TestAcuteCircumcenter:
    def test_family_and_explicit_values(self):
        assert verts(built(F, ACUTE, 12)) == ((0, 0), (6, 0), (4, 4))
        assert built(F, ACUTE, 12).report.circumcenter.as_lattice_point().as_tuple() == (3, 1)
        assert verts(built(F, ACUTE, 22)) == ((0, 0), (5, 1), (0, 16))
        assert built(F, ACUTE, 22).report.circumcenter.as_lattice_point().as_tuple() == (1, 8)
        assert verts(built(F, ACUTE, 16)) == ((0, 0), (8, 0), (1, 7))

    def test_rejections(self):
        for ell in (4, 6, 10, 9):
            refused(CenterCondition.CIRCUMCENTER, ShapeClass.ACUTE, ell)

    def test_coverage(self):
        for ell in [8] + list(range(12, 121, 2)):
            w = built(F, ACUTE, ell)
            assert w.report.perimeter == ell
            assert w.report.shape is ShapeClass.ACUTE
            assert w.report.circumcenter_on_lattice
            assert w.report.orthocenter_on_lattice  # forced by the Euler relation


class TestAcuteCentroid:
    def test_base_and_parametric(self):
        assert verts(cons.acute_G(3)) == ((0, 0), (1, 2), (2, 1))
        w = cons.acute_G(7)
        assert verts(w) == ((0, 0), (5, 0), (4, 15))  # smallest power of 3 works
        w = cons.acute_G(10)
        assert verts(w) == ((0, 0), (5, 0), (1, 12))

    def test_rejections(self):
        for ell in (5, 11):
            refused(CenterCondition.CENTROID, ShapeClass.ACUTE, ell)

    def test_coverage_exercises_every_family(self):
        tags = set()
        for ell in range(3, 121):
            if ell in (5, 11):
                continue
            w = cons.acute_G(ell)
            tags.add(w.family_tag)
            assert w.report.perimeter == ell
            assert w.report.shape is ShapeClass.ACUTE
            assert w.report.centroid_on_lattice
        assert {
            "centroid/base-3",
            "centroid/scaled-base",
            "centroid/1mod6",
            "centroid/4mod6",
            "centroid/doubled",
            "centroid/factored",
            "centroid/5mod18",
            "centroid/11mod18",
            "centroid/17mod18",
        } <= tags

    def test_factored_exactly_at_composite_5_mod_6(self):
        # delta(ell) is ell itself exactly when ell is prime, so an
        # achievable ell = 5 mod 6 is split into factors exactly when a
        # sieve finds it composite
        limit = 2000
        composite = [False] * limit
        for d in range(2, math.isqrt(limit - 1) + 1):
            composite[d * d :: d] = [True] * len(composite[d * d :: d])
        for ell in range(17, limit, 6):
            assert (cons.acute_G(ell).family_tag == "centroid/factored") is composite[ell], ell


class TestObtuseAndRight:
    def test_paper_triangles(self):
        assert verts(built(H, OBTUSE, 3)) == ((0, 0), (1, 0), (-1, 1))
        assert built(H, OBTUSE, 3).report.orthocenter.as_lattice_point().as_tuple() == (-1, -2)
        assert verts(built(F, RIGHT, 4)) == ((0, 0), (1, 1), (-1, 1))
        assert built(F, RIGHT, 4).report.circumcenter.as_lattice_point().as_tuple() == (0, 1)
        assert verts(built(G, RIGHT, 9)) == ((0, 0), (3, 0), (0, 3))

    def test_obtuse_centroid_is_sheared_acute(self):
        w = cons.obtuse_G(7)
        assert w.report.shape is ShapeClass.OBTUSE
        assert w.report.centroid_on_lattice
        assert w.report.perimeter == 7
        assert side_lengths(w.triangle) == side_lengths(cons.acute_G(7).triangle)

    def test_domains(self):
        refused(CenterCondition.CENTROID, ShapeClass.RIGHT, 12 + 1)
        refused(CenterCondition.CENTROID, ShapeClass.RIGHT, 6)
        refused(CenterCondition.CIRCUMCENTER, ShapeClass.OBTUSE, 7)
        for ell in range(3, 61):
            built(H, OBTUSE, ell)
            built(H, RIGHT, ell)
            if ell % 2 == 0 and ell >= 4:
                built(F, OBTUSE, ell)
                built(F, RIGHT, ell)
            if ell % 3 == 0 and ell >= 9:
                built(G, RIGHT, ell)
            if ell not in (5, 11):
                cons.obtuse_G(ell)


def _explicit(condition, shape, ell):
    return shape is ACUTE and (condition, ell) in cons._ACUTE_EXPLICIT


def _served(cell, ell):
    # whether the cell's family rows must serve l: it is admitted and the explicit table does not list it
    return ACHIEVABLE[cell].admits(ell) and not _explicit(*cell, ell)


def _periodic_above(condition, shape):
    """T: the largest of the cell's least member, its exceptions and its explicit perimeters.

    Above T the cell admits l exactly where its modulus divides l, and the explicit table lists none."""
    admitted = ACHIEVABLE[(condition, shape)]
    explicit = [ell for c, ell in cons._ACUTE_EXPLICIT if c is condition and shape is ACUTE]
    return max([admitted.least, *admitted.exceptions, *explicit])


def _coefficients(u, v, form):
    # form(u0 + j*u1, v0 + j*v1) for a bilinear form, as its coefficients in j, constant first
    (u0, u1), (v0, v1) = u, v
    return form(u0, v0), form(u0, v1) + form(u1, v0), form(u1, v1)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _minus(u, v):
    # u - v for points written (base, slope)
    return tuple((a[0] - b[0], a[1] - b[1]) for a, b in zip(u, v))


def _sign_from(coefficients):
    """(J, s): for every integer j >= J the polynomial has sign s, its leading coefficient's.

    Every real root x has |x| < 1 + max|lower coefficient| / |leading| (Cauchy's bound)."""
    *lower, lead = coefficients
    while lower and not lead:
        *lower, lead = lower
    return (1 - (-max(map(abs, lower)) // abs(lead)) if lower else 0), (lead > 0) - (lead < 0)


class TestAffineTable:
    def test_rows_tile_each_cells_admitted_perimeters(self):
        # every admitted perimeter the explicit table does not list is served by exactly
        # one row, that row's tag is the witness's, and no row is dead or shadowed.  Above
        # T the admitted set and the rows' residues both repeat with period P, the lcm of
        # the modulus and the steps, so walking l from 3 to T + P covers every l
        assert len(cons._AFFINE) == 7 and sum(map(len, cons._AFFINE.values())) == 12
        for (condition, shape), rows in cons._AFFINE.items():
            admitted = ACHIEVABLE[(condition, shape)]
            assert all(0 <= r < step for step, r, *_ in rows)
            period = math.lcm(admitted.modulus, *(step for step, *_ in rows))
            served = set()
            for ell in range(3, _periodic_above(condition, shape) + period + 1):
                if not _served((condition, shape), ell):
                    continue
                matches = [i for i, (step, r, *_) in enumerate(rows) if ell % step == r]
                assert len(matches) == 1, (condition, shape, ell, matches)
                assert built(condition, shape, ell).family_tag == rows[matches[0]][2]
                served.update(matches)
            assert served == set(range(len(rows))), (condition, shape)

    @pytest.mark.parametrize("cell", list(cons._AFFINE), ids=lambda cell: f"{cell[0]}-{cell[1]}")
    def test_rows_hold_for_every_j(self, cell):
        # a row's witness O, P(j), Q(j) passes check_witness, with the centers it predicts, at every
        # j of its domain (l = step*j + r admitted and not listed explicitly), by three finite checks:
        # - centers: with v0 = O, the residuals nx - den*x of center_numerators are polynomials in j
        #   of degree <= 3 (nx is built from cross and dot, which are quadratic, times an affine
        #   coordinate; den is 2*cross, 3 or cross, and x is affine), so four values of j where
        #   they vanish prove them zero for every j;
        # - shape: the vertex dot products and cross(P, Q) are quadratics in j, each of one sign
        #   from Cauchy's root bound on, where their signs must give the cell's shape;
        # - perimeter: a side A + j*B has lattice length |a + j*b| (A = a*w, B = b*w) when
        #   det(A, B) = 0, linear in j once a + j*b keeps its sign; otherwise gcd(A + j*B, det(A, B)),
        #   which repeats with period |det(A, B)|.  So from J on, perimeter - step*j repeats with
        #   period L, and one period of checks, j = J..J + L, fixes it at r
        condition, shape = cell
        admitted = ACHIEVABLE[cell]
        for step, r, tag, p, q, centers in cons._AFFINE[cell]:
            # the row serves only the cell's modulus class, so above T every j is in its domain
            assert step % admitted.modulus == 0 == r % admitted.modulus, tag
            assert set(condition.value) <= set(centers), tag
            o = ((0, 0), (0, 0))
            corners = ((p, q), (_minus(o, p), _minus(q, p)), (_minus(o, q), _minus(p, q)))
            bounds, signs = zip(*(_sign_from(_coefficients(u, v, _dot)) for u, v in corners))
            area_from, area_sign = _sign_from(_coefficients(p, q, _det))
            assert area_sign != 0, tag
            eventual = ACUTE if all(s > 0 for s in signs) else RIGHT if 0 in signs else OBTUSE
            assert eventual is shape, tag
            sides = (p, q, _minus(q, p))
            linear_from = max((1 + max(map(abs, a)) for a, b in sides if _det(a, b) == 0), default=0)
            period = math.lcm(*(abs(_det(a, b)) for a, b in sides if _det(a, b)))
            start = max(*bounds, area_from, linear_from, _periodic_above(*cell) // step + 1)
            end = start + max(period, 3)  # a full period, and four values of j for the centers
            domain = [j for j in range(end + 1) if _served(cell, step * j + r)]
            assert domain[start - end - 1 :] == list(range(start, end + 1)), tag
            for j in domain:
                tri = triangle((0, 0), cons._at(p, j), cons._at(q, j))
                check_witness(tri, condition, shape, step * j + r, **{k: cons._at(c, j) for k, c in centers.items()})

    def test_family_witnesses_to_1000_are_pinned(self):
        # vertices and tag of every admitted perimeter <= 1000 of the seven table cells;
        # the digest was recorded from the hand-written factories the table replaced
        h = hashlib.sha256()
        for condition, shape in [(H, s) for s in ShapeClass] + [(F, s) for s in ShapeClass] + [(G, RIGHT)]:
            for ell in filter(ACHIEVABLE[(condition, shape)].admits, range(3, 1001)):
                w = built(condition, shape, ell)
                h.update(f"{condition.value} {shape.value} {ell} {verts(w)} {w.family_tag}\n".encode())
        assert h.hexdigest() == "a03aad4629596598818becfefbb564eac9ba5a9684083e956d038b0671a71df7"


GH, FGH = CenterCondition.CENTROID_AND_ORTHOCENTER, CenterCondition.ALL_THREE


def combined(condition, ell, shape=ShapeClass.ACUTE):
    return build_witness(WitnessRequest(condition, shape, ell))


class TestCombinedConditions:
    def test_explicit_gh_triangles(self):
        w = combined(GH, 9)
        assert (verts(w), w.family_tag) == (((0, 0), (6, 3), (3, 6)), "centroid+orthocenter/explicit")
        assert w.report.centroid.as_lattice_point().as_tuple() == (3, 3)
        assert w.report.orthocenter.as_lattice_point().as_tuple() == (4, 4)
        w = combined(GH, 15)
        assert (verts(w), w.family_tag) == (((0, 0), (9, 0), (3, 9)), "centroid+orthocenter/explicit")
        # perimeter 18 comes from tripling the perimeter-6 orthocenter witness
        w = combined(GH, 18)
        assert (verts(w), w.family_tag) == (((0, 0), (9, 0), (3, 6)), "centroid+orthocenter/tripled")

    def test_explicit_fgh_triangles(self):
        w = combined(FGH, 12)
        assert (verts(w), w.family_tag) == (((0, 0), (6, 0), (3, 9)), "all-centers/explicit")
        rep = w.report
        assert rep.circumcenter.as_lattice_point().as_tuple() == (3, 4)
        assert rep.centroid.as_lattice_point().as_tuple() == (3, 3)
        assert rep.orthocenter.as_lattice_point().as_tuple() == (3, 1)
        w = combined(FGH, 18)
        assert (verts(w), w.family_tag) == (((0, 0), (12, 6), (6, 12)), "all-centers/explicit")
        w = combined(FGH, 30)
        assert (verts(w), w.family_tag) == (((0, 0), (18, 0), (6, 18)), "all-centers/explicit")
        # perimeter 24 comes from tripling the perimeter-8 circumcenter witness
        w = combined(FGH, 24)
        assert (verts(w), w.family_tag) == (((0, 0), (12, 0), (9, 9)), "all-centers/tripled")

    def test_domains_and_coverage(self):
        explicit = {(GH, 9), (GH, 12), (GH, 15), (GH, 21), (FGH, 12), (FGH, 18), (FGH, 30)}
        for ell in range(3, 121):
            for cond, tag, ok in (
                (GH, "centroid+orthocenter", ell % 3 == 0 and ell >= 9),
                (FGH, "all-centers", ell % 6 == 0 and ell >= 12),
            ):
                for shape in ShapeClass:
                    if ok:
                        w = combined(cond, ell, shape)
                        kind = "explicit" if shape is ShapeClass.ACUTE and (cond, ell) in explicit else "tripled"
                        assert w.family_tag == f"{tag}/{kind}", (cond, shape, ell)
                    else:
                        with pytest.raises(UnachievableError):
                            combined(cond, ell, shape)

    def test_tripled_cells_admit_exactly_the_tripled_inner_sets(self):
        # _tripled's precondition for every l: a GH (FGH) cell admits l exactly where the explicit
        # table lists it, or 3 | l and the H (F) cell of the same shape admits l / 3.  Above both
        # cells' T (the inner one's times 3) each side repeats with period lcm(m, 3 * inner m), so
        # one period above covers every l
        for condition, inner in cons._TRIPLED.items():
            for shape in ShapeClass:
                outer_set, inner_set = ACHIEVABLE[(condition, shape)], ACHIEVABLE[(inner, shape)]
                top = max(_periodic_above(condition, shape), 3 * _periodic_above(inner, shape))
                for ell in range(3, top + math.lcm(outer_set.modulus, 3 * inner_set.modulus) + 1):
                    tripled = ell % 3 == 0 and inner_set.admits(ell // 3)
                    explicit = _explicit(condition, shape, ell)
                    assert outer_set.admits(ell) == (explicit or tripled), (condition, shape, ell)


class TestScaleAndShear:
    def test_scale_examples(self):
        base = triangle((0, 0), (1, 2), (2, 1))
        assert lattice_perimeter(base.scaled(2)) == 6
        assert base.scaled(1) == base

    def test_tripled_orthocenter_witness_gains_lattice_centroid(self):
        w = built(H, ACUTE, 8)
        tripled = w.triangle.scaled(3)
        rep = center_report(tripled)
        assert rep.centroid_on_lattice and rep.orthocenter_on_lattice
        assert rep.perimeter == 24

    def test_scaling_multiplies_everything(self):
        rng = random.Random(4)
        for _ in range(50):
            t = oracles.random_triangle(rng, 10)
            k = rng.randint(2, 5)
            assert lattice_perimeter(t.scaled(k)) == k * lattice_perimeter(t)
            assert side_lengths(t.scaled(k)) == tuple(k * s for s in side_lengths(t))

    def test_shear_preserves_lengths_and_centroid_flag(self):
        rng = random.Random(6)
        for _ in range(60):
            t = oracles.random_triangle(rng, 12)
            k = rng.randint(-8, 8)
            image = sheared(t, k)
            assert side_lengths(image) == side_lengths(t)
            assert center_report(image).centroid_on_lattice == center_report(t).centroid_on_lattice

    def test_large_shear_turns_obtuse(self):
        t = cons.acute_G(13).triangle
        assert any(
            center_report(sheared(t, k)).shape is ShapeClass.OBTUSE for k in range(1, 20)
        )


# witnesses with lattice centers (every family cell to perimeter 24, and the
# lattice-incenter triangles of a small box), so that the lemmas below meet
# triangles with lattice F, G, H and I, not only random ones without
_CENTERED = [
    build_witness(WitnessRequest(condition, shape, ell)).triangle
    for (condition, shape), admitted in ACHIEVABLE.items()
    for ell in filter(admitted.admits, range(3, 25))
] + [t for t, _ in search_witnesses(SearchConfig(6, 24, (CenterCondition.INCENTER,))).values()]

_coords = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
_lattice_triangles = st.one_of(
    st.tuples(_coords, _coords, _coords)
    .filter(lambda vs: (vs[1][0] - vs[0][0]) * (vs[2][1] - vs[0][1]) != (vs[1][1] - vs[0][1]) * (vs[2][0] - vs[0][0]))
    .map(lambda vs: triangle(*vs)),
    st.builds(lambda t, d: t.translated(LatticePoint(*d)), st.sampled_from(_CENTERED), _coords),
)


class TestScalingLemmas:
    # _tripled (GH, FGH), centroid/scaled-base and centroid/doubled build a
    # witness as k times a smaller one, and rely on these lemmas for every l

    @given(_lattice_triangles, st.integers(1, 12))
    def test_scaling_keeps_shape_and_every_lattice_center(self, t, k):
        big = t.scaled(k)
        assert classify_shape(big) is classify_shape(t)
        assert lattice_perimeter(big) == k * lattice_perimeter(t)
        rep, big_rep = center_report(t), center_report(big)
        for name in ("circumcenter", "centroid", "orthocenter"):
            center = getattr(rep, name)
            assert getattr(big_rep, name) == RationalPoint(k * center.x, k * center.y)
            assert getattr(big_rep, f"{name}_on_lattice") >= getattr(rep, f"{name}_on_lattice")
        incenter = lattice_incenter(t)
        if incenter is not None:
            assert lattice_incenter(big) == incenter.scaled(k)

    @given(_lattice_triangles)
    def test_tripling_puts_the_centroid_on_the_lattice(self, t):
        assert center_report(t.scaled(3)).centroid_on_lattice

    def test_the_witnesses_cover_every_center(self):
        reports = [center_report(t) for t in _CENTERED]
        assert all(any(getattr(r, f"{n}_on_lattice") for r in reports) for n in ("circumcenter", "orthocenter"))
        assert any(not r.centroid_on_lattice for r in reports)
        assert any(lattice_incenter(t) is not None for t in _CENTERED)


class TestDelta:
    def test_examples(self):
        assert delta(55) == 5
        assert delta(7) is None
        assert delta(35) == 5

    def test_against_sieve(self):
        limit = 100_000
        # smallest 5-mod-6 prime factor per n, by direct sieving
        best = [0] * (limit + 1)
        for p in range(5, limit + 1, 6):
            if all(p % q for q in range(2, int(math.isqrt(p)) + 1)):
                for mult in range(p, limit + 1, p):
                    if best[mult] == 0:
                        best[mult] = p
        for n in range(1, limit + 1):
            expected = best[n] or None
            assert delta(n) == expected, n

    def test_sampled_to_one_million(self):
        def oracle(n):
            # full factorization, ascending, first prime that is 5 mod 6
            factors = []
            m, d = n, 2
            while d * d <= m:
                if m % d == 0:
                    factors.append(d)
                    while m % d == 0:
                        m //= d
                d += 1
            if m > 1:
                factors.append(m)
            return next((p for p in factors if p % 6 == 5), None)

        rng = random.Random(55)
        for _ in range(5000):
            n = rng.randint(100_000, 1_000_000)
            assert delta(n) == oracle(n), n


class TestAchievable:
    def test_rows_are_canonical(self):
        # least is the set's least member and the exceptions ascend above it in the modulus's
        # class, so a set has one row; equal sets print equal words and distinct ones do not
        for row in ACHIEVABLE.values():
            assert row.modulus >= 1 and row.least >= 3 and row.least % row.modulus == 0, row
            assert list(row.exceptions) == sorted(set(row.exceptions)), row
            assert all(ell > row.least and ell % row.modulus == 0 for ell in row.exceptions), row
        assert len(set(ACHIEVABLE.values())) == len({row.words for row in ACHIEVABLE.values()}) == 7
        assert ACHIEVABLE[(G, RIGHT)].words == ACHIEVABLE[(GH, RIGHT)].words == "multiples of 3 >= 9"

    def test_words(self):
        assert ACHIEVABLE[(F, ACUTE)].words == "even perimeters >= 8 except 10"
        assert ACHIEVABLE[(G, OBTUSE)].words == "all perimeters >= 3 except 5 and 11"
        assert ACHIEVABLE[(FGH, RIGHT)].words == "multiples of 6 >= 12"

    def test_admitted_sets_to_3000_are_pinned(self):
        # every admitted (cell, l) with l <= 3000; the digest was recorded from the
        # (predicate, phrase) pairs the rows replaced
        h = hashlib.sha256()
        for condition in CenterCondition:
            for shape in ShapeClass:
                if (condition, shape) in ACHIEVABLE:
                    for ell in filter(ACHIEVABLE[(condition, shape)].admits, range(3, 3001)):
                        h.update(f"{condition.value} {shape.value} {ell}\n".encode())
        assert h.hexdigest() == "4aebd989023629fc356f18346a22eb39ca0352a98cacbe9758ebb28590284e03"

    def test_readme_table_states_each_rows_words(self):
        rows = {}
        for line in (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines():
            condition, *cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and condition.strip("`") in {c.value for c in CenterCondition}:
                rows[CenterCondition(condition.strip("`"))] = cells
        for (condition, shape), admitted in ACHIEVABLE.items():
            assert rows[condition][[ACUTE, OBTUSE, RIGHT].index(shape)] == admitted.words, (condition, shape)


class TestDispatch:
    def test_build_witness_routes_all_cells(self):
        for cond in (
            CenterCondition.CIRCUMCENTER,
            CenterCondition.CENTROID,
            CenterCondition.ORTHOCENTER,
            CenterCondition.CENTROID_AND_ORTHOCENTER,
            CenterCondition.ALL_THREE,
        ):
            for shape in ShapeClass:
                w = build_witness(WitnessRequest(cond, shape, 36))
                assert w.report.shape is shape
                assert w.report.perimeter == 36
                assert cond.met_by(oracles.report_flags(w.report))

    def test_achievable_decides_every_standard_cell(self):
        """build_witness succeeds exactly on ACHIEVABLE's perimeters; every
        other cell it refuses has an exclusion proof, so no standard cell
        is left unknown."""
        assert len(ACHIEVABLE) == 15
        for (cond, shape), admitted in ACHIEVABLE.items():
            for ell in range(3, 151):
                request = WitnessRequest(cond, shape, ell)
                if admitted.admits(ell):
                    build_witness(request)
                    continue
                with pytest.raises(UnachievableError) as refusal:
                    build_witness(request)
                assert str(refusal.value) == (
                    f"no {shape} triangle meets lattice condition {cond} at perimeter {ell}; "
                    f"achievable: {admitted.words}"
                )
                assert exclusion_report(ell, cond, shape).proven_impossible, request

    def test_incenter_not_constructible(self):
        with pytest.raises(ValueError):
            build_witness(WitnessRequest(CenterCondition.INCENTER, ShapeClass.ACUTE, 12))


class TestVerification:
    @pytest.mark.parametrize(
        "bad, message",
        [
            # obtuse, perimeter 7, centroid (2, 1/3)
            (((0, 0), (5, 0), (1, 1)), "misses lattice condition G"),
            # obtuse, centroid (0, 1), but perimeter 3
            (((0, 0), (1, 0), (-1, 3)), "has perimeter 3, wanted 7"),
        ],
    )
    def test_family_triangle_that_fails_is_refused(self, monkeypatch, bad, message):
        # the obtuse centroid family shears its acute base until it turns obtuse
        monkeypatch.setattr(cons, "sheared", lambda t, k: triangle(*bad))
        with pytest.raises(ConstructionError, match=message):
            build_witness(WitnessRequest(CenterCondition.CENTROID, ShapeClass.OBTUSE, 7))

    @pytest.mark.parametrize(
        "condition, ell, wrong",
        [
            # the explicit acute triangle of perimeter 8 has F = (2, 1)
            (CenterCondition.CIRCUMCENTER, 8, (((4, 0), (3, 3)), dict(F=(2, 2)))),
            # the explicit acute GH triangle of perimeter 9 has G = (3, 3) and H = (4, 4)
            (CenterCondition.CENTROID_AND_ORTHOCENTER, 9, (((6, 3), (3, 6)), dict(G=(3, 3), H=(4, 5)))),
        ],
    )
    def test_wrong_predicted_center_is_refused(self, monkeypatch, condition, ell, wrong):
        monkeypatch.setitem(cons._ACUTE_EXPLICIT, (condition, ell), wrong)
        with pytest.raises(ConstructionError, match="expected"):
            build_witness(WitnessRequest(condition, ShapeClass.ACUTE, ell))

    def test_each_checked_triangle_derives_its_centers_once(self, monkeypatch):
        # every triangle a family checks, inner ones included, becomes one
        # Witness; its check derives center_numerators once, for the flags
        # and the predicted centers alike
        derived, checked = [], []
        real_numerators, real_witness = centers_mod.center_numerators, cons.Witness

        def numerators(t):
            derived.append(t)
            return real_numerators(t)

        def witness(t, tag):
            checked.append(t)
            return real_witness(t, tag)

        monkeypatch.setattr(centers_mod, "center_numerators", numerators)
        monkeypatch.setattr(cons, "center_numerators", numerators)
        monkeypatch.setattr(cons, "Witness", witness)
        for (condition, shape), admitted in ACHIEVABLE.items():
            for ell in filter(admitted.admits, range(3, 61)):
                derived.clear()
                checked.clear()
                build_witness(WitnessRequest(condition, shape, ell))
                assert checked and derived == checked, (condition, shape, ell)

    def test_witnesses_are_built_without_fraction_centers(self, monkeypatch):
        # every predicted center is checked in integers: no RationalPoint is made
        def refuse(self):
            raise AssertionError("a witness built a RationalPoint")

        monkeypatch.setattr(RationalPoint, "__post_init__", refuse)
        for (condition, shape), admitted in ACHIEVABLE.items():
            for ell in filter(admitted.admits, range(3, 61)):
                build_witness(WitnessRequest(condition, shape, ell))

    def test_report_is_computed_on_first_read(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t)
            return center_report(t)

        monkeypatch.setattr(cons, "center_report", counting)
        w = build_witness(WitnessRequest(CenterCondition.ALL_THREE, ShapeClass.ACUTE, 30))
        assert calls == []
        assert w.report is w.report
        assert calls == [w.triangle]
        assert w.report == center_report(w.triangle)
