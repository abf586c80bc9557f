import hashlib
import math
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


class TestAffineTable:
    def test_rows_tile_each_cells_admitted_perimeters(self):
        # every admitted perimeter the explicit table does not list is served by exactly
        # one row, that row's tag is the witness's, and no row is dead or shadowed
        assert len(cons._AFFINE) == 7 and sum(map(len, cons._AFFINE.values())) == 12
        for (condition, shape), rows in cons._AFFINE.items():
            achievable, _ = ACHIEVABLE[(condition, shape)]
            assert all(0 <= r < step for step, r, *_ in rows)
            served = set()
            for ell in filter(achievable, range(3, 401)):
                if shape is ACUTE and (condition, ell) in cons._ACUTE_EXPLICIT:
                    continue
                matches = [i for i, (step, r, *_) in enumerate(rows) if ell % step == r]
                assert len(matches) == 1, (condition, shape, ell, matches)
                assert built(condition, shape, ell).family_tag == rows[matches[0]][2]
                served.update(matches)
            assert served == set(range(len(rows))), (condition, shape)

    def test_family_witnesses_to_1000_are_pinned(self):
        # vertices and tag of every admitted perimeter <= 1000 of the seven table cells;
        # the digest was recorded from the hand-written factories the table replaced
        h = hashlib.sha256()
        for condition, shape in [(H, s) for s in ShapeClass] + [(F, s) for s in ShapeClass] + [(G, RIGHT)]:
            for ell in filter(ACHIEVABLE[(condition, shape)][0], range(3, 1001)):
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
    for (condition, shape), (achievable, _) in ACHIEVABLE.items()
    for ell in filter(achievable, range(3, 25))
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
        for (cond, shape), (achievable, expression) in ACHIEVABLE.items():
            for ell in range(3, 151):
                request = WitnessRequest(cond, shape, ell)
                if achievable(ell):
                    build_witness(request)
                    continue
                with pytest.raises(UnachievableError) as refusal:
                    build_witness(request)
                assert str(refusal.value) == (
                    f"no {shape} triangle meets lattice condition {cond} at perimeter {ell}; "
                    f"achievable: {expression}"
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
        for (condition, shape), (achievable, _) in ACHIEVABLE.items():
            for ell in filter(achievable, range(3, 61)):
                derived.clear()
                checked.clear()
                build_witness(WitnessRequest(condition, shape, ell))
                assert checked and derived == checked, (condition, shape, ell)

    def test_witnesses_are_built_without_fraction_centers(self, monkeypatch):
        # every predicted center is checked in integers: no RationalPoint is made
        def refuse(self):
            raise AssertionError("a witness built a RationalPoint")

        monkeypatch.setattr(RationalPoint, "__post_init__", refuse)
        for (condition, shape), (achievable, _) in ACHIEVABLE.items():
            for ell in filter(achievable, range(3, 61)):
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
