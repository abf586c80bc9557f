"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Everything here is exact; no tolerances appear anywhere.
"""

import json
import math
import random
from fractions import Fraction

from latticecenters import constructions as cons
from latticecenters.angles import pi_signs, render_table, solve_pi_triples
from latticecenters.centers import CenterCondition, center_report
from latticecenters.cli import main
from latticecenters.feasibility import (
    Rule,
    SideMultiset,
    exclusion_report,
    gcd_violation,
    prop1_witness,
    prop2_witness,
    replay,
    subtriangle_multisets,
)
from latticecenters.incenter import incenter_report
from latticecenters.lattice import (
    LatticePoint,
    Parity,
    ShapeClass,
    genus,
    parity,
    side_lengths,
    triangle,
    twice_area,
)
from latticecenters.search import SHAPE_ORDER, STANDARD_CONDITIONS, SearchConfig, build_atlas

import oracles
from oracles import iter_canonical_triangles

F = CenterCondition.CIRCUMCENTER
G = CenterCondition.CENTROID
H = CenterCondition.ORTHOCENTER


def built(condition, shape, ell):
    return cons.build_witness(cons.WitnessRequest(condition, shape, ell))


def report(name: str) -> None:
    print(f"PASS  {name}")


def test_criterion_1_reference_centers_exact():
    rep = center_report(triangle((0, 0), (9, 3), (0, 6)))
    assert (rep.circumcenter.x, rep.circumcenter.y) == (4, 3)
    assert (rep.centroid.x, rep.centroid.y) == (3, 3)
    assert (rep.orthocenter.x, rep.orthocenter.y) == (1, 3)
    report("criterion 1: reference triangle has F=(4,3), G=(3,3), H=(1,3) exactly")


def test_criterion_2_orthocenter_theorem():
    for ell in [6] + list(range(8, 301)):
        w = built(H, ShapeClass.ACUTE, ell)
        assert w.report.shape is ShapeClass.ACUTE
        assert w.report.perimeter == ell
        assert w.report.orthocenter_on_lattice
    proven = {
        ell
        for ell in range(3, 31)
        if exclusion_report(ell, H, ShapeClass.ACUTE).proven_impossible
    }
    assert proven == {3, 4, 5, 7}
    report("criterion 2: acute/orthocenter witnesses for {6} u [8,300]; {3,4,5,7} impossible")


def test_criterion_3_circumcenter_theorem():
    for ell in [8] + list(range(12, 301, 2)):
        w = built(F, ShapeClass.ACUTE, ell)
        assert w.report.shape is ShapeClass.ACUTE
        assert w.report.perimeter == ell
        assert w.report.circumcenter_on_lattice
    for ell in (4, 6, 10):
        assert exclusion_report(ell, F, ShapeClass.ACUTE).proven_impossible
    # the perimeter-10 chain: angle equation solutions, then the
    # orthocenter sub-triangle argument for the single survivor
    assert solve_pi_triples((1, 2, 5)) == []
    assert solve_pi_triples((1, 3, 5)) == [(1, 2, 1)]
    subs = subtriangle_multisets(SideMultiset(2, 3, 5), (1, 2, 1))
    killed = [s.as_tuple() for s in subs if gcd_violation(s) is not None]
    assert killed == [(2, 2, 5), (1, 2, 2)]
    rep10 = exclusion_report(10, F, ShapeClass.ACUTE)
    tangent_certs = [c for c in rep10.certificates if c.rule is Rule.TANGENT_SUM]
    assert {c.multiset.as_tuple() for c in tangent_certs} == {(1, 4, 5), (2, 3, 5)}
    assert all(replay(c) for c in rep10.certificates)
    report("criterion 3: acute/circumcenter witnesses for even {8} u [12,300]; {4,6,10} impossible")


def test_criterion_4_tables_digit_for_digit():
    expected_145 = [
        ((1, 1, 1), "1.03958"),
        ((1, 1, 2), "0.981297"),
        ((1, 2, 1), "0.937167"),
        ((2, 1, 1), "0.937167"),
    ]
    expected_235 = [
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
    assert render_table((1, 2, 5)) == expected_145
    assert render_table((1, 3, 5)) == expected_235
    # the equality verdict comes from exact arithmetic, not from decimals
    assert pi_signs((1, Fraction(3, 2), 5), [(1, 1, 1)]) == [0]
    report("criterion 4: all 14 table rows render digit-for-digit; equality decided exactly")


def test_criterion_5_centroid_theorem():
    for ell in range(3, 301):
        if ell in (5, 11):
            continue
        w = cons.acute_G(ell)
        assert w.report.shape is ShapeClass.ACUTE
        assert w.report.perimeter == ell
        assert w.report.centroid_on_lattice
    for ell in (5, 11):
        rep = exclusion_report(ell, G, ShapeClass.ACUTE)
        assert rep.proven_impossible
    eleven = exclusion_report(11, G, ShapeClass.ACUTE)
    rules = [c.rule for c in eleven.certificates]
    assert rules.count(Rule.GCD_LEMMA) == 8
    assert rules.count(Rule.CENTROID_MOD3) == 2
    report("criterion 5: acute/centroid witnesses for [3,300] minus {5,11}; 5 and 11 impossible")


def test_criterion_6_summary_table():
    # every standard cell to 24 holds a witness exactly where ACHIEVABLE
    # admits its perimeter, and certificates everywhere else
    atlas = build_atlas(SearchConfig(lmax=24))
    keys = [(c, s) for c in STANDARD_CONDITIONS for s in SHAPE_ORDER]
    assert len(keys) == 15 and set(keys) == set(cons.ACHIEVABLE)
    assert set(atlas.entries) == {(c, s, ell) for c, s in keys for ell in range(3, 25)}
    for (condition, shape, ell), entry in atlas.entries.items():
        if cons.ACHIEVABLE[(condition, shape)].admits(ell):
            assert entry.status == "witness", (condition, shape, ell)
        else:
            assert entry.status == "impossible" and entry.certificates, (condition, shape, ell)
    right_g = [ell for ell in range(3, 25) if atlas.entry(G, ShapeClass.RIGHT, ell).status == "witness"]
    assert min(right_g) == 9
    report("criterion 6: all 15 summary-table cells hold as ACHIEVABLE states them up to perimeter 24")


def test_criterion_7_incenter_examples():
    rep = incenter_report(triangle((0, 0), (14, 2), (8, 8)))
    assert rep.incenter == LatticePoint(8, 4)
    assert rep.inradius_squared == 8
    rep = incenter_report(triangle((0, 0), (14, 2), (21, 51)))
    assert rep.incenter == LatticePoint(9, 7)
    assert rep.inradius_squared == 32
    assert {(p.x, p.y) for p in rep.touch_points} == {
        (Fraction(49, 5), Fraction(7, 5)),
        (Fraction(73, 5), Fraction(31, 5)),
        (Fraction(49, 13), Fraction(119, 13)),
    }
    report("criterion 7: incenter examples and touch points reproduce exactly")


def test_criterion_8_propositions_to_200():
    achievable1 = {n for n in range(1, 201) if prop1_witness(n) is not None}
    assert achievable1 == {6} | set(range(8, 201))
    achievable2 = {n for n in range(1, 201) if prop2_witness(n) is not None}
    assert achievable2 == set(range(3, 201)) - {5, 11}
    report("criterion 8: coprime-sum characterizations hold for all n <= 200")


def test_criterion_9_property_suites():
    rng = random.Random(2024)
    for _ in range(10_000):
        t = oracles.random_triangle(rng, 60)
        rep = center_report(t)  # internally asserts the altitude and
        # equidistance conditions; check the Euler relation explicitly
        assert rep.circumcenter.scaled(2) + rep.orthocenter == rep.centroid.scaled(3)
        a, b, c = side_lengths(t)
        total = math.gcd(a, b, c)
        assert math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == total

    # Pick's theorem against direct interior counts: every orbit of
    # triangles whose bounding box fits a 15x15 point grid
    pick_checked = 0
    for t in iter_canonical_triangles(14):
        assert genus(t) == oracles.interior_count(t)
        pick_checked += 1
    assert pick_checked > 5000

    f_lattice = gh_lattice = 0
    for t in iter_canonical_triangles(10):
        rep = center_report(t)
        if rep.circumcenter_on_lattice:
            f_lattice += 1
            assert rep.orthocenter_on_lattice
            assert rep.perimeter % 2 == 0
            assert twice_area(t) % 2 == 0
            for p, q in ((t.v0, t.v1), (t.v1, t.v2), (t.v2, t.v0)):
                assert parity(p - q) is not Parity.MIXED
        if rep.centroid_on_lattice and rep.orthocenter_on_lattice:
            gh_lattice += 1
            assert all(s % 3 == 0 for s in side_lengths(t))
    assert f_lattice > 20 and gh_lattice > 5
    report(
        "criterion 9: Euler/gcd on 10^4 random triangles, Pick on the 15-box, "
        f"{f_lattice} circumcenter-lattice and {gh_lattice} double-lattice orbits clean"
    )


def test_criterion_10_atlas_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    args = ["atlas", "--box", "10", "--lmax", "12", "--conditions", "F,G,H,GH,FGH,I"]
    assert main(args + ["--shards", "1", "--out", str(out1)]) == 0
    assert main(args + ["--shards", "3", "--out", str(out2)]) == 0
    capsys.readouterr()
    blob1, blob2 = out1.read_bytes(), out2.read_bytes()
    assert blob1 == blob2
    assert json.loads(blob1)["schema_version"] == 1
    report("criterion 10: atlas bytes identical across shard counts")
