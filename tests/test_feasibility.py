import dataclasses
import gc
import itertools
import json
import math
import random

import pytest

from latticecenters import feasibility
from latticecenters.angles import solve_pi_triples
from latticecenters.centers import CenterCondition, center_report
from latticecenters.feasibility import (
    RULES,
    ExclusionCertificate,
    PerimeterSides,
    Rule,
    SideMultiset,
    exclusion_report,
    gcd_violation,
    halved_numerators,
    partitions,
    prop1_witness,
    prop2_witness,
    replay,
    subtriangle_multisets,
    tangent_sum_filter,
)
from latticecenters.lattice import ShapeClass, side_lengths
from latticecenters.search import SHAPE_ORDER, STANDARD_CONDITIONS

import oracles


def _dumps(cert: ExclusionCertificate) -> str:
    return json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))


F = CenterCondition.CIRCUMCENTER
G = CenterCondition.CENTROID
H = CenterCondition.ORTHOCENTER
GH = CenterCondition.CENTROID_AND_ORTHOCENTER


def fires(rule, s):
    return RULES[rule].test(s) is not None


class TestPartitions:
    def test_examples(self):
        assert [s.as_tuple() for s in partitions(5)] == [(1, 1, 3), (1, 2, 2)]
        assert [s.as_tuple() for s in partitions(3)] == [(1, 1, 1)]
        tens = partitions(10)
        assert len(tens) == 8
        assert SideMultiset(2, 3, 5) in tens

    def test_small_perimeter_rejected(self):
        with pytest.raises(ValueError):
            partitions(2)

    def test_sum_invariant(self):
        for ell in range(3, 30):
            for s in partitions(ell):
                assert s.perimeter == ell
                assert s.a <= s.b <= s.c


class TestFilters:
    def test_gcd_filter(self):
        assert fires(Rule.GCD_LEMMA, SideMultiset(1, 2, 2))
        assert not fires(Rule.GCD_LEMMA, SideMultiset(1, 4, 5))
        assert not fires(Rule.GCD_LEMMA, SideMultiset(2, 4, 6))  # common gcd 2

    def test_one_one_m(self):
        assert fires(Rule.ONE_ONE_M, SideMultiset(1, 1, 4))
        assert not fires(Rule.ONE_ONE_M, SideMultiset(1, 2, 3))
        assert fires(Rule.ONE_ONE_M, SideMultiset(1, 1, 9))

    def test_mid3(self):
        assert fires(Rule.MID3, SideMultiset(1, 2, 3))
        assert not fires(Rule.MID3, SideMultiset(1, 3, 6))
        assert not fires(Rule.MID3, SideMultiset(3, 3, 4))

    def test_centroid_mod3(self):
        assert fires(Rule.CENTROID_MOD3, SideMultiset(1, 1, 3))
        assert not fires(Rule.CENTROID_MOD3, SideMultiset(3, 3, 3))
        assert fires(Rule.CENTROID_MOD3, SideMultiset(1, 3, 7))
        assert not fires(Rule.CENTROID_MOD3, SideMultiset(1, 2, 4))  # none divisible

    def test_tangent_sum_halving(self):
        assert halved_numerators(SideMultiset(1, 4, 5)) == (1, 2, 5)
        assert halved_numerators(SideMultiset(2, 3, 5)) == (1, 3, 5)

    def test_subtriangle_multisets(self):
        subs = subtriangle_multisets(SideMultiset(2, 3, 5), (1, 2, 1))
        assert [s.as_tuple() for s in subs] == [(2, 2, 5), (1, 2, 2), (1, 2, 3)]
        # the first two violate the pairwise-gcd law, which kills the case
        assert gcd_violation(subs[0]) is not None
        assert gcd_violation(subs[1]) is not None

    def test_tangent_sum_filter_kills_both_ten_cases(self):
        assert tangent_sum_filter(SideMultiset(1, 4, 5)) is not None
        assert tangent_sum_filter(SideMultiset(2, 3, 5)) is not None
        # but not a realizable multiset such as (1,3,4) (perimeter 8 witness)
        assert tangent_sum_filter(SideMultiset(1, 3, 4)) is None

    def test_tangent_sum_filter_stops_at_first_survivor(self, monkeypatch):
        # (3,5,8) has four solutions and the first survives: one is drawn.
        # (4,7,11) has three, all killed: all are drawn and listed.
        drawn, iter_pi_triples = [], feasibility.iter_pi_triples

        def counting(numerators):
            for sol in iter_pi_triples(numerators):
                drawn.append(sol)
                yield sol

        monkeypatch.setattr(feasibility, "iter_pi_triples", counting)
        assert len(solve_pi_triples(halved_numerators(SideMultiset(3, 5, 8)))) == 4
        assert tangent_sum_filter(SideMultiset(3, 5, 8)) is None
        assert drawn == [(1, 1, 7)]
        drawn.clear()
        detail = tangent_sum_filter(SideMultiset(4, 7, 11))
        assert drawn == [(1, 2, 12), (2, 4, 3), (6, 1, 2)]
        assert detail == oracles.tangent_sum_filter(SideMultiset(4, 7, 11)).detail
        assert detail.startswith("solutions for (2,7,11): m=(1, 2, 12) -> sub-triangle")


class TestExclusionReports:
    def test_orthocenter_acute_boundary(self):
        impossible = {
            ell
            for ell in range(3, 31)
            if exclusion_report(ell, H, ShapeClass.ACUTE).proven_impossible
        }
        assert impossible == {3, 4, 5, 7}

    def test_orthocenter_seven_certificates(self):
        rep = exclusion_report(7, H, ShapeClass.ACUTE)
        rules = sorted(c.rule.value for c in rep.certificates)
        assert rules == ["GcdLemma", "GcdLemma", "GcdLemma", "OneOneM"]

    def test_centroid_eleven_decomposition(self):
        rep = exclusion_report(11, G, ShapeClass.ACUTE)
        assert rep.proven_impossible
        rules = [c.rule for c in rep.certificates]
        assert rules.count(Rule.GCD_LEMMA) == 8
        assert rules.count(Rule.CENTROID_MOD3) == 2

    def test_centroid_five(self):
        for shape in ShapeClass:
            assert exclusion_report(5, G, shape).proven_impossible

    def test_circumcenter_acute_boundary(self):
        impossible = {
            ell
            for ell in range(3, 31)
            if exclusion_report(ell, F, ShapeClass.ACUTE).proven_impossible
        }
        assert impossible == {3, 4, 5, 6, 7, 9, 10, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29}
        # i.e. all odd perimeters plus the even exceptions 4, 6, 10

    def test_circumcenter_ten_uses_tangent_certificates(self):
        rep = exclusion_report(10, F, ShapeClass.ACUTE)
        assert rep.proven_impossible
        tangent = [c for c in rep.certificates if c.rule is Rule.TANGENT_SUM]
        assert {c.multiset.as_tuple() for c in tangent} == {(1, 4, 5), (2, 3, 5)}

    def test_odd_circumcenter_even_perimeter_certificate(self):
        rep = exclusion_report(9, F, ShapeClass.OBTUSE)
        assert rep.proven_impossible
        assert [c.rule for c in rep.certificates] == [Rule.EVEN_PERIMETER]

    def test_gh_small_multiples(self):
        for ell in (3, 6):
            rep = exclusion_report(ell, GH, ShapeClass.ACUTE)
            assert rep.proven_impossible
        assert not exclusion_report(9, GH, ShapeClass.ACUTE).proven_impossible

    def test_right_centroid(self):
        rep = exclusion_report(12, G, ShapeClass.RIGHT)
        assert not rep.proven_impossible
        rep = exclusion_report(10, G, ShapeClass.RIGHT)
        assert rep.proven_impossible
        assert any(c.rule is Rule.RIGHT_CENTROID_MOD3 for c in rep.certificates)

    def test_incenter_has_no_exclusions(self):
        with pytest.raises(ValueError):
            exclusion_report(10, CenterCondition.INCENTER, ShapeClass.ACUTE)


class TestSharedPerimeterSides:
    def test_gcd_filter_matches_two_pass(self):
        for ell in range(3, 61):
            for s in partitions(ell):
                want = oracles.gcd_filter_two_pass(s, H)
                assert gcd_violation(s) == (None if want is None else want.detail), s
                # the TangentSum rule's verdict-only form, on the lengths in any order
                for order in itertools.permutations(s.as_tuple()):
                    assert feasibility._gcd_law_holds(*order) is (want is None), order

    def test_matches_per_multiset_chain(self):
        # every standard cell, with and without a table shared across the perimeter
        for ell in range(3, 61):
            sides = PerimeterSides(ell)
            for cond in STANDARD_CONDITIONS:
                for shape in SHAPE_ORDER:
                    want = oracles.exclusion_report_per_multiset(ell, cond, shape)
                    for got in (exclusion_report(ell, cond, shape, sides), exclusion_report(ell, cond, shape)):
                        assert got.text() == want.text(), (ell, cond, shape)
                        assert got.survivors == want.survivors, (ell, cond, shape)
                        assert got.certificates == want.certificates, (ell, cond, shape)

    @pytest.mark.slow
    def test_acute_circumcenter_cells_match_per_multiset_chain_to_150(self):
        # the TangentSum cells at every even perimeter to 150, against the
        # oracle filter that sweeps every solution before testing any; a
        # cell that is not settled prints only its survivors, so the
        # certificates are compared too
        for ell in range(4, 151, 2):
            for cond in (F, CenterCondition.ALL_THREE):
                want = oracles.exclusion_report_per_multiset(ell, cond, ShapeClass.ACUTE)
                got = exclusion_report(ell, cond, ShapeClass.ACUTE)
                assert got.text() == want.text(), (ell, cond)
                assert got.certificates == want.certificates, (ell, cond)

    def test_sides_of_another_perimeter_rejected(self):
        with pytest.raises(ValueError, match="perimeter"):
            exclusion_report(12, H, ShapeClass.ACUTE, PerimeterSides(3))

    def test_certificate_json_matches_enum_value_form(self):
        seen = 0
        for ell in range(3, 91):
            sides = PerimeterSides(ell)
            for cond in STANDARD_CONDITIONS:
                for shape in SHAPE_ORDER:
                    for cert in exclusion_report(ell, cond, shape, sides).certificates:
                        assert cert.to_json() == oracles.certificate_to_json(cert), cert.text()
                        seen += 1
        assert seen == 200_991

    def test_json_text_matches_json_dumps(self):
        seen = 0
        for ell in range(3, 91):
            sides = PerimeterSides(ell)
            for cond in STANDARD_CONDITIONS:
                for shape in SHAPE_ORDER:
                    exclusion_report(ell, cond, shape, sides)
            for cert in (c for issued in sides.issued.values() for c in issued.values()):
                assert cert.json_text() == _dumps(cert), cert.text()
                seen += 1
        assert seen == 74_951  # distinct objects behind the 200,991 certificates above

    @pytest.mark.parametrize(
        "detail", ['a "quoted" word', "back\\slash", "new\nline", "tab\there", "caf\u00e9", "\u2264 pi/2", "\U0001f600",
                   "\x00\x1f\x7f", ""],
    )
    def test_json_text_escapes_as_json_dumps(self, detail):
        cert = ExclusionCertificate(Rule.MID3, detail, F, ShapeClass.ACUTE, 10**20 + 2, SideMultiset(1, 1, 10**20))
        assert cert.json_text() == _dumps(cert)

    def test_json_text_of_a_perimeter_certificate(self):
        (cert,) = exclusion_report(7, F, ShapeClass.ACUTE).certificates
        assert (cert.rule, cert.multiset, cert.shape) == (Rule.EVEN_PERIMETER, None, None)
        assert cert.json_text() == _dumps(cert)
        assert '"multiset":null' in cert.json_text() and '"shape":"any"' in cert.json_text()

    def test_cells_of_a_perimeter_share_certificates(self):
        # G has no shape-specific rule but RightCentroidMod3: the acute and
        # obtuse reports hold the very same objects, and right adds its own
        sides = PerimeterSides(20)
        acute, obtuse, right = (exclusion_report(20, G, shape, sides) for shape in SHAPE_ORDER)
        assert acute.certificates and all(a is b for a, b in zip(acute.certificates, obtuse.certificates))
        shared = {id(c) for c in acute.certificates}
        assert any(id(c) in shared for c in right.certificates)
        assert any(c.rule is Rule.RIGHT_CENTROID_MOD3 for c in right.certificates)
        # another table issues its own
        assert exclusion_report(20, G, ShapeClass.ACUTE).certificates[0] is not acute.certificates[0]

    def test_no_table_outlives_its_report(self):
        for ell in range(3, 41):
            exclusion_report(ell, G, ShapeClass.RIGHT)
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, PerimeterSides)]


class TestCertificates:
    def test_replay_all_from_reports(self):
        cases = [
            (7, H, ShapeClass.ACUTE),
            (10, F, ShapeClass.ACUTE),
            (11, G, ShapeClass.OBTUSE),
            (9, F, ShapeClass.RIGHT),
            (6, GH, ShapeClass.RIGHT),
            (12, G, ShapeClass.RIGHT),
        ]
        seen_rules = set()
        for ell, cond, shape in cases:
            rep = exclusion_report(ell, cond, shape)
            for cert in rep.certificates:
                assert replay(cert), cert.text()
                seen_rules.add(cert.rule)
        assert Rule.TANGENT_SUM in seen_rules
        assert Rule.EVEN_PERIMETER in seen_rules

    def test_replay_rejects_wrong_data(self):
        bogus = ExclusionCertificate(
            Rule.GCD_LEMMA, "made up", H, None, 8, SideMultiset(1, 3, 4)
        )
        assert not replay(bogus)

    def test_replay_rejects_forged_certificates(self):
        # each forgery changes one field of a genuine certificate
        one_one_m = exclusion_report(6, H, ShapeClass.ACUTE).certificates[0]
        even = exclusion_report(9, F, ShapeClass.OBTUSE).certificates[0]
        mid3 = next(c for c in exclusion_report(6, F, ShapeClass.ACUTE).certificates if c.rule is Rule.MID3)
        assert (one_one_m.rule, one_one_m.multiset) == (Rule.ONE_ONE_M, SideMultiset(1, 1, 4))
        assert even.rule is Rule.EVEN_PERIMETER
        assert all(replay(c) for c in (one_one_m, even, mid3))
        forged = [
            dataclasses.replace(one_one_m, condition=G),
            dataclasses.replace(one_one_m, shape=ShapeClass.RIGHT),
            dataclasses.replace(one_one_m, perimeter=99),
            dataclasses.replace(even, condition=G),
            dataclasses.replace(mid3, detail="made up"),
            # a perimeter certificate holds no multiset, even one of its perimeter
            dataclasses.replace(even, multiset=SideMultiset(1, 2, 6)),
            # a multiset certificate holds a multiset, and one of its own perimeter
            dataclasses.replace(one_one_m, multiset=None),
            dataclasses.replace(one_one_m, multiset=SideMultiset(1, 1, 5)),
        ]
        for cert in forged:
            assert not replay(cert), cert.text()

    @pytest.mark.parametrize(
        "moved, ahead_of", [(Rule.ONE_ONE_M, Rule.GCD_LEMMA), (Rule.GCD_LEMMA, Rule.EVEN_PERIMETER)]
    )
    def test_reordered_rules_issue_the_same_certificates(self, monkeypatch, moved, ahead_of):
        # the rule table is read by each row's subject and the GcdLemma row by
        # its rule, never by a row's position in the table
        cells = [(ell, cond, shape) for ell in range(3, 25) for cond in STANDARD_CONDITIONS for shape in SHAPE_ORDER]
        want = {cell: exclusion_report(*cell) for cell in cells}
        order = [r for r in RULES if r is not moved]
        order.insert(order.index(ahead_of), moved)
        monkeypatch.setattr(feasibility, "RULES", {r: RULES[r] for r in order})
        assert list(feasibility.RULES) != list(RULES)
        for cell in cells:
            got = exclusion_report(*cell)
            assert got.proven_impossible == want[cell].proven_impossible, cell
            assert got.survivors == want[cell].survivors, cell
            assert got.certificates == want[cell].certificates, cell
            for cert in got.certificates:
                assert replay(cert), cert.text()

    def test_replay_accepts_every_reported_certificate(self):
        for ell in range(3, 41):
            for cond in STANDARD_CONDITIONS:
                for shape in SHAPE_ORDER:
                    for cert in exclusion_report(ell, cond, shape).certificates:
                        assert replay(cert), cert.text()

    def test_stable_text_form(self):
        rep = exclusion_report(5, G, ShapeClass.ACUTE)
        texts = [c.text() for c in rep.certificates]
        assert texts[0].startswith("CentroidMod3[perimeter=5 sides=(1,1,3) scope=G/any]")
        assert all("perimeter=5" in t for t in texts)

    def test_json_round_trip_fields(self):
        rep = exclusion_report(10, F, ShapeClass.ACUTE)
        for cert in rep.certificates:
            data = cert.to_json()
            assert set(data) == {"rule", "condition", "shape", "perimeter", "multiset", "detail"}


class TestFilterSoundness:
    def test_no_filtered_multiset_is_ever_realized(self):
        """Rules only kill (condition, shape, multiset) combos that no
        actual triangle attains; sweep every small orbit to confirm."""
        realized = set()
        for t in oracles.iter_canonical_triangles(9, lmax=14):
            rep = center_report(t)
            flags = oracles.report_flags(rep)
            sides = side_lengths(t)
            for cond in (F, G, H, GH, CenterCondition.ALL_THREE):
                if cond.met_by(flags):
                    realized.add((cond, rep.shape, sides))
        checked = 0
        for cond, shape, sides in realized:
            s = SideMultiset(*sides)
            for rule, row in RULES.items():
                if row.applies(cond, shape):
                    assert row.test(s.perimeter if row.on_perimeter else s) is None, (rule, cond, shape, s)
            checked += 1
        assert checked > 50


def _prop1_set(limit):
    return {n for n in range(1, limit + 1) if prop1_witness(n) is not None}


def _prop2_set(limit):
    return {n for n in range(1, limit + 1) if prop2_witness(n) is not None}


class TestPropositions:
    def test_prop1_examples(self):
        assert prop1_witness(6) == (1, 2, 3)
        assert prop1_witness(7) is None
        w = prop1_witness(12)
        assert w is not None and sum(w) == 12
        x, y, z = w
        assert len({x, y, z}) == 3
        assert math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1

    def test_prop2_examples(self):
        assert prop2_witness(3) == (1, 1, 1)
        assert prop2_witness(5) is None
        assert prop2_witness(11) is None

    def test_characterizations_to_80(self):
        assert _prop1_set(80) == {6} | set(range(8, 81))
        assert _prop2_set(80) == set(range(3, 81)) - {5, 11}

    def test_witnesses_verify(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 120)
            w1 = prop1_witness(n)
            if w1:
                x, y, z = w1
                assert x < y < z and x + y + z == n
                assert math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1
            w2 = prop2_witness(n)
            if w2:
                x, y, z = w2
                assert x <= y <= z and x + y + z == n
                assert all(v % 3 != 0 for v in w2)
                assert math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1

