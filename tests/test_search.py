import collections
import concurrent.futures
import dataclasses
import gc
import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecenters import cli, feasibility, search
from latticecenters import constructions as cons
from latticecenters.constructions import ACHIEVABLE, ConstructionError, WitnessRequest, build_witness, check_witness
from latticecenters.centers import CenterCondition, center_report
from latticecenters.lattice import LatticePoint, LatticeTriangle, ShapeClass, triangle
from latticecenters.incenter import lattice_incenter
from latticecenters.search import (
    CONDITION_ORDER,
    AtlasEntry,
    MAX_BOX_RADIUS,
    SHAPE_ORDER,
    STANDARD_CONDITIONS,
    SearchConfig,
    _merge_candidates,
    _search_shard,
    atlas_from_document,
    build_atlas,
    search_witnesses,
)

import oracles
from oracles import canonical_key, cone_points, grid_points, iter_canonical_triangles

F = CenterCondition.CIRCUMCENTER
G = CenterCondition.CENTROID
H = CenterCondition.ORTHOCENTER
GH = CenterCondition.CENTROID_AND_ORTHOCENTER
INC = CenterCondition.INCENTER


coords = st.integers(min_value=-30, max_value=30)


def _triangles(draw_pts):
    try:
        return LatticeTriangle(*(LatticePoint(x, y) for x, y in draw_pts))
    except ValueError:
        return None


def _in_process_pool(submitted: list, run: bool = True):
    class InProcessPool:  # records each submitted shard's id, and runs the shard at once if asked
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, config, shard_id):
            submitted.append(shard_id)
            future = concurrent.futures.Future()
            future.set_result(fn(config, shard_id) if run else {})
            return future

    return InProcessPool


def _incenter_cells(config: SearchConfig) -> frozenset:
    # every incenter cell of an incenter-only config, the cells its sweep fills
    return frozenset((INC, s, ell) for s in config.shapes for ell in range(3, config.lmax + 1))


def _assert_shards_match_full_grid(config: SearchConfig) -> dict:
    # the merged candidates of 1, 2 and 3 shards equal the full-grid oracle's
    expected = _merge_candidates([oracles.search_shard_full_grid(config, 0, _incenter_cells(config))])
    for shards in (1, 2, 3):
        sharded = dataclasses.replace(config, shard_count=shards)
        got = _merge_candidates([_search_shard(sharded, sid) for sid in range(shards)])
        assert got == expected, shards
    return expected


class TestCanonicalKey:
    def test_examples(self):
        a = triangle((0, 0), (1, 0), (0, 1))
        b = triangle((0, 0), (0, 1), (1, 0))
        assert canonical_key(a) == canonical_key(b)
        rot = triangle((0, 0), (-3, 9), (-6, 0))  # 90-degree image of the reference
        assert canonical_key(triangle((0, 0), (9, 3), (0, 6))) == canonical_key(rot)
        assert canonical_key(triangle((0, 0), (1, 0), (0, 2))) == canonical_key(
            triangle((0, 0), (2, 0), (0, 1))
        )

    @settings(max_examples=200)
    @given(
        st.tuples(coords, coords),
        st.tuples(coords, coords),
        st.tuples(coords, coords),
        st.sampled_from(oracles.D4),
        st.permutations([0, 1, 2]),
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    )
    def test_invariance(self, a, b, c, mat, perm, shift):
        t = _triangles([a, b, c])
        if t is None:
            return
        ma, mb, mc, md = mat
        vs = [t.vertices[i] for i in perm]
        moved = LatticeTriangle(
            *(
                LatticePoint(ma * v.x + mb * v.y + shift[0], mc * v.x + md * v.y + shift[1])
                for v in vs
            )
        )
        assert canonical_key(moved) == canonical_key(t)

    def test_orbit_invariants_are_constant(self):
        from latticecenters.lattice import side_lengths

        rng = random.Random(19)
        for _ in range(100):
            t = oracles.random_triangle(rng, 15)
            rep = center_report(t)
            mat = oracles.D4[rng.randrange(8)]
            image = LatticeTriangle(
                *(LatticePoint(mat[0] * v.x + mat[1] * v.y, mat[2] * v.x + mat[3] * v.y) for v in t.vertices)
            )
            rep2 = center_report(image)
            assert side_lengths(t) == side_lengths(image)
            assert rep.shape is rep2.shape
            for flag in ("circumcenter_on_lattice", "centroid_on_lattice", "orthocenter_on_lattice"):
                assert getattr(rep, flag) == getattr(rep2, flag)


class TestOrbitIteration:
    def test_matches_naive_partition(self):
        # naive: every triangle with vertices in the (W+1)x(W+1) grid,
        # partitioned into orbits through explicit symmetry signatures
        W = 4
        pts = [(x, y) for x in range(W + 1) for y in range(W + 1)]
        signatures = set()
        keys = set()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                for k in range(j + 1, len(pts)):
                    (x0, y0), (x1, y1), (x2, y2) = pts[i], pts[j], pts[k]
                    if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) == 0:
                        continue
                    t = triangle(pts[i], pts[j], pts[k])
                    signatures.add(oracles.orbit_signature(t))
                    keys.add(canonical_key(t))
        assert len(signatures) == len(keys)

        listed = list(iter_canonical_triangles(W))
        listed_keys = [canonical_key(t) for t in listed]
        assert len(listed) == len(set(listed_keys)) == len(signatures)
        assert set(listed_keys) == keys

    def test_perimeter_cap(self):
        from latticecenters.lattice import lattice_perimeter

        capped = list(iter_canonical_triangles(5, lmax=5))
        assert all(lattice_perimeter(t) <= 5 for t in capped)
        full = [t for t in iter_canonical_triangles(5) if lattice_perimeter(t) <= 5]
        assert len(capped) == len(full)


class TestSearch:
    @pytest.mark.parametrize("box, lmax", [(12, 16), pytest.param(40, 24, marks=pytest.mark.slow)])
    def test_full_grid_oracle_finds_exactly_the_achievable_cells(self, box, lmax):
        # the search no longer sweeps F, G or H; the full-grid oracle still
        # checks the theorem by brute force: a standard cell has a witness
        # in the box exactly where ACHIEVABLE admits its perimeter
        config = SearchConfig(box_radius=box, lmax=lmax)
        cells = frozenset(itertools.product(STANDARD_CONDITIONS, SHAPE_ORDER, range(3, lmax + 1)))
        found = oracles.search_shard_full_grid(config, 0, cells)
        assert set(found) == {cell for cell in cells if ACHIEVABLE[cell[:2]].admits(cell[2])}
        for (cond, shape, ell), (_, _, px, py, qx, qy) in found.items():
            rep = center_report(triangle((0, 0), (px, py), (qx, qy)))
            assert rep.shape is shape and rep.perimeter == ell and cond.met_by(oracles.report_flags(rep))

    def test_search_only_reproduces_orthocenter_theorem(self):
        # acute-H by brute force alone, with no construction: the full grid
        # of box 12 holds a witness exactly at 6 and 8..14, and the atlas
        # proves the other perimeters impossible
        config = SearchConfig(box_radius=12, lmax=14, conditions=(H,))
        cells = frozenset((H, ShapeClass.ACUTE, ell) for ell in range(3, 15))
        found = oracles.search_shard_full_grid(config, 0, cells)
        assert {ell for _, _, ell in found} == {6} | set(range(8, 15))
        atlas = build_atlas(config)
        built = {ell for (_, shape, ell), e in atlas.entries.items() if shape is ShapeClass.ACUTE and e.status == "witness"}
        assert built == {6} | set(range(8, 15))
        for ell in (3, 4, 5, 7):
            assert atlas.entry(H, ShapeClass.ACUTE, ell).status == "impossible"

    def test_search_witnesses_are_verified_cells(self):
        config = SearchConfig(box_radius=8, lmax=10, conditions=(INC,))
        hits = search_witnesses(config)
        assert hits  # lattice-incenter triangles exist in range
        for (cond, shape, ell), (t, _) in hits.items():
            rep = center_report(t)
            assert cond is INC
            assert rep.shape is shape
            assert rep.perimeter == ell
            assert lattice_incenter(t) is not None

    def test_incenter_hits_have_a_lattice_incenter(self):
        config = SearchConfig(box_radius=8, lmax=12, conditions=(INC,))
        hits = search_witnesses(config)
        assert hits
        for t, _ in hits.values():
            assert lattice_incenter(t) is not None

    def test_search_hits_come_with_the_incenter_their_check_located(self, monkeypatch):
        # every hit is returned as (triangle, incenter), the incenter being
        # what the one shared check returned for that triangle and cell
        checked = {}

        def recording(t, *cell):
            checked[cell] = (t, check_witness(t, *cell))
            return checked[cell][1]

        monkeypatch.setattr(search, "check_witness", recording)
        hits = search_witnesses(SearchConfig(box_radius=8, lmax=14, conditions=(INC,)))
        assert hits and hits == checked
        for (cond, shape, ell), (t, center) in hits.items():
            assert center == lattice_incenter(t) is not None
            assert check_witness(t, cond, shape, ell) == center

    @pytest.mark.parametrize(
        "box, conditions",
        [(box, (INC,)) for box in range(2, 11)] + [(16, (INC,)), (24, (INC,))],
    )
    def test_cone_sweep_matches_full_grid(self, box, conditions):
        # every shape and reachable perimeter of the box
        lmax = 4 * box + 2
        config = SearchConfig(box_radius=box, lmax=lmax, conditions=conditions)
        expected = _assert_shards_match_full_grid(config)
        assert box < 4 or expected  # no lattice-incenter triangle fits a box of radius 3

    @pytest.mark.slow
    @pytest.mark.parametrize("box", range(2, 61))
    def test_incenter_sweep_matches_full_grid(self, box):
        # the incenter sweep over kernel groups against the float-screened
        # full-grid oracle, every shape and reachable perimeter of the box
        lmax = 4 * box + 2
        config = SearchConfig(box_radius=box, lmax=lmax, conditions=(INC,))
        expected = _assert_shards_match_full_grid(config)
        assert box < 5 or expected

    def test_incenter_only_sweep_stays_in_kernel_groups(self, monkeypatch):
        import latticecenters.search as search_mod

        # every pair tested has |P|^2 and |Q|^2 of one squarefree part, and
        # no more pairs are tested than the swept first vertices' groups hold
        box = 12
        grid_x, grid_y = np.array(grid_points(box), dtype=np.int64).T
        sq_root, kernel = search_mod._incenter_kernels(grid_x, grid_y, box)
        group_size = collections.Counter(kernel.tolist())
        assert max(group_size.values()) < len(grid_x) // 4
        swept_pairs = sum(group_size[int(kernel[(box - x) * (2 * box + 1) + box - y])] for x, y in cone_points(box))
        # every pair the first stage tests; the second stage tests only pairs
        # that passed the first, each once
        pairs, passed, second = [], set(), []
        first_stage, second_stage = search_mod._squarefree_match, search_mod._incenter_divides

        def recording_first(px, py, qx, qy, *rest):
            mask = first_stage(px, py, qx, qy, *rest)
            tested = list(zip(px.tolist(), py.tolist(), qx.tolist(), qy.tolist()))
            pairs.extend(tested)
            passed.update(pair for pair, ok in zip(tested, mask.tolist()) if ok)
            return mask

        def recording_second(px, py, qx, qy, *rest):
            second.extend(zip(px.tolist(), py.tolist(), qx.tolist(), qy.tolist()))
            return second_stage(px, py, qx, qy, *rest)

        def squarefree(n):
            return n // int(sq_root[n]) ** 2

        monkeypatch.setattr(search_mod, "_squarefree_match", recording_first)
        monkeypatch.setattr(search_mod, "_incenter_divides", recording_second)
        config = SearchConfig(box_radius=box, lmax=4 * box + 2, conditions=(INC,))
        assert _search_shard(config, 0)
        assert 0 < len(pairs) <= swept_pairs
        assert all(squarefree(px * px + py * py) == squarefree(qx * qx + qy * qy) for px, py, qx, qy in pairs)
        assert 0 < len(second) == len(set(second)) == len(passed) < len(pairs)
        assert set(second) == passed

    @pytest.mark.parametrize("box", range(6, 13))
    def test_chunk_edges_do_not_change_the_sweep(self, monkeypatch, box):
        # chunks of 1, 7 and 64 pairs end both inside and between first
        # vertices' kernel groups; every shard matches its default-chunk
        # sweep, and the merged shards match the full-grid oracle
        import latticecenters.search as search_mod

        lmax = 4 * box + 2
        config = SearchConfig(box_radius=box, lmax=lmax, conditions=(INC,))
        expected = _merge_candidates([oracles.search_shard_full_grid(config, 0, _incenter_cells(config))])
        configs = [dataclasses.replace(config, shard_count=shards) for shards in (1, 2, 3)]
        default = [[_search_shard(c, sid) for sid in range(c.shard_count)] for c in configs]
        for chunk in (1, 7, 64):
            monkeypatch.setattr(search_mod, "_CHUNK_PAIRS", chunk)
            for c, want in zip(configs, default):
                got = [_search_shard(c, sid) for sid in range(c.shard_count)]
                assert got == want, (chunk, c.shard_count)
                assert _merge_candidates(got) == expected, (chunk, c.shard_count)

    def test_incenter_search_hits_are_located_once(self, monkeypatch):
        import latticecenters.incenter as incenter_mod

        located = []

        def counting(t):
            center = lattice_incenter(t)
            if center is not None:
                located.append(t)
            return center

        monkeypatch.setattr(incenter_mod, "lattice_incenter", counting)
        atlas = build_atlas(SearchConfig(box_radius=8, lmax=12, conditions=(INC,)))
        witnesses = [e.witness for e in atlas.entries.values() if e.status == "witness"]
        assert witnesses
        assert sorted(map(str, located)) == sorted(map(str, witnesses))

    def test_shard_counts_agree(self):
        base = None
        for shards in (1, 2, 5):
            config = SearchConfig(box_radius=9, lmax=12, conditions=(F, G, H, INC), shard_count=shards)
            atlas = build_atlas(config)
            blob = atlas.to_json_bytes()
            if base is None:
                base = blob
            assert blob == base

    def test_shard_count_capped_at_swept_points(self, monkeypatch):
        import latticecenters.search as search_mod

        # box 3 sweeps 9 first vertices, so shards 9..49 would all be empty
        assert len(cone_points(3)) == 9
        one = build_atlas(SearchConfig(box_radius=3, lmax=12, conditions=(INC,)))
        submitted = []
        monkeypatch.setattr(search_mod, "ProcessPoolExecutor", _in_process_pool(submitted))
        many = build_atlas(SearchConfig(box_radius=3, lmax=12, conditions=(INC,), shard_count=50))
        assert submitted == list(range(9))
        assert many.to_json_bytes() == one.to_json_bytes()

    def test_shard_cap_counts_the_cone(self, monkeypatch):
        # the cap's closed form B (B + 3) / 2 is the number of swept first
        # vertices: a pool that records the shards and runs none gets one
        # shard per cone point
        import latticecenters.search as search_mod

        for box in range(2, 61):
            submitted = []
            monkeypatch.setattr(search_mod, "ProcessPoolExecutor", _in_process_pool(submitted, run=False))
            config = SearchConfig(box_radius=box, lmax=12, conditions=(INC,), shard_count=4000)
            assert search_witnesses(config) == {}
            assert submitted == list(range(len(cone_points(box)))), box

    def test_incenter_screen_keeps_every_lattice_incenter(self):
        box = 8
        pts = grid_points(box)
        qx = np.array([q[0] for q in pts], dtype=np.int64)
        qy = np.array([q[1] for q in pts], dtype=np.int64)
        hits = screened = 0
        for px, py in pts:
            if (px, py) == (0, 0):
                continue
            mask = oracles.incenter_screen(px, py, qx, qy, box)
            for i, (x, y) in enumerate(pts):
                if px * y - py * x == 0:
                    continue
                screened += bool(mask[i])
                if lattice_incenter(triangle((0, 0), (px, py), (x, y))) is not None:
                    hits += 1
                    assert mask[i], ((px, py), (x, y))
        # no incenter this small comes within the tolerance of a lattice
        # point without being one, so the screen passes exactly the hits
        assert hits == screened > 0

    def test_incenter_screen_at_the_largest_box(self):
        # lattice-incenter triangles scaled to fill a box of radius 10^6, each
        # anchored at every vertex in turn and under every D4 symmetry
        box = 10**6
        bases = (((0, 0), (14, 2), (8, 8)), ((0, 0), (14, 2), (21, 51)), ((0, 0), (4, 0), (4, 3)))
        checked = 0
        for base in bases:
            k = box // (2 * max(abs(c) for v in base for c in v))
            for a, b, c, d in oracles.D4:
                verts = [(k * (a * x + b * y), k * (c * x + d * y)) for x, y in base]
                for ox, oy in verts:
                    (px, py), (qx, qy) = [(x - ox, y - oy) for x, y in verts if (x, y) != (ox, oy)]
                    assert lattice_incenter(triangle((0, 0), (px, py), (qx, qy))) is not None
                    mask = oracles.incenter_screen(px, py, np.array([qx]), np.array([qy]), box)
                    assert mask[0], ((px, py), (qx, qy))
                    checked += 1
        assert checked == 3 * 8 * 3

    def test_incenter_mask_at_the_largest_box(self):
        # the sweep's two int64 incenter stages, composed, against
        # lattice_incenter at B = MAX_BOX_RADIUS, on random corner-heavy
        # pairs and on planted ones: triangles with commensurable sides,
        # scaled to span the box (so that some incenters are lattice points
        # and some are not), under D4 and anchored at each vertex.  A Q
        # outside P's kernel group never has a lattice incenter; the sweep
        # skips it untested.
        import latticecenters.search as search_mod

        box = MAX_BOX_RADIUS
        sq_root, _ = search_mod._incenter_kernels(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), box)
        rng = random.Random(box)
        corner = (-box, 1 - box, box - 1, box)
        pairs = [
            tuple(rng.choice(corner) if rng.random() < 0.5 else rng.randint(-box, box) for _ in range(4))
            for _ in range(2000)
        ]
        # incenters (8, 4), (9, 7), (3, 1) and (3, 3/2), the last a lattice point at even scales only
        bases = (((0, 0), (14, 2), (8, 8)), ((0, 0), (14, 2), (21, 51)), ((0, 0), (4, 0), (4, 3)), ((0, 0), (6, 0), (3, 4)))
        for base in bases:
            span = max(abs(c) for v in base for w in base for c in (v[0] - w[0], v[1] - w[1]))
            for k in (box // span, box // span - 1):
                for a, b, c, d in oracles.D4:
                    verts = [(k * (a * x + b * y), k * (c * x + d * y)) for x, y in base]
                    for ox, oy in verts:
                        (px, py), (qx, qy) = [(x - ox, y - oy) for x, y in verts if (x, y) != (ox, oy)]
                        pairs.append((px, py, qx, qy))

        def kernel(n):
            return n // int(sq_root[n]) ** 2

        seen = collections.Counter()
        for px, py, qx, qy in pairs:
            if px * qy - py * qx == 0:
                continue
            want = lattice_incenter(triangle((0, 0), (px, py), (qx, qy))) is not None
            if kernel(px * px + py * py) != kernel(qx * qx + qy * qy):
                assert not want, (px, py, qx, qy)
                continue
            q = np.array([qx], dtype=np.int64), np.array([qy], dtype=np.int64)
            first = bool(search_mod._squarefree_match(px, py, *q, kernel(px * px + py * py), sq_root)[0])
            assert (first and bool(search_mod._incenter_divides(px, py, *q, sq_root)[0])) is want, (px, py, qx, qy)
            seen[want] += 1
            seen["first stage refused"] += not first
        assert seen[True] >= 3 * 8 * 3 * 2 and seen[False] >= 8 * 3, seen
        assert 0 < seen["first stage refused"] < seen[False], seen  # each stage refuses some pair

    def test_box_radius_limit(self):
        SearchConfig(box_radius=MAX_BOX_RADIUS)
        with pytest.raises(ValueError):
            SearchConfig(box_radius=MAX_BOX_RADIUS + 1)

    def test_atlas_monotone_in_box_radius(self):
        small = build_atlas(SearchConfig(box_radius=6, lmax=10, conditions=(INC,)))
        large = build_atlas(SearchConfig(box_radius=10, lmax=10, conditions=(INC,)))
        for cell, entry in small.entries.items():
            if entry.status == "witness":
                assert large.entries[cell].status == "witness"
            assert entry.status != "impossible"  # incenter cells are never impossible


class TestAtlas:
    def test_constructions_seed_every_standard_cell(self):
        config = SearchConfig(box_radius=5, lmax=18)
        atlas = build_atlas(config)
        assert len(atlas.entries) == 5 * 3 * 16
        for entry in atlas.entries.values():
            assert entry.status in ("witness", "impossible")
            if entry.status == "witness":
                assert entry.source == "construction"

    def test_document_round_trip_reverifies(self):
        config = SearchConfig(box_radius=6, lmax=12, conditions=(F, G, INC))
        atlas = build_atlas(config)
        doc = json.loads(atlas.to_json_bytes())
        assert doc["schema_version"] == 1
        assert "shard_count" not in doc["config"]
        back = atlas_from_document(doc)
        assert back.to_json_bytes() == atlas.to_json_bytes()

    def test_tampered_document_rejected(self):
        config = SearchConfig(box_radius=5, lmax=8, conditions=(G,))
        doc = json.loads(build_atlas(config).to_json_bytes())
        for entry in doc["entries"]:
            if entry["status"] == "witness":
                entry["witness_vertices"][1] = [7, 7]  # no longer that perimeter
                break
        with pytest.raises(ValueError):
            atlas_from_document(doc)

    def test_unknown_status_rejected(self):
        doc = json.loads(build_atlas(SearchConfig(box_radius=5, lmax=8, conditions=(G,))).to_json_bytes())
        doc["entries"][0]["status"] = "bogus"
        with pytest.raises(ValueError, match="bogus"):
            atlas_from_document(doc)

    @pytest.mark.parametrize("key", ["config", "entries"])
    def test_missing_section_is_a_value_error(self, key):
        doc = json.loads(build_atlas(SearchConfig(box_radius=5, lmax=8, conditions=(G,))).to_json_bytes())
        del doc[key]
        with pytest.raises(ValueError, match=key):
            atlas_from_document(doc)

    def test_only_incenter_cells_reach_the_search(self, monkeypatch):
        import latticecenters.search as search_mod

        # build_atlas searches once, with its config, and fills every I cell
        # from the hits; a config without I never sweeps
        passed, swept = [], []

        def spy(config):
            passed.append(config)
            return search_witnesses(config)

        def sweep(config, shard_id):
            swept.append(config)
            return _search_shard(config, shard_id)

        monkeypatch.setattr(search_mod, "search_witnesses", spy)
        monkeypatch.setattr(search_mod, "_search_shard", sweep)
        config = SearchConfig(box_radius=6, lmax=60, conditions=CONDITION_ORDER)
        atlas = build_atlas(config)
        assert passed == swept == [config]
        incenter = [e for cell, e in atlas.entries.items() if cell[0] is INC]
        assert len(incenter) == 3 * 58
        assert {e.status for e in incenter} == {"witness", "open"}
        passed.clear()
        swept.clear()
        without_incenter = SearchConfig(box_radius=6, lmax=60, conditions=STANDARD_CONDITIONS)
        build_atlas(without_incenter)
        assert passed == [without_incenter] and swept == []

    def test_unsettled_standard_cell_raises(self, monkeypatch):
        # acute-H is unachievable at 7: a report that leaves it unsettled
        # contradicts ACHIEVABLE
        import latticecenters.search as search_mod

        def unsettled(perimeter, condition, shape, sides=None):
            report = feasibility.exclusion_report(perimeter, condition, shape, sides)
            if (perimeter, condition, shape) == (7, H, ShapeClass.ACUTE):
                return dataclasses.replace(report, proven_impossible=False, certificates=())
            return report

        monkeypatch.setattr(search_mod, "exclusion_report", unsettled)
        with pytest.raises(ArithmeticError, match="H/acute/7"):
            build_atlas(SearchConfig(box_radius=5, lmax=10, conditions=(G, H)))

    def test_refused_cell_without_certificates_fails_alike_in_build_and_construct(self, monkeypatch):
        # acute-H refusing 8, which no certificate settles: the build and
        # construct decide the cell through resolve_cell, and fail alike
        admitted = ACHIEVABLE[(H, ShapeClass.ACUTE)]
        monkeypatch.setitem(ACHIEVABLE, (H, ShapeClass.ACUTE), dataclasses.replace(admitted, exceptions=(7, 8)))
        with pytest.raises(ArithmeticError) as built:
            build_atlas(SearchConfig(lmax=8, conditions=(H,)))
        with pytest.raises(ArithmeticError) as constructed:
            cli.main(["construct", "--center", "H", "--shape", "acute", "--perimeter", "8"])
        assert str(built.value) == str(constructed.value) == "cell H/acute/8 is neither built nor excluded"


def _small_document(lmax: int = 14) -> dict:
    return json.loads(build_atlas(SearchConfig(box_radius=5, lmax=lmax, conditions=(G, H, INC))).to_json_bytes())


def _find(doc: dict, condition: CenterCondition, shape: ShapeClass, perimeter: int) -> dict:
    return next(
        e for e in doc["entries"]
        if (e["condition"], e["shape"], e["perimeter"]) == (condition.value, shape.value, perimeter)
    )


def _forge_acute_h12(doc: dict) -> None:
    # the perimeter-3 certificate replays on its own data, yet says nothing about 12
    entry = _find(doc, H, ShapeClass.ACUTE, 12)
    entry.clear()
    entry.update(condition="H", shape="acute", perimeter=12, status="impossible",
                 certificates=_find(doc, H, ShapeClass.ACUTE, 3)["certificates"])


def _drop_g5(doc: dict) -> None:
    doc["entries"] = [e for e in doc["entries"] if (e["condition"], e["perimeter"]) != ("G", 5)]


def _duplicate_entry(doc: dict) -> None:
    doc["entries"].append(dict(doc["entries"][7]))


def _add_out_of_config_perimeter(doc: dict) -> None:
    ell = doc["config"]["lmax"] + 2  # not a multiple of 3, so G/right is impossible
    report = feasibility.exclusion_report(ell, G, ShapeClass.RIGHT)
    assert report.proven_impossible
    doc["entries"].append(oracles.entry_to_json(AtlasEntry(G, ShapeClass.RIGHT, ell, "impossible",
                                                           certificates=report.certificates)))


def _certificates_on_witness(doc: dict) -> None:
    _find(doc, H, ShapeClass.ACUTE, 12)["certificates"] = _find(doc, H, ShapeClass.ACUTE, 3)["certificates"]


def _edit_certificate_detail(doc: dict) -> None:
    _find(doc, G, ShapeClass.RIGHT, 10)["certificates"][0]["detail"] = "because I say so"


def _move_witness(doc: dict, to: tuple[CenterCondition, ShapeClass]) -> None:
    # a G/acute witness moved to a cell of the same perimeter that it misses
    for ell in range(3, doc["config"]["lmax"] + 1):
        source, target = _find(doc, G, ShapeClass.ACUTE, ell), _find(doc, *to, ell)
        if source["status"] == target["status"] == "witness":
            t = triangle(*map(tuple, source["witness_vertices"]))
            rep = center_report(t)
            if rep.shape is not to[1] or not to[0].met_by(oracles.report_flags(rep)):
                target["witness_vertices"] = source["witness_vertices"]
                return
    raise AssertionError("no witness to move")


def _move_witness_to_other_condition(doc: dict) -> None:
    _move_witness(doc, (H, ShapeClass.ACUTE))


def _move_witness_to_other_shape(doc: dict) -> None:
    _move_witness(doc, (G, ShapeClass.OBTUSE))


def _open_acute_h8(doc: dict) -> None:
    # the builder never leaves a standard cell open: acute-H is achievable at 8
    entry = _find(doc, H, ShapeClass.ACUTE, 8)
    entry.clear()
    entry.update(condition="H", shape="acute", perimeter=8, status="open")


def _search_source_on_construction_cell(doc: dict) -> None:
    # ACHIEVABLE has a row for acute-H, so its witnesses are constructions
    _find(doc, H, ShapeClass.ACUTE, 12)["source"] = "search"


def _construction_source_on_incenter_cell(doc: dict) -> None:
    # ACHIEVABLE has no incenter row: only the search fills those cells
    next(e for e in doc["entries"] if e["condition"] == "I" and e["status"] == "witness")["source"] = "construction"


def _two_vertices(doc: dict) -> None:
    _find(doc, H, ShapeClass.ACUTE, 12)["witness_vertices"].pop()


def _null_vertex(doc: dict) -> None:
    _find(doc, H, ShapeClass.ACUTE, 12)["witness_vertices"][1] = None


def _float_coordinate(doc: dict) -> None:
    _find(doc, H, ShapeClass.ACUTE, 12)["witness_vertices"][1][0] += 0.5


def _float_perimeter(doc: dict) -> None:
    _find(doc, G, ShapeClass.RIGHT, 5)["perimeter"] = 5.5  # int() would read it as cell 5


def _string_perimeter(doc: dict) -> None:
    _find(doc, G, ShapeClass.RIGHT, 5)["perimeter"] = "5"


def _string_lmax(doc: dict) -> None:
    doc["config"]["lmax"] = str(doc["config"]["lmax"])


def _bool_schema_version(doc: dict) -> None:
    doc["schema_version"] = True  # equal to 1, yet no version number


def _string_conditions(doc: dict) -> None:
    assert doc["config"]["conditions"] == ["G", "H", "I"]
    doc["config"]["conditions"] = "GH"  # the name of one condition, not a list


class TestAtlasLoaderRejects:
    # each id names the forgery; the loader refuses it by naming the first key
    # that differs from the rebuilt atlas, or the entry count
    _REBUILT = "is not what its config builds:"

    @pytest.mark.parametrize(
        "forge, message",
        [
            pytest.param(_forge_acute_h12, rf"H/acute/12 {_REBUILT} 'witness_vertices' is missing",
                         id="_forge_acute_h12-certificates"),
            pytest.param(_drop_g5, "105 entries, not the 108 cells", id="_drop_g5-no entry"),
            pytest.param(_duplicate_entry, "109 entries, not the 108 cells", id="_duplicate_entry-twice"),
            pytest.param(_add_out_of_config_perimeter, "109 entries, not the 108 cells",
                         id="_add_out_of_config_perimeter-outside"),
            pytest.param(_certificates_on_witness, rf"H/acute/12 {_REBUILT} 'certificates' differ",
                         id="_certificates_on_witness-carries certificates"),
            (_edit_certificate_detail, "certificates"),
            pytest.param(_move_witness_to_other_condition, rf"H/acute/\d+ {_REBUILT} 'witness_vertices' is \[\[",
                         id="_move_witness_to_other_condition-does not verify for H/acute"),
            pytest.param(_move_witness_to_other_shape, rf"G/obtuse/\d+ {_REBUILT} 'witness_vertices' is \[\[",
                         id="_move_witness_to_other_shape-does not verify for G/obtuse"),
            pytest.param(_open_acute_h8, rf"H/acute/8 {_REBUILT} 'witness_vertices' is missing",
                         id="_open_acute_h8-a construction or certificates decide its cell"),
            pytest.param(_search_source_on_construction_cell, rf"H/acute/12 {_REBUILT} 'source' is 'search'",
                         id="_search_source_on_construction_cell-has source 'search', not 'construction'"),
            pytest.param(_construction_source_on_incenter_cell, rf"I/\w+/\d+ {_REBUILT} 'source' is 'construction'",
                         id="_construction_source_on_incenter_cell-has source 'construction', not 'search'"),
        ],
    )
    def test_forged_document(self, forge, message):
        doc = _small_document()
        atlas_from_document(doc)
        forge(doc)
        with pytest.raises(ValueError, match=message):
            atlas_from_document(doc)

    @pytest.mark.parametrize("key", ["box_radius", "lmax", "conditions", "shapes"])
    def test_config_key_missing(self, key):
        doc = _small_document()
        del doc["config"][key]
        with pytest.raises(ValueError, match=key):
            atlas_from_document(doc)

    @pytest.mark.parametrize("key", ["condition", "shape", "perimeter", "status"])
    def test_entry_key_missing(self, key):
        doc = _small_document()
        del doc["entries"][3][key]
        with pytest.raises(ValueError, match=key):
            atlas_from_document(doc)

    def test_witness_without_vertices(self):
        doc = _small_document()
        del _find(doc, H, ShapeClass.ACUTE, 12)["witness_vertices"]
        with pytest.raises(ValueError, match="witness_vertices"):
            atlas_from_document(doc)

    @pytest.mark.parametrize(
        "forge, message",
        [
            pytest.param(_two_vertices, r"'witness_vertices' is \[\[0, 0\], \[6, 0\]\]$", id="_two_vertices-three"),
            pytest.param(_null_vertex, r"'witness_vertices' is \[\[0, 0\], None, ", id="_null_vertex-three"),
            pytest.param(_float_coordinate, r"'witness_vertices' is \[\[0, 0\], \[6.5, 0\], ",
                         id="_float_coordinate-three"),
            pytest.param(_float_perimeter, r"G/right/5 .* 'perimeter' is 5.5$",
                         id="_float_perimeter-perimeter is not int"),
            pytest.param(_string_perimeter, r"G/right/5 .* 'perimeter' is '5'$",
                         id="_string_perimeter-perimeter is not int"),
            (_string_lmax, "lmax is not int"),
            (_string_conditions, "conditions is not list"),
            (_bool_schema_version, "schema_version is not int"),
        ],
    )
    def test_malformed_value(self, forge, message):
        doc = _small_document()
        forge(doc)
        with pytest.raises(ValueError, match=message):
            atlas_from_document(doc)

    def test_open_cells_hiding_the_search_witnesses(self):
        # an I atlas with every witness rewritten as open: only the sweep tells
        doc = json.loads(build_atlas(SearchConfig(box_radius=6, lmax=14, conditions=(INC,))).to_json_bytes())
        hidden = [e for e in doc["entries"] if e["status"] == "witness"]
        assert hidden
        for entry in hidden:
            del entry["witness_vertices"], entry["source"]
            entry["status"] = "open"
        with pytest.raises(ValueError, match=rf"I/\w+/\d+ {self._REBUILT} 'witness_vertices' is missing"):
            atlas_from_document(doc)

    @pytest.mark.parametrize("condition, shift", [(INC, (5, 7)), (H, (3, -2))])
    def test_translated_witness(self, condition, shift):
        # the translate still meets its cell, but no family builds it, and
        # the sweep reports only triangles with a vertex at the origin
        doc = _small_document()
        entry = next(e for e in doc["entries"] if (e["condition"], e["shape"], e["status"])
                     == (condition.value, "right", "witness"))
        moved = triangle(*map(tuple, entry["witness_vertices"])).translated(LatticePoint(*shift))
        check_witness(moved, condition, ShapeClass.RIGHT, entry["perimeter"])
        entry["witness_vertices"] = [list(v.as_tuple()) for v in moved.vertices]
        cell = f"{condition}/right/{entry['perimeter']}"
        refusal = f"{cell} {self._REBUILT} 'witness_vertices' is {entry['witness_vertices']}"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            atlas_from_document(doc)

    @pytest.mark.parametrize("conditions", [["G", "G", "H", "I"], ["H", "G", "I"]])
    def test_config_that_is_not_its_echo(self, conditions):
        # the same SearchConfig, written as the writer never writes it
        doc = _small_document()
        doc["config"]["conditions"] = conditions
        with pytest.raises(ValueError, match=re.escape(f"atlas config {self._REBUILT} 'conditions' is {conditions}")):
            atlas_from_document(doc)

    def test_entry_count_is_checked_before_anything_is_built(self, monkeypatch):
        # lmax 10**6 with the entries of lmax 14: refused with no cell resolved
        calls = collections.Counter()

        def counted(name, original):
            def counting(*args):
                calls[name] += 1
                return original(*args)
            return counting

        for owner, name in ((search, "resolve_cell"), (search, "build_witness"), (cons, "build_witness")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        doc = _small_document()
        atlas_from_document(doc)
        assert calls["resolve_cell"] and calls["build_witness"]  # the counters see a load
        calls.clear()
        doc["config"]["lmax"] = 10**6
        with pytest.raises(ValueError, match="has 108 entries, not the 8999982 cells of its config"):
            atlas_from_document(doc)
        assert not calls

    def test_loaded_entries_hold_fresh_certificates(self):
        doc = _small_document()
        atlas = atlas_from_document(doc)
        entry = atlas.entry(G, ShapeClass.RIGHT, 10)
        assert entry.certificates == feasibility.exclusion_report(10, G, ShapeClass.RIGHT).certificates


# forged witness -> (vertices, the cell it is checked against, the shared
# reason it is refused for); each fails that cell in exactly one way
_FORGED = {
    # obtuse, the tripled obtuse H witness of perimeter 3: G and H on the lattice
    "wrong shape": (((0, 0), (3, 0), (-3, 3)), (GH, ShapeClass.ACUTE, 9), "is obtuse, wanted acute"),
    # the explicit acute GH triangle of perimeter 12
    "wrong perimeter": (((0, 0), (6, 0), (3, 9)), (GH, ShapeClass.ACUTE, 9), "has perimeter 12, wanted 9"),
    # the acute H witness of perimeter 9: H = (2, 2), G = (7/3, 1)
    "G off the lattice": (((0, 0), (5, 0), (2, 3)), (GH, ShapeClass.ACUTE, 9), "misses lattice condition GH"),
    # the same triangle, sides 5, sqrt(13) and sqrt(18)
    "no lattice incenter": (((0, 0), (5, 0), (2, 3)), (INC, ShapeClass.ACUTE, 9), "misses lattice condition I"),
}


def _refused_by_family(monkeypatch, verts, cell):
    # the explicit table's triangle for the cell, with no predicted center
    monkeypatch.setitem(cons._ACUTE_EXPLICIT, (cell[0], cell[2]), (verts[1:], {}))
    with pytest.raises(ConstructionError) as refusal:
        build_witness(WitnessRequest(*cell))
    return refusal.value


def _refused_by_search(monkeypatch, verts, cell):
    # the sweep's only hit is the forged triangle
    (px, py), (qx, qy) = verts[1:]
    monkeypatch.setattr(search, "_search_shard", lambda config, shard_id: {cell: (0, 0, px, py, qx, qy)})
    with pytest.raises(ValueError) as refusal:
        search_witnesses(SearchConfig(box_radius=5, lmax=12, conditions=(INC,)))
    return refusal.value


def _refused_by_loader(monkeypatch, verts, cell):
    doc = json.loads(build_atlas(SearchConfig(box_radius=5, lmax=12, conditions=(GH, INC))).to_json_bytes())
    source = "search" if cell[0] is INC else "construction"
    _find(doc, *cell).update(status="witness", source=source, witness_vertices=[list(v) for v in verts])
    with pytest.raises(ValueError) as refusal:
        atlas_from_document(doc)
    return refusal.value


@pytest.mark.parametrize(
    "refuse, forgery",
    [
        pytest.param(refuse, forgery, id=f"{refuse.__name__}-{forgery}")
        for refuse in (_refused_by_family, _refused_by_search, _refused_by_loader)
        for forgery, (_, cell, _) in _FORGED.items()
        if not (refuse is _refused_by_family and cell[0] is INC)  # no family builds an incenter cell
    ],
)
def test_forged_witness_is_refused_alike_everywhere(monkeypatch, refuse, forgery):
    # families, the search and the loader refuse a forged witness through
    # the one shared check, each with its reason; a family leads with its tag
    verts, (condition, shape, perimeter), reason = _FORGED[forgery]
    message = str(refuse(monkeypatch, verts, (condition, shape, perimeter)))
    if refuse is _refused_by_loader:
        # the loader checks no witness: it rebuilds the atlas and names the key that differs
        where = f"atlas entry {condition}/{shape}/{perimeter}"
        assert message == f"{where} is not what its config builds: 'witness_vertices' is {[list(v) for v in verts]}"
        return
    shared = f"witness {triangle(*verts)} does not verify for {condition}/{shape}/{perimeter}: it {reason}"
    assert message.endswith(shared)
    assert message.startswith("centroid+orthocenter/explicit: witness" if refuse is _refused_by_family else "witness")


def test_atlas_shares_each_perimeters_sides(monkeypatch):
    # one build and one load at lmax 30: each perimeter that needs its side
    # multisets enumerates them once, and gcd-tests each multiset once, not
    # once per cell (the TangentSum rule's own sub-triangle tests aside)
    calls = collections.Counter()
    gcd_tests = collections.Counter()
    partitions, gcd_violation = feasibility.partitions, feasibility.gcd_violation
    tangent_sum_filter = feasibility.tangent_sum_filter
    in_tangent_sum = []

    def counting(perimeter):
        calls[perimeter] += 1
        return partitions(perimeter)

    def counting_gcd(s):
        if not in_tangent_sum:
            gcd_tests[s.perimeter] += 1
        return gcd_violation(s)

    def tangent_sum(s):
        in_tangent_sum.append(s)
        try:
            return tangent_sum_filter(s)
        finally:
            in_tangent_sum.pop()

    monkeypatch.setattr(feasibility, "partitions", counting)
    monkeypatch.setattr(feasibility, "gcd_violation", counting_gcd)
    def per_cell(s):
        raise AssertionError("pairwise-gcd rule tested per cell")

    monkeypatch.setattr(feasibility, "tangent_sum_filter", tangent_sum)
    gcd_row = feasibility.RULES[feasibility.Rule.GCD_LEMMA]
    monkeypatch.setitem(feasibility.RULES, feasibility.Rule.GCD_LEMMA, dataclasses.replace(gcd_row, test=per_cell))
    atlas = build_atlas(SearchConfig(box_radius=5, lmax=30))
    needed = {
        cell[2] for cell, e in atlas.entries.items()
        if e.status == "impossible" and e.certificates[0].multiset is not None
    }
    assert len(needed) >= 20
    once_each = {ell: len(partitions(ell)) for ell in needed}
    assert calls == {ell: 1 for ell in needed}
    assert gcd_tests == once_each
    calls.clear()
    gcd_tests.clear()
    doc = json.loads(atlas.to_json_bytes())
    atlas_from_document(doc)
    assert calls == {ell: 1 for ell in needed}
    assert gcd_tests == once_each


def test_each_certificate_is_issued_once_per_perimeter():
    # a build and the load of its document: one object per
    # (perimeter, condition, rule, multiset), however many cells hold it
    atlas = build_atlas(SearchConfig(box_radius=5, lmax=30))
    for loaded in (atlas, atlas_from_document(json.loads(atlas.to_json_bytes()))):
        held = [c for e in loaded.entries.values() for c in e.certificates]
        objects = collections.defaultdict(set)
        for c in held:
            objects[(c.perimeter, c.condition, c.rule, c.multiset)].add(id(c))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len(objects) < len(held)  # cells do share


# (config, the statuses and witness sources it must show)
_WRITER_CASES = {
    "standard": (SearchConfig(box_radius=40, lmax=30), {"witness", "impossible", "construction"}),
    "incenter": (
        SearchConfig(box_radius=6, lmax=14, conditions=CONDITION_ORDER),
        {"witness", "impossible", "open", "construction", "search"},
    ),
    "one-condition-one-shape": (
        SearchConfig(box_radius=5, lmax=12, conditions=(H,), shapes=(ShapeClass.ACUTE,)),
        {"witness", "impossible", "construction"},
    ),
    "no-impossible-cell": (SearchConfig(box_radius=5, lmax=12, conditions=(INC,)), {"witness", "open", "search"}),
}


class TestAtlasWriter:
    @pytest.mark.parametrize("case", sorted(_WRITER_CASES))
    def test_bytes_match_whole_document_dumps(self, case):
        config, shows = _WRITER_CASES[case]
        atlas = build_atlas(config)
        assert {x for e in atlas.entries.values() for x in (e.status, e.source) if x} == shows
        assert atlas.to_json_bytes() == oracles.atlas_json_bytes(atlas)

    @pytest.mark.parametrize("case", sorted(_WRITER_CASES))
    def test_loaded_document_writes_its_bytes(self, case):
        blob = build_atlas(_WRITER_CASES[case][0]).to_json_bytes()
        assert atlas_from_document(json.loads(blob)).to_json_bytes() == blob

    def test_certificates_become_dicts_once_per_object_on_load(self, monkeypatch):
        # writing uses json_text only; loading compares the claims of every
        # cell against one to_json() dict per shared certificate object
        atlas = build_atlas(SearchConfig(box_radius=5, lmax=30))
        calls = collections.Counter()
        to_json = feasibility.ExclusionCertificate.to_json

        def counting(cert):
            calls[id(cert)] += 1
            return to_json(cert)

        monkeypatch.setattr(feasibility.ExclusionCertificate, "to_json", counting)
        blob = atlas.to_json_bytes()
        assert not calls
        loaded = atlas_from_document(json.loads(blob))
        held = [c for e in loaded.entries.values() for c in e.certificates]
        assert set(calls) == {id(c) for c in held}
        assert set(calls.values()) == {1}
        assert len(calls) < len(held)


@pytest.fixture(scope="module")
def box8_atlas_bytes():
    return build_atlas(SearchConfig(box_radius=8, lmax=30)).to_json_bytes()


class TestAtlasLoadCollector:
    # the loader pauses cyclic collection and puts back the caller's state
    def test_load_starts_no_collection(self, box8_atlas_bytes):
        doc = json.loads(box8_atlas_bytes)
        phases = []

        def record(phase, info):
            phases.append(phase)

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            atlas_from_document(doc)
        finally:
            gc.callbacks.remove(record)
        assert "start" not in phases

    def test_collection_enabled_after_a_load_and_after_a_rejected_one(self, box8_atlas_bytes):
        assert gc.isenabled()
        atlas_from_document(json.loads(box8_atlas_bytes))
        assert gc.isenabled()
        doc = json.loads(box8_atlas_bytes)
        impossible = [e for e in doc["entries"] if e["status"] == "impossible"]
        impossible[-1]["certificates"][0]["detail"] += " (edited)"
        with pytest.raises(ValueError, match="certificates"):
            atlas_from_document(doc)
        assert gc.isenabled()

    def test_collection_stays_disabled_for_a_caller_that_disabled_it(self, box8_atlas_bytes):
        doc = json.loads(box8_atlas_bytes)
        gc.disable()
        try:
            atlas_from_document(doc)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestAtlasBuildCollector:
    # the build pauses cyclic collection too, and puts back the caller's state
    config = SearchConfig(box_radius=8, lmax=30)

    def test_build_starts_no_collection(self):
        phases = []

        def record(phase, info):
            phases.append(phase)

        assert gc.isenabled()
        gc.callbacks.append(record)
        try:
            build_atlas(self.config)
        finally:
            gc.callbacks.remove(record)
        assert "start" not in phases

    def test_collection_enabled_after_a_build_and_after_a_failed_one(self, monkeypatch):
        assert gc.isenabled()
        build_atlas(self.config)
        assert gc.isenabled()

        def unbuilt(request):
            raise search.UnachievableError("no construction")

        monkeypatch.setattr(search, "build_witness", unbuilt)
        with pytest.raises(ArithmeticError, match="neither built nor excluded"):
            build_atlas(self.config)
        assert gc.isenabled()

    def test_collection_stays_disabled_for_a_caller_that_disabled_it(self):
        gc.disable()
        try:
            build_atlas(self.config)
            assert not gc.isenabled()
        finally:
            gc.enable()
