import collections
import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecenters import feasibility
from latticecenters.centers import CenterCondition, center_report
from latticecenters.lattice import LatticePoint, LatticeTriangle, ShapeClass, triangle
from latticecenters.incenter import lattice_incenter
from latticecenters.search import (
    CONDITION_ORDER,
    AtlasEntry,
    MAX_BOX_RADIUS,
    SHAPE_ORDER,
    SearchConfig,
    _cells_hash,
    _checkpoint_path,
    _cone_points,
    _grid_points,
    _merge_candidates,
    _search_shard,
    atlas_from_document,
    build_atlas,
    search_witnesses,
    verify_results_table,
)

import oracles
from oracles import canonical_key, iter_canonical_triangles

F = CenterCondition.CIRCUMCENTER
G = CenterCondition.CENTROID
H = CenterCondition.ORTHOCENTER
INC = CenterCondition.INCENTER


coords = st.integers(min_value=-30, max_value=30)


def _triangles(draw_pts):
    try:
        return LatticeTriangle(*(LatticePoint(x, y) for x, y in draw_pts))
    except ValueError:
        return None


def _assert_shards_match_full_grid(config: SearchConfig, cells: frozenset) -> dict:
    # the merged candidates of 1, 2 and 3 shards equal the full-grid oracle's
    expected = _merge_candidates([oracles.search_shard_full_grid(config, 0, cells)])
    for shards in (1, 2, 3):
        sharded = dataclasses.replace(config, shard_count=shards)
        got = _merge_candidates([_search_shard(sharded, sid, cells) for sid in range(shards)])
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
    def test_search_only_reproduces_orthocenter_theorem(self):
        config = SearchConfig(box_radius=12, lmax=14, conditions=(H,))
        atlas = build_atlas(config, seed_constructions=False)
        achievable = atlas.achievable(H, ShapeClass.ACUTE)
        assert achievable == {6} | set(range(8, 15))
        for ell in (3, 4, 5, 7):
            assert atlas.entry(H, ShapeClass.ACUTE, ell).status == "impossible"
        for cell, entry in atlas.entries.items():
            if entry.status == "witness":
                assert entry.source == "search"

    def test_search_witnesses_are_verified_cells(self):
        config = SearchConfig(box_radius=8, lmax=10, conditions=(G,))
        cells = frozenset((G, ShapeClass.OBTUSE, ell) for ell in range(3, 11))
        hits = search_witnesses(config, cells)
        assert hits  # obtuse lattice-centroid triangles exist in range
        for (cond, shape, ell), t in hits.items():
            rep = center_report(t)
            assert rep.shape is shape
            assert rep.perimeter == ell
            assert cond.met_by(oracles.report_flags(rep))

    def test_incenter_hits_have_a_lattice_incenter(self):
        config = SearchConfig(box_radius=8, lmax=12, conditions=(INC,))
        cells = frozenset((INC, s, ell) for s in ShapeClass for ell in range(3, 13))
        hits = search_witnesses(config, cells)
        assert hits
        for t in hits.values():
            assert lattice_incenter(t) is not None

    @pytest.mark.parametrize(
        "box, conditions",
        [(box, CONDITION_ORDER) for box in range(2, 11)] + [(16, (INC,)), (24, (INC,))],
    )
    def test_cone_sweep_matches_full_grid(self, box, conditions):
        # every shape and reachable perimeter of the box
        lmax = 4 * box + 2
        config = SearchConfig(box_radius=box, lmax=lmax, conditions=conditions)
        cells = frozenset((c, s, ell) for c in conditions for s in SHAPE_ORDER for ell in range(3, lmax + 1))
        expected = _assert_shards_match_full_grid(config, cells)
        assert len(expected) > 10 and (box < 4 or any(cell[0] is INC for cell in expected))

    @pytest.mark.slow
    @pytest.mark.parametrize("box", range(2, 61))
    def test_incenter_sweep_matches_full_grid(self, box):
        # the incenter sweep over kernel groups against the float-screened
        # full-grid oracle, every shape and reachable perimeter of the box
        lmax = 4 * box + 2
        config = SearchConfig(box_radius=box, lmax=lmax, conditions=(INC,))
        cells = frozenset((INC, s, ell) for s in SHAPE_ORDER for ell in range(3, lmax + 1))
        expected = _assert_shards_match_full_grid(config, cells)
        assert box < 5 or expected

    def test_incenter_only_sweep_stays_in_kernel_groups(self, monkeypatch):
        import latticecenters.search as search_mod

        box = 12
        grid_x, grid_y = np.array(_grid_points(box), dtype=np.int64).T
        _, groups = search_mod._incenter_kernels(grid_x, grid_y, box)
        largest = max(map(len, groups.values()))
        assert largest < len(grid_x) // 4
        sizes = []
        real = search_mod._incenter_mask

        def recording(px, py, qx, qy, *rest):
            sizes.append(len(qx))
            return real(px, py, qx, qy, *rest)

        monkeypatch.setattr(search_mod, "_incenter_mask", recording)
        config = SearchConfig(box_radius=box, lmax=4 * box + 2, conditions=(INC,))
        cells = frozenset((INC, s, ell) for s in SHAPE_ORDER for ell in range(3, config.lmax + 1))
        assert _search_shard(config, 0, cells)
        assert sizes and max(sizes) <= largest

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

    def test_checkpoint_resume(self, tmp_path):
        config = SearchConfig(box_radius=8, lmax=10, conditions=(INC,), shard_count=3)
        fresh = build_atlas(config, checkpoint_dir=str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        lines = files[0].read_text().strip().splitlines()
        assert len(lines) == 3  # one completed record per shard
        assert all(json.loads(line)["status"] == "done" for line in lines)
        resumed = build_atlas(config, checkpoint_dir=str(tmp_path))
        assert resumed.to_json_bytes() == fresh.to_json_bytes()
        # no duplicate records were appended on the resumed run
        assert len(files[0].read_text().strip().splitlines()) == 3

    def test_checkpoint_from_another_sweep_is_not_reused(self, tmp_path):
        config = SearchConfig(box_radius=8, lmax=10, conditions=(INC,), shard_count=2)
        fresh = build_atlas(config)
        # records hashed as the full-grid sweep hashed this config (no
        # sweep tag), each claiming its shard found nothing
        payload = dict(config.document_echo(), shard_count=config.shard_count)
        grid_hash = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
        assert grid_hash != config.run_hash()
        cells_hash = _cells_hash(frozenset(fresh.entries))
        records = "".join(
            json.dumps({"config_hash": grid_hash, "cells_hash": cells_hash, "shard_id": sid,
                        "status": "done", "found": []}) + "\n"
            for sid in range(config.shard_count)
        )
        (tmp_path / f"search-{grid_hash}.jsonl").write_text(records)
        with open(_checkpoint_path(str(tmp_path), config), "a") as fh:
            fh.write(records)
        resumed = build_atlas(config, checkpoint_dir=str(tmp_path))
        assert resumed.to_json_bytes() == fresh.to_json_bytes()

    def test_torn_trailing_checkpoint_record_is_dropped(self, tmp_path):
        config = SearchConfig(box_radius=8, lmax=10, conditions=(INC,), shard_count=3)
        fresh = build_atlas(config, checkpoint_dir=str(tmp_path))
        (log,) = tmp_path.iterdir()
        records = log.read_bytes().splitlines(keepends=True)
        # lose the last shard's record, leaving half of it behind
        log.write_bytes(b"".join(records[:2]) + records[2][: len(records[2]) // 2])
        resumed = build_atlas(config, checkpoint_dir=str(tmp_path))
        assert resumed.to_json_bytes() == fresh.to_json_bytes()
        # the torn half is gone and the re-run shard's record is whole
        assert sorted(log.read_bytes().splitlines(keepends=True)) == sorted(records)

    def test_shard_count_capped_at_swept_points(self, tmp_path):
        # box 3 sweeps 9 first vertices, so shards 9..49 would all be empty
        assert len(_cone_points(3)) == 9
        one = build_atlas(SearchConfig(box_radius=3, lmax=12, conditions=(INC,)))
        config = SearchConfig(box_radius=3, lmax=12, conditions=(INC,), shard_count=50)
        many = build_atlas(config, checkpoint_dir=str(tmp_path))
        (log,) = tmp_path.iterdir()
        assert len(log.read_text().splitlines()) == 9
        assert many.to_json_bytes() == one.to_json_bytes()

    def test_corrupt_checkpoint_record_is_reported(self, tmp_path):
        config = SearchConfig(box_radius=6, lmax=8, conditions=(INC,))
        build_atlas(config, checkpoint_dir=str(tmp_path))
        (log,) = tmp_path.iterdir()
        log.write_bytes(b"{not json\n" + log.read_bytes())
        with pytest.raises(ValueError):  # only a torn last record is forgiven
            build_atlas(config, checkpoint_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda record: [],
            lambda record: {k: v for k, v in record.items() if k != "shard_id"},
            lambda record: dict(record, shard_id="0"),
            lambda record: dict(record, found=[{k: v for k, v in record["found"][0].items() if k != "q_idx"}]),
            lambda record: dict(record, found=[dict(record["found"][0], vertices=[[0, 0], [1]])]),
            lambda record: dict(record, found=[dict(record["found"][0], vertices=[[0, 0], 1, 2])]),
        ],
        ids=["not-an-object", "no-shard-id", "string-shard-id", "item-without-q-idx", "short-vertex", "int-vertex"],
    )
    def test_malformed_checkpoint_record_is_reported(self, tmp_path, edit):
        config = SearchConfig(box_radius=6, lmax=8, conditions=(INC,))
        build_atlas(config, checkpoint_dir=str(tmp_path))
        (log,) = tmp_path.iterdir()
        record = json.loads(log.read_bytes())
        assert record["found"]
        log.write_text(json.dumps(edit(record)) + "\n")
        with pytest.raises(ValueError, match="checkpoint"):
            build_atlas(config, checkpoint_dir=str(tmp_path))

    def test_incenter_screen_keeps_every_lattice_incenter(self):
        box = 8
        pts = _grid_points(box)
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

    def test_results_table_small(self):
        cells = verify_results_table(lmax=14, box_radius=10)
        assert len(cells) == 15
        assert all(c.verdict == "match" for c in cells)


def _small_document(lmax: int = 14) -> dict:
    return json.loads(build_atlas(SearchConfig(box_radius=5, lmax=lmax, conditions=(G, H))).to_json_bytes())


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
    assert doc["config"]["conditions"] == ["G", "H"]
    doc["config"]["conditions"] = "GH"  # the name of one condition, not a list of two


class TestAtlasLoaderRejects:
    @pytest.mark.parametrize(
        "forge, message",
        [
            (_forge_acute_h12, "certificates"),
            (_drop_g5, "no entry"),
            (_duplicate_entry, "twice"),
            (_add_out_of_config_perimeter, "outside"),
            (_certificates_on_witness, "carries certificates"),
            (_edit_certificate_detail, "certificates"),
            (_move_witness_to_other_condition, "does not verify for H/acute"),
            (_move_witness_to_other_shape, "does not verify for G/obtuse"),
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
            (_two_vertices, "three"),
            (_null_vertex, "three"),
            (_float_coordinate, "three"),
            (_float_perimeter, "perimeter is not int"),
            (_string_perimeter, "perimeter is not int"),
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

    def test_loaded_entries_hold_fresh_certificates(self):
        doc = _small_document()
        atlas = atlas_from_document(doc)
        entry = atlas.entry(G, ShapeClass.RIGHT, 10)
        assert entry.certificates == feasibility.exclusion_report(10, G, ShapeClass.RIGHT).certificates


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


# (config, seed_constructions, the statuses and witness sources it must show)
_WRITER_CASES = {
    "standard": (SearchConfig(box_radius=40, lmax=30), True, {"witness", "impossible", "construction"}),
    "search-only": (SearchConfig(box_radius=8, lmax=14), False, {"witness", "impossible", "open", "search"}),
    "incenter": (
        SearchConfig(box_radius=6, lmax=14, conditions=CONDITION_ORDER),
        True,
        {"witness", "impossible", "open", "construction", "search"},
    ),
    "one-condition-one-shape": (
        SearchConfig(box_radius=5, lmax=12, conditions=(H,), shapes=(ShapeClass.ACUTE,)),
        True,
        {"witness", "impossible", "construction"},
    ),
    "no-impossible-cell": (SearchConfig(box_radius=5, lmax=12, conditions=(INC,)), True, {"witness", "open", "search"}),
}


class TestAtlasWriter:
    @pytest.mark.parametrize("case", sorted(_WRITER_CASES))
    def test_bytes_match_whole_document_dumps(self, case):
        config, seed_constructions, shows = _WRITER_CASES[case]
        atlas = build_atlas(config, seed_constructions=seed_constructions)
        assert {x for e in atlas.entries.values() for x in (e.status, e.source) if x} == shows
        assert atlas.to_json_bytes() == oracles.atlas_json_bytes(atlas)

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
