import hashlib
import json
import os
from fractions import Fraction

import pytest

from latticecenters.cli import main
from latticecenters.feasibility import partitions

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestBasicCommands:
    def test_length(self, capsys):
        code, out, _ = run(capsys, "length", "0,0", "9,3")
        assert code == 0 and "3" in out

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, "classify", "0,0", "9,3", "0,6", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["shape"] == "acute"
        assert data["side_lengths"] == [3, 3, 6]
        assert data["genus"] == 22

    def test_centers_reference_triangle(self, capsys):
        code, out, _ = run(capsys, "centers", "0,0", "9,3", "0,6", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["circumcenter"] == {"x": "4", "y": "3", "lattice": True}
        assert data["centroid"]["lattice"] and data["orthocenter"]["lattice"]
        assert data["incenter"] is None

    def test_centers_with_lattice_incenter(self, capsys):
        code, out, _ = run(capsys, "centers", "0,0", "14,2", "8,8", "--format", "json")
        data = json.loads(out)
        assert data["incenter"]["point"] == [8, 4]
        assert data["incenter"]["inradius_squared"] == "8"

    def test_centers_beyond_float_range(self, capsys):
        k = 10**310
        code, out, _ = run(capsys, "centers", "0,0", f"{14 * k},{2 * k}", f"{8 * k},{8 * k}")
        assert code == 0
        assert f"incenter     I = ({8 * k},{4 * k}) [lattice]" in out

    def test_unit_right_triangle(self, capsys):
        code, out, _ = run(capsys, "centers", "0,0", "1,0", "0,1", "--format", "json")
        data = json.loads(out)
        assert data["orthocenter"] == {"x": "0", "y": "0", "lattice": True}
        assert not data["centroid"]["lattice"]

    def test_degenerate_input_fails(self, capsys):
        code, _, err = run(capsys, "centers", "0,0", "1,1", "2,2")
        assert code == 1 and "error" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--center", "Q", "--shape", "acute", "--perimeter", "9"])
        assert exc.value.code == 1


class TestConstruct:
    def test_witness(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--center", "FGH", "--shape", "acute",
            "--perimeter", "12", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["vertices"] == [[0, 0], [6, 0], [3, 9]]

    def test_impossible_prints_certificates(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--center", "H", "--shape", "acute", "--perimeter", "7"
        )
        assert code == 2
        assert "OneOneM" in out and "GcdLemma" in out

    def test_right_centroid_witness(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--center", "G", "--shape", "right",
            "--perimeter", "9", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["vertices"] == [[0, 0], [3, 0], [0, 3]]


class TestAngles:
    def test_table_145(self, capsys):
        code, out, _ = run(capsys, "angles", "1", "4", "5", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["solutions"] == []
        rendered = {tuple(row["m"]): row["ratio_to_pi"] for row in data["table"]}
        assert rendered == {
            (1, 1, 1): "1.03958",
            (1, 1, 2): "0.981297",
            (1, 2, 1): "0.937167",
            (2, 1, 1): "0.937167",
        }

    def test_table_235(self, capsys):
        code, out, _ = run(capsys, "angles", "2", "3", "5", "--format", "json")
        data = json.loads(out)
        assert data["solutions"] == [[1, 2, 1]]
        by_m = {tuple(r["m"]): r for r in data["table"]}
        assert by_m[(1, 2, 1)]["ratio_to_pi"] == "1"
        assert by_m[(1, 2, 1)]["status"] == "equal"
        assert by_m[(2, 2, 1)]["ratio_to_pi"] == "0.897584"

    def test_unit_sides_have_no_solutions(self, capsys):
        code, out, _ = run(capsys, "angles", "1", "1", "1", "--format", "json")
        assert json.loads(out)["solutions"] == []

    def test_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "angles", "2", "3", "5", "--format", "csv")
        assert (code, digest(out)) == (0, "0cf8239723ed2167")

    def test_status_column_matches_exact_angle_reference(self, capsys):
        # every frontier row of every side multiset up to perimeter 16
        rows = 0
        for perimeter in range(3, 17):
            for s in partitions(perimeter):
                code, out, _ = run(capsys, "angles", *map(str, s.as_tuple()), "--format", "json")
                data = json.loads(out)
                nums = [Fraction(n) for n in data["numerators"]]
                for row in data["table"]:
                    angle = oracles.arctan_sum([n / m for n, m in zip(nums, row["m"])])
                    order = oracles.compare_to_pi(angle)
                    assert row["status"] == {-1: "less", 0: "equal", 1: "greater"}[order.value], (s, row)
                    rows += 1
        assert rows == 4724

    def test_oversized_table_exits_with_message(self, capsys):
        code, out, err = run(capsys, "angles", "40", "41", "43")
        assert code == 1 and out == ""
        assert err.startswith("error: the denominator table for numerators (20, 41, 43)")


class TestTableAndAtlas:
    def test_table_small(self, capsys):
        code, out, _ = run(capsys, "table", "--lmax", "12", "--box", "10", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert len(data["cells"]) == 15
        assert all(cell["verdict"] == "match" for cell in data["cells"])

    def test_atlas_determinism_across_shards(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
        assert run(
            capsys, "atlas", "--box", "8", "--lmax", "10",
            "--conditions", "F,G,H,GH,FGH,I", "--shards", "1", "--out", str(out1),
        )[0] == 0
        assert run(
            capsys, "atlas", "--box", "8", "--lmax", "10",
            "--conditions", "F,G,H,GH,FGH,I", "--shards", "4", "--out", str(out2),
        )[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_atlas_out_is_replaced_whole_or_not_at_all(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "atlas.json"
        out.write_bytes(b"the previous atlas\n")
        argv = ("atlas", "--box", "5", "--lmax", "8", "--conditions", "G", "--out", str(out))

        def crash(src, dst):
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            code, _, err = run(capsys, *argv)
        assert code == 1 and "no space left" in err
        assert out.read_bytes() == b"the previous atlas\n"
        assert list(tmp_path.iterdir()) == [out]
        assert run(capsys, *argv)[0] == 0
        assert out.read_bytes() == run(capsys, *argv[:-2])[1].encode()
        assert list(tmp_path.iterdir()) == [out]

    def test_atlas_out_through_a_symlink_replaces_its_target(self, capsys, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_bytes(b"the previous atlas\n")
        link.symlink_to(real)
        argv = ("atlas", "--box", "5", "--lmax", "8", "--conditions", "G")
        assert run(capsys, *argv, "--out", str(link))[0] == 0
        assert link.is_symlink()
        assert real.read_bytes() == run(capsys, *argv)[1].encode()
        assert sorted(tmp_path.iterdir()) == [link, real]

    def test_atlas_stdout_is_valid_json(self, capsys):
        code, out, _ = run(capsys, "atlas", "--box", "5", "--lmax", "8", "--conditions", "G")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["config"]["conditions"] == ["G"]

    def test_atlas_shapes_subset(self, capsys):
        code, out, _ = run(
            capsys, "atlas", "--box", "5", "--lmax", "8",
            "--conditions", "H", "--shapes", "right",
        )
        doc = json.loads(out)
        assert doc["config"]["shapes"] == ["right"]
        assert all(e["shape"] == "right" for e in doc["entries"])

    def test_atlas_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "atlas", "--box", "6", "--lmax", "10", "--format", "csv")
        assert (code, digest(out)) == (0, "4d32a48ada73ffbc")

    def test_incenter_atlas_bytes(self, capsys):
        code, out, _ = run(capsys, "atlas", "--conditions", "I", "--box", "100", "--lmax", "60")
        assert (code, digest(out)) == (0, "ce68b7383c67ec1f")

    @pytest.mark.parametrize("fmt", ["csv", "human"])
    def test_atlas_out_needs_json(self, capsys, tmp_path, fmt):
        out_file = tmp_path / "atlas.out"
        code, out, err = run(capsys, "atlas", "--box", "5", "--lmax", "8", "--format", fmt, "--out", str(out_file))
        assert (code, out) == (1, "") and "--out writes the json format only" in err
        assert not out_file.exists()

    def test_atlas_unknown_shape_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["atlas", "--shapes", "acute,foo"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "shape must be acute, right or obtuse, got 'foo'" in err
        assert "Traceback" not in err

    def test_atlas_dir_env_var_receives_checkpoints(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LC_ATLAS_DIR", str(tmp_path))
        out_file = tmp_path / "atlas.json"
        code, _, _ = run(
            capsys, "atlas", "--box", "6", "--lmax", "8",
            "--conditions", "I", "--shards", "2", "--out", str(out_file),
        )
        assert code == 0
        logs = [p for p in tmp_path.iterdir() if p.suffix == ".jsonl"]
        assert len(logs) == 1  # the shard checkpoint log landed in LC_ATLAS_DIR
        assert len(logs[0].read_text().strip().splitlines()) == 2

    def test_torn_checkpoint_record_is_skipped(self, capsys, tmp_path):
        argv = ("atlas", "--box", "6", "--lmax", "8", "--conditions", "I", "--atlas-dir", str(tmp_path))
        code, first, _ = run(capsys, *argv)
        assert code == 0
        (log,) = tmp_path.iterdir()
        record = log.read_bytes()
        with open(log, "ab") as fh:  # a crash halfway through the next record
            fh.write(record[: len(record) // 2])
        code, again, err = run(capsys, *argv)
        assert (code, again, err) == (0, first, "")
        assert log.read_bytes() == record

    @pytest.mark.parametrize("drop", [None, "shard_id"])
    def test_malformed_checkpoint_record_is_an_error(self, capsys, tmp_path, drop):
        argv = ("atlas", "--box", "6", "--lmax", "8", "--conditions", "I", "--atlas-dir", str(tmp_path))
        assert run(capsys, *argv)[0] == 0
        (log,) = tmp_path.iterdir()
        record = json.loads(log.read_text())
        # a list where an object belongs, or the record without one key
        log.write_text(json.dumps([] if drop is None else {k: v for k, v in record.items() if k != drop}) + "\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: checkpoint record")


class TestScanFigureProps:
    def test_incenter_scan_csv(self, capsys):
        code, out, _ = run(capsys, "incenter-scan", "--box", "10", "--lmax", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# empirical incenter scan: box_radius=10")
        assert lines[1] == "shape,perimeter,v0,v1,v2,inradius_squared"
        assert len(lines) >= 3  # at least one witness row

    def test_incenter_scan_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "incenter-scan", "--box", "8", "--lmax", "12")
        assert (code, digest(out)) == (0, "95d914d02774ae3d")

    def test_incenter_scan_csv_bytes_box_100(self, capsys):
        code, out, _ = run(capsys, "incenter-scan", "--box", "100", "--lmax", "60")
        assert (code, digest(out)) == (0, "43e2a087f38175ea")

    def test_scan_box_beyond_int64_range_rejected(self, capsys):
        code, out, err = run(capsys, "incenter-scan", "--box", "1000001")
        assert code == 1 and "box_radius" in err and out == ""

    def test_box_above_the_memory_cap_rejected(self, capsys):
        # refused when the config is made, before any sweep starts
        for argv in (("incenter-scan", "--box", "1001"), ("atlas", "--box", "1001", "--lmax", "8")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and "box_radius must be at most 1000" in err, argv

    def test_figures_render(self, capsys, tmp_path):
        for name in ("euler", "model", "incircle-345", "incircle"):
            out_file = tmp_path / f"{name}.svg"
            code, _, _ = run(capsys, "figure", name, "--out", str(out_file))
            assert code == 0
            body = out_file.read_text()
            assert body.startswith("<svg") and body.rstrip().endswith("</svg>")

    def test_props(self, capsys):
        code, out, _ = run(capsys, "props", "--max-n", "12", "--format", "json")
        data = json.loads(out)
        rows = {r["n"]: r for r in data["rows"]}
        assert rows[6]["distinct_coprime"] == "1 2 3"
        assert rows[7]["distinct_coprime"] == ""
        assert rows[5]["coprime_no_3"] == ""
        assert rows[11]["coprime_no_3"] == ""
        assert rows[12]["coprime_no_3"] != ""

    def test_props_csv_without_rows_is_a_header(self, capsys):
        code, out, _ = run(capsys, "props", "--max-n", "0", "--format", "csv")
        assert (code, out) == (0, "n,distinct_coprime,coprime_no_3\r\n")
