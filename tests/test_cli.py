import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latticecenters
from latticecenters import cli, feasibility
from latticecenters.cli import main
from latticecenters.constructions import ACHIEVABLE
from latticecenters.feasibility import partitions
from latticecenters.search import SHAPE_ORDER, STANDARD_CONDITIONS

import oracles

SRC = str(Path(latticecenters.__file__).resolve().parents[1])


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

    def test_centers_output_bytes(self, capsys):
        # triangles with a lattice incenter, whose touch points the json output lists
        pinned = {
            ("0,0", "14,2", "8,8"): ("20141154a658799f", "a54d813888e5dd7e", "11c90605bb233b6f"),
            ("0,0", "14,2", "21,51"): ("a6440e521e4cf931", "9dd3030a874703a2", "caa1234e1cff4375"),
            ("0,0", "4,0", "4,3"): ("dc2a0639b538a9b5", "8555f89c0ef1d881", "5c912d843ecae114"),
        }
        for verts, wants in pinned.items():
            for fmt, want in zip(("human", "json", "csv"), wants):
                code, out, _ = run(capsys, "centers", *verts, "--format", fmt)
                assert (code, digest(out)) == (0, want), (verts, fmt)

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

    def test_module_docstring_lists_exactly_the_exit_codes(self):
        # "Exit codes: 0 success/witness, 2 ..., 1 usage or data error." against the EXIT_* constants
        listed = " ".join(cli.__doc__.split()).split("Exit codes: ", 1)[1].split(".", 1)[0]
        codes = [int(item.split(" ", 1)[0]) for item in listed.split(", ")]
        assert sorted(codes) == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))

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

    def test_output_bytes_of_every_standard_cell_to_40(self, capsys):
        # exit code and stdout of every standard cell with perimeter 3..40, in every format
        h = hashlib.sha256()
        for c in STANDARD_CONDITIONS:
            for s in SHAPE_ORDER:
                for ell in range(3, 41):
                    for fmt in ("human", "json", "csv"):
                        argv = ("construct", "--center", c.value, "--shape", s.value, "--perimeter", str(ell))
                        code, out, _ = run(capsys, *argv, "--format", fmt)
                        h.update(f"{code}\n{out}".encode())
        assert h.hexdigest()[:16] == "22db76f7142e8791"

    def test_perimeter_cap_refuses_before_listing_side_multisets(self, capsys, monkeypatch):
        def no_listing(perimeter):
            raise AssertionError(f"listed the side multisets of perimeter {perimeter}")

        monkeypatch.setattr(feasibility, "partitions", no_listing)
        # unachievable, and only a full listing could settle it
        code, out, err = run(capsys, "construct", "--center", "G", "--shape", "right", "--perimeter", "100000")
        assert (code, out) == (1, "")
        assert err == "error: perimeter 100000 is over 2000, too many side multisets to list\n"
        # a construction or the perimeter alone still answers at any size
        code, _, err = run(capsys, "construct", "--center", "G", "--shape", "acute", "--perimeter", "1000000")
        assert (code, err) == (0, "")
        code, out, _ = run(capsys, "construct", "--center", "F", "--shape", "acute", "--perimeter", "100001")
        assert code == 2 and "EvenPerimeter" in out


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

    def test_huge_sides_refused_before_solving(self):
        # the row limit is checked before the solver sweeps a range that grows as l^3
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "latticecenters.cli", "angles", "30000", "30000", "30000"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: the denominator table for numerators (15000, 15000, 15000)")
        assert "would exceed 50000 rows" in done.stderr

    def test_output_bytes(self, capsys):
        # integer numerators print as the Fraction numerators did
        pinned = {
            ("2", "3", "5", "human"): "9159a2b0df8fa0eb",
            ("2", "3", "5", "json"): "7655b9acd07c3a43",
            ("4", "6", "8", "human"): "509e39bc151cf9e4",
            ("4", "6", "8", "json"): "2527b8a3b7230ab2",
        }
        for (*sides, fmt), want in pinned.items():
            code, out, _ = run(capsys, "angles", *sides, "--format", fmt)
            assert (code, digest(out)) == (0, want), (sides, fmt)


class TestTableAndAtlas:
    def test_table_small(self, capsys):
        for fmt, want in (("human", "77ebb51da28a074b"), ("json", "4387b685679589c8"), ("csv", "d36349c42be67abd")):
            code, out, _ = run(capsys, "table", "--format", fmt)
            assert (code, digest(out)) == (0, want), fmt
        code, out, _ = run(capsys, "table", "--lmax", "12", "--format", "json")
        data = json.loads(out)
        assert (code, digest(out), sorted(data)) == (0, "595fc366ad753305", ["cells", "lmax"])
        assert [(c["condition"], c["shape"], c["achievable"]) for c in data["cells"]] == [
            (c.value, s.value, ACHIEVABLE[(c, s)][1]) for c in STANDARD_CONDITIONS for s in SHAPE_ORDER
        ]

    def test_repeated_main_calls_share_one_parser(self, capsys):
        # a usage error leaves nothing behind in the parser main reuses
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["table", "--box", "40"])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (1, "")
            assert err.endswith("latticecenters: error: unrecognized arguments: --box 40\n")
            code, out, err = run(capsys, "table")
            assert (code, digest(out), err) == (0, "77ebb51da28a074b", "")
            code, out, _ = run(capsys, "incenter-scan", "--box", "20", "--lmax", "20")
            assert (code, digest(out)) == (0, "5c215f72525ef176")

    def test_atlas_output_bytes(self, capsys):
        mixed = ("atlas", "--box", "8", "--lmax", "10", "--conditions", "F,G,H,GH,FGH,I", "--shards")
        for argv, want in (
            (("atlas",), "37635f35eedd52d2"),
            (("atlas", "--lmax", "90", "--box", "40"), "4f67e04e88248195"),
            ((*mixed, "1"), "d59b2d2dcc95205b"),
            ((*mixed, "2"), "d59b2d2dcc95205b"),
        ):
            code, out, _ = run(capsys, *argv)
            assert (code, digest(out)) == (0, want), argv

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

    def test_atlas_empty_out_is_refused(self, capsys, monkeypatch):
        def build(config):
            raise AssertionError("nothing is built for an empty --out")

        monkeypatch.setattr(cli, "build_atlas", build)
        code, out, err = run(capsys, "atlas", "--box", "5", "--lmax", "8", "--conditions", "G", "--out", "")
        assert (code, out) == (1, "") and "--out needs a file name" in err

    def test_atlas_unknown_shape_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["atlas", "--shapes", "acute,foo"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "shape must be acute, right or obtuse, got 'foo'" in err
        assert "Traceback" not in err

    @staticmethod
    def _assert_unrecognized(capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["atlas", "table"])
    def test_atlas_dir_flag_is_a_usage_error(self, capsys, tmp_path, command):
        target = tmp_path / "D"
        self._assert_unrecognized(capsys, [command, "--atlas-dir", str(target)], "--atlas-dir")
        assert not target.exists()

    def test_table_box_flag_is_a_usage_error(self, capsys):
        # constructions and certificates settle every standard cell, so no box reaches table
        self._assert_unrecognized(capsys, ["table", "--box", "40"], "--box 40")

    def test_lc_atlas_dir_is_not_read(self, capsys, tmp_path, monkeypatch):
        argv = ("atlas", "--conditions", "I", "--box", "6", "--lmax", "8", "--shards", "2")
        plain = run(capsys, *argv)
        assert plain[0] == 0
        monkeypatch.setenv("LC_ATLAS_DIR", str(tmp_path))
        assert run(capsys, *argv) == plain
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("box, lmax, want", [("40", "30", "1f04fdd1a5c3096d"), ("60", "48", "e69c639a38fd2d5b")])
    def test_incenter_scan_csv_bytes_pinned(self, capsys, box, lmax, want):
        code, out, _ = run(capsys, "incenter-scan", "--box", box, "--lmax", lmax, "--format", "csv")
        assert (code, digest(out)) == (0, want)

    def test_scan_box_beyond_int64_range_rejected(self, capsys):
        code, out, err = run(capsys, "incenter-scan", "--box", "1000001")
        assert code == 1 and "box_radius" in err and out == ""

    def test_box_above_the_memory_cap_rejected(self, capsys):
        # refused when the config is made, before any sweep starts
        for argv in (("incenter-scan", "--box", "1001"), ("atlas", "--box", "1001", "--lmax", "8")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and "box_radius must be at most 1000" in err, argv

    def test_figures_render(self, capsys, tmp_path):
        # the incircle figures mark the touch points; their bytes are pinned
        pinned = {"incircle-345": "e145f695ae691c36", "incircle": "deaaa5f8f91acf7b"}
        for name in ("euler", "model", "incircle-345", "incircle"):
            out_file = tmp_path / f"{name}.svg"
            code, _, _ = run(capsys, "figure", name, "--out", str(out_file))
            assert code == 0
            body = out_file.read_text()
            assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
            if name in pinned:
                assert digest(body) == pinned[name], name

    def test_props(self, capsys):
        code, out, _ = run(capsys, "props", "--max-n", "12", "--format", "json")
        data = json.loads(out)
        rows = {r["n"]: r for r in data["rows"]}
        assert rows[6]["distinct_coprime"] == "1 2 3"
        assert rows[7]["distinct_coprime"] == ""
        assert rows[5]["coprime_no_3"] == ""
        assert rows[11]["coprime_no_3"] == ""
        assert rows[12]["coprime_no_3"] != ""

    def test_props_over_the_cap_is_refused_before_any_row(self, capsys, monkeypatch):
        def witness(n):
            raise AssertionError("no row is built over the cap")

        monkeypatch.setattr(cli, "prop1_witness", witness)
        code, out, err = run(capsys, "props", "--max-n", str(cli.PROPS_MAX_N + 1))
        assert (code, out) == (1, "")
        assert err == f"error: --max-n must be at most {cli.PROPS_MAX_N}, got {cli.PROPS_MAX_N + 1}\n"

    def test_props_csv_without_rows_is_a_header(self, capsys):
        code, out, _ = run(capsys, "props", "--max-n", "0", "--format", "csv")
        assert (code, out) == (0, "n,distinct_coprime,coprime_no_3\r\n")


class TestParser:
    def _subcommands(self, parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    def test_narrow_parser_holds_its_command_alone(self):
        assert self._subcommands(cli.build_parser("incenter-scan")) == ["incenter-scan"]
        assert self._subcommands(cli.build_parser()) == list(cli._COMMANDS)
        assert len(cli._COMMANDS) == 10

    def test_top_level_help_bytes(self, capsys, monkeypatch):
        # the description is the module docstring without its last paragraph
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert (exc.value.code, digest(capsys.readouterr().out)) == (0, "f5e8a397773d8dc3")

    def test_main_with_sys_argv_takes_the_narrow_path(self, capsys, monkeypatch):
        built, real = [], cli.build_parser

        def recording(command=None):
            built.append(command)
            return real(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        monkeypatch.setattr(sys, "argv", ["latticecenters", "length", "0,0", "9,3"])
        assert (main(), capsys.readouterr().out) == (0, "lattice length = 3\n")
        assert built == ["length"]

    def test_every_argv_matches_the_full_parser(self, capsys, monkeypatch, tmp_path):
        # stdout, stderr and exit code of main, which parses with the named
        # command's parser alone, against main parsing every argv with the full parser
        svg = str(tmp_path / "model.svg")
        argvs = [
            ["length", "0,0", "9,3"],
            ["classify", "0,0", "9,3", "0,6", "--format", "json"],
            ["centers", "0,0", "14,2", "8,8"],
            ["construct", "--center", "H", "--shape", "acute", "--perimeter", "12"],
            ["construct", "--center", "H", "--shape", "acute", "--perimeter", "7"],
            ["angles", "1", "4", "5", "--format", "csv"],
            ["table", "--lmax", "8"],
            ["atlas", "--box", "4", "--lmax", "6", "--format", "csv"],
            ["incenter-scan", "--box", "8", "--lmax", "12"],
            ["figure", "model", "--out", svg],
            ["props", "--max-n", "8"],
            ["-h"],
            *([name, "-h"] for name in cli._COMMANDS),
            [],
            ["nope"],
            ["--format", "json", "table"],
            ["table", "--lmax", "x"],
            ["construct", "--center", "Q", "--shape", "acute", "--perimeter", "9"],
            ["table", "extra"],
            ["props", "--bad"],
            ["incenter-scan", "--box", "8", "--lmax"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        narrow = [outcome(argv) for argv in argvs]
        full = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
        assert [outcome(argv) for argv in argvs] == narrow
        assert {code for code, _, _ in narrow} == {0, 1, 2}
        assert sum("unrecognized arguments" in err for _, _, err in narrow) == 2
