"""Command-line front end.

Subcommands: length, centers, classify, construct, angles, table, atlas,
incenter-scan, figure, props.  Every numeric flag is an integer and
vertices parse as "x,y" pairs; there are no floating-point inputs
anywhere.  Exit codes: 0 success/witness, 2 proven impossible
(certificates printed), 1 usage or data error.

Each call builds only the parser of the command it names (build_parser),
not all ten.
"""

from __future__ import annotations

# first: with numpy loaded before argparse, a process's first incenter-scan call ran ~7% faster (2-core x86)
from .search import STANDARD_CONDITIONS, SearchConfig, _cell_sort_key, build_atlas, incenter_scan, resolve_cell

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Sequence

from .angles import pi_signs, render_table, solve_pi_triples
from .centers import CenterCondition, RationalPoint, center_report
from .constructions import ACHIEVABLE
from .feasibility import ExclusionReport, SideMultiset, halved_numerators, prop1_witness, prop2_witness
from .figures import FIGURES, render_figure
from .incenter import incenter_report, lattice_incenter
from .lattice import (
    DegenerateTriangleError,
    LatticePoint,
    LatticeTriangle,
    ShapeClass,
    classify_shape,
    genus,
    lattice_length,
    lattice_perimeter,
    side_lengths,
    twice_area,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IMPOSSIBLE = 2

# Largest `props --max-n`; larger values are refused before any row is
# built.  The rows grow linearly: 10^5 of them take about 1 s and 160 MB
# as JSON on a 2-core x86 host, and 10^7 would need about 5 GB.
PROPS_MAX_N = 100_000

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _point(text: str) -> LatticePoint:
    try:
        x, y = text.split(",")
        return LatticePoint(int(x), int(y))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(f"expected a lattice point 'x,y', got {text!r}")


def _point_json(p: RationalPoint) -> dict:
    return {"x": str(p.x), "y": str(p.y), "lattice": p.is_lattice()}


def _emit(args, payload: dict, human: str, rows: list[dict] | None = None, fields: Sequence[str] = ()) -> None:
    """Print the payload as JSON, the human text, or CSV: the rows under the
    given field names, or without rows the flattened payload as one row."""
    fmt = getattr(args, "format", "human")
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        if rows is None:
            rows = [_flatten(payload)]
            fields = list(rows[0])
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        print(human)


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def _triangle(args) -> LatticeTriangle:
    return LatticeTriangle(*args.vertices)


def cmd_length(args) -> int:
    value = lattice_length(args.points[0], args.points[1])
    payload = {
        "p": list(args.points[0].as_tuple()),
        "q": list(args.points[1].as_tuple()),
        "lattice_length": value,
    }
    _emit(args, payload, f"lattice length = {value}")
    return EXIT_OK


def cmd_classify(args) -> int:
    t = _triangle(args)
    shape = classify_shape(t)
    sides = side_lengths(t)
    payload = {
        "vertices": [list(v.as_tuple()) for v in t.vertices],
        "shape": shape.value,
        "side_lengths": list(sides),
        "perimeter": lattice_perimeter(t),
        "twice_area": twice_area(t),
        "genus": genus(t),
    }
    human = (
        f"{t}: {shape}, sides {sides}, perimeter {payload['perimeter']}, "
        f"twice area {payload['twice_area']}, genus {payload['genus']}"
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_centers(args) -> int:
    t = _triangle(args)
    rep = center_report(t)
    inc = lattice_incenter(t)
    payload = {
        "vertices": [list(v.as_tuple()) for v in t.vertices],
        "circumcenter": _point_json(rep.circumcenter),
        "centroid": _point_json(rep.centroid),
        "orthocenter": _point_json(rep.orthocenter),
        "shape": rep.shape.value,
        "perimeter": rep.perimeter,
        "incenter": None,
    }
    lines = [
        f"triangle {t}: {rep.shape}, lattice perimeter {rep.perimeter}",
        f"  circumcenter F = {rep.circumcenter}" + (" [lattice]" if rep.circumcenter_on_lattice else ""),
        f"  centroid     G = {rep.centroid}" + (" [lattice]" if rep.centroid_on_lattice else ""),
        f"  orthocenter  H = {rep.orthocenter}" + (" [lattice]" if rep.orthocenter_on_lattice else ""),
    ]
    if inc is not None:
        irep = incenter_report(t, inc)
        payload["incenter"] = {
            "point": list(inc.as_tuple()),
            "inradius_squared": str(irep.inradius_squared),
            "touch_points": [[str(p.x), str(p.y)] for p in irep.touch_points],
            "touch_on_lattice": list(irep.touch_on_lattice),
        }
        lines.append(
            f"  incenter     I = ({inc.x},{inc.y}) [lattice], inradius^2 = {irep.inradius_squared}"
        )
    else:
        lines.append("  incenter     I : not a lattice point")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_construct(args) -> int:
    condition = CenterCondition(args.center)
    shape = args.shape
    cell = {"condition": condition.value, "shape": shape.value, "perimeter": args.perimeter}
    # a standard cell: ACHIEVABLE has its row, so it resolves to a witness or a report
    resolved = resolve_cell(condition, shape, args.perimeter)
    if isinstance(resolved, ExclusionReport):
        payload = {"status": "impossible", **cell, "certificates": [c.to_json() for c in resolved.certificates]}
        _emit(args, payload, resolved.text())
        return EXIT_IMPOSSIBLE
    rep = resolved.report
    payload = {
        "status": "witness",
        **cell,
        "vertices": [list(v.as_tuple()) for v in resolved.triangle.vertices],
        "family": resolved.family_tag,
        "circumcenter": _point_json(rep.circumcenter),
        "centroid": _point_json(rep.centroid),
        "orthocenter": _point_json(rep.orthocenter),
    }
    human = (
        f"{resolved.triangle}  [{resolved.family_tag}]\n"
        f"  F = {rep.circumcenter}, G = {rep.centroid}, H = {rep.orthocenter}"
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_angles(args) -> int:
    sides = SideMultiset.of(args.lengths[0], args.lengths[1], args.lengths[2])
    numerators = halved_numerators(sides)
    # the table's row limit refuses oversized input before the solver runs;
    # the solutions lie inside any table that fits, so the solve is bounded
    table = render_table(numerators)
    solutions = solve_pi_triples(numerators)
    denominators = [row for row, _ in table]
    signs = pi_signs(numerators, denominators)
    status = {row: ("less", "equal", "greater")[sign + 1] for row, sign in zip(denominators, signs)}
    payload = {
        "side_lengths": list(sides.as_tuple()),
        "numerators": [str(n) for n in numerators],
        "solutions": [list(s) for s in solutions],
        "table": [
            {"m": list(row), "ratio_to_pi": text, "status": status[row]}
            for row, text in table
        ],
    }
    lines = [
        f"sides {sides} -> angle numerators ({', '.join(map(str, numerators))})",
        f"denominator triples summing to pi: {solutions if solutions else 'none'}",
        "  m0,m1,m2   (sum of arctans)/pi   exact",
    ]
    for row, text in table:
        lines.append(f"  {','.join(map(str, row)):9}  {text:18} {status[row]}")
    rows = [
        {"m0": row[0], "m1": row[1], "m2": row[2], "ratio_to_pi": text, "status": status[row]}
        for row, text in table
    ]
    _emit(args, payload, "\n".join(lines), rows, fields=("m0", "m1", "m2", "ratio_to_pi", "status"))
    return EXIT_OK


def cmd_table(args) -> int:
    # build_atlas settles every cell to lmax with a verified construction or
    # certificates, or raises, and build_witness builds exactly where
    # ACHIEVABLE admits the perimeter: so every row's wording holds to lmax
    atlas = build_atlas(SearchConfig(lmax=args.lmax))
    rows = [
        {"condition": c.value, "shape": s.value, "achievable": ACHIEVABLE[(c, s)].words}
        for c in atlas.config.conditions
        for s in atlas.config.shapes
    ]
    lines = [
        f"achievable perimeters; every cell up to {args.lmax} holds a verified "
        "construction or exclusion certificates"
    ]
    lines += [f"  {r['condition']:3} {r['shape']:6} {r['achievable']}" for r in rows]
    _emit(args, {"lmax": args.lmax, "cells": rows}, "\n".join(lines), rows, fields=("condition", "shape", "achievable"))
    return EXIT_OK


def cmd_atlas(args) -> int:
    if args.out == "":
        raise ValueError("--out needs a file name, got an empty one")
    if args.out and args.format != "json":
        raise ValueError(f"--out writes the json format only, not {args.format}")
    conditions = tuple(CenterCondition(tok) for tok in args.conditions.split(","))
    config = SearchConfig(
        box_radius=args.box,
        lmax=args.lmax,
        conditions=conditions,
        shapes=args.shapes,
        shard_count=args.shards,
    )
    atlas = build_atlas(config)
    if args.format == "json":
        blob = atlas.to_json_bytes()
        if args.out:
            # written beside the real file, then renamed onto it: a crash leaves the old file or the new
            target = os.path.realpath(args.out)
            tmp = f"{target}.{os.getpid()}.tmp"
            fh = open(tmp, "xb")
            try:
                with fh:
                    fh.write(blob)
                os.replace(tmp, target)
            except BaseException:
                os.remove(tmp)
                raise
            print(f"wrote {args.out} ({len(atlas.entries)} cells)", file=sys.stderr)
        else:
            sys.stdout.write(blob.decode())
        return EXIT_OK
    rows, lines = [], []
    for cell in sorted(atlas.entries, key=_cell_sort_key):
        entry = atlas.entries[cell]
        vertices = [[v.x, v.y] for v in entry.witness.vertices] if entry.witness else None
        rows.append(
            {
                "condition": entry.condition.value,
                "shape": entry.shape.value,
                "perimeter": entry.perimeter,
                "status": entry.status,
                "witness": json.dumps(vertices) if vertices else "",
            }
        )
        mark = {"witness": "+", "impossible": "x", "open": "?"}[entry.status]
        extra = str(entry.witness) if entry.witness else entry.status
        lines.append(f"{mark} {cell[0].value:3} {cell[1].value:6} {cell[2]:3}  {extra}")
    _emit(args, {}, "\n".join(lines), rows, fields=("condition", "shape", "perimeter", "status", "witness"))
    return EXIT_OK


def cmd_incenter_scan(args) -> int:
    scan = incenter_scan(args.box, args.lmax, shard_count=args.shards)
    banner = (
        f"# empirical incenter scan: box_radius={scan.box_radius} lmax={scan.lmax}; "
        "absence of a row is not an impossibility claim"
    )
    rows = [
        {
            "shape": r.shape.value,
            "perimeter": r.perimeter,
            "v0": f"{r.triangle.v0.x},{r.triangle.v0.y}",
            "v1": f"{r.triangle.v1.x},{r.triangle.v1.y}",
            "v2": f"{r.triangle.v2.x},{r.triangle.v2.y}",
            "inradius_squared": str(r.inradius_squared),
        }
        for r in scan.rows
    ]
    payload = {
        "box_radius": scan.box_radius,
        "lmax": scan.lmax,
        "empirical_only": True,
        "rows": rows,
    }
    lines = [banner.lstrip("# ")]
    for r in scan.rows:
        lines.append(
            f"  {r.shape.value:6} perimeter {r.perimeter:3}  {r.triangle}  inradius^2 = {r.inradius_squared}"
        )
    if args.format == "csv":
        print(banner)
    _emit(args, payload, "\n".join(lines), rows, fields=("shape", "perimeter", "v0", "v1", "v2", "inradius_squared"))
    return EXIT_OK


def cmd_figure(args) -> int:
    svg = render_figure(args.name)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_props(args) -> int:
    if args.max_n > PROPS_MAX_N:
        raise ValueError(f"--max-n must be at most {PROPS_MAX_N}, got {args.max_n}")
    rows = []
    for n in range(1, args.max_n + 1):
        w1 = prop1_witness(n)
        w2 = prop2_witness(n)
        rows.append(
            {
                "n": n,
                "distinct_coprime": " ".join(map(str, w1)) if w1 else "",
                "coprime_no_3": " ".join(map(str, w2)) if w2 else "",
            }
        )
    payload = {"max_n": args.max_n, "rows": rows}
    lines = ["n    distinct pairwise-coprime    pairwise-coprime, no multiple of 3"]
    for r in rows:
        lines.append(f"{r['n']:<4} {r['distinct_coprime'] or '-':27}  {r['coprime_no_3'] or '-'}")
    _emit(args, payload, "\n".join(lines), rows, fields=("n", "distinct_coprime", "coprime_no_3"))
    return EXIT_OK


def _length_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("points", type=_point, nargs=2, metavar="x,y")


def _vertices_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("vertices", type=_point, nargs=3, metavar="x,y")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--center", required=True, choices=[c.value for c in STANDARD_CONDITIONS])
    p.add_argument("--shape", required=True, type=lambda s: _shape(s))
    p.add_argument("--perimeter", required=True, type=int)


def _angles_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("lengths", type=int, nargs=3, metavar="L")


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lmax", type=int, default=24)


def _atlas_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--box", type=int, default=40)
    p.add_argument("--lmax", type=int, default=30)
    p.add_argument("--conditions", default="F,G,H,GH,FGH")
    p.add_argument("--shapes", type=_shapes, default="acute,obtuse,right")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--out")


def _incenter_scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--box", type=int, default=20)
    p.add_argument("--lmax", type=int, default=20)
    p.add_argument("--shards", type=int, default=1)


def _figure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--out", required=True)


def _props_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=60)


# name -> (help, handler, argument adder, --format default or None for no --format),
# in the order the full parser lists them
_COMMANDS = {
    "length": ("lattice length of a segment", cmd_length, _length_args, "human"),
    "classify": ("shape, side lengths, perimeter, genus", cmd_classify, _vertices_args, "human"),
    "centers": ("exact centers and lattice flags", cmd_centers, _vertices_args, "human"),
    "construct": ("witness triangle for a condition/shape/perimeter", cmd_construct, _construct_args, "human"),
    "angles": ("arctangent-sum analysis of a side multiset", cmd_angles, _angles_args, "human"),
    "table": ("the achievable perimeters, every cell to --lmax verified", cmd_table, _table_args, "human"),
    "atlas": ("build and serialize the achievability atlas", cmd_atlas, _atlas_args, "json"),
    "incenter-scan": ("empirical lattice-incenter scan", cmd_incenter_scan, _incenter_scan_args, "csv"),
    "figure": ("emit an SVG diagram", cmd_figure, _figure_args, None),
    "props": ("coprime sum decompositions", cmd_props, _props_args, "human"),
}


@functools.cache  # built once per process and command: main reuses it on every call
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with a command the top-level parser holding that command's subparser alone.

    A narrow parser's own usage errors (unrecognized arguments) are the
    full parser's, so they print the usage that lists every command.
    """
    # the help text is the module docstring but for its last paragraph, on how the parser is built
    parser = _Parser(prog="latticecenters", description=__doc__.rsplit("\n\n", 1)[0])
    if command is not None:
        parser.error = lambda message: build_parser(None).error(message)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_arguments, format_default) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            if format_default:
                p.add_argument("--format", choices=("human", "json", "csv"), default=format_default)
            p.set_defaults(func=handler)
    return parser


def _shape(text: str) -> ShapeClass:
    try:
        return ShapeClass(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must be acute, right or obtuse, got {text!r}")


def _shapes(text: str) -> tuple[ShapeClass, ...]:
    return tuple(_shape(tok) for tok in text.split(","))


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call naming a command parses with that command's parser alone
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateTriangleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
