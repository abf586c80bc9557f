"""Command-line front end.

Subcommands: length, centers, classify, construct, angles, table, atlas,
incenter-scan, figure, props.  Every numeric flag is an integer and
vertices parse as "x,y" pairs; there are no floating-point inputs
anywhere.  Exit codes: 0 success/witness, 2 proven impossible
(certificates printed), 3 open/unknown, 1 usage or data error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from .angles import pi_signs, render_table, solve_pi_triples
from .centers import CenterCondition, RationalPoint, center_report
from .constructions import UnachievableError, WitnessRequest, build_witness
from .feasibility import SideMultiset, exclusion_report, halved_numerators, prop1_witness, prop2_witness
from .figures import FIGURES, render_figure
from .incenter import incenter_report, incenter_scan, lattice_incenter
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
from .search import (
    STANDARD_CONDITIONS,
    SearchConfig,
    _cell_sort_key,
    build_atlas,
    verify_results_table,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IMPOSSIBLE = 2
EXIT_OPEN = 3

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
    request = WitnessRequest(condition, shape, args.perimeter)
    try:
        witness = build_witness(request)
    except UnachievableError as exc:
        report = exclusion_report(args.perimeter, condition, shape)
        if report.proven_impossible:
            payload = {
                "status": "impossible",
                "condition": condition.value,
                "shape": shape.value,
                "perimeter": args.perimeter,
                "certificates": [c.to_json() for c in report.certificates],
            }
            _emit(args, payload, report.text())
            return EXIT_IMPOSSIBLE
        payload = {
            "status": "unknown",
            "condition": condition.value,
            "shape": shape.value,
            "perimeter": args.perimeter,
            "reason": str(exc),
        }
        _emit(args, payload, f"unknown: {exc}")
        return EXIT_OPEN
    rep = witness.report
    payload = {
        "status": "witness",
        "condition": condition.value,
        "shape": shape.value,
        "perimeter": args.perimeter,
        "vertices": [list(v.as_tuple()) for v in witness.triangle.vertices],
        "family": witness.family_tag,
        "circumcenter": _point_json(rep.circumcenter),
        "centroid": _point_json(rep.centroid),
        "orthocenter": _point_json(rep.orthocenter),
    }
    human = (
        f"{witness.triangle}  [{witness.family_tag}]\n"
        f"  F = {rep.circumcenter}, G = {rep.centroid}, H = {rep.orthocenter}"
    )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_angles(args) -> int:
    sides = SideMultiset.of(args.lengths[0], args.lengths[1], args.lengths[2])
    numerators = halved_numerators(sides)
    solutions = solve_pi_triples(numerators)
    table = render_table(numerators)
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


def _atlas_dir(args) -> str | None:
    if getattr(args, "atlas_dir", None):
        return args.atlas_dir
    return os.environ.get("LC_ATLAS_DIR") or None


def cmd_table(args) -> int:
    cells = verify_results_table(args.lmax, args.box, checkpoint_dir=_atlas_dir(args))
    payload = {
        "lmax": args.lmax,
        "box_radius": args.box,
        "cells": [
            {
                "condition": c.condition.value,
                "shape": c.shape.value,
                "expected": c.expression,
                "verdict": c.verdict,
                "per_perimeter": [{"perimeter": p, "verdict": v} for p, v in c.verdicts],
            }
            for c in cells
        ],
    }
    lines = [f"achievable-perimeter table up to {args.lmax} (box radius {args.box})"]
    for c in cells:
        lines.append(f"  {c.condition.value:3} {c.shape.value:6} {c.verdict:8} expected: {c.expression}")
        issues = [f"{p}:{v}" for p, v in c.verdicts if v != "match"]
        if issues:
            lines.append(f"      non-matching: {', '.join(issues)}")
    rows = [
        {"condition": c.condition.value, "shape": c.shape.value, "verdict": c.verdict, "expected": c.expression}
        for c in cells
    ]
    _emit(args, payload, "\n".join(lines), rows, fields=("condition", "shape", "verdict", "expected"))
    return EXIT_OK


def cmd_atlas(args) -> int:
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
    atlas = build_atlas(config, checkpoint_dir=_atlas_dir(args))
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


def _add_format(parser: argparse.ArgumentParser, default: str = "human") -> None:
    parser.add_argument("--format", choices=("human", "json", "csv"), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latticecenters", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("length", help="lattice length of a segment")
    p.add_argument("points", type=_point, nargs=2, metavar="x,y")
    _add_format(p)
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("classify", help="shape, side lengths, perimeter, genus")
    p.add_argument("vertices", type=_point, nargs=3, metavar="x,y")
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("centers", help="exact centers and lattice flags")
    p.add_argument("vertices", type=_point, nargs=3, metavar="x,y")
    _add_format(p)
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("construct", help="witness triangle for a condition/shape/perimeter")
    p.add_argument("--center", required=True, choices=[c.value for c in STANDARD_CONDITIONS])
    p.add_argument("--shape", required=True, type=lambda s: _shape(s))
    p.add_argument("--perimeter", required=True, type=int)
    _add_format(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("angles", help="arctangent-sum analysis of a side multiset")
    p.add_argument("lengths", type=int, nargs=3, metavar="L")
    _add_format(p)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("table", help="compare the atlas against the reference sets")
    p.add_argument("--lmax", type=int, default=24)
    p.add_argument("--box", type=int, default=40)
    p.add_argument("--atlas-dir")
    _add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("atlas", help="build and serialize the achievability atlas")
    p.add_argument("--box", type=int, default=40)
    p.add_argument("--lmax", type=int, default=30)
    p.add_argument("--conditions", default="F,G,H,GH,FGH")
    p.add_argument("--shapes", type=_shapes, default="acute,obtuse,right")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--atlas-dir")
    _add_format(p, default="json")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("incenter-scan", help="empirical lattice-incenter scan")
    p.add_argument("--box", type=int, default=20)
    p.add_argument("--lmax", type=int, default=20)
    p.add_argument("--shards", type=int, default=1)
    _add_format(p, default="csv")
    p.set_defaults(func=cmd_incenter_scan)

    p = sub.add_parser("figure", help="emit an SVG diagram")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("props", help="coprime sum decompositions")
    p.add_argument("--max-n", type=int, default=60)
    _add_format(p)
    p.set_defaults(func=cmd_props)

    return parser


def _shape(text: str) -> ShapeClass:
    try:
        return ShapeClass(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must be acute, right or obtuse, got {text!r}")


def _shapes(text: str) -> tuple[ShapeClass, ...]:
    return tuple(_shape(tok) for tok in text.split(","))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateTriangleError, UnachievableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
