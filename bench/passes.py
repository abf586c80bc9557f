"""One pass of one workload, run in a process of its own.

Usage: python3 bench/passes.py ROOT WORKLOAD SEED TRACE RESULT_JSON WORK_DIR

The process imports latticecenters from ROOT/src, runs the workload's
operations through the public API and the CLI entry point, and writes
op latencies, phase times, output digests, (with TRACE=1) per-layer span
statistics and speed.py scale factors to RESULT_JSON.  run.py times the
process from outside and checks the digests.

Each workload has one kind of operation, a write phase (the program
producing its output) and a read phase (the program loading or
re-verifying that output):

    scan     op = write = one `incenter-scan` CLI call, CSV on stdout;
             read = incenter_report re-verifying every CSV row
    certify  op = one exclusion_report cell; write = every cell's report
             and its certificates as JSON; read = rebuild and replay
             every certificate
    atlas    op = write + read; write = `atlas --out FILE` CLI call until
             the bytes are on disk; read = atlas_from_document(json.loads(bytes))
    query    op = one decision: center_report, lattice_incenter, plus
             incenter_report when the incenter is a lattice point;
             write = all decisions; read = incenter_report re-verifying
             every claimed lattice incenter
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time

import inputs
import oracle
import speed

# Short read phases are repeated a fixed number of times (so traced call
# counts repeat exactly) and the median repeat is reported.
READ_REPEATS = {"scan": 400, "certify": 1, "atlas": 1, "query": 5}


def import_program(root: str) -> None:
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import latticecenters

    where = os.path.abspath(latticecenters.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"latticecenters was imported from {where}, not from {src}")


def cell_digest(proven_impossible: bool, certificate_texts: list[str]) -> str:
    status = "impossible" if proven_impossible else "unsettled"
    return hashlib.sha256("\n".join([status, *certificate_texts]).encode()).hexdigest()


def _median_repeat(repeats: int, fn, clock) -> tuple[float, object, list[int]]:
    """Median seconds of fn(), its last result and the [start, end] clock window."""
    times, result, first = [], None, clock()
    for _ in range(repeats):
        start = clock()
        result = fn()
        times.append((clock() - start) / 1e9)
    return statistics.median(times), result, [first, clock()]


def _run_cli(argv: list[str], clock) -> tuple[int, str, int]:
    from latticecenters import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = clock()
        code = cli.main(argv)
        elapsed = clock() - start
    return code, out.getvalue(), elapsed


def _bbox_incenter(verts: oracle.Vertices) -> inputs.Point | None:
    xs, ys = [p[0] for p in verts], [p[1] for p in verts]
    return next(
        (
            (x, y)
            for x in range(min(xs) + 1, max(xs))
            for y in range(min(ys) + 1, max(ys))
            if oracle.is_incenter(verts, (x, y))
        ),
        None,
    )


def scan_pass(seed: int, work_dir: str, clock) -> dict:
    from latticecenters import LatticePoint, incenter_report, triangle

    write_start = clock()
    code, text, elapsed = _run_cli(list(inputs.SCAN_ARGV), clock)
    write_window = [write_start, clock()]
    rows = []
    for row in csv.DictReader(text.splitlines()[1:]):  # after the banner
        verts = tuple(tuple(int(c) for c in row[k].split(",")) for k in ("v0", "v1", "v2"))
        center = _bbox_incenter(verts)  # type: ignore[arg-type]
        rows.append((triangle(*verts), center, row["inradius_squared"]))

    def verify() -> bool:
        return all(
            c is not None and str(incenter_report(t, LatticePoint(*c)).inradius_squared) == r2
            for t, c, r2 in rows
        )

    read_s, read_ok, read_window = _median_repeat(READ_REPEATS["scan"], verify, clock)
    return {
        "ops": [[write_start, elapsed]],
        "write_s": elapsed / 1e9,
        "read_s": read_s,
        "windows_ns": {"write": write_window, "read": read_window},
        "exit": code,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "read_ok": bool(read_ok) and bool(rows),
    }


def atlas_pass(seed: int, work_dir: str, clock) -> dict:
    from latticecenters import search

    path = os.path.join(work_dir, f"atlas-{os.getpid()}.json")
    try:
        write_start = clock()
        code, _, write_ns = _run_cli([*inputs.ATLAS_ARGV, "--out", path], clock)
        write_window = [write_start, clock()]
        with open(path, "rb") as fh:
            blob = fh.read()
    finally:
        if os.path.exists(path):
            os.remove(path)

    def load():
        doc = json.loads(blob)
        return doc, search.atlas_from_document(doc)

    read_s, (doc, atlas), read_window = _median_repeat(READ_REPEATS["atlas"], load, clock)  # type: ignore[misc]
    loaded = [
        (e.condition.value, e.shape.value, e.perimeter, e.status)
        for e in (atlas.entries[c] for c in sorted(atlas.entries, key=search._cell_sort_key))
    ]
    listed = [(e["condition"], e["shape"], e["perimeter"], e["status"]) for e in doc["entries"]]
    return {
        "ops": [[write_start, write_ns + round(read_s * 1e9)]],
        "write_s": write_ns / 1e9,
        "read_s": read_s,
        "windows_ns": {"write": write_window, "read": read_window},
        "exit": code,
        "digest": hashlib.sha256(blob).hexdigest(),
        "read_ok": loaded == listed,
    }


def certify_pass(seed: int, work_dir: str, clock) -> dict:
    from latticecenters import CenterCondition, ExclusionCertificate, ShapeClass, SideMultiset
    from latticecenters import exclusion_report
    from latticecenters.feasibility import Rule, replay

    ops, digests, documents, write_ns = [], {}, {}, 0
    write_start = clock()
    for condition, shape, perimeter in inputs.certify_cells(seed):
        key = inputs.cell_key(condition, shape, perimeter)
        start = clock()
        try:
            report = exclusion_report(perimeter, CenterCondition(condition), ShapeClass(shape))
            done = clock()
            documents[key] = json.dumps([c.to_json() for c in report.certificates])
            write_ns += clock() - start
        except Exception as exc:  # counted as a failed operation by run.py
            ops.append([start, clock() - start])
            digests[key] = f"error:{type(exc).__name__}"
            continue
        ops.append([start, done - start])
        digests[key] = cell_digest(report.proven_impossible, [c.text() for c in report.certificates])

    def replay_all() -> list[str]:
        failing = []
        for key, document in documents.items():
            for d in json.loads(document):
                cert = ExclusionCertificate(
                    rule=Rule(d["rule"]),
                    detail=d["detail"],
                    condition=CenterCondition(d["condition"]),
                    shape=None if d["shape"] == "any" else ShapeClass(d["shape"]),
                    perimeter=d["perimeter"],
                    multiset=SideMultiset(*d["multiset"]) if d["multiset"] else None,
                )
                if not replay(cert):
                    failing.append(key)
        return failing

    write_window = [write_start, clock()]
    read_s, failing, read_window = _median_repeat(READ_REPEATS["certify"], replay_all, clock)
    return {
        "ops": ops,
        "write_s": write_ns / 1e9,
        "read_s": read_s,
        "windows_ns": {"write": write_window, "read": read_window},
        "cells": digests,
        "replay_failures": sorted(set(failing)),  # type: ignore[arg-type]
    }


def query_pass(seed: int, work_dir: str, clock) -> dict:
    from latticecenters import center_report, incenter_report, lattice_incenter, triangle

    triangles = [triangle(*q.vertices) for q in inputs.query_triangles(seed)]
    ops, answers, claimed = [], [], []
    write_start = clock()
    for t in triangles:
        start = clock()
        try:
            rep = center_report(t)
            point = lattice_incenter(t)
            inc = incenter_report(t, point) if point is not None else None
        except Exception as exc:  # counted as a failed operation by run.py
            ops.append([start, clock() - start])
            answers.append([f"error:{type(exc).__name__}", "-", "-"])
            continue
        ops.append([start, clock() - start])
        digest = oracle.centers_digest(
            (rep.circumcenter.x, rep.circumcenter.y),
            (rep.centroid.x, rep.centroid.y),
            (rep.orthocenter.x, rep.orthocenter.y),
        )
        if inc is None:
            answers.append(["none", "-", digest])
        else:
            answers.append([f"{point.x},{point.y}", str(inc.inradius_squared), digest])
            claimed.append((t, point))

    def verify() -> bool:
        return all(incenter_report(t, p).incenter == p for t, p in claimed)

    write_window = [write_start, clock()]
    read_s, read_ok, read_window = _median_repeat(READ_REPEATS["query"], verify, clock)
    return {
        "ops": ops,
        "write_s": sum(d for _, d in ops) / 1e9,
        "read_s": read_s,
        "windows_ns": {"write": write_window, "read": read_window},
        "answers": answers,
        "read_ok": bool(read_ok),
    }


PASSES = {"scan": scan_pass, "certify": certify_pass, "atlas": atlas_pass, "query": query_pass}


def run_pass(
    workload: str, seed: int, traced: bool, work_dir: str,
    spans_path: str | None = None, clock=time.perf_counter_ns,
) -> dict:
    """Run one pass in this process; with tracing, add per-layer statistics.

    clock() gives the nanoseconds every reported time is taken from.
    """
    if not traced:
        return PASSES[workload](seed, work_dir, clock)
    import tracing

    tracer = tracing.Tracer(clock)
    tracer.install()
    start = clock()
    try:
        result = PASSES[workload](seed, work_dir, clock)
    finally:
        region_s = (clock() - start) / 1e9
        restored = tracer.uninstall()
    stats = tracer.layer_stats()
    if spans_path is not None:
        tracer.dump(spans_path)
    result["trace"] = {
        "layers": tracing.layer_metrics(stats),
        "self_sum_s": sum(s.self_s for s in stats.values()),
        "region_s": region_s,
        "restored": restored,
        "spans": len(tracer.spans),
    }
    return result


def main(argv: list[str]) -> int:
    root, workload, seed, trace, result_path, work_dir = argv
    meter = speed.SpeedMeter()
    meter.start()
    try:
        import_program(root)
        traced = trace == "1"
        spans_path = result_path[: -len(".json")] + "-spans.jsonl" if traced else None
        result = run_pass(workload, int(seed), traced, work_dir, spans_path, meter.work_ns)
    finally:
        meter.stop()
    # Each op is scaled by the speed sampled within half a second of it (a
    # few samples, still local), each phase by the speed sampled during it,
    # and the whole pass by its mean speed.
    result["ops_scaled_ns"] = [d * meter.scale(s, s + d, margin_s=0.5) for s, d in result.pop("ops")]
    result["speed"] = {
        "scale": meter.scale(),
        "write_scale": meter.scale(*result["windows_ns"]["write"]),
        "read_scale": meter.scale(*result["windows_ns"]["read"]),
        "samples": len(meter.samples),
        "paused_s": meter.paused_ns / 1e9,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
