"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import inputs
import oracle
import passes
import tracing

ROOT = Path(__file__).resolve().parent.parent
passes.import_program(str(ROOT))

from latticecenters import cli, exclusion_report, lattice_incenter, search, triangle  # noqa: E402
from latticecenters.centers import CenterCondition  # noqa: E402
from latticecenters.lattice import ShapeClass  # noqa: E402


def test_certify_cells_are_seeded_permutations_of_every_cell():
    first = inputs.certify_cells(1)
    assert first == inputs.certify_cells(1)
    assert first != inputs.certify_cells(2)
    assert len(first) == len(set(first)) == 5 * 3 * 34
    assert sorted(first) == sorted(inputs.certify_cells(2))


def test_query_triangles_are_seeded():
    first = inputs.query_triangles(1, 300)
    assert first == inputs.query_triangles(1, 300)
    assert first != inputs.query_triangles(2, 300)
    assert all(inputs._cross(q.vertices) != 0 for q in first)


def test_query_mix():
    qs = inputs.query_triangles(5)
    assert len(qs) == inputs.QUERY_COUNT
    assert sum(q.planted_incenter is not None for q in qs) == len(qs) // 10
    assert all(0 <= q.exponent <= inputs.QUERY_MAX_EXPONENT for q in qs)
    assert max(q.exponent for q in qs) > inputs.QUERY_MAX_EXPONENT - 0.1


def test_oracle_finds_planted_incenters_at_every_magnitude():
    planted = [q for q in inputs.query_triangles(3, 2000) if q.planted_incenter is not None]
    assert any(q.exponent > inputs.QUERY_MAX_EXPONENT - 1 for q in planted)
    for q in planted:
        assert oracle.lattice_incenter(q.vertices) == q.planted_incenter


def test_oracle_finds_the_planted_incenter_beyond_float_range():
    k = 10**309
    verts = tuple((k * x + 3, k * y - 5) for x, y in inputs.PLANTED_BASE)
    want = (k * inputs.PLANTED_INCENTER[0] + 3, k * inputs.PLANTED_INCENTER[1] - 5)
    assert oracle.lattice_incenter(verts) == want


def test_oracle_agrees_with_the_program_on_small_triangles():
    small = [q for q in inputs.query_triangles(4, 3000) if q.exponent < 3]
    assert small
    for q in small:
        point = lattice_incenter(triangle(*q.vertices))
        assert oracle.lattice_incenter(q.vertices) == (None if point is None else point.as_tuple())


def test_oracle_centers_follow_euler_relation():
    (fx, fy), (gx, gy), (hx, hy) = oracle.centers(((0, 0), (9, 3), (0, 6)))
    assert (gx, gy) == (3, 3)
    assert 2 * fx + hx == 3 * gx and 2 * fy + hy == 3 * gy


def _small_outputs(tmp_path: Path) -> tuple[str, bytes, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["incenter-scan", "--box", "6", "--lmax", "12"])
    atlas_path = tmp_path / "atlas.json"
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["atlas", "--box", "6", "--lmax", "14", "--out", str(atlas_path)])
    blob = atlas_path.read_bytes()
    search.atlas_from_document(json.loads(blob))
    reports = [exclusion_report(p, CenterCondition.CIRCUMCENTER, ShapeClass.ACUTE).text() for p in range(3, 19)]
    return out.getvalue(), blob, reports


def test_traced_run_matches_untraced_and_restores_bindings(tmp_path):
    untraced = _small_outputs(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    assert hasattr(cli.main, "bench_span") and hasattr(search.center_report, "bench_span")
    start = time.perf_counter_ns()
    try:
        traced = _small_outputs(tmp_path)
    finally:
        wall_s = (time.perf_counter_ns() - start) / 1e9
        assert tracer.uninstall()
    assert traced == untraced
    assert not hasattr(cli.main, "bench_span") and not hasattr(search.replay, "bench_span")
    stats = tracer.layer_stats()
    assert stats["cli.main"].calls == 2
    assert stats["feasibility.exclusion_report"].calls > 16
    assert sum(s.self_s for s in stats.values()) <= wall_s


def test_per_layer_metric_names_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.uninstall()
    produced = set(tracing.layer_metrics(tracer.layer_stats())) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"
    }
    assert {m["name"] for m in declared} == produced
