"""Benchmark of latticecenters: scan, certify, atlas and query workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {scan,certify,atlas,query} --seed N --seconds S --trace {0,1}

The program is imported from ./src; nothing needs installing.  Within
the time budget the run repeats passes of one workload, each pass in a
fresh process (see passes.py for what each workload does), timed from
outside and with its peak memory taken from the kernel's accounting of
that process.  Every output is checked: scan CSV and atlas bytes and
each certify cell against the digests in expected.json, recorded from
the seed program, and each query decision against the independent
oracle in oracle.py.  A wrong, missing or raising answer counts as one
failed operation; it never stops the run.

Times are reported scaled to reference speed (see speed.py): while a
pass runs, a timer samples how long a fixed unit loop takes, and each
time is multiplied by UNIT_S / (the loop's mean time around it).  A
shared host's speed can swing by up to 1.8x over minutes, which no
median over a run can remove; the measured times and each pass's scale
factor are printed too.

With --trace 0 the metrics are the end-to-end ones (medians over the
passes).  With --trace 1 traced and untraced passes alternate; the
metrics are the per-layer ones from the traced passes, plus the tracing
overhead (traced minus untraced wall time).  Traced and untraced
outputs must be identical and every wrapped binding must be restored.

Lines before the last describe the run for a reader; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import inputs
import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("scan", "certify", "atlas", "query")

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[2])
import speed
meter = speed.SpeedMeter(interval_s=0.05)
meter.start()
start = meter.work_ns()
sys.path.insert(0, sys.argv[1])
import latticecenters.cli as cli
cli.build_parser()
end = meter.work_ns()
meter.stop()
assert cli.__file__.startswith(sys.argv[1])
print((end - start) / 1e9, meter.scale(start, end))
"""


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def measure_setup(src: Path) -> tuple[float, float]:
    """Median time, scaled and measured, for a fresh interpreter to import
    the CLI and build its parser."""
    scaled, measured = [], []
    for probe in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT,
        )
        if probe:  # the first probe only warms the bytecode and file caches
            elapsed, scale = map(float, out.stdout.split())
            scaled.append(elapsed * scale)
            measured.append(elapsed)
    return statistics.median(scaled), statistics.median(measured)


def run_child(workload: str, seed: int, traced: bool, work_dir: Path, index: int) -> dict:
    """One pass in a fresh process: its result, wall time and peak RSS."""
    result_path = work_dir / f"pass{index}.json"
    stderr_path = work_dir / f"pass{index}.stderr"
    argv = [
        sys.executable, str(BENCH_DIR / "passes.py"), str(ROOT), workload, str(seed),
        "1" if traced else "0", str(result_path), str(work_dir),
    ]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result, scale = None, 1.0
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text())
        wall -= result["speed"]["paused_s"]
        scale = result["speed"]["scale"]
    else:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        print(f"pass {index} exited with {proc.returncode}:\n{tail}", file=sys.stderr)
    return {"traced": traced, "wall_s": wall, "scale": scale, "rss_mb": usage.ru_maxrss / 1024, "result": result}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (100 if none)."""
    return math.floor(100 - 1000 / n) if n > 10 else 100


def tail_mean(sorted_values: list[float], q: int) -> float:
    """Mean of the values beyond the q-th percentile (the largest if none is).

    A mean over the slowest ops is steadier than the single op at the
    percentile, which rests on the few inputs that happen to fall there.
    """
    beyond = sorted_values[math.ceil(q / 100 * len(sorted_values)):]
    return statistics.mean(beyond or sorted_values[-1:])


class Checker:
    """Counts attempted and failed operations of each pass."""

    def __init__(self, workload: str, seed: int, expected: dict) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.signatures: set[str] = set()
        self.problems: list[str] = []
        if workload == "certify":
            self.ops_per_pass = len(expected["certify_cells"])
        elif workload == "query":
            self.ops_per_pass = inputs.QUERY_COUNT
            self.answers = [list(oracle.expected_answer(q)) for q in inputs.query_triangles(seed)]
        else:
            self.ops_per_pass = 1

    def check(self, result: dict | None) -> None:
        self.attempted += self.ops_per_pass
        if result is None:
            self.failures["pass crashed"] += self.ops_per_pass
            return
        getattr(self, f"_check_{self.workload}")(result)
        outputs = {k: result[k] for k in ("digest", "cells", "answers") if k in result}
        self.signatures.add(hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest())
        trace = result.get("trace")
        if trace is not None:
            if not trace["restored"]:
                self.problems.append("a traced binding was not restored")
            if trace["self_sum_s"] > trace["region_s"]:
                self.problems.append("self times sum to more than the traced wall time")

    def _check_single(self, result: dict, digest_key: str) -> None:
        if result["exit"] != 0:
            self.failures[f"exit code {result['exit']}"] += 1
        elif result["digest"] != self.expected[digest_key]:
            self.failures["output digest differs from expected.json"] += 1
        elif not result["read_ok"]:
            self.failures["output did not read back"] += 1

    def _check_scan(self, result: dict) -> None:
        self._check_single(result, "scan_csv_sha256")

    def _check_atlas(self, result: dict) -> None:
        self._check_single(result, "atlas_bytes_sha256")

    def _check_certify(self, result: dict) -> None:
        replay_failures = set(result["replay_failures"])
        for key, digest in self.expected["certify_cells"].items():
            got = result["cells"].get(key)
            if got is None:
                self.failures["cell missing"] += 1
            elif got.startswith("error:"):
                self.failures[got] += 1
            elif got != digest:
                self.failures["cell digest differs from expected.json"] += 1
            elif key in replay_failures:
                self.failures["certificate failed to replay"] += 1

    def _check_query(self, result: dict) -> None:
        if not result["read_ok"]:
            self.failures["claimed incenter did not re-verify"] += 1
        for got, want in zip(result["answers"], self.answers):
            if got == want:
                continue
            if got[0].startswith("error:"):
                self.failures[got[0]] += 1
            elif got[0] != want[0]:
                self.failures[f"incenter {got[0] if got[0] == 'none' else 'wrong'} where oracle says {'none' if want[0] == 'none' else 'lattice point'}"] += 1
            elif got[1] != want[1]:
                self.failures["wrong inradius squared"] += 1
            else:
                self.failures["wrong circumcenter, centroid or orthocenter"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def end_to_end_metrics(passes: list[dict], setup_s: float) -> tuple[dict, str]:
    done = [p for p in passes if p["result"] is not None]
    if not done:
        raise SystemExit("no pass produced a result")
    n = len(done[0]["result"]["ops_scaled_ns"])
    q = tail_percentile(n)
    p50, tail = [], []
    for p in done:
        ops = sorted(x / 1e6 for x in p["result"]["ops_scaled_ns"])
        p50.append(statistics.median(ops))
        tail.append(tail_mean(ops, q))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall_s"] * p["scale"] for p in done), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "op_p50_ms": (statistics.median(p50), "ms"),
        "op_tail_ms": (statistics.median(tail), "ms"),
        "write_s": (statistics.median(p["result"]["write_s"] * p["result"]["speed"]["write_scale"] for p in done), "s"),
        "read_s": (statistics.median(p["result"]["read_s"] * p["result"]["speed"]["read_scale"] for p in done), "s"),
    }
    return metrics, f"mean of the ops beyond p{q}, of {n} ops per pass"


def per_layer_metrics(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"] and p["result"] is not None]
    plain = [p for p in passes if not p["traced"] and p["result"] is not None]
    if not traced or not plain:
        raise SystemExit("a traced run needs a traced and an untraced pass")
    layers = [(p["result"]["trace"]["layers"], p["scale"]) for p in traced]
    metrics = {
        name: (statistics.median(layer[name][0] * (scale if unit == "s" else 1) for layer, scale in layers), unit)
        for name, (_, unit) in layers[0][0].items()
    }
    traced_wall = statistics.median(p["wall_s"] * p["scale"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] * p["scale"] for p in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.spans"] = (statistics.median(p["result"]["trace"]["spans"] for p in traced), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "latticecenters" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'latticecenters'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    work_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_measured_s = measure_setup(src)
        checker = Checker(args.workload, args.seed, expected)
        deadline = time.perf_counter() + args.seconds
        passes: list[dict] = []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            started = time.perf_counter()
            passes.append(run_child(args.workload, args.seed, traced, work_dir, len(passes)))
            checker.check(passes[-1]["result"])
            # Start another pass only if one as long as the last still fits.
            fits = 2 * time.perf_counter() - started <= deadline
            if not fits and (not args.trace or len({p["traced"] for p in passes}) == 2):
                break
        if args.trace:
            metrics = per_layer_metrics(passes)
            heading = "per-layer metrics of the traced passes"
            spans = sorted(work_dir.glob("*-spans.jsonl"))
            if spans:
                kept = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
                shutil.copy(spans[0], kept)
                heading += f" (spans of one pass in {kept.relative_to(ROOT)})"
        else:
            metrics, tail = end_to_end_metrics(passes, setup_s)
            heading = f"end-to-end metrics (op_tail_ms is the {tail})"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if len(checker.signatures) > 1:
        checker.problems.append("passes produced different outputs")
    failed = checker.failed
    correct = failed == 0 and not checker.problems

    info = machine_info()
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"passes={len(passes)} ({sum(p['traced'] for p in passes)} traced)"
    )
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"measured setup_s: {setup_measured_s:.4f}")
    print("measured wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print("scale factor per pass: " + " ".join(f"{p['scale']:.3f}" for p in passes))
    print(f"{heading}, times scaled to reference speed:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42} {value:14.6g} {unit}")
    print(f"  {'failed_frac':42} {failed / checker.attempted:14.6g} ratio ({failed} of {checker.attempted} ops)")
    for reason, count in checker.failures.most_common():
        print(f"  failed: {count} x {reason}")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
