"""Record the output digests in expected.json from the program in ./src.

Usage: python3 bench/record.py

Run it only on a commit whose outputs are known good (the acceptance
suite checks them), or after a declared change of output.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import passes

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    passes.import_program(str(BENCH_DIR.parent))
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as work_dir:
        scan = passes.scan_pass(0, work_dir, time.perf_counter_ns)
        atlas = passes.atlas_pass(0, work_dir, time.perf_counter_ns)
        certify = passes.certify_pass(0, work_dir, time.perf_counter_ns)
    if scan["exit"] or atlas["exit"] or not (scan["read_ok"] and atlas["read_ok"]) or certify["replay_failures"]:
        print("error: the program's own checks failed; nothing recorded", file=sys.stderr)
        return 1
    expected = {
        "scan_csv_sha256": scan["digest"],
        "atlas_bytes_sha256": atlas["digest"],
        "certify_cells": dict(sorted(certify["cells"].items())),
    }
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
