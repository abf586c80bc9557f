"""Span tracing of the program's layers, installed from outside the program.

Each traced function is replaced, at every name a module of the package
binds it to, by a wrapper that records one span: (name, parent, start,
end, outcome).  The modules import these functions by name, so a wrapper
on the defining module alone would miss most calls.  Spans stay in
memory until the pass ends.  `lattice` is not traced: its functions are
tiny and called millions of times, so their time counts as self time of
their callers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "latticecenters"


def _is_present(result: Any) -> int:
    return int(result is not None)


def _certificate_count(result: Any) -> int:
    return len(result.certificates)


# (module, attribute, outcome): the outcome, summed over calls, is the
# layer's useful-work count.
TARGETS: tuple[tuple[str, str, Callable[[Any], int] | None], ...] = (
    ("cli", "main", None),
    ("search", "build_atlas", None),
    ("search", "search_witnesses", None),
    ("search", "atlas_from_document", None),
    ("search", "AchievabilityAtlas.to_json_bytes", len),
    ("incenter", "lattice_incenter", _is_present),
    ("incenter", "incenter_report", None),
    ("feasibility", "exclusion_report", _certificate_count),
    ("feasibility", "tangent_sum_filter", None),
    ("feasibility", "replay", None),
    ("angles", "solve_pi_triples", len),
    ("constructions", "build_witness", None),
    ("centers", "center_report", None),
)


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0  # inclusive time, nested calls of the same name counted once
    self_s: float = 0.0
    outcome: int = 0
    errors: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        # (name index, parent span index or -1, start ns, end ns, outcome, error class)
        self.spans: list[tuple[int, int, int, int, int | None, str | None] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_idx: int, fn: Callable, outcome: Callable[[Any], int] | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name_idx, parent, start, clock(), None, type(exc).__name__)
                raise
            else:
                end = clock()
                spans[idx] = (name_idx, parent, start, end, outcome(result) if outcome else None, None)
                return result
            finally:
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.bench_span = self.names[name_idx]  # type: ignore[attr-defined]
        return wrapper

    def install(self) -> None:
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = _package_modules()
        for module_name, attribute, outcome in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            self.names.append(f"{module_name}.{attribute.rsplit('.', 1)[-1]}")
            name_idx = len(self.names) - 1
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(name_idx, original, outcome))
                self._patched.append((owner, method, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name_idx, original, outcome)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> bool:
        """Put every original binding back; True when none is left wrapped."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        modules = _package_modules()
        leftovers = [
            key
            for m in modules
            for owner in [m, *(v for v in vars(m).values() if isinstance(v, type))]
            for key, value in vars(owner).items()
            if hasattr(value, "bench_span")
        ]
        restored = all(getattr(o, a) is orig for o, a, orig in self._patched)
        return restored and not leftovers

    def layer_stats(self) -> dict[str, LayerStats]:
        spans = [s for s in self.spans if s is not None]
        child_ns = [0] * len(self.spans)
        for name_idx, parent, start, end, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {name: LayerStats() for name in self.names}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name_idx, parent, start, end, outcome, error = span
            st = stats[self.names[name_idx]]
            st.calls += 1
            st.self_s += (end - start - child_ns[idx]) / 1e9
            if not self._has_ancestor_named(parent, name_idx):
                st.s += (end - start) / 1e9
            st.outcome += outcome or 0
            if error is not None:
                st.errors[error] = st.errors.get(error, 0) + 1
        return stats

    def _has_ancestor_named(self, parent: int, name_idx: int) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            assert span is not None
            if span[0] == name_idx:
                return True
            parent = span[1]
        return False

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns", "outcome", "error"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(stats: dict[str, LayerStats]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    li = stats["incenter.lattice_incenter"]
    bw = stats["constructions.build_witness"]
    unachievable = bw.errors.get("UnachievableError", 0)
    return {
        "incenter.lattice_incenter.calls": (li.calls, "count"),
        "incenter.lattice_incenter.s": (li.s, "s"),
        "incenter.lattice_incenter.hits": (li.outcome, "count"),
        "incenter.lattice_incenter.yield": (li.outcome / li.calls if li.calls else 0.0, "ratio"),
        "incenter.incenter_report.calls": (stats["incenter.incenter_report"].calls, "count"),
        "incenter.incenter_report.self_s": (stats["incenter.incenter_report"].self_s, "s"),
        "search.search_witnesses.calls": (stats["search.search_witnesses"].calls, "count"),
        "search.search_witnesses.self_s": (stats["search.search_witnesses"].self_s, "s"),
        "angles.solve_pi_triples.calls": (stats["angles.solve_pi_triples"].calls, "count"),
        "angles.solve_pi_triples.s": (stats["angles.solve_pi_triples"].s, "s"),
        "angles.solve_pi_triples.solutions": (stats["angles.solve_pi_triples"].outcome, "count"),
        "feasibility.tangent_sum_filter.calls": (stats["feasibility.tangent_sum_filter"].calls, "count"),
        "feasibility.tangent_sum_filter.self_s": (stats["feasibility.tangent_sum_filter"].self_s, "s"),
        "feasibility.exclusion_report.calls": (stats["feasibility.exclusion_report"].calls, "count"),
        "feasibility.exclusion_report.self_s": (stats["feasibility.exclusion_report"].self_s, "s"),
        "feasibility.certificates": (stats["feasibility.exclusion_report"].outcome, "count"),
        "constructions.build_witness.calls": (bw.calls, "count"),
        "constructions.build_witness.self_s": (bw.self_s, "s"),
        "constructions.build_witness.unachievable": (unachievable, "count"),
        "constructions.build_witness.yield": ((bw.calls - unachievable) / bw.calls if bw.calls else 0.0, "ratio"),
        "centers.center_report.calls": (stats["centers.center_report"].calls, "count"),
        "centers.center_report.s": (stats["centers.center_report"].s, "s"),
        "search.to_json_bytes.s": (stats["search.to_json_bytes"].s, "s"),
        "search.atlas_bytes": (stats["search.to_json_bytes"].outcome, "bytes"),
        "search.atlas_from_document.self_s": (stats["search.atlas_from_document"].self_s, "s"),
        "feasibility.replay.calls": (stats["feasibility.replay"].calls, "count"),
        "feasibility.replay.self_s": (stats["feasibility.replay"].self_s, "s"),
        "search.build_atlas.self_s": (stats["search.build_atlas"].self_s, "s"),
        "cli.main.self_s": (stats["cli.main"].self_s, "s"),
    }
