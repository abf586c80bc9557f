"""Bounded search over lattice triangles, the incenter scan and the achievability atlas.

Triangles are enumerated anchored at the origin: candidates are pairs
(P, Q) of lattice points in the square [-B, B]^2, giving the triangle
O, P, Q.  The anchored sweep covers every orbit under translations, the
eight lattice symmetries of the square and vertex relabeling that fits
the box with a vertex at the anchor, and growing B only ever adds
orbits.

The atlas maps (center condition, shape, perimeter) cells to one of:

    witness     a verified triangle (from a construction family or search)
    impossible  exclusion certificates from the filter module
    open        nothing found within the box; never a claim of impossibility

Each cell's witness is the anchored triangle with the smallest grid
indices (P index, Q index).  The box is mapped to itself by the eight
symmetries of the square (D4), and so is every cell, so that P is the
smallest-index point of its D4 orbit: the sweep takes P only from those
points, one per orbit, which are the points with x <= y <= 0.  Searching is
vectorized over chunks of (P, Q) pairs, and every lattice test is exact
integer arithmetic.  Every cell is decided in one place, resolve_cell:
a construction where constructions.ACHIEVABLE admits its perimeter,
else the certificates of feasibility.RULES; a cell ACHIEVABLE has no row
for is left to the search.  An atlas document loads only if it is
exactly the atlas its config builds.  The sweep tests the lattice
incenter for every incenter cell of its config, and search_witnesses
hands on each hit checked by constructions.check_witness, the families'
check, with the incenter that check located.  A lattice incenter needs a
squarefree-part match of the squared sides and one divisibility, so only
the Q whose |Q|^2 has the squarefree part of |P|^2 can hit: each P
sweeps that kernel group.  Each pair is tested in two stages: the match
for |P - Q|^2 on every pair, then the divisibility only on the pairs
that pass it.  Sharding splits the swept points
round-robin; per-cell results merge by minimal (P index, Q index), so
output is independent of the shard count.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import incenter as incenter_mod
from .centers import CenterCondition
from .centers import center_report  # noqa: F401 (bench/test_bench.py, its only user, imports it from here)
from .constructions import ACHIEVABLE, UnachievableError, Witness, WitnessRequest, build_witness, check_witness
from .feasibility import ExclusionCertificate, ExclusionReport, PerimeterSides, exclusion_report
from .feasibility import replay  # noqa: F401 (bench/test_bench.py, its only user, imports it from here)
from .lattice import LatticePoint, LatticeTriangle, ShapeClass, triangle

SCHEMA_VERSION = 1

CONDITION_ORDER = tuple(CenterCondition)

SHAPE_ORDER = (ShapeClass.ACUTE, ShapeClass.OBTUSE, ShapeClass.RIGHT)

STANDARD_CONDITIONS = CONDITION_ORDER[:5]

# Largest accepted box radius, for memory: a shard's peak ru_maxrss grows as
# about 0.25 KB * B^2 over the interpreter's 32 MB (one shard sweeping five
# first vertices: 48 MB at B = 250, 95 MB at 500, 280 MB at 1000; x86-64
# Linux, numpy 2.4), nearly all of it in the int64 arrays over the grid and
# the square-root table of _incenter_kernels.
MAX_BOX_RADIUS = 1000


# --- search configuration --------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    box_radius: int = 40
    lmax: int = 30
    conditions: tuple[CenterCondition, ...] = STANDARD_CONDITIONS
    shapes: tuple[ShapeClass, ...] = SHAPE_ORDER
    shard_count: int = 1

    def __post_init__(self) -> None:
        if self.box_radius < 2:
            raise ValueError("box_radius must be at least 2")
        if self.box_radius > MAX_BOX_RADIUS:
            raise ValueError(f"box_radius must be at most {MAX_BOX_RADIUS}")
        if self.lmax < 3:
            raise ValueError("lmax must be at least 3")
        if self.shard_count < 1:
            raise ValueError("shard_count must be positive")
        object.__setattr__(
            self,
            "conditions",
            tuple(c for c in CONDITION_ORDER if c in set(self.conditions)),
        )
        object.__setattr__(
            self,
            "shapes",
            tuple(s for s in SHAPE_ORDER if s in set(self.shapes)),
        )

    def document_echo(self) -> dict:
        # shard_count deliberately omitted: it affects scheduling only,
        # never results, and atlas bytes must not depend on it.
        return {
            "box_radius": self.box_radius,
            "lmax": self.lmax,
            "conditions": [c.value for c in self.conditions],
            "shapes": [s.value for s in self.shapes],
        }


Cell = tuple[CenterCondition, ShapeClass, int]
# (p_idx, q_idx, px, py, qx, qy): indices give the deterministic merge order
Candidate = tuple[int, int, int, int, int, int]


def _incenter_kernels(qx: np.ndarray, qy: np.ndarray, box_radius: int) -> tuple[np.ndarray, np.ndarray]:
    # sq_root[n] is the largest d with d^2 | n for 0 <= n <= 8 B^2, so n's
    # squarefree part is n // sq_root[n]^2; returns sq_root and the
    # squarefree part of |Q|^2 for each point Q
    top = 8 * box_radius * box_radius
    sq_root = np.ones(top + 1, dtype=np.int64)
    for d in range(2, math.isqrt(top) + 1):
        sq_root[:: d * d] = d
    norm = qx * qx + qy * qy
    return sq_root, norm // sq_root[norm] ** 2


def _squarefree_match(
    px: int | np.ndarray, py: int | np.ndarray, qx: np.ndarray, qy: np.ndarray, kernel: int | np.ndarray, sq_root: np.ndarray
) -> np.ndarray:
    # The first stage of the incenter test.  O, P, Q has a lattice incenter
    # only if its squared sides share one squarefree part k, so that the
    # sides are a, b, c times sqrt(k) (see incenter.lattice_incenter).
    # kernel is k of |P|^2, and of |Q|^2 too, as every Q comes from its P's
    # kernel group; so only |P - Q|^2 = k a^2 is tested, with no division,
    # and k a^2 <= 16 B^4 fits int64.  P is a point or one per Q.
    n_pq = (px - qx) ** 2 + (py - qy) ** 2
    return n_pq == kernel * sq_root[n_pq] ** 2


def _incenter_divides(
    px: int | np.ndarray, py: int | np.ndarray, qx: np.ndarray, qy: np.ndarray, sq_root: np.ndarray
) -> np.ndarray:
    # The second stage, for pairs that pass the first: the incenter
    # (b P + c Q) / (a + b + c) is a lattice point.  Every intermediate stays
    # within 8 B^2.  P is a point or one per Q.
    a = sq_root[(px - qx) ** 2 + (py - qy) ** 2]
    b = sq_root[qx * qx + qy * qy]
    c = sq_root[px * px + py * py]
    total = a + b + c
    return ((b * px + c * qx) % total == 0) & ((b * py + c * qy) % total == 0)


# Pairs tested at once: bounds the sweep's working arrays whatever the box.
# The first stage, _squarefree_match, runs on every pair of a chunk, with
# some ten int64 arrays of this length; the second, _incenter_divides, and
# the rest only on the pairs that pass it, a quarter of them at box 20 and a
# tenth at box 300.  Chunks of 2^16 pairs were no faster at box 20 (one
# chunk), a sixth faster at boxes 100 and 300, and raised a 100/60 sweep's
# peak from 36 to 40 MB.
_CHUNK_PAIRS = 1 << 14


def _search_shard(config: SearchConfig, shard_id: int) -> dict[Cell, Candidate]:
    """Sweep this shard's first vertices; the first hit per incenter cell of the config is the minimal one.

    A cell's witness is its anchored pair with the smallest grid indices
    (p_idx, q_idx).  The box and every cell are closed under the eight
    symmetries of the square (D4) applied to both P and Q, so that pair's
    P is the smallest-index point of its D4 orbit, (-x, -y) for a point
    (x, y) of the cone 0 <= y <= x.  Only those points are swept, in
    ascending index order (x descending, then y descending), each with
    the Q of its kernel group in index order; shards take every
    shard_count-th of them.  The swept pairs, in that order, are tested
    in chunks of at most _CHUNK_PAIRS, in two stages: every pair by
    _squarefree_match, then only the pairs that pass it by
    _incenter_divides and for a nonzero cross product.  A cell's first
    hit in a chunk is the first occurrence of its cell id there.  An
    earlier pair cannot hit the cell (it would be smaller), so the first
    hit per cell in the shard holding the minimum is the minimum, and
    merging shards by index gives it whatever the shard count.
    """
    box = config.box_radius
    side = 2 * box + 1
    lmax = config.lmax
    # point (x, y) has grid index (x + B) * (2B + 1) + (y + B)
    grid_x, grid_y = np.divmod(np.arange(side * side, dtype=np.int64), side)
    grid_x -= box
    grid_y -= box
    sq_root, kernel = _incenter_kernels(grid_x, grid_y, box)
    grid_gcd = np.gcd(np.abs(grid_x), np.abs(grid_y))

    # the swept first vertices, x <= y <= 0 without the origin, in index order
    swept = np.flatnonzero((grid_x < 0) & (grid_x <= grid_y) & (grid_y <= 0))[shard_id :: config.shard_count]
    swept = swept[grid_gcd[swept] + 2 <= lmax]  # else the partial perimeter is over budget
    # each P's kernel group is a run of `order`; the pairs of the shard are
    # numbered in sweep order, those of the i-th P from offsets[i] on, and
    # pair number j of that P has Q = order[shift[i] + j]
    order = np.argsort(kernel, kind="stable")
    sorted_kernel = kernel[order]
    group = kernel[swept]
    start = np.searchsorted(sorted_kernel, group, side="left")
    offsets = np.concatenate(([0], np.cumsum(np.searchsorted(sorted_kernel, group, side="right") - start)))
    shift = start - offsets[:-1]
    per_p = np.stack((swept, grid_x[swept], grid_y[swept], group, shift))  # a row per P attribute, repeated per pair
    pair_count = int(offsets[-1])

    shape_by_code = (ShapeClass.ACUTE, ShapeClass.RIGHT, ShapeClass.OBTUSE)
    shape_allowed = np.array([s in config.shapes for s in shape_by_code])
    found: dict[Cell, Candidate] = {}

    for lo in range(0, pair_count, _CHUNK_PAIRS):
        hi = min(lo + _CHUNK_PAIRS, pair_count)
        # the chunk's first vertices are swept[p_lo:p_hi], each repeated over its pairs in [lo, hi)
        p_lo, p_hi = np.searchsorted(offsets, lo, side="right") - 1, np.searchsorted(offsets, hi, side="left")
        repeats = np.diff(np.clip(offsets[p_lo : p_hi + 1], lo, hi))
        p_ids, px, py, p_kernel, shifts = np.repeat(per_p[:, p_lo:p_hi], repeats, axis=1)
        q_ids = order[shifts + np.arange(lo, hi)]
        qx, qy = grid_x[q_ids], grid_y[q_ids]
        keep = np.flatnonzero(_squarefree_match(px, py, qx, qy, p_kernel, sq_root))
        px, py, qx, qy = px[keep], py[keep], qx[keep], qy[keep]
        hits = np.flatnonzero(_incenter_divides(px, py, qx, qy, sq_root) & (px * qy != py * qx))
        if not hits.size:
            continue
        keep = keep[hits]
        p_ids, q_ids, px, py, qx, qy = p_ids[keep], q_ids[keep], px[hits], py[hits], qx[hits], qy[hits]

        perim = grid_gcd[p_ids] + grid_gcd[q_ids] + np.gcd(np.abs(px - qx), np.abs(py - qy))
        d0 = px * qx + py * qy
        d1 = px * (px - qx) + py * (py - qy)
        d2 = qx * (qx - px) + qy * (qy - py)
        min_dot = np.minimum(d0, np.minimum(d1, d2))
        shape_code = np.where(min_dot > 0, 0, np.where(min_dot == 0, 1, 2))
        survivors = np.flatnonzero((perim <= lmax) & shape_allowed[shape_code])
        cell_ids = shape_code[survivors] * (lmax + 1) + perim[survivors]
        _, first = np.unique(cell_ids, return_index=True)
        for i in survivors[np.sort(first)]:
            cell = (CenterCondition.INCENTER, shape_by_code[shape_code[i]], int(perim[i]))
            if cell not in found:
                found[cell] = (int(p_ids[i]), int(q_ids[i]), int(px[i]), int(py[i]), int(qx[i]), int(qy[i]))
    return found


def _merge_candidates(results: Sequence[dict[Cell, Candidate]]) -> dict[Cell, Candidate]:
    merged: dict[Cell, Candidate] = {}
    for partial in results:
        for cell, cand in partial.items():
            best = merged.get(cell)
            if best is None or cand[:2] < best[:2]:
                merged[cell] = cand
    return merged


def search_witnesses(config: SearchConfig) -> dict[Cell, tuple[LatticeTriangle, LatticePoint]]:
    """Find one triangle per incenter cell of the config within the box, if any exists.

    The cells are (I, shape, perimeter) for each shape of the config and
    perimeter 3..lmax; a config without I has none, and nothing is swept.
    Each hit comes checked by constructions.check_witness, as (triangle,
    the lattice incenter the check located); a hit it refuses raises its
    ValueError.  Deterministic for a fixed (box_radius, lmax, shapes):
    the triangles do not depend on shard_count.
    """
    if CenterCondition.INCENTER not in config.conditions:
        return {}
    # shards past the number of swept first vertices, the B (B + 3) / 2 points
    # with x <= y <= 0 other than the origin, would be empty
    box = config.box_radius
    shard_count = min(config.shard_count, box * (box + 3) // 2)
    if shard_count == 1:
        results = [_search_shard(config, 0)]
    else:
        with ProcessPoolExecutor(max_workers=min(shard_count, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_search_shard, config, sid) for sid in range(shard_count)]
            results = [fut.result() for fut in futures]
    merged = _merge_candidates(results)
    hits = {cell: triangle((0, 0), (px, py), (qx, qy)) for cell, (_, _, px, py, qx, qy) in merged.items()}
    return {cell: (t, check_witness(t, *cell)) for cell, t in hits.items()}


# --- the incenter scan -------------------------------------------------------


@dataclass(frozen=True)
class IncenterScanRow:
    shape: ShapeClass
    perimeter: int
    triangle: LatticeTriangle
    inradius_squared: Fraction


@dataclass(frozen=True)
class IncenterScan:
    """Empirical scan output: witnesses found in a box, nothing excluded."""

    box_radius: int
    lmax: int
    rows: tuple[IncenterScanRow, ...]


def incenter_scan(box_radius: int, lmax: int, shard_count: int = 1) -> IncenterScan:
    """One lattice-incenter witness per (shape, perimeter) cell in the box.

    Output is conjecture data bounded by the box; absence of a row says
    nothing beyond "not found with a vertex-anchored box of this radius".
    """
    config = SearchConfig(box_radius, lmax, (CenterCondition.INCENTER,), shard_count=shard_count)
    rows = []
    for cell, (tri, center) in sorted(search_witnesses(config).items(), key=lambda kv: (kv[0][2], kv[0][1].value)):
        rows.append(IncenterScanRow(cell[1], cell[2], tri, incenter_mod.incenter_report(tri, center).inradius_squared))
    return IncenterScan(box_radius, lmax, tuple(rows))


# --- the atlas ---------------------------------------------------------------


@dataclass(frozen=True)
class AtlasEntry:
    condition: CenterCondition
    shape: ShapeClass
    perimeter: int
    status: str  # "witness" | "impossible" | "open"
    witness: LatticeTriangle | None = None
    source: str | None = None  # "construction" | "search" for witnesses
    certificates: tuple[ExclusionCertificate, ...] = ()

    def fields(self) -> dict:  # the entry's JSON object without its certificates
        out: dict = {
            "condition": self.condition.value,
            "shape": self.shape.value,
            "perimeter": self.perimeter,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness_vertices"] = [[v.x, v.y] for v in self.witness.vertices]
            out["source"] = self.source
        return out


def _cell_sort_key(cell: Cell) -> tuple[int, int, int]:
    return (CONDITION_ORDER.index(cell[0]), SHAPE_ORDER.index(cell[1]), cell[2])


@dataclass
class AchievabilityAtlas:
    config: SearchConfig
    entries: dict[Cell, AtlasEntry] = field(default_factory=dict)

    def entry(self, condition: CenterCondition, shape: ShapeClass, perimeter: int) -> AtlasEntry:
        return self.entries[(condition, shape, perimeter)]

    def to_json_bytes(self) -> bytes:
        """The document as json.dumps(sort_keys=True, separators=(",", ":")) writes it, plus a newline.
        Each shared certificate is encoded once (json_text) and its text put first in every entry
        holding it ("certificates" sorts first); the small pieces are joined once, at the end."""
        compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        texts: dict[int, str] = {}  # id(certificate) -> its text
        parts, sep = ['{"config":%s,"entries":[' % compact(self.config.document_echo())], ""
        for cell in sorted(self.entries, key=_cell_sort_key):
            entry = self.entries[cell]
            fields = compact(entry.fields())
            parts.append(sep)
            if entry.certificates:
                parts.append('{"certificates":[')
                for c in entry.certificates:
                    parts += (texts.get(id(c)) or texts.setdefault(id(c), c.json_text()), ",")
                parts[-1], fields = "],", fields[1:]
            parts.append(fields)
            sep = ","
        parts.append('],"schema_version":%d}\n' % SCHEMA_VERSION)
        return "".join(parts).encode()


_CONFIG_KEYS = ("box_radius", "lmax", "conditions", "shapes")
_DOCUMENT_KEYS = ("schema_version", "config", "entries")


def _required(mapping, keys: tuple[str, ...], where: str, kinds: tuple = ()) -> list:
    # kinds: the exact type of each value, as json.loads makes it (a bool is no int), or None for any
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} is not an object")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ValueError(f"{where} has no {missing[0]!r}")
    for k, kind in zip(keys, kinds):
        if kind is not None and type(mapping[k]) is not kind:
            raise ValueError(f"{where} {k} is not {kind.__name__}: {mapping[k]!r}")
    return [mapping[k] for k in keys]


def _same(where: str, claimed, expected: dict) -> None:
    # ValueError unless claimed == expected, naming the first key that differs in reverse sorted order
    # (so a witness's vertices come before its status and cell) and claimed's value, a certificate list aside
    if claimed != expected:
        _required(claimed, (), where)
        keys = sorted({*claimed, *expected}, reverse=True)
        key = next(k for k in keys if k not in claimed or k not in expected or claimed[k] != expected[k])
        found = "is missing" if key not in claimed else "differ" if key == "certificates" else f"is {claimed[key]!r}"
        raise ValueError(f"{where} is not what its config builds: {key!r} {found}")


def _collector_paused(step):
    """step(arg) with cyclic garbage collection paused; the caller's state is put back on return and on error.

    Nothing is allocated between pause, call and resume, so no collection starts around the step.  The
    state is process-wide: concurrent pauses share one, ended by the one that found collection enabled.
    """

    @functools.wraps(step)
    def paused(arg):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return step(arg)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def atlas_from_document(doc: dict) -> AchievabilityAtlas:
    """Load an atlas document, which loads only if it is exactly the atlas its config builds.

    After the type checks on the document and its config, a document whose
    entry count is not its config's cell count is refused before anything
    is built.  Then the config and each entry must equal what
    build_atlas(config).to_json_bytes() writes, as JSON values compared by
    == (numbers by value: 5.0 equals 5, true equals 1), and that rebuilt
    atlas is returned.  A failure raises ValueError naming the cell
    (H/acute/12), the first key that differs and the document's value.

    Loading a document with I cells reruns their sweep, as long as the
    build (0.28-0.30 s at box 300 / lmax 160 on a 2-core x86 host).  Each
    certificate becomes one to_json() dict per perimeter.
    """
    version, cfg, items = _required(doc, _DOCUMENT_KEYS, "atlas document", (int, None, list))
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    if len(doc) != len(_DOCUMENT_KEYS):
        raise ValueError(f"atlas document has keys other than {_DOCUMENT_KEYS}: {sorted(doc)}")
    box_radius, lmax, conditions, shapes = _required(cfg, _CONFIG_KEYS, "atlas config", (int, int, list, list))
    config = SearchConfig(box_radius, lmax, tuple(map(CenterCondition, conditions)), tuple(map(ShapeClass, shapes)))
    _same("atlas config", cfg, config.document_echo())
    cells = len(config.conditions) * len(config.shapes) * (config.lmax - 2)
    if len(items) != cells:
        raise ValueError(f"atlas document has {len(items)} entries, not the {cells} cells of its config")
    atlas = build_atlas(config)
    written = sorted(atlas.entries, key=_cell_sort_key)  # perimeters 3..lmax for each (condition, shape)
    for first in range(config.lmax - 2):  # one perimeter at a time
        fresh: dict[int, dict] = {}  # id(certificate) -> its to_json()
        for cell, item in zip(written[first :: config.lmax - 2], items[first :: config.lmax - 2]):
            entry = atlas.entries[cell]
            expected = entry.fields()
            certificates = entry.certificates
            if certificates:
                expected["certificates"] = [fresh.get(id(c)) or fresh.setdefault(id(c), c.to_json()) for c in certificates]
            _same(f"atlas entry {cell[0]}/{cell[1]}/{cell[2]}", item, expected)
    return atlas


def resolve_cell(
    condition: CenterCondition, shape: ShapeClass, perimeter: int, sides: PerimeterSides | None = None
) -> Witness | ExclusionReport | None:
    """Decide one cell from the tables: the construction's witness where constructions.ACHIEVABLE
    admits the perimeter, else the exclusion report proving the cell impossible, and None where
    ACHIEVABLE has no row for (condition, shape), so that only the search can fill the cell.

    A cell that ACHIEVABLE refuses and no certificate settles raises ArithmeticError.
    sides: the perimeter's PerimeterSides, when the caller shares one across cells.
    """
    if (condition, shape) not in ACHIEVABLE:
        return None
    try:
        return build_witness(WitnessRequest(condition, shape, perimeter))
    except UnachievableError:
        report = exclusion_report(perimeter, condition, shape, sides)
    if not report.proven_impossible:
        raise ArithmeticError(f"cell {condition}/{shape}/{perimeter} is neither built nor excluded")
    return report


@_collector_paused
def build_atlas(config: SearchConfig) -> AchievabilityAtlas:
    """Resolve every (condition, shape, perimeter) cell of the config through resolve_cell.

    A cell it leaves to the search holds the search's witness, or open for
    absence from the box, never impossible.  This is the atlas policy, and
    atlas_from_document loads a document by running it again.  Cells are
    walked perimeter by perimeter, so that the exclusion reports of one
    perimeter share one PerimeterSides.  The build runs with the cyclic
    collector paused: its some 10^5 new containers hold no cycles.
    """
    atlas = AchievabilityAtlas(config)
    for ell in range(3, config.lmax + 1):
        sides = PerimeterSides(ell)
        for condition in config.conditions:
            for shape in config.shapes:
                cell = (condition, shape, ell)
                resolved = resolve_cell(condition, shape, ell, sides)
                if resolved is None:
                    atlas.entries[cell] = AtlasEntry(*cell, "open")  # unless the search finds a witness
                elif isinstance(resolved, ExclusionReport):
                    atlas.entries[cell] = AtlasEntry(*cell, "impossible", certificates=resolved.certificates)
                else:
                    atlas.entries[cell] = AtlasEntry(*cell, "witness", resolved.triangle, "construction")
    for cell, (hit, _) in search_witnesses(config).items():
        atlas.entries[cell] = AtlasEntry(*cell, "witness", hit, "search")
    return atlas
