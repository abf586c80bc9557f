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
for is left to the search.  The sweep tests the lattice incenter, for
every incenter cell of its config, for the atlas and for incenter_scan
alike, and search_witnesses hands on each hit checked by
constructions.check_witness, the check the families and the atlas loader
make, with the incenter that check located.  A lattice incenter needs a
squarefree-part match of the squared sides and one divisibility, so only
the Q whose |Q|^2 has the squarefree part of |P|^2 can hit: each P
sweeps that kernel group.  Sharding splits the swept points
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


def _incenter_mask(
    px: int | np.ndarray, py: int | np.ndarray, qx: np.ndarray, qy: np.ndarray, sq_root: np.ndarray
) -> np.ndarray:
    # O, P, Q has a lattice incenter exactly when its squared sides share
    # one squarefree part k, so that the sides are a, b, c times sqrt(k),
    # and (b P + c Q) / (a + b + c) is a lattice point (see
    # incenter.lattice_incenter); every Q comes from its P's kernel group,
    # so only |P - Q|^2 is compared, and every intermediate stays within
    # 8 B^2.  P is a point or one per Q.
    n_p = px * px + py * py
    c = sq_root[n_p]
    n_pq = (px - qx) ** 2 + (py - qy) ** 2
    a, b = sq_root[n_pq], sq_root[qx * qx + qy * qy]
    total = a + b + c
    return (n_pq // (a * a) == n_p // (c * c)) & ((b * px + c * qx) % total == 0) & ((b * py + c * qy) % total == 0)


# Pairs tested at once: bounds the sweep's working arrays (some twenty int64
# arrays of this length) whatever the box.  Chunks of 2^16 pairs were no
# faster at boxes 20 to 300 and raised a 100/60 sweep's peak by 6 MB.
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
    in chunks of at most _CHUNK_PAIRS, and a cell's first hit in a chunk
    is the first occurrence of its cell id there.  An earlier pair cannot
    hit the cell (it would be smaller), so the first hit per cell in the
    shard holding the minimum is the minimum, and merging shards by
    index gives it whatever the shard count.
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
    # numbered in sweep order, P's from offsets[i] on
    order = np.argsort(kernel, kind="stable")
    sorted_kernel = kernel[order]
    group = kernel[swept]
    start = np.searchsorted(sorted_kernel, group, side="left")
    offsets = np.concatenate(([0], np.cumsum(np.searchsorted(sorted_kernel, group, side="right") - start)))
    pair_count = int(offsets[-1])

    shape_by_code = (ShapeClass.ACUTE, ShapeClass.RIGHT, ShapeClass.OBTUSE)
    shape_allowed = np.array([s in config.shapes for s in shape_by_code])
    found: dict[Cell, Candidate] = {}

    for lo in range(0, pair_count, _CHUNK_PAIRS):
        pair = np.arange(lo, min(lo + _CHUNK_PAIRS, pair_count))
        p_pos = np.searchsorted(offsets, pair, side="right") - 1
        p_ids = swept[p_pos]
        q_ids = order[start[p_pos] + pair - offsets[p_pos]]
        px, py, qx, qy = grid_x[p_ids], grid_y[p_ids], grid_x[q_ids], grid_y[q_ids]
        hits = np.flatnonzero(_incenter_mask(px, py, qx, qy, sq_root) & (px * qy != py * qx))
        if not hits.size:
            continue
        p_ids, q_ids, px, py, qx, qy = p_ids[hits], q_ids[hits], px[hits], py[hits], qx[hits], qy[hits]

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

    def __post_init__(self) -> None:
        if self.status not in ("witness", "impossible", "open"):
            raise ValueError(f"unknown atlas entry status {self.status!r}")

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
_ENTRY_KEYS = ("condition", "shape", "perimeter", "status")


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


def _vertices(verts, where: str) -> list:
    if type(verts) is not list or [type(v) is list and list(map(type, v)) for v in verts] != [[int, int]] * 3:
        raise ValueError(f"{where} needs three [int, int] vertices, not {verts!r}")
    return verts


def _parse_entry(item, config: SearchConfig) -> AtlasEntry:
    condition, shape, perimeter, status = _required(item, _ENTRY_KEYS, "atlas entry", (None, None, int))
    cell = (CenterCondition(condition), ShapeClass(shape), perimeter)
    if cell[0] not in config.conditions or cell[1] not in config.shapes or not 3 <= cell[2] <= config.lmax:
        raise ValueError(f"atlas entry {cell} lies outside the config")
    if "certificates" in item and status != "impossible":
        raise ValueError(f"{status} entry {cell} carries certificates")
    if status == "open" and cell[:2] in ACHIEVABLE:
        raise ValueError(f"open entry {cell}: a construction or certificates decide its cell")
    if status != "witness":
        if "witness_vertices" in item or "source" in item:
            raise ValueError(f"{status} entry {cell} carries a witness")
        return AtlasEntry(*cell, status)
    verts, source = _required(item, ("witness_vertices", "source"), f"witness entry {cell}")
    expected = "construction" if cell[:2] in ACHIEVABLE else "search"  # as resolve_cell and build_atlas give it
    if source != expected:
        raise ValueError(f"witness entry {cell} has source {source!r}, not {expected!r}")
    witness = triangle(*map(tuple, _vertices(verts, f"witness entry {cell}")))
    check_witness(witness, *cell)
    return AtlasEntry(*cell, status, witness, source)


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
    """Parse an atlas document, re-verifying every claim it makes.

    The entries must be the cells of the document's config, each exactly
    once.  Every witness must pass constructions.check_witness for its
    cell.  An impossible entry's certificates must equal, dict for dict,
    those of a fresh exclusion_report for its cell, which must prove the
    cell impossible; the entry keeps the fresh certificates.  So a certificate edited, dropped or copied from
    another cell is rejected, and so are certificates or a witness on an
    entry of another status.  Where constructions.ACHIEVABLE has a row
    for the cell, as resolve_cell reads it, the entry may not be open and
    its witness's source must be "construction"; elsewhere the source
    must be "search".  The reports of one perimeter share one
    PerimeterSides, and each certificate object becomes one to_json()
    dict for every claim it is compared with.  Each of these failures,
    and a missing or wrongly typed value anywhere, raises ValueError.

    The load runs with the cyclic garbage collector paused
    (_collector_paused): it allocates some 10^5 containers that hold no
    cycles (reports, certificates, to_json dicts), and the collections
    they trigger rescan the whole parsed document: 0.05-0.10 s of a
    0.29-0.35 s load (json.loads included) of the lmax 90 / box 40 atlas,
    in process on a 2-core x86 host.
    """
    version, cfg, items = _required(doc, ("schema_version", "config", "entries"), "atlas document", (int, None, list))
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    box_radius, lmax, conditions, shapes = _required(cfg, _CONFIG_KEYS, "atlas config", (int, int, list, list))
    config = SearchConfig(
        box_radius=box_radius,
        lmax=lmax,
        conditions=tuple(CenterCondition(c) for c in conditions),
        shapes=tuple(ShapeClass(s) for s in shapes),
    )
    atlas = AchievabilityAtlas(config)
    claims: dict[int, list[tuple[Cell, object]]] = {}  # impossible cells by perimeter
    for item in items:
        entry = _parse_entry(item, config)
        cell = (entry.condition, entry.shape, entry.perimeter)
        if cell in atlas.entries:
            raise ValueError(f"atlas cell {cell} appears twice")
        atlas.entries[cell] = entry
        if entry.status == "impossible":
            claims.setdefault(entry.perimeter, []).append((cell, item.get("certificates")))
    if len(atlas.entries) < len(config.conditions) * len(config.shapes) * (config.lmax - 2):
        # every entry is a distinct cell of the config, so some cell has none
        cells = ((c, s, ell) for c in config.conditions for s in config.shapes for ell in range(3, config.lmax + 1))
        missing = next(cell for cell in cells if cell not in atlas.entries)
        raise ValueError(f"atlas document has no entry for cell {missing}")
    for perimeter, cells in claims.items():
        sides = PerimeterSides(perimeter)
        fresh: dict[int, dict] = {}  # id(certificate) -> its to_json(), made once per object
        for cell, claimed in cells:
            report = exclusion_report(perimeter, cell[0], cell[1], sides)
            expected = [fresh.get(id(c)) or fresh.setdefault(id(c), c.to_json()) for c in report.certificates]
            if not report.proven_impossible or expected != claimed:
                raise ValueError(f"certificates of {cell} differ from its exclusion report")
            atlas.entries[cell] = AtlasEntry(*cell, "impossible", certificates=report.certificates)
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
    absence from the box, never impossible.  Cells are walked perimeter by
    perimeter, so that the exclusion reports of one perimeter share one
    PerimeterSides.

    Like the load, the build runs with the collector paused: its some 10^5
    containers with no cycles (certificates, side multisets, reports)
    would trigger collections that rescan the growing atlas.
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
