"""Bounded search over lattice triangles and the achievability atlas.

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
vectorized over Q for each P, and every lattice test is exact integer
arithmetic.  The circumcenter, centroid and orthocenter flags are the
divisibility tests of centers.lattice_centers run on int64 arrays
(center_numerators, center_flags), and each condition's mask is
CenterCondition.met_by of them.  The incenter needs a squarefree-part match
of the squared sides and one divisibility, so only the Q whose |Q|^2 has the
squarefree part of |P|^2 can hit: a P that needs only the incenter sweeps that
kernel group, and only F, G and H sweep the whole grid.  Sharding splits the
swept points round-robin; per-cell results merge by minimal (P index, Q index), so output is independent of the shard count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import incenter as incenter_mod
from .centers import CenterCondition, center_flags, center_numerators, lattice_centers
from .centers import center_report  # noqa: F401 (importable from here, as before)
from .constructions import ACHIEVABLE, UnachievableError, WitnessRequest, build_witness
from .feasibility import ExclusionCertificate, PerimeterSides, exclusion_report
from .feasibility import replay  # noqa: F401 (importable from here, as before)
from .lattice import (
    LatticeTriangle,
    ShapeClass,
    classify_shape,
    lattice_perimeter,
    triangle,
)

SCHEMA_VERSION = 1

CONDITION_ORDER = tuple(CenterCondition)

SHAPE_ORDER = (ShapeClass.ACUTE, ShapeClass.OBTUSE, ShapeClass.RIGHT)

STANDARD_CONDITIONS = CONDITION_ORDER[:5]

# Largest accepted box radius, for memory first: an F, G or H sweep builds
# its per-P arrays on the whole (2B + 1)^2 grid (the incenter on P's kernel
# group), so its peak grows as about 1.15 KB * B^2, some 1.2 GB at B = 1000.
# The int64 circumcenter numerators (up to 8 B^3) would wrap around beyond B = 10^6.
MAX_BOX_RADIUS = 1000

# Checkpoint tag of the first-vertex sweep: one point per D4 orbit,
# round-robin over shards (see _search_shard).
_SWEEP = "d4-orbit-minima"


def _grid_points(box_radius: int) -> list[tuple[int, int]]:
    # [-B, B]^2 in grid-index order: point (x, y) has index (x + B) * (2B + 1) + (y + B)
    span = range(-box_radius, box_radius + 1)
    return [(x, y) for x in span for y in span]


def _cone_points(width: int) -> list[tuple[int, int]]:
    # 0 <= y <= x <= width without the origin: each D4 orbit of a nonzero
    # point of [-width, width]^2 has exactly one member here, (max, min) of |x|, |y|
    return [(x, y) for x in range(1, width + 1) for y in range(0, x + 1)]


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

    def run_hash(self) -> str:
        # The sweep tag names how shards partition the search, so records
        # written under another partition are never merged with these.
        payload = dict(self.document_echo(), shard_count=self.shard_count, sweep=_SWEEP)
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


Cell = tuple[CenterCondition, ShapeClass, int]
# (p_idx, q_idx, px, py, qx, qy): indices give the deterministic merge order
Candidate = tuple[int, int, int, int, int, int]


def _incenter_kernels(qx: np.ndarray, qy: np.ndarray, box_radius: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    # sq_root[n] is the largest d with d^2 | n for 0 <= n <= 8 B^2, so n's
    # squarefree part is n // sq_root[n]^2; the grid's indices grouped by
    # the squarefree part of |Q|^2, in index order within each group
    top = 8 * box_radius * box_radius
    sq_root = np.ones(top + 1, dtype=np.int64)
    for d in range(2, math.isqrt(top) + 1):
        sq_root[:: d * d] = d
    norm = qx * qx + qy * qy
    kernel = norm // sq_root[norm] ** 2
    order = np.argsort(kernel, kind="stable")
    keys, starts = np.unique(kernel[order], return_index=True)
    return sq_root, dict(zip(keys.tolist(), np.split(order, starts[1:])))


def _incenter_mask(px: int, py: int, qx: np.ndarray, qy: np.ndarray, sq_root: np.ndarray) -> np.ndarray:
    # O, P, Q has a lattice incenter exactly when its squared sides share
    # one squarefree part k, so that the sides are a, b, c times sqrt(k),
    # and (b P + c Q) / (a + b + c) is a lattice point (see
    # incenter.lattice_incenter); every intermediate stays within 8 B^2
    c = int(sq_root[px * px + py * py])
    kernel = (px * px + py * py) // (c * c)
    n_pq, n_q = (px - qx) ** 2 + (py - qy) ** 2, qx * qx + qy * qy
    a, b = sq_root[n_pq], sq_root[n_q]
    total = a + b + c
    same = (n_q // (b * b) == kernel) & (n_pq // (a * a) == kernel)
    return same & ((b * px + c * qx) % total == 0) & ((b * py + c * qy) % total == 0)


def _search_shard(config: SearchConfig, shard_id: int, cells_needed: frozenset[Cell]) -> dict[Cell, Candidate]:
    """Sweep this shard's first vertices; the first hit per cell is the minimal one.

    A cell's witness is its anchored pair with the smallest grid indices
    (p_idx, q_idx).  The box and every cell are closed under the eight
    symmetries of the square (D4) applied to both P and Q, so that pair's
    P is the smallest-index point of its D4 orbit, (-x, -y) for a point
    (x, y) of the cone 0 <= y <= x.  Only those points are swept, in
    ascending index order (x descending, then y descending), each with
    its candidate Q in index order (P's kernel group if P needs only the
    incenter, else the box); shards take every shard_count-th of them.
    An earlier P cannot hit the cell (its pair would be smaller), so the
    first hit per cell in the shard holding the minimum is the minimum,
    and merging shards by index gives it whatever the shard count.
    """
    box = config.box_radius
    side = 2 * box + 1
    grid_x, grid_y = np.array(_grid_points(box), dtype=np.int64).T
    # one column per grid point, in index order: x, y, gcd(x, y), index
    grid = np.stack([grid_x, grid_y, np.gcd(np.abs(grid_x), np.abs(grid_y)), np.arange(side * side)])
    lmax = config.lmax

    shape_by_code = (ShapeClass.ACUTE, ShapeClass.RIGHT, ShapeClass.OBTUSE)
    shape_allowed = np.array([s in config.shapes for s in shape_by_code])
    conditions = [c for c in config.conditions if any(c == cell[0] for cell in cells_needed)]
    if CenterCondition.INCENTER in conditions:
        sq_root, groups = _incenter_kernels(grid_x, grid_y, box)

    found: dict[Cell, Candidate] = {}
    remaining = set(cells_needed)

    for x, y in _cone_points(box)[::-1][shard_id :: config.shard_count]:
        if not remaining:
            break
        px, py = -x, -y
        p_idx = (px + box) * side + py + box
        gp = math.gcd(px, py)
        if gp + 2 > lmax:
            continue  # partial perimeter already over budget

        # only P's kernel group can meet the incenter test; F, G and H sweep the whole grid, as views
        need = [c for c in conditions if any(cell[0] == c for cell in remaining)]
        norm = px * px + py * py
        cand = groups[norm // int(sq_root[norm]) ** 2] if need == [CenterCondition.INCENTER] else slice(None)
        qx, qy, gcd_q, q_ids = grid[:, cand]
        cross = px * qy - py * qx
        valid = cross != 0
        gcd_pq = np.gcd(np.abs(px - qx), np.abs(py - qy))
        perim = gp + gcd_q + gcd_pq
        valid &= perim <= lmax
        if not valid.any():
            continue

        d0 = px * qx + py * qy
        d1 = px * (px - qx) + py * (py - qy)
        d2 = qx * (qx - px) + qy * (qy - py)
        min_dot = np.minimum(d0, np.minimum(d1, d2))
        shape_code = np.where(min_dot > 0, 0, np.where(min_dot == 0, 1, 2))
        base = valid & shape_allowed[shape_code]
        if not base.any():
            continue

        if any(c is not CenterCondition.INCENTER for c in need):
            letters = "".join(c.value for c in need)
            # kept in a name until the next P's replace them: freed at once, on
            # top of the heap, these whole-grid arrays go back to the system
            # and are faulted in again
            numerators = center_numerators(px, py, qx, qy, cross, d0, letters)
            flags = center_flags(np.where(valid, cross, 1), *numerators, letters)
        for cond in need:
            if cond is CenterCondition.INCENTER:
                combined = base & _incenter_mask(px, py, qx, qy, sq_root)
            else:
                combined = base & cond.met_by(flags)
            if not combined.any():
                continue
            survivors = np.flatnonzero(combined)
            cell_ids = shape_code[survivors] * (lmax + 1) + perim[survivors]
            _, first = np.unique(cell_ids, return_index=True)
            for i in survivors[np.sort(first)]:
                cell = (cond, shape_by_code[shape_code[i]], int(perim[i]))
                if cell not in remaining:
                    continue
                found[cell] = (p_idx, int(q_ids[i]), px, py, int(qx[i]), int(qy[i]))
                remaining.discard(cell)
    return found


def _merge_candidates(results: Sequence[dict[Cell, Candidate]]) -> dict[Cell, Candidate]:
    merged: dict[Cell, Candidate] = {}
    for partial in results:
        for cell, cand in partial.items():
            best = merged.get(cell)
            if best is None or cand[:2] < best[:2]:
                merged[cell] = cand
    return merged


def _checkpoint_path(directory: str, config: SearchConfig) -> str:
    return os.path.join(directory, f"search-{config.run_hash()}.jsonl")


def _cells_hash(cells: frozenset[Cell]) -> str:
    listed = sorted((c.value, s.value, ell) for c, s, ell in cells)
    return hashlib.sha256(json.dumps(listed).encode()).hexdigest()[:16]


_RECORD_KEYS = ("config_hash", "cells_hash", "shard_id", "status", "found")
_FOUND_KEYS = ("condition", "shape", "perimeter", "p_idx", "q_idx", "vertices")


def _load_checkpoint(path: str, config: SearchConfig, cells_hash: str) -> dict[int, dict[Cell, Candidate]]:
    done: dict[int, dict[Cell, Candidate]] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb") as fh:
        data = fh.read()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        # A record torn by an interrupted write: drop it so the next one
        # starts on a fresh line; its shard simply runs again.
        os.truncate(path, complete)
    for line in data[:complete].splitlines():
        if not line.strip():
            continue
        config_hash, record_cells, shard_id, status, found = _required(
            json.loads(line), _RECORD_KEYS, "checkpoint record", (str, str, int, str, list)
        )
        if (config_hash, record_cells, status) != (config.run_hash(), cells_hash, "done"):
            continue
        partial: dict[Cell, Candidate] = {}
        for item in found:
            kinds = (str, str, int, int, int)
            cond, shape, ell, p_idx, q_idx, verts = _required(item, _FOUND_KEYS, "checkpoint item", kinds)
            _, (px, py), (qx, qy) = _vertices(verts, "checkpoint item")
            partial[(CenterCondition(cond), ShapeClass(shape), ell)] = (p_idx, q_idx, px, py, qx, qy)
        done[shard_id] = partial
    return done


def _append_checkpoint(
    path: str, config: SearchConfig, cells_hash: str, shard_id: int, partial: dict[Cell, Candidate]
) -> None:
    record = {
        "config_hash": config.run_hash(),
        "cells_hash": cells_hash,
        "shard_id": shard_id,
        "status": "done",
        "found": [
            {
                "condition": cell[0].value,
                "shape": cell[1].value,
                "perimeter": cell[2],
                "p_idx": cand[0],
                "q_idx": cand[1],
                "vertices": [[0, 0], [cand[2], cand[3]], [cand[4], cand[5]]],
            }
            for cell, cand in sorted(partial.items(), key=lambda kv: _cell_sort_key(kv[0]))
        ],
    }
    # one write per record, so a crash can tear at most the last line
    with open(path, "ab") as fh:
        fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
        fh.flush()


def search_witnesses(
    config: SearchConfig,
    cells_needed: frozenset[Cell],
    checkpoint_dir: str | None = None,
) -> dict[Cell, LatticeTriangle]:
    """Find one triangle per requested cell within the box, if any exists.

    Deterministic for a fixed (box_radius, lmax, conditions, shapes):
    the triangles do not depend on shard_count or on checkpoint reuse.
    """
    if not cells_needed:
        return {}
    checkpoint = None
    cells_hash = _cells_hash(cells_needed)
    cached: dict[int, dict[Cell, Candidate]] = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        checkpoint = _checkpoint_path(checkpoint_dir, config)
        cached = _load_checkpoint(checkpoint, config, cells_hash)

    # shards past the number of swept first vertices would be empty
    shard_count = min(config.shard_count, len(_cone_points(config.box_radius)))
    shard_ids = [s for s in range(shard_count) if s not in cached]
    results: dict[int, dict[Cell, Candidate]] = dict(cached)
    if shard_ids:
        if len(shard_ids) == 1:
            for sid in shard_ids:
                results[sid] = _search_shard(config, sid, cells_needed)
        else:
            workers = min(len(shard_ids), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    sid: pool.submit(_search_shard, config, sid, cells_needed)
                    for sid in shard_ids
                }
                for sid, fut in futures.items():
                    results[sid] = fut.result()
        if checkpoint is not None:
            for sid in shard_ids:
                _append_checkpoint(checkpoint, config, cells_hash, sid, results[sid])

    merged = _merge_candidates([results[sid] for sid in sorted(results)])
    return {cell: triangle((0, 0), (px, py), (qx, qy)) for cell, (_, _, px, py, qx, qy) in merged.items()}


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

    def achievable(self, condition: CenterCondition, shape: ShapeClass) -> set[int]:
        return {
            cell[2]
            for cell, e in self.entries.items()
            if cell[0] is condition and cell[1] is shape and e.status == "witness"
        }

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


def _verify_witness_entry(entry: AtlasEntry) -> None:
    t = entry.witness
    assert t is not None
    if entry.condition is not CenterCondition.INCENTER:
        meets = entry.condition.met_by(lattice_centers(t))
    else:
        meets = incenter_mod.lattice_incenter(t) is not None
    if not meets or classify_shape(t) is not entry.shape or lattice_perimeter(t) != entry.perimeter:
        raise ValueError(f"witness {t} does not verify for {entry.condition}/{entry.shape}/{entry.perimeter}")


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
    if status != "witness":
        if "witness_vertices" in item or "source" in item:
            raise ValueError(f"{status} entry {cell} carries a witness")
        return AtlasEntry(*cell, status)
    verts, source = _required(item, ("witness_vertices", "source"), f"witness entry {cell}")
    if source not in ("construction", "search"):
        raise ValueError(f"witness entry {cell} has unknown source {source!r}")
    witness = triangle(*map(tuple, _vertices(verts, f"witness entry {cell}")))
    entry = AtlasEntry(*cell, status, witness, source)
    _verify_witness_entry(entry)
    return entry


def atlas_from_document(doc: dict) -> AchievabilityAtlas:
    """Parse an atlas document, re-verifying every claim it makes.

    The entries must be the cells of the document's config, each exactly
    once.  Every witness is verified.  An impossible entry's certificates
    must equal, dict for dict, those of a fresh exclusion_report for its
    cell, which must prove the cell impossible; the entry keeps the fresh
    certificates.  So a certificate edited, dropped or copied from
    another cell is rejected, and so are certificates or a witness on an
    entry of another status.  The reports of one perimeter share one
    PerimeterSides, and each certificate object becomes one to_json()
    dict for every claim it is compared with.  Each of these failures,
    and a missing or wrongly typed value anywhere, raises ValueError.
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


def build_atlas(
    config: SearchConfig,
    seed_constructions: bool = True,
    checkpoint_dir: str | None = None,
) -> AchievabilityAtlas:
    """Resolve every (condition, shape, perimeter) cell of the config.

    Construction families seed witnesses, exclusion filters certify the
    impossible cells, and the box search fills whatever is left (which is
    every incenter cell, since no impossibility rules exist for it).
    Absence from the box is recorded as open, never as impossible.
    Cells are walked perimeter by perimeter, so that the exclusion
    reports of one perimeter share one PerimeterSides.
    """
    atlas = AchievabilityAtlas(config)
    unresolved: list[Cell] = []
    for ell in range(3, config.lmax + 1):
        sides = PerimeterSides(ell)
        for condition in config.conditions:
            for shape in config.shapes:
                cell = (condition, shape, ell)
                entry = None
                if condition is not CenterCondition.INCENTER:
                    if seed_constructions:
                        try:
                            witness = build_witness(WitnessRequest(condition, shape, ell))
                            entry = AtlasEntry(
                                condition, shape, ell, "witness", witness.triangle, "construction"
                            )
                        except UnachievableError:
                            entry = None
                    if entry is None:
                        report = exclusion_report(ell, condition, shape, sides)
                        if report.proven_impossible:
                            entry = AtlasEntry(
                                condition, shape, ell, "impossible",
                                certificates=report.certificates,
                            )
                if entry is not None:
                    atlas.entries[cell] = entry
                else:
                    unresolved.append(cell)

    hits = search_witnesses(config, frozenset(unresolved), checkpoint_dir)
    for cell in unresolved:
        hit = hits.get(cell)
        if hit is None:
            atlas.entries[cell] = AtlasEntry(*cell, status="open")
        else:
            entry = AtlasEntry(*cell, status="witness", witness=hit, source="search")
            _verify_witness_entry(entry)
            atlas.entries[cell] = entry
    return atlas


# --- summary-table verification ---------------------------------------------


@dataclass(frozen=True)
class TableCell:
    condition: CenterCondition
    shape: ShapeClass
    expression: str
    verdicts: tuple[tuple[int, str], ...]  # (perimeter, "match"|"mismatch"|"open")

    @property
    def verdict(self) -> str:
        kinds = {v for _, v in self.verdicts}
        if "mismatch" in kinds:
            return "mismatch"
        if "open" in kinds:
            return "open"
        return "match"


def verify_results_table(
    lmax: int = 24,
    box_radius: int = 40,
    atlas: AchievabilityAtlas | None = None,
    checkpoint_dir: str | None = None,
) -> list[TableCell]:
    """Compare the atlas against the achievable-perimeter sets of ACHIEVABLE.

    Per perimeter: match when an expected-achievable cell holds a witness
    or an expected-impossible cell holds certificates; open when the
    atlas left the cell empirically unresolved; mismatch otherwise.
    """
    if atlas is None:
        config = SearchConfig(box_radius=box_radius, lmax=lmax, conditions=STANDARD_CONDITIONS)
        atlas = build_atlas(config, checkpoint_dir=checkpoint_dir)
    cells = []
    for condition in atlas.config.conditions:
        if condition is CenterCondition.INCENTER:
            continue  # empirical only; ACHIEVABLE has no row for it
        for shape in atlas.config.shapes:
            expected, expression = ACHIEVABLE[(condition, shape)]
            verdicts = []
            for ell in range(3, min(lmax, atlas.config.lmax) + 1):
                entry = atlas.entry(condition, shape, ell)
                if entry.status == "open":
                    verdicts.append((ell, "open"))
                elif (entry.status == "witness") == expected(ell):
                    verdicts.append((ell, "match"))
                else:
                    verdicts.append((ell, "mismatch"))
            cells.append(TableCell(condition, shape, expression, tuple(verdicts)))
    return cells
