"""Poisson-Voronoi street systems on the torus.

A street graph is the edge skeleton of a Voronoi tessellation whose seed
points live on the torus.  Since no planar Voronoi library understands
periodic boundaries, the tessellation is computed for nine translated copies
of the seed set (the original cell surrounded by its eight neighbors) and
the edges are then imported back onto the torus:

* both endpoints inside the fundamental cell -> imported directly;
* exactly one endpoint inside -> the outside endpoint is wrapped and matched
  to its image vertex, the edge keeps its original planar length and records
  where it pierces the cell boundary (display metadata);
* neither endpoint inside -> skipped (an image of it is imported instead).

Degenerate seed configurations (near-cocircular points, unmatched image
vertices) have probability zero and are handled by resampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Voronoi, cKDTree

from .torus import TorusPoint, boundary_crossing_points, min_image_delta, torus_distance, wrap

__all__ = [
    "StreetPosition",
    "Street",
    "VoronoiCell",
    "StreetGraph",
    "CellIndex",
    "StreetArrays",
    "StreetGrid",
    "DegenerateTessellation",
    "calibrate_seed_intensity",
    "generate_pvt",
    "build_from_seeds",
    "build_cell_index",
    "project_to_streets",
    "total_street_length",
]

# matching radius when identifying a wrapped Voronoi vertex with its image
_MATCH_RADIUS = 1e-6

# street boxes in the street grid, and the boxes of the discs queried
# against it, are padded by this fraction of the torus side: far above the
# rounding of the grid arithmetic, so no street a disc touches is missed
STREET_GRID_PAD = 1e-6

# largest temporary array, in elements, that a batched waypoint kernel builds
# at once; larger batches are split, so memory stays flat in the device count
KERNEL_BATCH_ELEMENTS = 1 << 18


class DegenerateTessellation(Exception):
    """Raised when a sampled seed set produces a tessellation we reject."""


class StreetPosition(NamedTuple):
    """A point on a street as a linear combination of its endpoints.

    ``(street, v1, v2, p)`` and ``(street, v2, v1, 1-p)`` refer to the same
    point.  Moving devices store the orientation in which the fraction p
    increases along the direction of travel.  The street id disambiguates
    parallel streets between the same pair of crossings.  It is a named
    tuple because the event loop builds one per event, and a tuple is the
    cheapest immutable record to build.
    """

    street: int
    v1: int
    v2: int
    p: float

    def flipped(self) -> "StreetPosition":
        return StreetPosition(self.street, self.v2, self.v1, 1.0 - self.p)


@dataclass(slots=True)
class Street:
    id: int
    u: int
    v: int
    length: float
    # unwrapped displacement from u to v; |delta| == length
    delta: tuple[float, float]
    # Voronoi cells on either side (may coincide on very small tori)
    cells: tuple[int, int]
    # boundary exit/re-entry points for streets crossing the torus boundary
    wrap_info: tuple[tuple[float, float], tuple[float, float]] | None = None
    devices: set[int] = field(default_factory=set)


@dataclass(slots=True)
class VoronoiCell:
    id: int
    seed: TorusPoint
    edge_ids: list[int]


class StreetGraph:
    """Street system on the torus: crossings, streets and Voronoi cells."""

    __slots__ = ("L", "vertices", "edges", "cells", "_adjacency", "_street_grid",
                 "_street_arrays")

    def __init__(self, L, vertices, edges, cells):
        self.L = L
        self.vertices: dict[int, TorusPoint] = vertices
        self.edges: dict[int, Street] = edges
        self.cells: dict[int, VoronoiCell] = cells
        self._adjacency = None
        self._street_grid = None
        self._street_arrays = None

    def adjacency(self) -> dict[int, list[tuple[int, float, int]]]:
        """vertex id -> sorted list of (neighbor vertex, length, street id)."""
        if self._adjacency is None:
            adj: dict[int, list[tuple[int, float, int]]] = {v: [] for v in self.vertices}
            for e in self.edges.values():
                adj[e.u].append((e.v, e.length, e.id))
                adj[e.v].append((e.u, e.length, e.id))
            for lst in adj.values():
                lst.sort()
            self._adjacency = adj
        return self._adjacency

    def street_grid(self) -> "StreetGrid":
        """Regular torus grid listing, per square, the streets that may meet it.

        There are floor(sqrt(#streets)) squares per side.  A street is listed
        in every square (index modulo the grid) that its unwrapped bounding
        box from ``u`` to ``u + delta``, padded by ``STREET_GRID_PAD * 2L``,
        covers.  Built on first use and cached.
        """
        if self._street_grid is None:
            self._street_grid = StreetGrid.build(self)
        return self._street_grid

    def street_arrays(self) -> "StreetArrays":
        """Per-street geometry columns for the batched waypoint kernels.

        Built on first use and cached, like ``street_grid()``.
        """
        if self._street_arrays is None:
            self._street_arrays = StreetArrays.build(self)
        return self._street_arrays

    def clear_devices(self) -> None:
        for e in self.edges.values():
            e.devices.clear()

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        verts = [
            {"id": vid, "x": pos.x, "y": pos.y}
            for vid, pos in sorted(self.vertices.items())
        ]
        edges = []
        for eid, e in sorted(self.edges.items()):
            rec = {"id": eid, "u": e.u, "v": e.v, "length": e.length}
            if e.wrap_info is not None:
                (x1, y1), (x2, y2) = e.wrap_info
                rec["wrap"] = [x1, y1, x2, y2]
            edges.append(rec)
        cells = [
            {"id": cid, "seed_x": c.seed.x, "seed_y": c.seed.y, "edge_ids": sorted(c.edge_ids)}
            for cid, c in sorted(self.cells.items())
        ]
        return {"L": self.L, "vertices": verts, "edges": edges, "cells": cells}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "StreetGraph":
        L = float(data["L"])
        if not (math.isfinite(L) and L > 0.0):
            raise ValueError(f"torus half-side L must be finite and positive, got {L}")
        vertices = {int(v["id"]): TorusPoint(float(v["x"]), float(v["y"])) for v in data["vertices"]}
        # invert the cell -> edges mapping to recover per-edge cell pairs
        edge_cells: dict[int, list[int]] = {}
        cells = {}
        for c in data["cells"]:
            cid = int(c["id"])
            eids = [int(e) for e in c["edge_ids"]]
            cells[cid] = VoronoiCell(cid, TorusPoint(float(c["seed_x"]), float(c["seed_y"])), eids)
            for eid in eids:
                edge_cells.setdefault(eid, []).append(cid)
        edges = {}
        for e in data["edges"]:
            eid = int(e["id"])
            u, v = int(e["u"]), int(e["v"])
            length = float(e["length"])
            delta = min_image_delta(vertices[u], vertices[v], L)
            if abs(math.hypot(*delta) - length) > 1e-6:
                raise ValueError(f"edge {eid}: stored length {length} inconsistent with geometry")
            wrap_pts = None
            if "wrap" in e:
                x1, y1, x2, y2 = (float(t) for t in e["wrap"])
                wrap_pts = ((x1, y1), (x2, y2))
            touching = edge_cells.get(eid, [])
            if len(touching) == 1:
                cell_pair = (touching[0], touching[0])
            elif len(touching) == 2:
                cell_pair = (touching[0], touching[1])
            else:
                cell_pair = (-1, -1)
            edges[eid] = Street(eid, u, v, length, delta, cell_pair, wrap_pts)
        return cls(L, vertices, edges, cells)

    @classmethod
    def from_json(cls, path) -> "StreetGraph":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def total_street_length(g: StreetGraph) -> float:
    """Sum of all street lengths in meters."""
    return sum(e.length for e in g.edges.values())


def calibrate_seed_intensity(street_intensity: float) -> float:
    """Seed intensity (per km^2) producing a given edge intensity (km/km^2).

    For a Poisson-Voronoi tessellation with seed intensity gamma the expected
    edge length per unit area is 2*sqrt(gamma), so gamma = (intensity/2)^2.
    """
    if street_intensity <= 0:
        raise ValueError("street intensity must be positive")
    return (street_intensity / 2.0) ** 2


_OFFSETS = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
_OFFSETS.sort(key=lambda o: (o != (0, 0), o))  # central copy first


def build_from_seeds(seeds: np.ndarray, L: float) -> StreetGraph:
    """Deterministically build the torus street graph for given seed points.

    ``seeds`` is an (n, 2) array of canonical torus points.  Raises
    :class:`DegenerateTessellation` for rejected configurations (callers
    resample) and ``ValueError`` for fewer than 3 seeds.
    """
    seeds = np.asarray(seeds, dtype=float)
    n = len(seeds)
    if n < 3:
        raise ValueError(f"need at least 3 seed points, got {n}")
    side = 2.0 * L
    points = np.vstack([seeds + np.array([ox * side, oy * side]) for ox, oy in _OFFSETS])
    vor = Voronoi(points)

    verts = vor.vertices
    inside_mask = (
        (verts[:, 0] >= -L) & (verts[:, 0] < L) & (verts[:, 1] >= -L) & (verts[:, 1] < L)
    )
    inside_idx = np.nonzero(inside_mask)[0]
    if len(inside_idx) == 0:
        raise DegenerateTessellation("no Voronoi vertices inside the fundamental cell")
    vid_of = {int(vi): k for k, vi in enumerate(inside_idx)}
    inside_tree = cKDTree(verts[inside_idx])
    if len(inside_idx) >= 2 and inside_tree.query_pairs(2.0 * _MATCH_RADIUS):
        raise DegenerateTessellation("near-coincident Voronoi vertices")

    def torus_vid(vi: int) -> int:
        k = vid_of.get(vi)
        if k is not None:
            return k
        w = wrap(verts[vi], L)
        dist, j = inside_tree.query([w.x, w.y])
        if dist > _MATCH_RADIUS:
            raise DegenerateTessellation("wrapped vertex has no matching image")
        return int(j)

    vertices = {k: TorusPoint(float(verts[vi, 0]), float(verts[vi, 1])) for vi, k in vid_of.items()}

    edges: dict[int, Street] = {}
    by_key: dict[tuple[int, int], list[int]] = {}
    next_eid = 0
    for (p1, p2), (a, b) in zip(vor.ridge_points, vor.ridge_vertices):
        if a < 0 or b < 0:
            # infinite ridges live on the hull of the 9-copy cloud; their
            # finite endpoint must not reach into the fundamental cell
            fin = b if a < 0 else a
            if fin >= 0 and inside_mask[fin]:
                raise DegenerateTessellation("infinite ridge touches the fundamental cell")
            continue
        a_in = bool(inside_mask[a])
        b_in = bool(inside_mask[b])
        if not (a_in or b_in):
            continue
        if not a_in:
            a, b = b, a
            a_in, b_in = b_in, a_in
        va = verts[a]
        vb = verts[b]
        dx = float(vb[0] - va[0])
        dy = float(vb[1] - va[1])
        length = math.hypot(dx, dy)
        if length <= 1e-9:
            raise DegenerateTessellation("zero-length ridge")
        if abs(dx) >= L or abs(dy) >= L:
            # edge spans half the torus; minimal-image reconstruction of its
            # geometry would be ambiguous
            raise DegenerateTessellation("street longer than the torus half-side")
        u_t = vid_of[a]
        if b_in:
            v_t = vid_of[b]
            wrap_pts = None
        else:
            v_t = torus_vid(b)
            wrap_pts = boundary_crossing_points((va[0], va[1]), wrap(vb, L), L)
            if wrap_pts is None:
                raise DegenerateTessellation("wrapped edge does not cross the boundary")
        key = (u_t, v_t) if u_t <= v_t else (v_t, u_t)
        dup = False
        for other in by_key.get(key, ()):
            if abs(edges[other].length - length) <= 1e-6:
                dup = True  # second import of the same street from the far side
                break
        if dup:
            continue
        cell_pair = (int(p1) % n, int(p2) % n)
        edges[next_eid] = Street(next_eid, u_t, v_t, length, (dx, dy), cell_pair, wrap_pts)
        by_key.setdefault(key, []).append(next_eid)
        next_eid += 1

    # every crossing of a Voronoi skeleton has degree 3 (degenerate seed sets
    # produce merged higher-degree vertices and are rejected)
    degree = {vid: 0 for vid in vertices}
    for e in edges.values():
        degree[e.u] += 1
        degree[e.v] += 1
    if any(d != 3 for d in degree.values()):
        raise DegenerateTessellation("crossing with degree != 3")

    # connectivity sanity: the skeleton of a torus tessellation is connected
    # (crossing ids are 0..len(vertices)-1)
    ends = np.array([(e.u, e.v) for e in edges.values()], dtype=np.intp).reshape(-1, 2)
    n_v = len(vertices)
    adj = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n_v, n_v))
    if connected_components(adj, directed=False)[0] != 1:
        raise DegenerateTessellation("imported street graph is disconnected")

    cells = {
        i: VoronoiCell(i, TorusPoint(float(seeds[i, 0]), float(seeds[i, 1])), [])
        for i in range(n)
    }
    for eid, e in edges.items():
        for cid in set(e.cells):
            cells[cid].edge_ids.append(eid)
    for c in cells.values():
        c.edge_ids.sort()
        if not c.edge_ids:
            raise DegenerateTessellation("cell without boundary streets")

    return StreetGraph(L, vertices, edges, cells)


def generate_pvt(
    L: float,
    rng: np.random.Generator,
    street_intensity: float | None = None,
    seed_count: int | None = None,
    max_attempts: int = 20,
) -> StreetGraph:
    """Sample a Poisson-Voronoi street system on the torus [-L, L)^2.

    Either ``street_intensity`` (km of street per km^2; the seed count is then
    Poisson with the calibrated intensity) or an explicit ``seed_count`` must
    be given.  Rejected degenerate tessellations are resampled, and so is a
    Poisson count below 3; after ``max_attempts`` draws
    :class:`DegenerateTessellation` is raised.  An explicit ``seed_count``
    below 3 is a ``ValueError``.
    """
    if L <= 0:
        raise ValueError("torus half-side must be positive")
    if (street_intensity is None) == (seed_count is None):
        raise ValueError("give exactly one of street_intensity or seed_count")
    if seed_count is not None and seed_count < 3:
        raise ValueError(f"need at least 3 seed points, got {seed_count}")
    side = 2.0 * L
    for _ in range(max_attempts):
        if street_intensity is not None:
            gamma_m2 = calibrate_seed_intensity(street_intensity) * 1e-6
            n = int(rng.poisson(gamma_m2 * side * side))
            if n < 3:
                continue
        else:
            n = int(seed_count)
        seeds = rng.uniform(-L, L, size=(n, 2))
        try:
            return build_from_seeds(seeds, L)
        except DegenerateTessellation:
            continue
    raise DegenerateTessellation(f"no valid tessellation after {max_attempts} attempts")


class StreetArrays(NamedTuple):
    """Street geometry as numpy columns, one row per street in ascending id.

    ``xmin``..``ymax`` bound the unwrapped segment from ``u`` to
    ``u + delta`` without padding.
    """

    ids: np.ndarray
    ux: np.ndarray
    uy: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    length: np.ndarray
    xmin: np.ndarray
    xmax: np.ndarray
    ymin: np.ndarray
    ymax: np.ndarray

    @classmethod
    def build(cls, g: StreetGraph) -> "StreetArrays":
        ids = sorted(g.edges)
        streets = [g.edges[eid] for eid in ids]
        cols = np.array([(*g.vertices[e.u], *e.delta, e.length) for e in streets],
                        dtype=float).reshape(-1, 5)
        ux, uy, dx, dy, length = cols.T.copy()
        vx = ux + dx
        vy = uy + dy
        return cls(
            np.array(ids, dtype=np.intp), ux, uy, dx, dy, length,
            np.where(dx >= 0.0, ux, vx), np.where(dx >= 0.0, vx, ux),
            np.where(dy >= 0.0, uy, vy), np.where(dy >= 0.0, vy, uy),
        )


class StreetGrid(NamedTuple):
    """``StreetGraph.street_grid()``: squares of side ``size`` tiling the torus.

    The rows (in ``street_arrays()``) of the streets listed in square
    ``s = i * dim + j`` are ``rows[ptr[s]:ptr[s + 1]]``.
    """

    L: float
    dim: int
    size: float
    ptr: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, g: StreetGraph) -> "StreetGrid":
        side = 2.0 * g.L
        dim = max(1, math.isqrt(len(g.edges)))
        grid = cls(g.L, dim, side / dim, np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp))
        arr = g.street_arrays()
        pad = STREET_GRID_PAD * side
        squares: list[int] = []
        rows: list[int] = []
        for k, (x0, x1, y0, y1) in enumerate(zip(arr.xmin.tolist(), arr.xmax.tolist(),
                                                 arr.ymin.tolist(), arr.ymax.tolist())):
            ys = grid.span(y0 - pad, y1 + pad)
            for i in grid.span(x0 - pad, x1 + pad):
                squares += [i * dim + j for j in ys]
                rows += [k] * len(ys)
        squares = np.array(squares, dtype=np.intp)
        order = np.argsort(squares, kind="stable")
        counts = np.bincount(squares, minlength=dim * dim)
        ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        return grid._replace(ptr=ptr, rows=np.array(rows, dtype=np.intp)[order])

    def span(self, lo: float, hi: float) -> range | list[int]:
        """Indices, modulo the grid, of the squares [lo, hi] covers on one axis.

        ``lo`` and ``hi`` are unwrapped coordinates; a span of the whole
        torus or more is ``range(dim)``.
        """
        i0 = math.floor((lo + self.L) / self.size)
        i1 = math.floor((hi + self.L) / self.size)
        if i1 - i0 >= self.dim - 1:
            return range(self.dim)
        return [i % self.dim for i in range(i0, i1 + 1)]

    def near(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> np.ndarray:
        """Ascending rows of the streets listed for an unwrapped box."""
        cols = self.span(x_lo, x_hi)
        rows = self.span(y_lo, y_hi)
        if len(cols) == self.dim and len(rows) == self.dim:
            return np.unique(self.rows)
        squares = (np.asarray(cols)[:, None] * self.dim + np.asarray(rows)[None, :]).ravel()
        starts = self.ptr[squares]
        counts = self.ptr[squares + 1] - starts
        # positions into self.rows of every listed entry, square after square
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        return np.unique(self.rows[offsets + np.arange(offsets.size)])


@dataclass(slots=True)
class CellIndex:
    """Regular grid over the torus listing candidate ids per square.

    Grid squares tile [-L, L)^2 exactly (the requested cell size is rounded
    so the grid divides 2L).  ``build_cell_index`` lists in every square all
    Voronoi cells whose closure can intersect it, so a point's true
    containing cell is always among the candidates of its square.
    """

    L: float
    dim: int
    size: float
    grid: list[list[int]]

    def lookup(self, p) -> list[int]:
        px, py = p
        i = int((px + self.L) / self.size)
        j = int((py + self.L) / self.size)
        i = min(max(i, 0), self.dim - 1)
        j = min(max(j, 0), self.dim - 1)
        return self.grid[i * self.dim + j]


def build_cell_index(g: StreetGraph, cell_size: float | None = None) -> CellIndex:
    """Build the candidate-cell grid for nearest-seed lookups.

    The default square size is the mean cell diameter 1/sqrt(seed intensity),
    giving O(1) candidates per square.
    """
    L = g.L
    side = 2.0 * L
    if cell_size is None:
        gamma = max(len(g.cells), 1) / (side * side)
        cell_size = 1.0 / math.sqrt(gamma)
    if cell_size <= 0:
        raise ValueError("cell size must be positive")
    dim = max(1, math.ceil(side / cell_size))
    size = side / dim
    buckets: list[set[int]] = [set() for _ in range(dim * dim)]
    eps = 1e-9
    if len(g.cells) <= 2:
        # with one or two cells a torus cell is not the convex hull of its
        # boundary corners; list everything everywhere
        all_cells = sorted(g.cells)
        return CellIndex(L, dim, size, [list(all_cells) for _ in range(dim * dim)])
    for cid, cell in g.cells.items():
        # unwrap the cell polygon around its seed; corners are the boundary
        # street endpoints pulled to their image nearest the seed
        sx, sy = cell.seed.x, cell.seed.y
        xmin = xmax = sx
        ymin = ymax = sy
        fallback = False
        for eid in cell.edge_ids:
            e = g.edges[eid]
            for vid in (e.u, e.v):
                pos = g.vertices[vid]
                dx, dy = min_image_delta((sx, sy), pos, L)
                if abs(dx) >= 0.98 * L or abs(dy) >= 0.98 * L:
                    fallback = True  # cell comparable to the torus itself
                    break
                xmin = min(xmin, sx + dx)
                xmax = max(xmax, sx + dx)
                ymin = min(ymin, sy + dy)
                ymax = max(ymax, sy + dy)
            if fallback:
                break
        if fallback:
            for b in buckets:
                b.add(cid)
            continue
        i0 = math.floor((xmin - eps + L) / size)
        i1 = math.floor((xmax + eps + L) / size)
        j0 = math.floor((ymin - eps + L) / size)
        j1 = math.floor((ymax + eps + L) / size)
        if i1 - i0 >= dim or j1 - j0 >= dim:
            for b in buckets:
                b.add(cid)
            continue
        for i in range(i0, i1 + 1):
            ii = i % dim
            for j in range(j0, j1 + 1):
                buckets[ii * dim + j % dim].add(cid)
    return CellIndex(L, dim, size, [sorted(b) for b in buckets])


def _nearest_seed_cells(pts: np.ndarray, g: StreetGraph, idx: CellIndex) -> list[int]:
    """The Voronoi cell of every point of the (n, 2) array ``pts``.

    A point's cell is its nearest seed among ``idx.lookup(p)``, ties to the
    smaller cell id.  All (point, candidate) distances are ranked at once
    with ``torus_distance``'s min-image expressions; only the points with
    several candidates within a relative 1e-12 of their minimum (``np.hypot``
    may differ from ``math.hypot`` in the last bit) are measured again with
    ``torus_distance``, so the cells are those of a walk over every candidate.
    """
    L = g.L
    points = pts.tolist()
    cand = [idx.lookup(p) for p in points]
    counts = np.array([len(c) for c in cand], dtype=np.intp)
    if not counts.size:
        return []
    if not counts.all():
        raise ValueError("empty cell index")
    cids = np.fromiter(chain.from_iterable(cand), dtype=np.intp, count=int(counts.sum()))
    cell_ids = np.array(sorted(g.cells), dtype=np.intp)
    seeds = np.array([tuple(g.cells[c].seed) for c in cell_ids.tolist()], dtype=float)
    seeds = seeds.reshape(-1, 2)[np.searchsorted(cell_ids, cids)]
    owner = np.repeat(np.arange(counts.size), counts)
    d = np.abs(pts[owner] - seeds)
    d = np.where(2.0 * L - d < d, 2.0 * L - d, d)
    dist = np.hypot(d[:, 0], d[:, 1])
    first = np.cumsum(counts) - counts
    nearest = np.minimum.reduceat(dist, first)
    near = dist <= nearest[owner] * (1.0 + 1e-12)
    # the first near candidate of each point, and how many there are
    n_near = np.add.reduceat(near.astype(np.intp), first)
    best = cids[np.flatnonzero(near)[np.cumsum(n_near) - n_near]].tolist()
    for k in np.flatnonzero(n_near > 1).tolist():
        p = points[k]
        best[k] = min((torus_distance(p, g.cells[c].seed, L), c) for c in cand[k])[1]
    return best


def project_to_streets(points, g: StreetGraph, idx: CellIndex) -> list[StreetPosition]:
    """Project torus points onto the closest points of the street system.

    The closest street is a boundary street of the Voronoi cell containing a
    point, so for each point the nearest seed is found through ``idx`` (ties
    to the smaller cell id) and only that cell's boundary streets are
    examined, each in all nine torus images of the point.  The distances of
    all points are ranked at once in numpy; every candidate within a
    relative 1e-12 of its point's minimum is measured again with
    ``math.hypot``, and the smallest (distance, street id) wins, the first
    image on a tie.  So the fraction returned is bitwise that of a walk over
    the cell's streets and images in order.
    """
    L = g.L
    side = 2.0 * L
    arr = g.street_arrays()
    pts = np.array([tuple(p) for p in points], dtype=float).reshape(-1, 2)
    cells = _nearest_seed_cells(pts, g, idx)
    if not cells:
        return []
    xs = pts[:, 0]
    ys = pts[:, 1]
    counts, eids = [], []
    for cid in cells:
        boundary = g.cells[cid].edge_ids
        if not boundary:
            raise ValueError(f"cell {cid} has no boundary streets")
        counts.append(len(boundary))
        eids += boundary
    rows = np.searchsorted(arr.ids, eids)
    first = np.concatenate(([0], np.cumsum(counts)))
    owner = np.repeat(np.arange(len(counts)), counts)
    offsets = np.array([-side, 0.0, side])
    out: list[StreetPosition] = []
    step = max(1, KERNEL_BATCH_ELEMENTS // (9 * max(counts)))
    for k0 in range(0, len(counts), step):
        k1 = min(k0 + step, len(counts))
        a, b = first[k0], first[k1]
        o = owner[a:b]
        r = rows[a:b]
        # (street, x image, y image), in the order of the walk
        dx = arr.dx[r][:, None, None]
        dy = arr.dy[r][:, None, None]
        len2 = (arr.length[r] * arr.length[r])[:, None, None]
        qx = (xs[o][:, None] + offsets - arr.ux[r][:, None])[:, :, None]
        qy = (ys[o][:, None] + offsets - arr.uy[r][:, None])[:, None, :]
        t = (qx * dx + qy * dy) / len2
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        ex = (qx - t * dx).reshape(-1, 9)
        ey = (qy - t * dy).reshape(-1, 9)
        t = t.reshape(-1, 9)
        # np.hypot may differ from math.hypot in the last bit: it only ranks
        dist = np.hypot(ex, ey)
        nearest = np.minimum.reduceat(dist.min(axis=1), first[k0:k1] - a)
        near = dist <= (nearest * (1.0 + 1e-12))[o - k0][:, None]
        best: dict[int, tuple] = {}
        for j, m in zip(*(ix.tolist() for ix in np.nonzero(near))):
            key = (math.hypot(ex[j, m], ey[j, m]), int(arr.ids[r[j]]))
            k = int(o[j])
            if k not in best or key < best[k][0]:
                best[k] = (key, float(t[j, m]))
        for k in range(k0, k1):
            (_, eid), frac = best[k]
            e = g.edges[eid]
            out.append(StreetPosition(eid, e.u, e.v, frac))
    return out
