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

The import runs on numpy arrays over all ridges at once;
``tests/pvt_oracle.py`` keeps the one-ridge-at-a-time walk it must match.
The kappa' kernel finds a point's Voronoi cell, its nearest seed on the
torus, in one periodic k-d tree over the seeds (:func:`build_cell_index`).

Degenerate seed configurations (near-cocircular points, unmatched image
vertices) have probability zero and are handled by resampling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Voronoi, cKDTree

from .torus import (
    TorusPoint,
    boundary_crossing_points,
    min_image_delta,
    torus_distance,
    wrap_points,
)

__all__ = [
    "StreetPosition",
    "Street",
    "VoronoiCell",
    "StreetGraph",
    "CellIndex",
    "StreetArrays",
    "DegenerateTessellation",
    "calibrate_seed_intensity",
    "generate_pvt",
    "build_from_seeds",
    "build_cell_index",
    "project_to_streets",
]

# matching radius when identifying a wrapped Voronoi vertex with its image
_MATCH_RADIUS = 1e-6

# largest temporary array, in elements, that a batched waypoint kernel builds
# at once; larger batches are split, so memory stays flat in the device count
KERNEL_BATCH_ELEMENTS = 1 << 18

# most (point, street) rows a chunk of the projection ranks at once: its
# temporaries of nine images a row then hold at most 2**13 elements
_PROJECT_ROWS = (KERNEL_BATCH_ELEMENTS // 32) // 9


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


@dataclass(slots=True)
class VoronoiCell:
    id: int
    seed: TorusPoint
    edge_ids: list[int]


class StreetGraph:
    """Street system on the torus: crossings, streets and Voronoi cells.

    Read-only once built, apart from the caches made on first use, so any
    number of runs may share one graph; a run keeps its street occupancy in
    its own state.
    """

    __slots__ = ("L", "vertices", "edges", "cells", "_adjacency", "_street_arrays")

    def __init__(self, L, vertices, edges, cells):
        self.L = L
        self.vertices: dict[int, TorusPoint] = vertices
        self.edges: dict[int, Street] = edges
        self.cells: dict[int, VoronoiCell] = cells
        self._adjacency = None
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

    def street_arrays(self) -> "StreetArrays":
        """Per-street geometry columns for the batched waypoint kernels.

        Built on first use and cached.
        """
        if self._street_arrays is None:
            self._street_arrays = StreetArrays.build(self)
        return self._street_arrays

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

        def by_id(section: str) -> dict[int, dict]:
            records: dict[int, dict] = {}
            for rec in data[section]:
                rid = int(rec["id"])
                if rid in records:
                    raise ValueError(f"{section}: duplicate id {rid}")
                records[rid] = rec
            return records

        vertices = {vid: TorusPoint(float(v["x"]), float(v["y"]))
                    for vid, v in by_id("vertices").items()}
        for vid, (x, y) in vertices.items():
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"vertex {vid}: coordinates must be finite, got ({x}, {y})")
        # invert the cell -> edges mapping to recover per-edge cell pairs
        edge_cells: dict[int, list[int]] = {}
        cells = {}
        for cid, c in by_id("cells").items():
            eids = [int(e) for e in c["edge_ids"]]
            seed = TorusPoint(float(c["seed_x"]), float(c["seed_y"]))
            if not (math.isfinite(seed.x) and math.isfinite(seed.y)):
                raise ValueError(f"cell {cid}: seed must be finite, got ({seed.x}, {seed.y})")
            cells[cid] = VoronoiCell(cid, seed, eids)
            for eid in eids:
                edge_cells.setdefault(eid, []).append(cid)
        edges = {}
        for eid, e in by_id("edges").items():
            u, v = int(e["u"]), int(e["v"])
            length = float(e["length"])
            if not math.isfinite(length):
                raise ValueError(f"edge {eid}: length must be finite, got {length}")
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
        unknown = sorted(set(edge_cells) - set(edges))
        if unknown:
            raise ValueError(f"cell {edge_cells[unknown[0]][0]}: no street {unknown[0]}")
        return cls(L, vertices, edges, cells)

    @classmethod
    def from_json(cls, path) -> "StreetGraph":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def calibrate_seed_intensity(street_intensity: float) -> float:
    """Seed intensity (per km^2) producing a given edge intensity (km/km^2).

    For a Poisson-Voronoi tessellation with seed intensity gamma the expected
    edge length per unit area is 2*sqrt(gamma), so gamma = (intensity/2)^2.
    """
    if street_intensity <= 0:
        raise ValueError("street intensity must be positive")
    return (street_intensity / 2.0) ** 2


def component_labels(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Connected-component label of each of n vertices joined by edges lo[k]-hi[k].

    Vertex 0 is in component 0.
    """
    adj = coo_matrix((np.ones(len(lo)), (lo, hi)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


_OFFSETS = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
_OFFSETS.sort(key=lambda o: (o != (0, 0), o))  # central copy first


def build_from_seeds(seeds: np.ndarray, L: float) -> StreetGraph:
    """Deterministically build the torus street graph for given seed points.

    ``seeds`` is an (n, 2) array of canonical torus points.  Raises
    :class:`DegenerateTessellation` for rejected configurations (callers
    resample) and ``ValueError`` for fewer than 3 seeds.

    The ridges are screened on arrays: which ones reach into the cell, their
    deltas, the matching of wrapped endpoints to their images and the
    crossing degrees.  Street ids follow Qhull's ridge order; of two imports
    of the same street from either side the first wins, so only ridges that
    share both crossings are compared one by one.  Lengths are
    ``math.hypot`` (``np.hypot`` may differ in the last bit).
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
    inside_tree = cKDTree(verts[inside_idx])
    if len(inside_idx) >= 2 and inside_tree.query_pairs(2.0 * _MATCH_RADIUS):
        raise DegenerateTessellation("near-coincident Voronoi vertices")
    vid_of = np.full(len(verts), -1, dtype=np.intp)
    vid_of[inside_idx] = np.arange(len(inside_idx))

    # a ridge of a planar Voronoi diagram has two vertices
    ridges = np.fromiter(chain.from_iterable(vor.ridge_vertices), dtype=np.intp,
                         count=2 * len(vor.ridge_vertices)).reshape(-1, 2)
    # index -1, Qhull's vertex at infinity, reads as outside
    ins = np.append(inside_mask, False)
    a_in = ins[ridges[:, 0]]
    reach = a_in | ins[ridges[:, 1]]
    finite = (ridges >= 0).all(axis=1)
    if (reach & ~finite).any():
        # infinite ridges live on the hull of the 9-copy cloud; their finite
        # endpoint must not reach into the fundamental cell
        raise DegenerateTessellation("infinite ridge touches the fundamental cell")
    # ridges with an endpoint inside, in ridge order; a, the first, is inside
    keep = np.flatnonzero(reach & finite)
    ab = ridges[keep]
    swap = ~a_in[keep]
    ab[swap] = ab[swap, ::-1]
    a, b = ab[:, 0], ab[:, 1]
    delta = verts[b] - verts[a]
    if (np.abs(delta) >= L).any():
        # edge spans half the torus; minimal-image reconstruction of its
        # geometry would be ambiguous
        raise DegenerateTessellation("street longer than the torus half-side")
    u_t = vid_of[a]
    v_t = vid_of[b]
    crosses = np.flatnonzero(v_t < 0)
    # outside endpoints, wrapped, and the inside vertices they are images of
    far = wrap_points(verts[b[crosses]], L)
    if crosses.size:
        dist, image = inside_tree.query(far)
        if (dist > _MATCH_RADIUS).any():
            raise DegenerateTessellation("wrapped vertex has no matching image")
        v_t[crosses] = image
    # math.hypot, not np.hypot, which may differ in the last bit
    dx, dy = delta.T.tolist()
    lengths = list(map(math.hypot, dx, dy))
    if min(lengths, default=1.0) <= 1e-9:
        raise DegenerateTessellation("zero-length ridge")
    wrap_pts: list = [None] * len(lengths)
    for k, p, q in zip(crosses.tolist(), verts[a[crosses]].tolist(), far.tolist()):
        wrap_pts[k] = boundary_crossing_points(p, q, L)
        if wrap_pts[k] is None:
            raise DegenerateTessellation("wrapped edge does not cross the boundary")

    # of the ridges joining the same two crossings, one within 1e-6 m of the
    # length of an earlier kept one is the second import of the same street
    # from the far side
    n_v = len(inside_idx)
    key = np.minimum(u_t, v_t) * n_v + np.maximum(u_t, v_t)
    _, inverse, shared = np.unique(key, return_inverse=True, return_counts=True)
    kept = np.ones(len(lengths), dtype=bool)
    by_key: dict[int, list[float]] = {}
    twins = np.flatnonzero(shared[inverse] > 1)
    for k, pair in zip(twins.tolist(), key[twins].tolist()):
        seen = by_key.setdefault(pair, [])
        if any(abs(other - lengths[k]) <= 1e-6 for other in seen):
            kept[k] = False
        else:
            seen.append(lengths[k])
    kept = np.flatnonzero(kept)
    u_t = u_t[kept]
    v_t = v_t[kept]
    delta = delta[kept]
    cell_pairs = vor.ridge_points[keep[kept]] % n
    lengths = [lengths[k] for k in kept.tolist()]
    edges = {
        eid: Street(eid, u, v, length, (x, y), (c1, c2), w)
        for eid, (u, v, length, x, y, (c1, c2), w) in enumerate(zip(
            u_t.tolist(), v_t.tolist(), lengths, *delta.T.tolist(), cell_pairs.tolist(),
            [wrap_pts[k] for k in kept.tolist()]))
    }

    # every crossing of a Voronoi skeleton has degree 3 (degenerate seed sets
    # produce merged higher-degree vertices and are rejected)
    if (np.bincount(np.concatenate((u_t, v_t)), minlength=n_v) != 3).any():
        raise DegenerateTessellation("crossing with degree != 3")

    # connectivity sanity: the skeleton of a torus tessellation is connected
    # (crossing ids are 0..n_v-1)
    if component_labels(n_v, u_t, v_t).any():
        raise DegenerateTessellation("imported street graph is disconnected")

    # each street in the boundary lists of the cells on either side (once
    # when they coincide), in ascending street id
    once = np.ones(cell_pairs.shape, dtype=bool)
    once[:, 1] = cell_pairs[:, 1] != cell_pairs[:, 0]
    owner = cell_pairs[once]
    counts = np.bincount(owner, minlength=n)
    if not counts.all():
        raise DegenerateTessellation("cell without boundary streets")
    eids = np.broadcast_to(np.arange(len(kept))[:, None], cell_pairs.shape)[once]
    eids = eids[np.argsort(owner, kind="stable")].tolist()
    bounds = np.cumsum(counts).tolist()
    cells = {
        i: VoronoiCell(i, TorusPoint(x, y), eids[end - c:end])
        for i, ((x, y), c, end) in enumerate(zip(seeds.tolist(), counts.tolist(), bounds))
    }
    inside = verts[inside_idx]
    vertices = {k: TorusPoint(x, y) for k, (x, y) in enumerate(inside.tolist())}
    graph = StreetGraph(L, vertices, edges, cells)
    graph._street_arrays = StreetArrays.from_columns(
        np.arange(len(kept)), u_t, v_t, inside[u_t], delta, np.array(lengths, dtype=float))
    return graph


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

    ``u`` and ``v`` are the end crossings' ids, ``ux``, ``uy`` the
    coordinates of ``u``.  ``xmin``..``ymax`` bound the unwrapped segment
    from ``u`` to ``u + delta`` without padding.
    """

    ids: np.ndarray
    u: np.ndarray
    v: np.ndarray
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
        ends = np.array([(e.u, e.v) for e in streets], dtype=np.intp).reshape(-1, 2)
        cols = np.array([(g.vertices[e.u].x, g.vertices[e.u].y, *e.delta, e.length)
                         for e in streets], dtype=float).reshape(-1, 5)
        return cls.from_columns(np.array(ids, dtype=np.intp), ends[:, 0], ends[:, 1],
                                cols[:, :2], cols[:, 2:4], cols[:, 4])

    @classmethod
    def from_columns(cls, ids, u, v, uxy, delta, length) -> "StreetArrays":
        """The columns of streets ``ids`` from ``u`` to ``v``, ``u`` at ``uxy``."""
        ux, uy = uxy.T.copy()
        dx, dy = delta.T.copy()
        vx = ux + dx
        vy = uy + dy
        return cls(
            ids, u.copy(), v.copy(), ux, uy, dx, dy, length.copy(),
            np.where(dx >= 0.0, ux, vx), np.where(dx >= 0.0, vx, ux),
            np.where(dy >= 0.0, uy, vy), np.where(dy >= 0.0, vy, uy),
        )


class CellIndex(NamedTuple):
    """Periodic k-d tree over the Voronoi seeds, for nearest-seed lookups.

    Row k of ``tree`` is a seed shifted by L into the box [0, 2L), on a
    tree with ``boxsize=2L``; ``ids[k]`` is that seed's cell id.
    """

    L: float
    tree: cKDTree
    ids: np.ndarray


def build_cell_index(g: StreetGraph) -> CellIndex:
    """The nearest-seed index of ``g``'s cells, rows in ``g.cells`` order."""
    side = 2.0 * g.L
    seeds = np.array([(c.seed.x, c.seed.y) for c in g.cells.values()], dtype=float)
    ids = np.fromiter(g.cells, dtype=np.intp, count=len(g.cells))
    return CellIndex(g.L, cKDTree((seeds.reshape(-1, 2) + g.L) % side, boxsize=side), ids)


def _nearest_seed_cells(pts: np.ndarray, g: StreetGraph, idx: CellIndex) -> list[int]:
    """The Voronoi cell of every point of the (n, 2) array ``pts``.

    A point's cell is its nearest seed by ``torus_distance``, ties to the
    smaller cell id.  The two nearest seeds of all points are found at once
    in the tree; a point whose second distance lies within ``1e-9 * 2L`` of
    its first is measured again with ``torus_distance`` against every seed
    the tree finds within twice that margin of its first distance.
    """
    L = g.L
    if not len(pts):
        return []
    if not np.isfinite(pts).all():
        raise ValueError("cannot look up non-finite points")
    if not len(idx.ids):
        raise ValueError("empty cell index")
    # the tree wraps the query points into its box
    q = pts + L
    dist, row = idx.tree.query(q, k=2)
    best = idx.ids[row[:, 0]].tolist()
    tol = 1e-9 * 2.0 * L
    for k in np.flatnonzero(dist[:, 1] - dist[:, 0] <= tol).tolist():
        p = pts[k].tolist()
        near = idx.ids[idx.tree.query_ball_point(q[k], dist[k, 0] + 2.0 * tol)].tolist()
        best[k] = min((torus_distance(p, g.cells[c].seed, L), c) for c in near)[1]
    return best


def project_to_streets(points, g: StreetGraph, idx: CellIndex) -> list[StreetPosition]:
    """Project torus points onto the closest points of the street system.

    The closest street is a boundary street of the Voronoi cell containing a
    point, so for each point the nearest seed is found in ``idx``'s tree (ties
    to the smaller cell id) and only that cell's boundary streets are
    examined, each in all nine torus images of the point.  The distances of
    all points are ranked at once in numpy.  A point with one candidate
    within a relative 1e-12 of its minimum takes it; the candidates of any
    other point are measured again with ``math.hypot``, and the smallest
    (distance, street id) wins, the first image on a tie.  So the fraction
    returned is bitwise that of a walk over the cell's streets and images in
    order.  Points are ranked in chunks of at most ``_PROJECT_ROWS`` (point,
    street) rows, unless one point alone has more.
    """
    L = g.L
    side = 2.0 * L
    arr = g.street_arrays()
    if not isinstance(points, np.ndarray):
        points = np.array([tuple(p) for p in points], dtype=float)
    pts = points.reshape(-1, 2)
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
    k0 = 0
    while k0 < len(counts):
        k1 = max(k0 + 1, int(np.searchsorted(first, first[k0] + _PROJECT_ROWS, "right")) - 1)
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
        j, m = np.nonzero(dist <= (nearest * (1.0 + 1e-12))[o - k0][:, None])
        k = o[j] - k0
        many = np.bincount(k, minlength=k1 - k0)[k] > 1
        win = np.empty(k1 - k0, dtype=np.intp)
        win[k[~many]] = np.flatnonzero(~many)
        best: dict[int, tuple] = {}
        for c in np.flatnonzero(many).tolist():
            jc, mc, kc = int(j[c]), int(m[c]), int(k[c])
            key = (math.hypot(ex[jc, mc], ey[jc, mc]), int(arr.ids[r[jc]]))
            if kc not in best or key < best[kc][0]:
                best[kc] = (key, c)
        for kc, (_, c) in best.items():
            win[kc] = c
        street = r[j[win]]
        out += map(StreetPosition, arr.ids[street].tolist(), arr.u[street].tolist(),
                   arr.v[street].tolist(), t[j[win], m[win]].tolist())
        k0 = k1
    return out
