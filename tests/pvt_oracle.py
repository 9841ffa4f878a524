"""Per-ridge and per-cell walks, the references of the array set-up.

``build_from_seeds`` imports the 9-copy Voronoi tessellation onto the torus
one ridge at a time, and ``build_cell_index`` grows each cell's box one
boundary street end at a time.  ``streetsim.streets`` does both on arrays;
the tests check that the graphs, the rejections and the grids are the same.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Voronoi, cKDTree

from streetsim.streets import (
    _MATCH_RADIUS,
    _OFFSETS,
    CellIndex,
    DegenerateTessellation,
    Street,
    StreetGraph,
    VoronoiCell,
)
from streetsim.torus import TorusPoint, boundary_crossing_points, min_image_delta, wrap


def build_from_seeds(seeds: np.ndarray, L: float) -> StreetGraph:
    """The torus street graph of ``seeds``, one Voronoi ridge at a time."""
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
                dup = True
                break
        if dup:
            continue
        cell_pair = (int(p1) % n, int(p2) % n)
        edges[next_eid] = Street(next_eid, u_t, v_t, length, (dx, dy), cell_pair, wrap_pts)
        by_key.setdefault(key, []).append(next_eid)
        next_eid += 1

    degree = {vid: 0 for vid in vertices}
    for e in edges.values():
        degree[e.u] += 1
        degree[e.v] += 1
    if any(d != 3 for d in degree.values()):
        raise DegenerateTessellation("crossing with degree != 3")

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


def build_cell_index(g: StreetGraph, cell_size: float | None = None) -> CellIndex:
    """The candidate-cell grid, one cell box at a time."""
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
        all_cells = sorted(g.cells)
        return CellIndex(L, dim, size, [list(all_cells) for _ in range(dim * dim)])
    for cid, cell in g.cells.items():
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
                    fallback = True
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
