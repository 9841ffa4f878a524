"""Per-ridge walk, the reference of the array street-graph import.

``build_from_seeds`` imports the 9-copy Voronoi tessellation onto the torus
one ridge at a time.  ``streetsim.streets`` does it on arrays; the tests
check that the graphs and the rejections are the same.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Voronoi, cKDTree

from streetsim.streets import (
    _MATCH_RADIUS,
    _OFFSETS,
    DegenerateTessellation,
    Street,
    StreetGraph,
    VoronoiCell,
)
from streetsim.torus import TorusPoint, boundary_crossing_points, wrap


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
