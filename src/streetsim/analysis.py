"""Connection-graph analytics and street-percolation structures.

Covers the largest-cluster statistics of simulated connection graphs, the
velocity sweep that re-evaluates one recorded movement under rescaled
(horizon, connection-time) pairs, and the auxiliary long-street graphs used
to study when connections across streets are possible at all.
One routine, :func:`_winds`, tells whether a connection graph or a
long-street graph winds around the torus; they differ only in the
displacements their edges carry.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order

from .config import build_seed_state
from .engine import ConnectionGraph, derived_connection_graph, initialize, run
from .mobility import street_coords
from .streets import Street, StreetGraph, VoronoiCell, component_labels
from .torus import min_image_deltas

__all__ = [
    "largest_cluster_fraction",
    "cluster_size_histogram",
    "connection_graph_wraps",
    "home_anchors",
    "thinned_street_graph",
    "AuxGraph",
    "long_edge_percolation_graph",
    "aux_largest_component",
    "SweepRow",
    "SweepResult",
    "velocity_sweep",
    "write_sweep_csv",
    "CSV_COLUMNS",
]


def largest_cluster_fraction(cg: ConnectionGraph) -> float:
    """Share of devices in the largest connected component."""
    if not cg.vertices:
        raise ValueError("connection graph has no vertices")
    return int(np.bincount(cg.labels).max()) / len(cg.vertices)


def cluster_size_histogram(cg: ConnectionGraph) -> list[tuple[int, int]]:
    """Sorted (component size, count) pairs."""
    if not cg.vertices:
        return []
    sizes, counts = np.unique(np.bincount(cg.labels), return_counts=True)
    return [(int(s), int(c)) for s, c in zip(sizes, counts)]


def connection_graph_wraps(cg: ConnectionGraph, anchors, g: StreetGraph) -> bool:
    """Whether some connection cluster closes a loop around the torus.

    Finite-volume heuristic: devices are anchored at their home coordinates
    (``anchors[i]`` is device i's home ``(x, y)``, as :func:`home_anchors`
    builds it) and each edge carries the minimal-image displacement between
    homes; a cycle whose displacements do not cancel wraps the torus
    (:func:`_winds`, as for the street paths of :func:`aux_largest_component`).
    The components are the graph's own ``labels``, which
    :func:`largest_cluster_fraction` reads too.
    """
    if not len(cg.pairs):
        return False
    i, j = cg.pairs.T
    # anchor rows without a vertex are components of their own
    label = np.arange(len(anchors)) + len(cg.vertices)
    label[np.asarray(cg.vertices, dtype=np.intp)] = cg.labels
    disp = anchors[j]
    disp -= anchors[i]
    disp = min_image_deltas(disp, g.L)
    return _winds(i, j, disp, label, g.L)


def _winds(lo: np.ndarray, hi: np.ndarray, disp: np.ndarray, label: np.ndarray,
           L: float) -> bool:
    """Whether some cycle winds around the torus.

    Edge k runs from vertex ``lo[k]`` to ``hi[k]`` with displacement
    ``disp[k]``; ``label`` holds the component label of vertices 0..n-1.  A
    cycle's displacements add up to a multiple of the side 2L.  Potentials
    are summed along a spanning forest, each tree edge adding its own
    displacement (which may exceed L); the graph winds iff some edge
    disagrees with them by more than L, whichever forest and whichever of
    several parallel edges is used.
    """
    n = len(label)
    # one BFS from a virtual vertex n joined to the first vertex of each component
    firsts = np.unique(label, return_index=True)[1]
    k = len(firsts)
    forest = coo_matrix((np.ones(len(lo) + k), (np.concatenate([lo, np.full(k, n)]),
                                                np.concatenate([hi, firsts]))),
                        shape=(n + 1, n + 1))
    _, up = breadth_first_order(forest.tocsr(), n, directed=False, return_predecessors=True)
    up[n] = n
    # pot[v] is v's potential minus that of up[v]: the displacement of an
    # edge joining them, any one of several parallel ones (zero at a
    # component's first vertex); pointer jumping sums these steps up to the
    # virtual root
    pot = np.zeros((n + 1, 2))
    down, rise = up[hi] == lo, up[lo] == hi
    pot[hi[down]] = disp[down]
    pot[lo[rise]] = -disp[rise]
    while (up != n).any():
        pot += pot[up]
        up = up[up]
    gap = pot[lo]
    gap += disp
    gap -= pot[hi]
    return bool((np.abs(gap, out=gap) > L).any())


def home_anchors(devices_by_id, g: StreetGraph) -> np.ndarray:
    """Home coordinates by device id, the anchors of :func:`connection_graph_wraps`.

    Row i is device i's home ``(x, y)``; rows of ids without a device are
    NaN.  Homes do not move, so a sweep computes them once per seed.
    """
    anchors = np.full((max(devices_by_id, default=-1) + 1, 2), np.nan)
    ids = np.fromiter(devices_by_id, dtype=np.intp, count=len(devices_by_id))
    anchors[ids] = street_coords([d.home for d in devices_by_id.values()], g)
    return anchors


# -- street thinning and the long-street graph ---------------------------------


def thinned_street_graph(g: StreetGraph, a: float) -> StreetGraph:
    """Subgraph of streets with length >= a and their endpoints.

    ``a = 0`` reproduces the input graph.  The copy shares the input's
    streets, which are read-only; cells keep only their surviving boundary
    streets.
    """
    if a < 0:
        raise ValueError("length threshold must be non-negative")
    edges = {eid: e for eid, e in g.edges.items() if e.length >= a}
    if a <= 0:
        vertices = dict(g.vertices)
    else:
        keep = {v for e in edges.values() for v in (e.u, e.v)}
        vertices = {vid: pos for vid, pos in g.vertices.items() if vid in keep}
    cells = {
        cid: VoronoiCell(cid, c.seed, [eid for eid in c.edge_ids if eid in edges])
        for cid, c in g.cells.items()
    }
    return StreetGraph(g.L, vertices, edges, cells)


@dataclass
class AuxGraph:
    """Long streets plus shortcut edges between nearby long-street endpoints.

    ``vertices`` are the long streets' endpoints in ascending id order;
    ``street_edges`` are the surviving long streets; ``aux_edges`` connect
    endpoint pairs whose shortest-path distance along the full street system
    is within the reach bound, annotated with the path displacement (used
    for torus-wrap detection).
    """

    vertices: tuple[int, ...]
    street_edges: dict[int, Street]
    aux_edges: dict[tuple[int, int], tuple[float, float]]
    L: float
    total_long_length: float


def long_edge_percolation_graph(g: StreetGraph, a: float, b: float) -> AuxGraph:
    """Auxiliary graph: streets of length >= a, endpoints linked within b.

    The long streets are those of :func:`thinned_street_graph`; the vertices
    are their endpoints, so a crossing that no long street meets is left
    out even at ``a = 0``.  Distances are measured along the full street
    system with a truncated multi-source Dijkstra (radius b) from every
    long-street endpoint.
    """
    if a < 0 or b < 0:
        raise ValueError("thresholds must be non-negative")
    long_edges = thinned_street_graph(g, a).edges
    endpoints = sorted({v for e in long_edges.values() for v in (e.u, e.v)})
    endpoint_set = set(endpoints)
    adj = g.adjacency()
    aux: dict[tuple[int, int], tuple[float, float]] = {}
    for src in endpoints:
        dist = {src: 0.0}
        disp = {src: (0.0, 0.0)}
        heap = [(0.0, src)]
        done = set()
        while heap:
            du, u = heappop(heap)
            if u in done:
                continue
            done.add(u)
            if u != src and u in endpoint_set:
                pair = (src, u) if src < u else (u, src)
                if pair not in aux:
                    dx, dy = disp[u]
                    aux[pair] = (dx, dy) if src < u else (-dx, -dy)
            for v, w, sid in adj[u]:
                nd = du + w
                if nd > b or v in done:
                    continue
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    e = g.edges[sid]
                    ex, ey = e.delta
                    if u != e.u:
                        ex, ey = -ex, -ey
                    px, py = disp[u]
                    disp[v] = (px + ex, py + ey)
                    heappush(heap, (nd, v))
    total = sum(e.length for e in long_edges.values())
    return AuxGraph(tuple(endpoints), long_edges, aux, g.L, total)


def aux_largest_component(aux: AuxGraph) -> tuple[float, bool]:
    """(fraction of long-street length in the largest component, wraps flag).

    The wrap flag is true when any component contains a cycle with nonzero
    winding number around either torus axis (:func:`_winds`, as in the
    sweep).  Streets carry their deltas and aux edges their path
    displacements, so an edge may span more than half the side.
    """
    if not aux.vertices:
        return 0.0, False
    streets = list(aux.street_edges.values())
    ij = np.searchsorted(aux.vertices, [(e.u, e.v) for e in streets] + list(aux.aux_edges))
    disp = np.array([e.delta for e in streets] + list(aux.aux_edges.values()))
    flip = ij[:, 0] > ij[:, 1]  # displacements run from the lower position to the higher
    disp[flip] = -disp[flip]
    lo, hi = np.sort(ij, axis=1).T
    label = component_labels(len(aux.vertices), lo, hi)
    # bincount adds the weights in street order, as a running sum per label
    mass = np.bincount(label[lo[:len(streets)]], weights=[e.length for e in streets])
    fraction = float(mass.max()) / aux.total_long_length if aux.total_long_length > 0 else 0.0
    return fraction, _winds(lo, hi, disp, label, aux.L)


# -- velocity sweep ---------------------------------------------------------------


CSV_COLUMNS = [
    "seed",
    "scale_a",
    "velocity_mean_mps",
    "T_s",
    "rho_s",
    "r_m",
    "lambda_per_m",
    "n_devices",
    "largest_fraction",
    "wraps",
]


@dataclass(frozen=True)
class SweepRow:
    seed: int
    scale_a: float
    velocity_mean_mps: float
    T_s: float
    rho_s: float
    r_m: float
    lambda_per_m: float
    n_devices: int
    largest_fraction: float | None
    wraps: bool


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def sort(self) -> None:
        self.rows.sort(key=lambda r: (r.seed, r.scale_a, r.T_s))


def velocity_sweep(config, side_outputs=None, map=map) -> SweepResult:
    """Run the experiment of an :class:`~streetsim.config.ExperimentConfig`.

    Per seed the movement is simulated once, at the configured base velocity
    distribution, out to max(scale)*max(T), which logs its contact history.
    Each (scale a, horizon T) point is then the derived connection graph at
    (a*T, a*rho): scaling all velocities by a is equivalent to stretching
    horizon and connection time by a on the same movement.  Rows for scale a
    equal a direct simulation with velocities scaled by a.

    ``side_outputs(seed, state)``, when given, returns a context manager
    that each seed's simulation runs inside, for writing that run's trace
    and history.  ``map`` applies the per-seed run to the seeds: builtin
    ``map`` runs them in turn, a process pool's ``map`` in parallel, and the
    sorted rows are the same.
    """
    result = SweepResult()
    for rows in map(partial(_sweep_one_seed, config, side_outputs=side_outputs), config.seeds):
        result.rows.extend(rows)
    result.sort()
    return result


def _sweep_one_seed(config, seed: int, side_outputs=None) -> list[SweepRow]:
    g, devices, dist = build_seed_state(config, seed)
    scales = config.sweep.values if config.sweep is not None else [1.0]
    horizons = config.T_s
    state = initialize(g, devices, r=config.r_m, rho=config.rho_s,
                       T=max(scales) * max(horizons))
    with side_outputs(seed, state) if side_outputs is not None else nullcontext():
        run(state)
    anchors = home_anchors(state.devices, g)
    rows: list[SweepRow] = []
    for a in scales:
        for T in horizons:
            if devices:
                cg = derived_connection_graph(state, a * T, a * config.rho_s)
                largest, wraps = largest_cluster_fraction(cg), connection_graph_wraps(cg, anchors, g)
            else:
                largest, wraps = None, False
            rows.append(SweepRow(
                seed=seed, scale_a=a, velocity_mean_mps=dist.scaled(a).mean(),
                T_s=T, rho_s=config.rho_s, r_m=config.r_m,
                lambda_per_m=config.lambda_per_km / 1000.0, n_devices=len(devices),
                largest_fraction=largest, wraps=wraps,
            ))
    return rows


def write_sweep_csv(result: SweepResult, path) -> None:
    """Mandatory-header CSV in deterministic (seed, scale, T) order."""
    result.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in result.rows:
            writer.writerow([
                r.seed,
                repr(float(r.scale_a)),
                repr(float(r.velocity_mean_mps)),
                repr(float(r.T_s)),
                repr(float(r.rho_s)),
                repr(float(r.r_m)),
                repr(float(r.lambda_per_m)),
                r.n_devices,
                "" if r.largest_fraction is None else repr(float(r.largest_fraction)),
                "true" if r.wraps else "false",
            ])
