"""Device sampling, waypoint kernels, shortest paths and position algebra.

Devices live on streets and are stored street-relative: a position is a
fraction p of the way between two crossings, oriented so that p increases in
the direction of travel.  Absolute torus coordinates are only needed when
sampling waypoints; movement and contact checks work entirely on fractions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .streets import (
    KERNEL_BATCH_ELEMENTS,
    STREET_GRID_PAD,
    CellIndex,
    StreetArrays,
    StreetGraph,
    StreetPosition,
    project_to_streets,
)
from .torus import TorusPoint, wrap

__all__ = [
    "Device",
    "Path",
    "DiracVelocity",
    "TwoPointVelocity",
    "PositiveNormalVelocity",
    "RuntimeInvariantError",
    "coords",
    "sample_devices",
    "sample_destination_kappa_prime",
    "sample_destination_kappa_doubleprime",
    "shortest_path",
    "position_at",
    "advance_to",
    "sample_velocity",
]


class RuntimeInvariantError(RuntimeError):
    """A simulation invariant was violated (indicates a scheduling bug)."""


@dataclass(frozen=True, slots=True)
class Path:
    """Route of a device: start position, interior crossings, end position.

    ``streets`` holds one street id per leg; ``start`` and ``end`` are
    oriented along the direction of travel (fractions increase).  A
    stationary path has a single leg with ``start == end``.
    """

    start: StreetPosition
    crossings: tuple[int, ...]
    end: StreetPosition
    streets: tuple[int, ...]

    @property
    def n_legs(self) -> int:
        return len(self.streets)

    @property
    def is_stationary(self) -> bool:
        return self.n_legs == 1 and self.start == self.end

    def entries(self) -> list:
        """Bracket form [(v0, v1, p), v1, ..., v_{n-1}, (v_{n-1}, v_n, q)]."""
        head = (self.start.v1, self.start.v2, self.start.p)
        tail = (self.end.v1, self.end.v2, self.end.p)
        return [head, *self.crossings, tail]

    def reverse(self) -> "Path":
        """The same route traveled backwards, fractions complemented."""
        return Path(
            start=self.end.flipped(),
            crossings=tuple(reversed(self.crossings)),
            end=self.start.flipped(),
            streets=tuple(reversed(self.streets)),
        )


class Device:
    """A device, its commute and its current street position.

    ``moving`` is a plain attribute, kept in step with ``path`` by the path
    setter: a device is stationary when its path is, and turning around never
    changes that.  The reversed route is built on the first turn and reused.
    """

    __slots__ = ("id", "pos", "time_of_pos", "velocity", "home", "destination", "leg",
                 "street_length", "moving", "_path", "_reversed")

    def __init__(self, id, pos, time_of_pos, velocity, path, home, destination,
                 leg=0, street_length=0.0):
        self.id = id
        self.pos = pos
        self.time_of_pos = time_of_pos
        self.velocity = velocity
        self.path = path
        self.home = home
        self.destination = destination
        self.leg = leg
        self.street_length = street_length  # cached length of the current street

    @property
    def path(self) -> Path:
        return self._path

    @path.setter
    def path(self, path: Path) -> None:
        self._path = path
        self._reversed = None
        self.moving = path is not None and not path.is_stationary

    def turn_around(self) -> Path:
        """Make the reversed route the current path and return it.

        Flipping a fraction twice can move it by an ulp (1 - (1 - p) != p),
        but flipping it three times equals flipping it once.  So from the
        first turn on the path alternates between its first and second
        reversal, and both are built on that turn.
        """
        rev = self._reversed
        if rev is None:
            rev = self._path.reverse()
            self._reversed = rev.reverse()
        else:
            self._reversed = self._path
        self._path = rev
        return rev

    def clone(self) -> "Device":
        twin = Device(
            self.id, self.pos, self.time_of_pos, self.velocity, self._path,
            self.home, self.destination, self.leg, self.street_length,
        )
        twin._reversed = self._reversed
        return twin


# -- velocity distributions ------------------------------------------------


@dataclass(frozen=True, slots=True)
class DiracVelocity:
    v: float

    def __post_init__(self):
        if self.v <= 0:
            raise ValueError("velocity must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return self.v

    def mean(self) -> float:
        return self.v

    def scaled(self, a: float) -> "DiracVelocity":
        return DiracVelocity(self.v * a)


@dataclass(frozen=True, slots=True)
class TwoPointVelocity:
    """Pedestrian speed v_p with probability prob_p, else driving speed v_d."""

    v_p: float
    v_d: float
    prob_p: float

    def __post_init__(self):
        if self.v_p <= 0 or self.v_d <= 0:
            raise ValueError("velocities must be positive")
        if not 0.0 <= self.prob_p <= 1.0:
            raise ValueError("prob_p must be in [0, 1]")

    def sample(self, rng: np.random.Generator) -> float:
        return self.v_p if rng.uniform() < self.prob_p else self.v_d

    def mean(self) -> float:
        return self.prob_p * self.v_p + (1.0 - self.prob_p) * self.v_d

    def scaled(self, a: float) -> "TwoPointVelocity":
        return TwoPointVelocity(self.v_p * a, self.v_d * a, self.prob_p)


@dataclass(frozen=True, slots=True)
class PositiveNormalVelocity:
    """Normal(mean, std) conditioned to be positive, by rejection."""

    mean_param: float
    std: float

    def __post_init__(self):
        if self.mean_param <= 0 or self.std <= 0:
            raise ValueError("mean and std must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        while True:
            v = rng.normal(self.mean_param, self.std)
            if v > 0.0:
                return v

    def mean(self) -> float:
        # E[X | X > 0] for X ~ N(mu, sigma)
        mu, sigma = self.mean_param, self.std
        z = mu / sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return mu + sigma * phi / big_phi

    def scaled(self, a: float) -> "PositiveNormalVelocity":
        return PositiveNormalVelocity(self.mean_param * a, self.std * a)


def sample_velocity(dist, rng: np.random.Generator) -> float:
    return dist.sample(rng)


# -- positions and coordinates ----------------------------------------------


def coords(pos: StreetPosition, g: StreetGraph) -> TorusPoint:
    """Torus coordinates of a street position: (1-p)*v1 + p*v2, wrapped.

    For streets crossing the torus boundary the interpolation runs along the
    unwrapped image of the far endpoint before wrapping.
    """
    e = g.edges[pos.street]
    ux, uy = g.vertices[e.u]
    dx, dy = e.delta
    t = pos.p if pos.v1 == e.u else 1.0 - pos.p
    return wrap((ux + t * dx, uy + t * dy), g.L)


def position_at(d: Device, t: float) -> float:
    """Fraction of the current street the device has reached at time t.

    The caller guarantees (via event scheduling) that the device does not
    pass the end of its street before t.
    """
    if t < d.time_of_pos - 1e-9:
        raise ValueError(f"cannot evaluate device {d.id} before its stored time")
    if not d.moving:
        return d.pos.p
    p_new = d.pos.p + (t - d.time_of_pos) * d.velocity / d.street_length
    if p_new > 1.0 + 1e-9:
        raise RuntimeInvariantError(
            f"device {d.id} overshot its street (p={p_new}); missed crossing event"
        )
    return min(p_new, 1.0)


def advance_to(d: Device, t: float) -> None:
    """Materialize the device position at time t and update its timestamp."""
    p = position_at(d, t)
    pos = d.pos
    if p != pos.p:
        d.pos = StreetPosition(pos.street, pos.v1, pos.v2, p)
    d.time_of_pos = t


# -- device sampling ---------------------------------------------------------


def sample_devices(g: StreetGraph, lam: float, rng: np.random.Generator) -> list[Device]:
    """Scatter devices on the streets with linear intensity lam (per meter).

    Per street the count is Poisson(lam * length) and positions are uniform
    fractions.  Devices are created stationary; waypoints, velocities and
    paths are assigned afterwards.  Each device is registered in its street's
    device set.
    """
    if lam < 0:
        raise ValueError("device intensity must be non-negative")
    devices = []
    next_id = 0
    for eid in sorted(g.edges):
        e = g.edges[eid]
        count = int(rng.poisson(lam * e.length)) if lam > 0 else 0
        for _ in range(count):
            p = float(rng.uniform())
            pos = StreetPosition(eid, e.u, e.v, p)
            d = Device(
                id=next_id, pos=pos, time_of_pos=0.0, velocity=1.0,
                path=Path(pos, (), pos, (eid,)), home=pos, destination=pos,
                street_length=e.length,
            )
            e.devices.add(next_id)
            devices.append(d)
            next_id += 1
    return devices


def sample_destination_kappa_prime(
    homes: Sequence[StreetPosition],
    R: float,
    g: StreetGraph,
    idx: CellIndex,
    rng: np.random.Generator,
) -> list[StreetPosition]:
    """Waypoint kernel: uniform point in the disk of radius R, projected.

    For each home, draws a uniform point in the disk of radius R around the
    home coordinates (via polar coordinates), wraps it onto the torus and
    projects it to the closest point of the street system.  The (u1, u2)
    pairs of all homes come from one ``rng.uniform(size=(n, 2))`` call, the
    same numbers in the same order as two scalar draws per home; the
    projection is batched by ``project_to_streets``.
    """
    if not 0 < R < g.L:
        raise ValueError(f"kernel radius must be in (0, L); got R={R}, L={g.L}")
    points = []
    for home, (u1, u2) in zip(homes, rng.uniform(size=(len(homes), 2)).tolist()):
        c = coords(home, g)
        rad = math.sqrt(u1) * R
        points.append(wrap((c.x + rad * math.sin(2.0 * math.pi * u2),
                            c.y + rad * math.cos(2.0 * math.pi * u2)), g.L))
    return project_to_streets(points, g, idx)


def _disc_intervals(arr: StreetArrays, rows: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                    radius: float, side: float):
    """The street intervals inside the disc of every centre, as arrays.

    Tests each centre against each candidate street row in all nine torus
    images: first the street's box widened by the radius plus the grid pad,
    then the disc quadratic.  Returns (centre, row, lo, hi) with one entry
    per interval, sorted by centre, then street, then interval.  The floats
    are those of a walk over every street and image, one disc at a time
    (``tests/test_mobility.py`` keeps it as the oracle): the same expressions
    in the same order, ``max``/``min`` written as ``where`` so that the sign
    of zero is kept, and a street that several images meet sorted and merged
    in Python.
    """
    reach = radius + STREET_GRID_PAD * side
    offsets = np.array([-side, 0.0, side])
    xs = cx[:, None] + offsets
    ys = cy[:, None] + offsets
    x_in = ((arr.xmin[rows] - reach)[None, :, None] <= xs[:, None, :]) \
        & (xs[:, None, :] <= (arr.xmax[rows] + reach)[None, :, None])
    y_in = ((arr.ymin[rows] - reach)[None, :, None] <= ys[:, None, :]) \
        & (ys[:, None, :] <= (arr.ymax[rows] + reach)[None, :, None])
    c, k, i, j = np.nonzero(x_in[:, :, :, None] & y_in[:, :, None, :])
    r = rows[k]
    ux = arr.ux[r]
    uy = arr.uy[r]
    dx = arr.dx[r]
    dy = arr.dy[r]
    length = arr.length[r]
    len2 = length * length
    # |u + t*delta - c|^2 <= radius^2, quadratic in t
    fx = ux - xs[c, i]
    fy = uy - ys[c, j]
    b = 2.0 * (fx * dx + fy * dy)
    c0 = fx * fx + fy * fy - radius * radius
    disc = b * b - 4.0 * len2 * c0
    hit = disc >= 0.0
    sq = np.sqrt(disc[hit])
    b = b[hit]
    len2 = len2[hit]
    t0 = (-b - sq) / (2.0 * len2)
    t1 = (-b + sq) / (2.0 * len2)
    lo = np.where(0.0 > t0, 0.0, t0)
    hi = np.where(1.0 < t1, 1.0, t1)
    keep = hi > lo
    c = c[hit][keep]
    r = r[hit][keep]
    lo = lo[keep]
    hi = hi[keep]
    key = c * len(rows) + k[hit][keep]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    if starts.size < key.size:
        # several images meet one street: sort and merge their intervals
        drop = np.zeros(key.size, dtype=bool)
        for a, e in zip(starts.tolist(), np.r_[starts[1:], key.size].tolist()):
            if e - a == 1:
                continue
            raw = sorted(zip(lo[a:e].tolist(), hi[a:e].tolist()))
            merged = [raw[0]]
            for l0, h0 in raw[1:]:
                if l0 <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], h0))
                else:
                    merged.append((l0, h0))
            lo[a:a + len(merged)] = [m[0] for m in merged]
            hi[a:a + len(merged)] = [m[1] for m in merged]
            drop[a + len(merged):e] = True
        c = c[~drop]
        r = r[~drop]
        lo = lo[~drop]
        hi = hi[~drop]
    return c, r, lo, hi


def sample_destination_kappa_doubleprime(
    homes: Sequence[StreetPosition],
    L_k: float,
    g: StreetGraph,
    rng: np.random.Generator,
) -> list[StreetPosition]:
    """Waypoint kernel: uniform w.r.t. length on the streets within a disc.

    For each home, samples a point uniformly (by length measure) on the part
    of the street system within torus distance L_k of the home.  A
    degenerate radius returns the homes themselves; an empty restriction
    retries with the radius doubled (cannot occur once the disc reaches the
    home's own street), and after 64 doublings raises
    ``RuntimeInvariantError``.

    All homes are handled in one batch: they are grouped by position, and
    each group tests, in numpy, only the streets that ``g.street_grid()``
    lists for the group's discs, in chunks of at most
    ``KERNEL_BATCH_ELEMENTS`` (disc, street, image) triples.  A home's
    intervals, their running total and its pick are bitwise those of a walk
    over every street in ascending id (see ``_disc_intervals``).  Retries
    never draw, so the homes' uniforms come from one ``rng.uniform(size=n)``
    call, and ``total * u`` is bitwise the ``rng.uniform(0, total)`` of a
    draw per home.
    """
    if L_k < 0:
        raise ValueError("disc radius must be non-negative")
    if L_k == 0:
        return list(homes)
    n = len(homes)
    if not n:
        return []
    u = rng.uniform(size=n)
    arr = g.street_arrays()
    grid = g.street_grid()
    L = g.L
    side = 2.0 * L
    centers = np.array([tuple(coords(h, g)) for h in homes], dtype=float).reshape(n, 2)
    out: list = [None] * n
    todo = np.arange(n)
    radius = L_k
    for _ in range(64):
        reach = radius + STREET_GRID_PAD * side
        # group the homes on a grid of squares about half a disc across, with
        # at least 8 homes per square on average
        dim = max(1, int(side // max(reach / 2.0, side * math.sqrt(8.0 / todo.size))))
        square = np.minimum((centers[todo] + L) // (side / dim), dim - 1).astype(np.intp)
        group = square[:, 0] * dim + square[:, 1]
        order = np.argsort(group, kind="stable")
        todo = todo[order]
        group = group[order]
        bounds = np.flatnonzero(np.r_[True, group[1:] != group[:-1], True]).tolist()
        empty: list[np.ndarray] = []
        for a, e in zip(bounds[:-1], bounds[1:]):
            members = todo[a:e]
            x = centers[members, 0]
            y = centers[members, 1]
            rows = grid.near(x.min() - reach, x.max() + reach, y.min() - reach, y.max() + reach)
            step = max(1, KERNEL_BATCH_ELEMENTS // (9 * max(1, rows.size)))
            for s in range(0, members.size, step):
                chunk = members[s:s + step]
                empty.append(_pick(g, arr, rows, chunk, centers[chunk], radius, u[chunk], out))
        todo = np.concatenate(empty)
        if not todo.size:
            return out
        radius *= 2.0
    raise RuntimeInvariantError(
        f"device {int(todo.min())}: the street system restriction stayed empty "
        f"while growing the disc to radius {radius / 2.0!r} m"
    )


def _pick(g: StreetGraph, arr: StreetArrays, rows: np.ndarray, homes: np.ndarray,
          centers: np.ndarray, radius: float, u: np.ndarray, out: list) -> np.ndarray:
    """Draw the destinations of ``homes`` into ``out``, given their uniforms.

    Returns the homes whose disc holds no street, to retry with a larger one.
    """
    c, r, lo, hi = _disc_intervals(arr, rows, centers[:, 0], centers[:, 1], radius, 2.0 * g.L)
    measure = (hi - lo) * arr.length[r]
    # each home's intervals fill one row from the left: cumsum along a row
    # adds them one after another, as the running total of the walk does
    counts = np.bincount(c, minlength=homes.size)
    first = np.cumsum(counts) - counts
    cum = np.zeros((homes.size, max(1, int(counts.max(initial=0)))))
    cum[c, np.arange(c.size) - first[c]] = measure
    np.cumsum(cum, axis=1, out=cum)
    found = np.flatnonzero(counts)
    last = counts[found] - 1
    cum = cum[found]
    pick = cum[np.arange(found.size), last] * u[found]
    # the first interval whose running total reaches the pick, else the
    # last; the zero padding repeats the total, which is >= the pick
    at = np.minimum(np.count_nonzero(cum < pick[:, None], axis=1), last)
    before = np.where(at > 0, cum[np.arange(found.size), at - 1], 0.0)
    q = first[found] + at
    lo = lo[q]
    hi = hi[q]
    t = lo + (pick - before) / arr.length[r[q]]
    t = np.where(lo > t, lo, t)
    t = np.where(hi < t, hi, t)
    for home, eid, frac in zip(homes[found].tolist(), arr.ids[r[q]].tolist(), t.tolist()):
        e = g.edges[eid]
        out[home] = StreetPosition(eid, e.u, e.v, frac)
    return homes[counts == 0]


# -- shortest paths ----------------------------------------------------------

_SRC = -1
_DST = -2

# the batched paths' certificate tolerance, relative to the torus half-side:
# far above the ~1e-12 relative rounding of adding the same street lengths in
# another order, far below any length difference a tessellation produces
_PATH_TOL = 1e-9


def _normalize(pos: StreetPosition, g: StreetGraph) -> tuple[int, int, float]:
    """(u, v, fraction from u) in the street's stored endpoint order."""
    e = g.edges[pos.street]
    if pos.v1 == e.u:
        return e.u, e.v, pos.p
    return e.u, e.v, 1.0 - pos.p


def shortest_path(g: StreetGraph, frm: StreetPosition, to: StreetPosition) -> Path:
    """Shortest street path between two street positions.

    Positions on the same street take the direct along-street route.  For
    the general case both endpoints are added as temporary vertices (an
    overlay; the graph itself is never mutated), connected to their streets'
    crossings with the split lengths, and Dijkstra runs over the overlay;
    an exact tie between predecessors goes to the smaller (crossing, street).
    The returned path is oriented so fractions increase along travel.

    This is the per-pair API, and the exact answer that ``assign_commute``
    falls back to for every device whose batched path it cannot certify.
    """
    if frm.street == to.street:
        e = g.edges[frm.street]
        _, _, pf = _normalize(frm, g)
        _, _, pt = _normalize(to, g)
        if pf <= pt:
            start = StreetPosition(e.id, e.u, e.v, pf)
            end = StreetPosition(e.id, e.u, e.v, pt)
        else:
            start = StreetPosition(e.id, e.v, e.u, 1.0 - pf)
            end = StreetPosition(e.id, e.v, e.u, 1.0 - pt)
        return Path(start, (), end, (e.id,))

    adj = g.adjacency()
    ef = g.edges[frm.street]
    et = g.edges[to.street]
    _, _, pf = _normalize(frm, g)
    _, _, pt = _normalize(to, g)
    source_edges = [
        (ef.u, pf * ef.length, ef.id),
        (ef.v, (1.0 - pf) * ef.length, ef.id),
    ]
    target_weight = {et.u: pt * et.length, et.v: (1.0 - pt) * et.length}

    dist: dict[int, float] = {_SRC: 0.0}
    pred: dict[int, tuple[int, int]] = {}
    heap: list[tuple[float, int]] = [(0.0, _SRC)]
    done: set[int] = set()
    while heap:
        du, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == _DST:
            break
        if node == _SRC:
            nbrs = source_edges
        else:
            nbrs = adj[node]
            if node in target_weight:
                nbrs = nbrs + [(_DST, target_weight[node], et.id)]
        for nb, w, sid in nbrs:
            if nb in done:
                continue
            nd = du + w
            old = dist.get(nb)
            if old is None or nd < old:
                dist[nb] = nd
                pred[nb] = (node, sid)
                heappush(heap, (nd, nb))
            elif nd == old and (node, sid) < pred[nb]:
                pred[nb] = (node, sid)  # deterministic tie-break
    if _DST not in pred:
        raise ValueError("street graph is disconnected; no path exists")

    chain: list[tuple[int, int]] = []  # (vertex, street entered through)
    node = _DST
    while node != _SRC:
        prev, sid = pred[node]
        chain.append((node, sid))
        node = prev
    chain.reverse()
    crossings = tuple(v for v, _ in chain[:-1])
    streets = (frm.street, *(sid for _, sid in chain[1:-1]), to.street)

    first = crossings[0]
    if first == ef.v:
        start = StreetPosition(ef.id, ef.u, ef.v, pf)
    else:
        start = StreetPosition(ef.id, ef.v, ef.u, 1.0 - pf)
    last = crossings[-1]
    if last == et.u:
        end = StreetPosition(et.id, et.u, et.v, pt)
    else:
        end = StreetPosition(et.id, et.v, et.u, 1.0 - pt)
    return Path(start, crossings, end, streets)


class _CrossingGraph(NamedTuple):
    """The street graph over crossing indices (positions in sorted vertex ids).

    ``csr`` holds one entry per ordered pair of adjacent crossings: of
    parallel streets the shorter, then the smaller id; loops are left out.
    ``inc_*`` list, padded per crossing ``y``, every street end at ``y``
    (parallel streets and loops included): the crossing ``x`` at the other
    end, the length (``inf`` in the padding) and the street's row in
    ``street_arrays()``.
    """

    verts: np.ndarray
    u: np.ndarray
    v: np.ndarray
    csr: csr_matrix
    inc_x: np.ndarray
    inc_w: np.ndarray
    inc_row: np.ndarray

    @classmethod
    def build(cls, g: StreetGraph, arr: StreetArrays) -> "_CrossingGraph":
        verts = np.array(sorted(g.vertices), dtype=np.intp)
        ends = np.array([(g.edges[eid].u, g.edges[eid].v) for eid in arr.ids.tolist()],
                        dtype=np.intp).reshape(-1, 2)
        u = np.searchsorted(verts, ends[:, 0])
        v = np.searchsorted(verts, ends[:, 1])
        x = np.concatenate((u, v))
        y = np.concatenate((v, u))
        w = np.concatenate((arr.length, arr.length))
        row = np.tile(np.arange(arr.ids.size), 2)
        order = np.lexsort((row, w, x, y))
        x, y, w, row = x[order], y[order], w[order], row[order]
        n = verts.size
        keep = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1])] & (x != y)
        csr = csr_matrix((w[keep], (y[keep], x[keep])), shape=(n, n))
        degree = np.bincount(y, minlength=n)
        slot = np.arange(y.size) - (np.cumsum(degree) - degree)[y]
        inc_x = np.zeros((n, max(1, int(degree.max(initial=0)))), dtype=np.intp)
        inc_w = np.full(inc_x.shape, np.inf)
        inc_row = np.zeros(inc_x.shape, dtype=np.intp)
        inc_x[y, slot] = x
        inc_w[y, slot] = w
        inc_row[y, slot] = row
        return cls(verts, u, v, csr, inc_x, inc_w, inc_row)


def _certified_chains(cg: _CrossingGraph, pairs: np.ndarray, src: np.ndarray,
                      targets: np.ndarray, target_w: np.ndarray, lim: float, tol: float,
                      value: np.ndarray):
    """Search from the sources of ``pairs`` and certify each pair's best chain.

    A pair is one side of one device: its source crossing ``src[pair]`` and
    the two ends ``targets[pair]`` of the target street, entered with the
    weights ``target_w[pair]``.  Fills ``value[pair]`` with the best end's
    distance plus its weight (``inf`` when no end lies within ``lim``).  A
    pair's chain is certified when its best end beats the other by more than
    ``tol`` and, at every crossing after the source, exactly one street end
    is tight.  Returns the certified pairs, their hop counts and, pair after
    pair, their crossings and the rows of the streets entering them (the
    source's entry is a placeholder).  Sources are searched in chunks of at
    most ``KERNEL_BATCH_ELEMENTS`` distance entries.
    """
    pairs = pairs[np.argsort(src[pairs], kind="stable")]
    sources, first = np.unique(src[pairs], return_index=True)
    first = np.r_[first, pairs.size]
    step = max(1, KERNEL_BATCH_ELEMENTS // cg.verts.size)
    return [_certify_chunk(cg, sources[c0:c0 + step],
                           pairs[first[c0]:first[min(c0 + step, sources.size)]],
                           src, targets, target_w, lim, tol, value)
            for c0 in range(0, sources.size, step)]


def _certify_chunk(cg: _CrossingGraph, chunk: np.ndarray, qc: np.ndarray, src: np.ndarray,
                   targets: np.ndarray, target_w: np.ndarray, lim: float, tol: float,
                   value: np.ndarray):
    """``_certified_chains`` for the pairs ``qc`` whose sources are ``chunk``.

    One function call per chunk, so that a chunk's distances are freed
    before the next chunk's are allocated.
    """
    dist = dijkstra(cg.csr, indices=chunk, limit=lim)
    row = np.searchsorted(chunk, src[qc])
    k = np.arange(qc.size)
    cost = dist[row[:, None], targets[qc]] + target_w[qc]
    end = np.argmin(cost, axis=1)
    best = cost[k, end]
    value[qc] = best
    ok = best + tol < cost[k, 1 - end]  # also false when best is inf
    qc, row, s = qc[ok], row[ok], src[qc][ok]
    # walk back from the best end, all pairs at once, along the one tight
    # street into each crossing (so the search's own predecessor); a pair
    # with no or several tight streets at a crossing is not certified
    cur = targets[qc, end[ok]]
    ok = np.ones(qc.size, dtype=bool)
    on = np.flatnonzero(cur != s)
    none = np.zeros(0, dtype=np.intp)
    walked = [(none, none, none, none)]  # pairs, steps back from the end, crossings, streets
    step = 0
    while on.size:
        y = cur[on]
        tight = (dist[row[on][:, None], cg.inc_x[y]] + cg.inc_w[y]
                 - dist[row[on], y][:, None]) <= tol
        one = tight.sum(axis=1) == 1
        ok[on[~one]] = False
        on, y = on[one], y[one]
        j = tight[one].argmax(axis=1)
        walked.append((on, np.full(on.size, step), y, cg.inc_row[y, j]))
        cur[on] = cg.inc_x[y, j]
        on = on[cur[on] != s[on]]
        step += 1
    kk, jj, y, entering = (np.concatenate(col) for col in zip(*walked))
    hops = np.bincount(kk, minlength=qc.size)
    # forward order, each certified pair's source first
    size = np.where(ok, hops + 1, 0)
    at = np.cumsum(size) - size
    crossings = np.empty(int(size.sum()), dtype=np.intp)
    entered = np.zeros(crossings.size, dtype=np.intp)  # the source's entry is a placeholder
    crossings[at[ok]] = s[ok]
    keep = ok[kk]
    pos = (at + hops)[kk[keep]] - jj[keep]
    crossings[pos] = y[keep]
    entered[pos] = entering[keep]
    return qc[ok], hops[ok], crossings, entered


def _shortest_paths(g: StreetGraph, frms: Sequence[StreetPosition],
                    tos: Sequence[StreetPosition]) -> list[Path]:
    """``shortest_path`` for every (frm, to) pair, batched; see ``assign_commute``."""
    n = len(frms)
    if not n:
        return []
    arr = g.street_arrays()
    cg = _CrossingGraph.build(g, arr)
    # the graph's own id objects, which the paths share as shortest_path's do
    vert_ids = sorted(g.vertices)
    street_ids = sorted(g.edges)

    def ids(objs, index):
        return map(objs.__getitem__, index.tolist())

    rf = np.searchsorted(arr.ids, np.array([pos.street for pos in frms], dtype=np.intp))
    rt = np.searchsorted(arr.ids, np.array([pos.street for pos in tos], dtype=np.intp))
    u = cg.verts[cg.u]
    # fractions from the streets' u ends
    pf = np.array([pos.p for pos in frms], dtype=float)
    pt = np.array([pos.p for pos in tos], dtype=float)
    pf = np.where(np.array([pos.v1 for pos in frms]) == u[rf], pf, 1.0 - pf)
    pt = np.where(np.array([pos.v1 for pos in tos]) == u[rt], pt, 1.0 - pt)
    # same street: the direct route, start and end turned alike
    same = rf == rt
    flip_start = same & (pf > pt)
    flip_end = flip_start.copy()
    at = np.full(n, -1)  # where a certified chain starts in the flat lists
    hops = np.full(n, -1)
    dev = np.flatnonzero(~same)
    if dev.size:
        at[dev], hops[dev], crossings, streets = _search(g, arr, cg, rf[dev], pf[dev],
                                                          rt[dev], pt[dev])
        # leave the home street at the first crossing, enter the target street
        # from the last, as ``shortest_path`` orients them
        ok = dev[at[dev] >= 0]
        flip_start[ok] = crossings[at[ok]] != cg.v[rf[ok]]
        flip_end[ok] = crossings[at[ok] + hops[ok]] != cg.u[rt[ok]]
        crossings = list(ids(vert_ids, crossings))
        streets = list(ids(street_ids, streets))
    starts = map(StreetPosition, ids(street_ids, rf),
                 ids(vert_ids, np.where(flip_start, cg.v[rf], cg.u[rf])),
                 ids(vert_ids, np.where(flip_start, cg.u[rf], cg.v[rf])),
                 np.where(flip_start, 1.0 - pf, pf).tolist())
    ends = map(StreetPosition, ids(street_ids, rt),
               ids(vert_ids, np.where(flip_end, cg.v[rt], cg.u[rt])),
               ids(vert_ids, np.where(flip_end, cg.u[rt], cg.v[rt])),
               np.where(flip_end, 1.0 - pt, pt).tolist())
    paths = []
    for frm, to, start, end, a, h in zip(frms, tos, starts, ends, at.tolist(), hops.tolist()):
        if a >= 0:
            paths.append(Path(start, tuple(crossings[a:a + h + 1]), end,
                              (frm.street, *streets[a + 1:a + h + 1], to.street)))
        elif h < 0:
            paths.append(Path(start, (), end, (frm.street,)))
        else:
            paths.append(shortest_path(g, frm, to))
    return paths


def _search(g: StreetGraph, arr: StreetArrays, cg: _CrossingGraph, rf: np.ndarray,
            pf: np.ndarray, rt: np.ndarray, pt: np.ndarray):
    """Batched, certified searches for devices leaving their home streets.

    ``rf``/``rt`` are the rows of the home and target streets, ``pf``/``pt``
    the fractions from their u ends.  Returns, per device, where its chain
    starts in the flat crossing and street arrays (-1 when it falls back)
    and its hop count, then those two arrays.
    """
    m = rf.size
    # pair 2i + s: device i leaving its home street through end s (u, v)
    src = np.stack((cg.u[rf], cg.v[rf]), axis=1).ravel()
    side_w = np.stack((pf * arr.length[rf], (1.0 - pf) * arr.length[rf]), axis=1).ravel()
    targets = np.repeat(np.stack((cg.u[rt], cg.v[rt]), axis=1), 2, axis=0)
    target_w = np.repeat(np.stack((pt * arr.length[rt], (1.0 - pt) * arr.length[rt]), axis=1),
                         2, axis=0)
    tol = _PATH_TOL * g.L
    total = float(arr.length.sum())
    lim = _initial_limit(arr, rf, pf, rt, pt, g.L)
    value = np.full(2 * m, np.inf)
    start = np.full(2 * m, -1)
    n_hops = np.zeros(2 * m, dtype=np.intp)
    chosen = np.zeros(m, dtype=np.intp)  # the certified pair, -1 to fall back
    found = []
    size = 0
    todo = np.arange(m)
    while todo.size:
        pairs = np.stack((2 * todo, 2 * todo + 1), axis=1).ravel()
        start[pairs] = -1
        for q, hops, crossings, streets in _certified_chains(cg, pairs, src, targets, target_w,
                                                              lim, tol, value):
            start[q] = size + np.cumsum(hops + 1) - (hops + 1)
            n_hops[q] = hops
            size += crossings.size
            found.append((crossings, streets))
        both = (value + side_w).reshape(m, 2)[todo]
        k = np.arange(todo.size)
        side = np.argmin(both, axis=1)
        best = both[k, side]
        within = best + tol < lim
        if lim == np.inf and not within.all():
            raise ValueError("street graph is disconnected; no path exists")
        q = 2 * todo + side
        clear = (best + tol < both[k, 1 - side]) & (start[q] >= 0)
        chosen[todo] = np.where(clear, q, -1)
        todo = todo[~within]
        lim = 2.0 * lim if 2.0 * lim < total else np.inf
    certified = chosen >= 0
    return (np.where(certified, start[chosen], -1), np.where(certified, n_hops[chosen], 0),
            np.concatenate([f[0] for f in found]), np.concatenate([f[1] for f in found]))


def _initial_limit(arr: StreetArrays, rf: np.ndarray, pf: np.ndarray, rt: np.ndarray,
                   pt: np.ndarray, L: float) -> float:
    """The first search limit: 1.25 times the largest torus distance between a
    home and its destination, and at least the longest street.

    Street paths are at least as long as the straight line; on the benchmark
    tessellations 1.25 times its largest length covers all but about 1% of the
    devices, which search again with the limit doubled.
    """
    side = 2.0 * L
    dx = np.abs((arr.ux[rf] + pf * arr.dx[rf]) - (arr.ux[rt] + pt * arr.dx[rt])) % side
    dy = np.abs((arr.uy[rf] + pf * arr.dy[rf]) - (arr.uy[rt] + pt * arr.dy[rt])) % side
    dist = np.hypot(np.minimum(dx, side - dx), np.minimum(dy, side - dy))
    return max(1.25 * float(dist.max()), float(arr.length.max()))


def assign_commute(
    devices: Sequence[Device],
    destinations: Sequence[StreetPosition],
    velocities: Sequence[float],
    g: StreetGraph,
) -> None:
    """Give sampled devices their destinations, velocities and shortest paths.

    The paths are ``shortest_path``'s, device by device, computed in one
    batch.  A device whose destination is on its home street takes the
    direct route.  For the others, ``scipy.sparse.csgraph.dijkstra`` runs
    from the crossings at both ends of the home streets, over the crossing
    graph (of parallel streets the shorter, then the smaller id), with a
    distance limit.  From each side's best target end the path is walked
    back in numpy, along the one tight street into each crossing.  A device
    keeps its batched path only under a certificate, with a tolerance
    ``tol`` of 1e-9 of the torus half-side:

    1. its best side beats its other side by more than ``tol``;
    2. on that side, the best end of the target street beats the other end
       by more than ``tol``;
    3. at every crossing after the source, exactly one street end is tight
       (distance of its far crossing plus its length within ``tol`` of the
       crossing's distance; parallel streets count separately);
    4. its path length plus ``tol`` lies below the limit.

    Then every choice the overlay Dijkstra of ``shortest_path`` makes along
    the path is forced, whatever its summation order and tie-break, so the
    paths are equal.  A device failing 4 is searched again with the limit
    doubled (only its own sources), up to an unlimited search; one still
    unreached raises ``ValueError`` as ``shortest_path`` does.  A device
    failing 1-3 falls back to ``shortest_path``.
    """
    paths = _shortest_paths(g, [d.home for d in devices], destinations)
    edges = g.edges
    for d, path, velocity in zip(devices, paths, velocities):
        d.path = path
        d.pos = path.start
        d.leg = 0
        d.velocity = velocity
        d.destination = path.end
        d.street_length = edges[path.streets[0]].length
