"""Device sampling, waypoint kernels, shortest paths and position algebra.

Devices live on streets and are stored street-relative: a position is a
fraction p of the way between two crossings, oriented so that p increases in
the direction of travel.  Absolute torus coordinates are only needed when
sampling waypoints; movement and contact checks work entirely on fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .streets import STREET_GRID_PAD, CellIndex, StreetGraph, StreetPosition, project_to_street
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
    home: StreetPosition,
    R: float,
    g: StreetGraph,
    idx: CellIndex,
    rng: np.random.Generator,
) -> StreetPosition:
    """Waypoint kernel: uniform point in the disk of radius R, projected.

    Draws a uniform point in the disk of radius R around the home coordinates
    (via polar coordinates), wraps it onto the torus and projects it to the
    closest point of the street system.
    """
    if not 0 < R < g.L:
        raise ValueError(f"kernel radius must be in (0, L); got R={R}, L={g.L}")
    c = coords(home, g)
    u1 = rng.uniform()
    u2 = rng.uniform()
    rad = math.sqrt(u1) * R
    d = (c.x + rad * math.sin(2.0 * math.pi * u2), c.y + rad * math.cos(2.0 * math.pi * u2))
    return project_to_street(wrap(d, g.L), g, idx)


def _disc_street_intervals(g: StreetGraph, center: TorusPoint, radius: float):
    """Per street, the sub-intervals of the fraction parameter inside the disc.

    Only streets listed in the street-grid squares that the disc's padded
    box covers are visited, in ascending id, and for each only the torus
    images of the disc whose box comes within the pad of the street's box.
    A skipped street or image cannot yield an interval, so the result is
    the one a walk over every street and all nine images gives.
    """
    side = 2.0 * g.L
    pad = STREET_GRID_PAD * side
    reach = radius + pad
    grid = g.street_grid()
    cols = grid.span(center.x - reach, center.x + reach)
    rows = grid.span(center.y - reach, center.y + reach)
    if len(cols) == grid.dim and len(rows) == grid.dim:
        candidates = sorted(g.edges)
    else:
        found: set[int] = set()
        for i in cols:
            for j in rows:
                found.update(grid.grid[i * grid.dim + j])
        candidates = sorted(found)
    # centre images c + o: the same floats as in a walk over all nine images
    x_images = [center.x + oi for oi in (-side, 0.0, side)]
    y_images = [center.y + oj for oj in (-side, 0.0, side)]
    out = []
    total = 0.0
    for eid in candidates:
        e = g.edges[eid]
        u = g.vertices[e.u]
        ux = u.x
        uy = u.y
        dx, dy = e.delta
        # the street's box, widened by the disc radius plus the pad
        if dx >= 0.0:
            x_lo, x_hi = ux - reach, ux + dx + reach
        else:
            x_lo, x_hi = ux + dx - reach, ux + reach
        if dy >= 0.0:
            y_lo, y_hi = uy - reach, uy + dy + reach
        else:
            y_lo, y_hi = uy + dy - reach, uy + reach
        len2 = e.length * e.length
        raw: list[tuple[float, float]] = []
        for cx in x_images:
            if not x_lo <= cx <= x_hi:
                continue
            for cy in y_images:
                if not y_lo <= cy <= y_hi:
                    continue
                # |u + t*delta - c|^2 <= radius^2, quadratic in t
                fx = ux - cx
                fy = uy - cy
                b = 2.0 * (fx * dx + fy * dy)
                c0 = fx * fx + fy * fy - radius * radius
                disc = b * b - 4.0 * len2 * c0
                if disc < 0.0:
                    continue
                sq = math.sqrt(disc)
                t0 = (-b - sq) / (2.0 * len2)
                t1 = (-b + sq) / (2.0 * len2)
                lo, hi = max(t0, 0.0), min(t1, 1.0)
                if hi > lo:
                    raw.append((lo, hi))
        if not raw:
            continue
        raw.sort()
        merged = [raw[0]]
        for lo, hi in raw[1:]:
            if lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            measure = (hi - lo) * e.length
            out.append((eid, lo, hi, measure))
            total += measure
    return out, total


def sample_destination_kappa_doubleprime(
    home: StreetPosition,
    L_k: float,
    g: StreetGraph,
    rng: np.random.Generator,
) -> StreetPosition:
    """Waypoint kernel: uniform w.r.t. length on the streets within a disc.

    Samples a point uniformly (by length measure) on the part of the street
    system within torus distance L_k of the home.  A degenerate radius
    returns the home itself; an empty restriction retries with the radius
    doubled (cannot occur once the disc reaches the home's own street).

    Streets near the disc are found through ``g.street_grid()``, built on
    the first call and cached on the graph.  The grid only skips streets and
    torus images that cannot meet the disc, and the rest are visited in
    ascending street id with the same float expressions as a walk over all
    streets.  So the intervals, their total and the single
    ``rng.uniform(0, total)`` draw are bitwise those of that walk, and so is
    every destination.
    """
    if L_k < 0:
        raise ValueError("disc radius must be non-negative")
    if L_k == 0:
        return home
    center = coords(home, g)
    radius = L_k
    for _ in range(64):
        intervals, total = _disc_street_intervals(g, center, radius)
        if total > 0.0:
            pick = rng.uniform(0.0, total)
            acc = 0.0
            last = len(intervals) - 1
            for k, (eid, lo, hi, measure) in enumerate(intervals):
                if pick <= acc + measure or k == last:
                    e = g.edges[eid]
                    t = lo + (pick - acc) / e.length
                    t = min(max(t, lo), hi)
                    return StreetPosition(eid, e.u, e.v, t)
                acc += measure
        radius *= 2.0
    raise RuntimeError("street system restriction stayed empty while growing the disc")


# -- shortest paths ----------------------------------------------------------

_SRC = -1
_DST = -2


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
    crossings with the split lengths, and Dijkstra runs over the overlay.
    The returned path is oriented so fractions increase along travel.
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


def assign_commute(
    d: Device,
    destination: StreetPosition,
    velocity: float,
    g: StreetGraph,
) -> None:
    """Give a sampled device its destination, velocity and shortest path."""
    path = shortest_path(g, d.home, destination)
    d.path = path
    d.pos = path.start
    d.leg = 0
    d.velocity = velocity
    d.destination = path.end
    d.street_length = g.edges[path.streets[0]].length

