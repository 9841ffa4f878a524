"""Continuous-time event engine.

Instead of stepping the whole system in fixed time slices, every device
carries exactly one pending movement event (reaching a crossing or its
destination) in a priority queue, and only the device that caused an event
is updated when it fires.  Which devices share a street is
``state.occupancy``, one set of device ids per street id, built by
:func:`initialize` from the devices' positions and kept by the handlers;
the street graph itself is never written.  Per pair of devices sharing a
street the engine keeps the analytically solved contact interval; a
connection is established once a contact has lasted longer than the
connection time rho.

The queue is ``state.heap``, a binary heap of raw ``(time, kind, device)``
tuples.  :func:`run` handles every event with time <= T; events at one
instant fire crossings before destinations, then by device id.  Then a
single close-out at T brings all positions to T and logs the contacts still
running up to T.

When ``state.trace`` is set, :func:`run` calls ``state.trace(ev, state)``
with an :class:`Event` once per event, after the clock has moved to
``ev.time`` and before the event is handled; ``ev.kind`` is an
:class:`EventKind` (an int, usable as an index).  The close-out passes two
more records at T, FINISH and then GLOBAL_UPDATE, whose ``ev.device`` is
``None``.  The hook is read once, when ``run`` starts; without one no
:class:`Event` is built.

Every maximal same-street contact interval is logged to ``state.history``,
the single record of contacts: a :class:`ContactHistory`, one flat
``array('d')`` with the four doubles (i, j, u, w) of each interval, 32
bytes an interval (device ids are exact as doubles below 2**53).  The
connection rule is applied to it alone: :func:`derived_connection_graph`
builds the graph for any (T', rho') with T' <= T, and :func:`run` returns
it at (T, rho), in numpy over a view of the array: it masks the
intervals and keeps the distinct pairs as an (m, 2) array, from which the
graph's ``edges`` frozenset is built only when something reads it.

Contacts never feed back into motion, so ``tests/contact_oracle.py``
rebuilds the whole history without events, from each device's own commute
and per-street geometry; the tests require the engine's history to be the
oracle's (i, j) multiset with endpoints within 1e-9 s, and the same
connection graph.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .mobility import Device, RuntimeInvariantError, advance_to
from .streets import Street, StreetGraph, StreetPosition, component_labels

__all__ = [
    "EventKind",
    "Event",
    "ConnectionGraph",
    "ContactHistory",
    "SimulationState",
    "compute_contact_interval",
    "merge_reversal_interval",
    "initialize",
    "run",
    "derived_connection_graph",
]


class EventKind(IntEnum):
    """Event kinds, as written to trace files.  Movement events at one
    instant fire in this order; the close-out's two records (FINISH, then
    GLOBAL_UPDATE) come after every event at T."""

    REACH_CROSSING = 3
    REACH_DESTINATION = 4
    GLOBAL_UPDATE = 5
    FINISH = 6


# plain ints for the heap tuples and the dispatch in run
_CROSSING = int(EventKind.REACH_CROSSING)
_DESTINATION = int(EventKind.REACH_DESTINATION)
_KINDS = {_CROSSING: EventKind.REACH_CROSSING, _DESTINATION: EventKind.REACH_DESTINATION}


class Event(NamedTuple):
    time: float
    kind: EventKind
    device: int | None = None


class ConnectionGraph:
    """Devices as vertices, established connections as undirected edges.

    The edges are kept in either of two forms and the other is made on its
    first read: ``edges``, a frozenset of ``(i, j)`` tuples, and ``pairs``,
    an (m, 2) integer array with one row per edge (in no particular order).
    ``labels``, the connected component of each vertex, is also made on its
    first read, so the statistics of one graph share one labelling.
    """

    __slots__ = ("vertices", "_edges", "_pairs", "_labels")

    def __init__(self, vertices: tuple[int, ...], edges: frozenset | None = None, *,
                 pairs: np.ndarray | None = None):
        if (edges is None) == (pairs is None):
            raise ValueError("give the edges either as a frozenset or as pairs")
        self.vertices = vertices
        self._edges = edges
        self._pairs = pairs
        self._labels = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset(map(tuple, self._pairs.tolist()))
        return self._edges

    @property
    def pairs(self) -> np.ndarray:
        if self._pairs is None:
            self._pairs = np.array(list(self._edges), dtype=np.intp).reshape(-1, 2)
        return self._pairs

    @property
    def labels(self) -> np.ndarray:
        """Connected-component label of each vertex, in ``vertices`` order."""
        if self._labels is None:
            ids = np.asarray(self.vertices, dtype=np.intp)
            ij = self.pairs
            # a sweep's vertices are already the row numbers 0..n-1
            if not np.array_equal(ids, np.arange(len(ids))):
                order = np.argsort(ids)
                ij = order[np.searchsorted(ids, ij, sorter=order)]
            self._labels = component_labels(len(ids), ij[:, 0], ij[:, 1])
        return self._labels

    @property
    def n(self) -> int:
        return len(self.vertices)


class ContactHistory:
    """Logged contact intervals (i, j, u, w), i < j, as typed columns.

    ``data`` is one flat ``array('d')`` holding four doubles per interval;
    the engine appends an interval with one ``extend((i, j, u, w))``.
    ``len`` counts intervals, and iteration yields ``(int, int, float,
    float)`` tuples in logging order, so ``sorted``, ``in`` and ``list``
    work as on a list of tuples.
    """

    __slots__ = ("data", "extend")

    def __init__(self, rows=()):
        self.data = array("d")
        self.extend = self.data.extend
        for row in rows:
            self.extend(row)

    def __len__(self) -> int:
        return len(self.data) // 4

    def __iter__(self):
        values = iter(self.data)
        return ((int(i), int(j), u, w) for i, j, u, w in zip(values, values, values, values))

    def columns(self) -> np.ndarray:
        """The intervals as an (n, 4) float view of ``data``, without a copy.

        The array cannot grow while a view of it is alive, so callers keep
        it only for the duration of a call.
        """
        return np.frombuffer(self.data, dtype=float).reshape(-1, 4)


# -- contact interval algebra -------------------------------------------------


def _relative_line(d_i: Device, d_j: Device, street: Street, t_now: float) -> tuple[float, float]:
    """Gap and relative speed: x_i(t) - x_j(t) = A + B*(t - t_now).

    Each device moves along the street as x(t) = x0 + m*(t - t_ref), with x0
    its distance from the endpoint u at its stored time t_ref and m its
    signed speed (0 when stationary).
    """
    length = street.length
    u = street.u
    pos = d_i.pos
    if pos.v1 == u:
        xi = pos.p * length
        mi = d_i.velocity if d_i.moving else 0.0
    else:
        xi = (1.0 - pos.p) * length
        mi = -d_i.velocity if d_i.moving else 0.0
    pos = d_j.pos
    if pos.v1 == u:
        xj = pos.p * length
        mj = d_j.velocity if d_j.moving else 0.0
    else:
        xj = (1.0 - pos.p) * length
        mj = -d_j.velocity if d_j.moving else 0.0
    a = (xi + mi * (t_now - d_i.time_of_pos)) - (xj + mj * (t_now - d_j.time_of_pos))
    return a, mi - mj


def _solve_window(a: float, b: float, r: float) -> tuple[float, float] | None:
    """Solution of |A + B*tau| <= r as a tau interval, unclamped.

    Returns (tau_lo, tau_hi) relative to the reference time, possibly
    (-inf, inf) for parallel motion in contact, or None when the devices
    never come within r.
    """
    if b == 0.0:
        return (-math.inf, math.inf) if abs(a) <= r else None
    t1 = (-r - a) / b
    t2 = (r - a) / b
    return (t1, t2) if t1 <= t2 else (t2, t1)


def compute_contact_interval(
    d_i: Device,
    d_j: Device,
    street: Street,
    t_now: float,
    r: float,
) -> tuple[float, float] | None:
    """Future contact interval [c_min, c_max] of two devices on one street.

    Positions are linear in time, so |x_i(t) - x_j(t)| <= r solves in closed
    form.  The interval ignores upcoming crossing/destination events (those
    recompute it).  Parallel motion in contact yields [t_now, inf]; an empty
    solution yields None.
    """
    if d_i.pos.street != street.id or d_j.pos.street != street.id:
        raise RuntimeInvariantError(
            f"devices {d_i.id}, {d_j.id} are not both on street {street.id}"
        )
    a, b = _relative_line(d_i, d_j, street, t_now)
    win = _solve_window(a, b, r)
    if win is None:
        return None
    lo, hi = win
    if hi < 0.0:
        return None
    return (t_now + max(lo, 0.0), t_now + hi)


def merge_reversal_interval(
    old: tuple[float, float],
    new: tuple[float, float] | None,
    t: float,
) -> tuple[float, float] | None:
    """Contact interval after one device reverses direction at time t.

    If the new motion keeps the pair in contact at t (the freshly solved
    interval straddles t), the contact has been ongoing since the old start,
    so the old left endpoint is kept.  Otherwise the old interval is over
    and the new future interval (clamped to [t, inf)) replaces it.
    """
    if new is not None and new[0] < t < new[1]:
        return (old[0], new[1])
    if new is None or new[1] < t:
        return None
    return (max(new[0], t), new[1])


# -- simulation state ----------------------------------------------------------


@dataclass
class SimulationState:
    graph: StreetGraph
    devices: dict[int, Device]
    r: float
    rho: float
    T: float
    time: float = 0.0
    heap: list[tuple[float, int, int]] = field(default_factory=list)
    # street id -> ids of the devices on it, one set per street of the graph
    occupancy: dict[int, set[int]] = field(default_factory=dict)
    # running contacts: pair -> (c_min, c_max), c_max possibly +inf; empty after run
    active: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    # the single record of contacts; connections are read from it
    history: ContactHistory = field(default_factory=ContactHistory)
    trace: object = None  # callable(Event, SimulationState) or None
    # each interval's pair number and the distinct pairs, built on first use
    _history_pairs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def established(self) -> frozenset[tuple[int, int]]:
        """The pairs connected so far, read from the history.

        Every logged interval ends at or before the current time and T, so
        this is the derived graph at (T, rho).  ``perfbench/spans.py``
        counts connections with it; nothing in the package reads it.
        """
        return derived_connection_graph(self, self.T, self.rho).edges


def _settle(state: SimulationState, pair, interval: tuple[float, float], t: float) -> None:
    """Log a contact that stops at t up to t, unless it never opened."""
    c_min, c_max = interval
    w = min(c_max, t)
    if w > c_min:
        state.history.extend((pair[0], pair[1], c_min, w))


# -- initialization -------------------------------------------------------------


def _schedule(heap: list, d: Device, t: float) -> None:
    """Push the single pending event of a moving device from its current position."""
    length = d.street_length
    path = d.path
    if d.leg == len(path.streets) - 1:
        dt = (path.end.p - d.pos.p) * length / d.velocity
        heappush(heap, (t + dt, _DESTINATION, d.id))
    else:
        dt = (1.0 - d.pos.p) * length / d.velocity
        heappush(heap, (t + dt, _CROSSING, d.id))


def initialize(
    graph: StreetGraph,
    devices: list[Device],
    r: float,
    rho: float,
    T: float,
) -> SimulationState:
    """Set up run state: street occupancy, initial contacts and the queue,
    which holds one movement event per moving device.

    Occupancy is built from the devices' positions and lives in the state;
    the graph is only read, so runs can share it as long as each run gets
    its own device clones.
    """
    if not 0 < T < math.inf:
        raise ValueError("time horizon must be positive")
    if not math.isfinite(r):
        raise ValueError("contact range must be finite")
    if not 0 <= rho < math.inf:
        raise ValueError("connection time must be finite and non-negative")
    dev_map: dict[int, Device] = {}
    occupancy: dict[int, set[int]] = {eid: set() for eid in graph.edges}
    for d in devices:
        if d.id in dev_map:
            raise ValueError(f"duplicate device id {d.id}")
        eid = d.pos.street
        d.street_length = graph.edges[eid].length
        occupancy[eid].add(d.id)
        dev_map[d.id] = d
    state = SimulationState(graph=graph, devices=dev_map, r=r, rho=rho, T=T,
                            occupancy=occupancy)
    for eid in sorted(graph.edges):
        street = graph.edges[eid]
        ids = sorted(occupancy[eid])
        for i, di_id in enumerate(ids):
            for dj_id in ids[i + 1:]:
                interval = compute_contact_interval(dev_map[di_id], dev_map[dj_id], street, 0.0, r)
                if interval is not None:
                    state.active[(di_id, dj_id)] = interval
    for did in sorted(dev_map):
        d = dev_map[did]
        if d.moving:
            _schedule(state.heap, d, 0.0)
    return state


# -- handlers --------------------------------------------------------------------
#
# The two movement handlers run once per event and carry the hot path: the
# contact bookkeeping of entering a street, advancing residents and solving
# contact windows, is written out in them rather than called.  A contact
# that stops is settled by _settle, as at the close-out.
# Occupancy sets are walked unsorted; nothing the walk produces depends on
# its order (history is sorted on write, graphs are frozensets).


def _reach_crossing(state: SimulationState, d: Device, t: float) -> None:
    """The device leaves its street, enters the next one and reschedules."""
    path = d.path
    streets = path.streets
    leg = d.leg
    last = len(streets) - 1
    if leg >= last:
        raise RuntimeInvariantError(
            f"device {d.id} has no next street; destination event was missed"
        )
    occupancy = state.occupancy
    active = state.active
    did = d.id

    # leave: settle contacts with everyone left behind
    members = occupancy[streets[leg]]
    members.discard(did)
    for oid in members:
        pair = (did, oid) if did < oid else (oid, did)
        interval = active.pop(pair, None)
        if interval is not None:
            _settle(state, pair, interval, t)

    # enter at p = 0, moving from the crossing towards the street's other end
    crossing = path.crossings[leg]
    leg += 1
    d.leg = leg
    eid = streets[leg]
    street = state.graph.edges[eid]
    length = street.length
    u = street.u
    d.pos = StreetPosition(eid, crossing, street.v if crossing == u else u, 0.0)
    d.time_of_pos = t
    d.street_length = length
    v = d.velocity
    members = occupancy[eid]
    if members:
        # bring each resident to t and solve the contact window in closed
        # form, as advance_to and compute_contact_interval do; both lines are
        # referenced to t, where _relative_line's m*(t - t) terms add 0.0
        devices = state.devices
        r = state.r
        x_d, m_d = (0.0, v) if crossing == u else (length, -v)
        for oid in members:
            o = devices[oid]
            sid, v1, v2, p = o.pos
            t0 = o.time_of_pos
            if t < t0 - 1e-9:
                raise ValueError(f"cannot evaluate device {oid} before its stored time")
            if o.moving:
                p_t = p + (t - t0) * o.velocity / o.street_length
                if p_t > 1.0 + 1e-9:
                    raise RuntimeInvariantError(
                        f"device {oid} overshot its street (p={p_t}); missed crossing event"
                    )
                if p_t > 1.0:
                    p_t = 1.0
                if p_t != p:
                    p = p_t
                    o.pos = StreetPosition(sid, v1, v2, p)
                m_o = o.velocity if v1 == u else -o.velocity
            else:
                m_o = 0.0
            o.time_of_pos = t
            if sid != eid:
                raise RuntimeInvariantError(
                    f"devices {did}, {oid} are not both on street {eid}"
                )
            a = x_d - (p * length if v1 == u else (1.0 - p) * length)
            b = m_d - m_o
            pair = (did, oid) if did < oid else (oid, did)
            if b != 0.0:
                lo = (-r - a) / b
                hi = (r - a) / b
                if not lo <= hi:
                    lo, hi = hi, lo
                if not hi < 0.0:
                    active[pair] = (t + max(lo, 0.0), t + hi)
            elif abs(a) <= r:  # parallel and in contact: [t, inf)
                active[pair] = (t, math.inf)
    members.add(did)
    # _schedule's times for p = 0, where (x - 0.0) and (1.0 - 0.0) * x are x
    if leg == last:
        heappush(state.heap, (t + path.end.p * length / v, _DESTINATION, did))
    else:
        heappush(state.heap, (t + length / v, _CROSSING, did))


def _reach_destination(state: SimulationState, d: Device, t: float) -> None:
    """Reverse the traveled path and update contacts for the changed motion."""
    eid = d.path.streets[d.leg]
    street = state.graph.edges[eid]
    d.leg = 0
    d.pos = d.turn_around().start
    d.time_of_pos = t
    did = d.id
    devices = state.devices
    active = state.active
    r = state.r
    for oid in state.occupancy[eid]:
        if oid == did:
            continue
        win = _solve_window(*_relative_line(d, devices[oid], street, t), r)
        new_abs = None if win is None else (t + win[0], t + win[1])
        pair = (did, oid) if did < oid else (oid, did)
        interval = active.get(pair)
        if interval is not None:
            merged = merge_reversal_interval(interval, new_abs, t)
            # a contact that goes on (same start) is settled when it stops
            if merged is None or merged[0] != interval[0]:
                _settle(state, pair, interval, t)
            if merged is None:
                del active[pair]
            else:
                active[pair] = merged
        elif new_abs is not None and new_abs[1] >= t:
            active[pair] = (max(new_abs[0], t), new_abs[1])
    if d.moving:
        _schedule(state.heap, d, t)


def run(state: SimulationState) -> ConnectionGraph:
    """Handle every event up to the horizon T, close out at T and return
    the connection graph at (T, rho), read from the history.

    The close-out brings every device to T, logs every contact still
    running up to T and empties ``state.active``.  Identical inputs (same
    sampled geometry, devices and parameters) produce a bitwise-identical
    result.
    """
    heap = state.heap
    devices = state.devices
    trace = state.trace
    T = state.T
    now = state.time
    while heap and heap[0][0] <= T:
        t, kind, dev = heappop(heap)
        if t < now - 1e-9:
            raise RuntimeInvariantError(f"event time regression: {t} after {now}")
        state.time = now = t
        if trace is not None:
            trace(Event(t, _KINDS[kind], dev), state)
        if kind == _CROSSING:
            _reach_crossing(state, devices[dev], t)
        else:
            _reach_destination(state, devices[dev], t)
    state.time = T
    if trace is not None:
        trace(Event(T, EventKind.FINISH), state)
        trace(Event(T, EventKind.GLOBAL_UPDATE), state)
    heap.clear()
    for did in sorted(devices):
        advance_to(devices[did], T)
    active = state.active
    for pair in sorted(active):
        _settle(state, pair, active[pair], T)
    active.clear()
    return derived_connection_graph(state, T, state.rho)


# -- contact history -------------------------------------------------------------


def _history_pairs(state: SimulationState) -> tuple[np.ndarray, np.ndarray]:
    """Each interval's row in the distinct pairs, and the (m, 2) distinct pairs.

    The pairs are numbered in ascending (i, j) order, as ``np.unique`` of
    the keys i * base + j would number them.  The keys are made in place
    from the history's view and sorted once, so no step copies the id
    columns.  History only grows, so the cached index stands while the
    history it came from has the same length.  It lives as long as the state.
    """
    history = state.history
    n = len(history)
    cached = state._history_pairs
    if cached is None or cached[0] is not history or cached[1] != n:
        cols = history.columns()
        # device ids are non-negative ints, so the int64 key i * base + j is
        # exact for ids below 2**31; each temporary is freed once read, so at
        # most the keys, their order and the run starts are alive at once
        base = int(cols[:, 1].max()) + 1
        keys = np.empty(n, dtype=np.int64)
        np.multiply(cols[:, 0], base, out=keys, dtype=np.int64, casting="unsafe")
        np.add(keys, cols[:, 1], out=keys, dtype=np.int64, casting="unsafe")
        order = np.argsort(keys)
        keys.sort()
        first = np.empty(n, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        distinct = keys[first]
        del keys
        number = np.cumsum(first, dtype=np.int32)
        del first
        number -= 1
        pair_of = np.empty(n, dtype=np.int32)
        pair_of[order] = number
        del order, number
        pairs = np.empty((len(distinct), 2), dtype=np.int64)
        np.divmod(distinct, base, out=(pairs[:, 0], pairs[:, 1]))
        cached = (history, n, pair_of, pairs)
        state._history_pairs = cached
    return cached[2:]


def derived_connection_graph(
    state: SimulationState,
    T2: float,
    rho2: float,
) -> ConnectionGraph:
    """Connection graph for rescaled (T', rho') from the history.

    A pair is connected iff some logged maximal contact interval [u, w]
    satisfies min(w, T') - u > rho' (strict).  Requires T' <= the simulated
    horizon.  The graph carries its edges as pairs.
    """
    if T2 > state.T + 1e-9:
        raise ValueError(f"derived horizon {T2} exceeds simulated horizon {state.T}")
    vertices = tuple(sorted(state.devices))
    if not state.history:
        return ConnectionGraph(vertices, frozenset())
    pair_of, pairs = _history_pairs(state)
    cols = state.history.columns()
    held = np.minimum(cols[:, 3], T2)
    np.subtract(held, cols[:, 2], out=held)
    kept = np.greater(held, rho2)
    del held
    connected = np.zeros(len(pairs), dtype=bool)
    connected[pair_of[kept]] = True
    return ConnectionGraph(vertices, pairs=pairs[connected])
