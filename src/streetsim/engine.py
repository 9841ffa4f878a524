"""Continuous-time event engine.

Instead of stepping the whole system in fixed time slices, every device
carries exactly one pending movement event (reaching a crossing or its
destination) in a priority queue, and only the device that caused an event
is updated when it fires.  Per pair of devices sharing a street the engine
keeps the analytically solved contact interval; a connection is established
once a contact has lasted longer than the connection time rho.

The queue is a binary heap of raw ``(time, kind, device)`` tuples, with
device ``-1`` for the events that belong to no device.  It holds one more
event, FINISH at the horizon T.  FINISH discards every pending movement and
leaves a single GLOBAL_UPDATE at T, which brings all positions to T and
evaluates the contacts still running.  Events at the same instant fire in
the numeric order of their kinds, then by device id.

:class:`Event` objects exist only at the edges: the trace hook receives
one, the once-per-run GLOBAL_UPDATE and FINISH handlers take one,
:meth:`EventQueue.push` takes one and :meth:`EventQueue.pop` and
:meth:`EventQueue.snapshot` return them.  Crossing and destination events,
nearly all of a run, never become objects.  When ``state.trace`` is set,
:func:`run` calls ``state.trace(ev, state)`` once per event, after the clock
has moved to ``ev.time`` and before the event is handled; ``ev.kind`` is an
:class:`EventKind` (an int, usable as an index) and ``ev.device`` is
``None`` for kinds 5 and 6.  The hook is read once, when ``run`` starts.

With ``initialize(record_history=True)`` every maximal same-street contact
interval is logged, from which :func:`derived_connection_graph` rebuilds the
connection graph for any (T', rho') with T' <= T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .mobility import Device, RuntimeInvariantError, advance_to
from .streets import Street, StreetGraph, StreetPosition

__all__ = [
    "EventKind",
    "Event",
    "EventQueue",
    "ContactEdge",
    "ConnectionGraph",
    "SimulationState",
    "compute_contact_interval",
    "try_establish",
    "merge_reversal_interval",
    "initialize",
    "init_queue",
    "handle_global_update",
    "handle_finish",
    "run",
    "derived_connection_graph",
]


class EventKind(IntEnum):
    """Event kinds; the values are written to trace files and also set the
    same-instant order: street/destination transitions first, then the
    global evaluation, and Finish last."""

    REACH_CROSSING = 3
    REACH_DESTINATION = 4
    GLOBAL_UPDATE = 5
    FINISH = 6


# plain ints for the heap tuples and the dispatch in run
_CROSSING = int(EventKind.REACH_CROSSING)
_DESTINATION = int(EventKind.REACH_DESTINATION)
_GLOBAL_UPDATE = int(EventKind.GLOBAL_UPDATE)
_KINDS = {int(k): k for k in EventKind}


class Event(NamedTuple):
    time: float
    kind: EventKind
    device: int | None = None


class EventQueue:
    """Events ordered by (time, kind, device id).

    ``heap`` is a binary heap of raw ``(time, kind, device)`` tuples with
    device -1 for events of no device; :func:`run` works on it directly.
    """

    __slots__ = ("heap",)

    def __init__(self):
        self.heap: list[tuple[float, int, int]] = []

    def __len__(self):
        return len(self.heap)

    def push(self, ev: Event) -> None:
        dev = ev.device if ev.device is not None else -1
        heappush(self.heap, (ev.time, int(ev.kind), dev))

    def pop(self) -> Event:
        return _event(*heappop(self.heap))

    def clear(self) -> None:
        self.heap.clear()

    def snapshot(self) -> list[Event]:
        return [_event(*item) for item in sorted(self.heap)]


def _event(t: float, kind: int, dev: int) -> Event:
    return Event(t, _KINDS[kind], dev if dev >= 0 else None)


@dataclass(slots=True)
class ContactEdge:
    """Contact bookkeeping for one device pair currently sharing a street."""

    a: int
    b: int
    c_min: float
    c_max: float  # may be +inf
    connection: bool = False


@dataclass(frozen=True)
class ConnectionGraph:
    """Devices as vertices, established connections as undirected edges."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.vertices)


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


def try_establish(edge: ContactEdge, t: float, rho: float) -> bool:
    """Mark the connection established if the contact has outlasted rho.

    Applies min(c_max, t) - c_min > rho (strict); once established the flag
    never reverts.
    """
    if not edge.connection and min(edge.c_max, t) - edge.c_min > rho:
        edge.connection = True
    return edge.connection


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


@dataclass(slots=True)
class _GapSegment:
    t0: float
    a: float
    b: float


@dataclass
class SimulationState:
    graph: StreetGraph
    devices: dict[int, Device]
    r: float
    rho: float
    T: float
    time: float = 0.0
    queue: EventQueue = field(default_factory=EventQueue)
    active: dict[tuple[int, int], ContactEdge] = field(default_factory=dict)
    established: set[tuple[int, int]] = field(default_factory=set)
    record_history: bool = False
    history: list[tuple[int, int, float, float]] = field(default_factory=list)
    track_gaps: bool = False
    gap_segments: dict[tuple[int, int], _GapSegment] = field(default_factory=dict)
    min_gaps: dict[tuple[int, int], float] = field(default_factory=dict)
    trace: object = None  # callable(Event, SimulationState) or None
    # ``history`` as columns for derived graphs, built on first use
    _history_columns: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def connection_graph(self) -> ConnectionGraph:
        return ConnectionGraph(
            vertices=tuple(sorted(self.devices)),
            edges=frozenset(self.established),
        )


def _log_history(state: SimulationState, pair, edge: ContactEdge, until: float) -> None:
    if not state.record_history:
        return
    w = min(edge.c_max, until)
    if w > edge.c_min:
        state.history.append((pair[0], pair[1], edge.c_min, w))


def _evaluate(state: SimulationState, pair, edge: ContactEdge, t: float) -> None:
    if pair in state.established:
        edge.connection = True
        return
    if try_establish(edge, t, state.rho):
        state.established.add(pair)


def _gap_open(state: SimulationState, pair, street, t: float) -> None:
    a, b = _relative_line(state.devices[pair[0]], state.devices[pair[1]], street, t)
    state.gap_segments[pair] = _GapSegment(t, a, b)


def _gap_close(state: SimulationState, pair, t: float) -> None:
    seg = state.gap_segments.pop(pair, None)
    if seg is None:
        return
    dt = t - seg.t0
    g0 = abs(seg.a)
    g1 = abs(seg.a + seg.b * dt)
    gmin = 0.0 if (seg.a <= 0.0 <= seg.a + seg.b * dt or seg.a >= 0.0 >= seg.a + seg.b * dt) else min(g0, g1)
    prev = state.min_gaps.get(pair)
    if prev is None or gmin < prev:
        state.min_gaps[pair] = gmin


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
    record_history: bool = False,
    track_gaps: bool = False,
) -> SimulationState:
    """Set up run state: street occupancy, initial contacts and the queue.

    Street device sets are reset from the devices' positions, so a graph can
    be reused across runs as long as each run gets its own device clones.
    """
    if T <= 0:
        raise ValueError("time horizon must be positive")
    graph.clear_devices()
    dev_map: dict[int, Device] = {}
    for d in devices:
        if d.id in dev_map:
            raise ValueError(f"duplicate device id {d.id}")
        street = graph.edges[d.pos.street]
        street.devices.add(d.id)
        d.street_length = street.length
        dev_map[d.id] = d
    state = SimulationState(
        graph=graph, devices=dev_map, r=r, rho=rho, T=T,
        record_history=record_history, track_gaps=track_gaps,
    )
    for eid in sorted(graph.edges):
        street = graph.edges[eid]
        ids = sorted(street.devices)
        for i, di_id in enumerate(ids):
            for dj_id in ids[i + 1:]:
                pair = (di_id, dj_id)
                d_i, d_j = dev_map[di_id], dev_map[dj_id]
                interval = compute_contact_interval(d_i, d_j, street, 0.0, r)
                if interval is not None:
                    state.active[pair] = ContactEdge(di_id, dj_id, interval[0], interval[1])
                if track_gaps:
                    _gap_open(state, pair, street, 0.0)
    init_queue(state)
    return state


def init_queue(state: SimulationState) -> None:
    """One movement event per moving device plus the Finish event at T."""
    heap = state.queue.heap
    for did in sorted(state.devices):
        d = state.devices[did]
        if d.moving:
            _schedule(heap, d, 0.0)
    heappush(heap, (state.T, int(EventKind.FINISH), -1))


# -- handlers --------------------------------------------------------------------
#
# The two movement handlers run once per event and carry the hot path: the
# contact bookkeeping of leaving and entering a street, advancing residents
# and solving contact windows, is written out in them rather than called.
# Street device sets are walked unsorted; nothing the walk produces depends
# on its order (history is sorted on write, graphs are frozensets).


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
    edges = state.graph.edges
    active = state.active
    established = state.established
    track_gaps = state.track_gaps
    did = d.id

    # leave: resolve contacts with everyone left behind
    members = edges[streets[leg]].devices
    members.discard(did)
    if members:
        rho = state.rho
        history = state.history if state.record_history else None
        for oid in members:
            pair = (did, oid) if did < oid else (oid, did)
            edge = active.pop(pair, None)
            if edge is not None:
                # the edge is dropped, so only ``established`` keeps the
                # outcome of the connection rule (try_establish's test)
                c_min = edge.c_min
                w = min(edge.c_max, t)
                if w - c_min > rho and pair not in established:
                    established.add(pair)
                if history is not None and w > c_min:
                    history.append((pair[0], pair[1], c_min, w))
            if track_gaps:
                _gap_close(state, pair, t)

    # enter at p = 0, moving from the crossing towards the street's other end
    crossing = path.crossings[leg]
    leg += 1
    d.leg = leg
    eid = streets[leg]
    street = edges[eid]
    length = street.length
    u = street.u
    d.pos = StreetPosition(eid, crossing, street.v if crossing == u else u, 0.0)
    d.time_of_pos = t
    d.street_length = length
    v = d.velocity
    members = street.devices
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
                    active[pair] = ContactEdge(pair[0], pair[1], t + max(lo, 0.0), t + hi,
                                               pair in established)
            elif abs(a) <= r:  # parallel and in contact: [t, inf)
                active[pair] = ContactEdge(pair[0], pair[1], t, math.inf, pair in established)
            if track_gaps:
                _gap_open(state, pair, street, t)
    members.add(did)
    # _schedule's times for p = 0, where (x - 0.0) and (1.0 - 0.0) * x are x
    if leg == last:
        heappush(state.queue.heap, (t + path.end.p * length / v, _DESTINATION, did))
    else:
        heappush(state.queue.heap, (t + length / v, _CROSSING, did))


def _reach_destination(state: SimulationState, d: Device, t: float) -> None:
    """Reverse the traveled path and update contacts for the changed motion."""
    street = state.graph.edges[d.path.streets[d.leg]]
    d.leg = 0
    d.pos = d.turn_around().start
    d.time_of_pos = t
    did = d.id
    devices = state.devices
    active = state.active
    r = state.r
    for oid in street.devices:
        if oid == did:
            continue
        win = _solve_window(*_relative_line(d, devices[oid], street, t), r)
        new_abs = None if win is None else (t + win[0], t + win[1])
        pair = (did, oid) if did < oid else (oid, did)
        edge = active.get(pair)
        if edge is not None:
            _evaluate(state, pair, edge, t)
            merged = merge_reversal_interval((edge.c_min, edge.c_max), new_abs, t)
            if merged is None:
                _log_history(state, pair, edge, t)
                del active[pair]
            elif merged[0] == edge.c_min:
                edge.c_max = merged[1]
            else:
                _log_history(state, pair, edge, t)
                edge.c_min, edge.c_max = merged
        elif new_abs is not None and new_abs[1] >= t:
            active[pair] = ContactEdge(pair[0], pair[1], max(new_abs[0], t), new_abs[1],
                                       pair in state.established)
        if state.track_gaps:
            _gap_close(state, pair, t)
            _gap_open(state, pair, street, t)
    if d.moving:
        _schedule(state.queue.heap, d, t)


def handle_global_update(ev: Event, state: SimulationState) -> None:
    """Materialize all positions at the event time and re-evaluate contacts."""
    t = ev.time
    for did in sorted(state.devices):
        advance_to(state.devices[did], t)
    for pair in sorted(state.active):
        _evaluate(state, pair, state.active[pair], t)


def handle_finish(ev: Event, state: SimulationState) -> None:
    """Replace the whole queue with one final global update at T."""
    state.queue.clear()
    state.queue.push(Event(ev.time, EventKind.GLOBAL_UPDATE))


def run(state: SimulationState) -> ConnectionGraph:
    """Drain the event queue and return the connection graph.

    Identical inputs (same sampled geometry, devices and parameters) produce
    a bitwise-identical result.
    """
    heap = state.queue.heap
    devices = state.devices
    trace = state.trace
    now = state.time
    while heap:
        t, kind, dev = heappop(heap)
        if t < now - 1e-9:
            raise RuntimeInvariantError(f"event time regression: {t} after {now}")
        state.time = now = t
        if trace is not None:
            trace(_event(t, kind, dev), state)
        if kind == _CROSSING:
            _reach_crossing(state, devices[dev], t)
        elif kind == _DESTINATION:
            _reach_destination(state, devices[dev], t)
        elif kind == _GLOBAL_UPDATE:
            handle_global_update(_event(t, kind, dev), state)
        else:
            handle_finish(_event(t, kind, dev), state)
    # close out contacts still running at the horizon
    for pair in sorted(state.active):
        edge = state.active[pair]
        _log_history(state, pair, edge, state.time)
        if state.track_gaps:
            _gap_close(state, pair, state.time)
    return state.connection_graph()


# -- contact history -------------------------------------------------------------


def _history_columns(state: SimulationState) -> tuple[np.ndarray, ...]:
    """(i, j, u, w) columns of the recorded history, converted once.

    History only grows, so the cached columns stand while the list they came
    from has the same length.  They live as long as the state.
    """
    history = state.history
    n = len(history)
    cached = state._history_columns
    if cached is None or cached[0] is not history or cached[1] != n:
        i, j, u, w = (np.fromiter(map(itemgetter(k), history), dtype, count=n)
                      for k, dtype in enumerate((np.int64, np.int64, float, float)))
        cached = (history, n, i, j, u, w)
        state._history_columns = cached
    return cached[2:]


def derived_connection_graph(
    state: SimulationState,
    T2: float,
    rho2: float,
) -> ConnectionGraph:
    """Connection graph for rescaled (T', rho') from the recorded history.

    A pair is connected iff some logged maximal contact interval [u, w]
    satisfies min(w, T') - u > rho'.  Requires history recording and
    T' <= the simulated horizon.
    """
    if not state.record_history:
        raise ValueError("contact history recording was not enabled")
    if T2 > state.T + 1e-9:
        raise ValueError(f"derived horizon {T2} exceeds simulated horizon {state.T}")
    if not state.history:
        return ConnectionGraph(tuple(sorted(state.devices)), frozenset())
    i, j, u, w = _history_columns(state)
    mask = np.minimum(w, T2) - u > rho2
    edges = frozenset(zip(i[mask].tolist(), j[mask].tolist()))
    return ConnectionGraph(tuple(sorted(state.devices)), edges)
