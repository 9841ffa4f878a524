"""Continuous-time event engine.

Instead of stepping the whole system in fixed time slices, every device
carries exactly one pending movement event (reaching a crossing or its
destination) in a priority queue, and only the device that caused an event
is updated when it fires.  Per pair of devices sharing a street the engine
keeps the analytically solved contact interval; a connection is established
once a contact has lasted longer than the connection time rho.

The queue holds one more event, FINISH at the horizon T.  It discards every
pending movement and leaves a single GLOBAL_UPDATE at T, which brings all
positions to T and evaluates the contacts still running.  Events at the same
instant fire in the numeric order of their kinds, then by device id.
With ``initialize(record_history=True)`` every maximal same-street contact
interval is logged, from which :func:`derived_connection_graph` rebuilds the
connection graph for any (T', rho') with T' <= T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from heapq import heappop, heappush

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
    "handle_reach_crossing",
    "handle_reach_destination",
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


@dataclass(frozen=True, slots=True)
class Event:
    time: float
    kind: EventKind
    device: int | None = None


class EventQueue:
    """Events ordered by (time, kind, device id)."""

    __slots__ = ("_heap",)

    def __init__(self):
        self._heap: list[tuple[float, int, int]] = []

    def __len__(self):
        return len(self._heap)

    def push(self, ev: Event) -> None:
        dev = ev.device if ev.device is not None else -1
        heappush(self._heap, (ev.time, int(ev.kind), dev))

    def pop(self) -> Event:
        t, kind, dev = heappop(self._heap)
        return Event(t, EventKind(kind), dev if dev >= 0 else None)

    def clear(self) -> None:
        self._heap.clear()

    def snapshot(self) -> list[Event]:
        return [Event(t, EventKind(kind), dev if dev >= 0 else None)
                for t, kind, dev in sorted(self._heap)]


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


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


# -- contact interval algebra -------------------------------------------------


def _motion(d: Device, street: Street) -> tuple[float, float, float]:
    """(position from street endpoint u in meters at t_ref, slope m/s, t_ref)."""
    length = street.length
    if d.pos.v1 == street.u:
        x0 = d.pos.p * length
        m = d.velocity if d.moving else 0.0
    else:
        x0 = (1.0 - d.pos.p) * length
        m = -d.velocity if d.moving else 0.0
    return x0, m, d.time_of_pos


def _relative_line(d_i: Device, d_j: Device, street: Street, t_now: float) -> tuple[float, float]:
    """Gap and relative speed: x_i(t) - x_j(t) = A + B*(t - t_now)."""
    xi, mi, ti = _motion(d_i, street)
    xj, mj, tj = _motion(d_j, street)
    a = (xi + mi * (t_now - ti)) - (xj + mj * (t_now - tj))
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
    if not state.track_gaps:
        return
    a, b = _relative_line(state.devices[pair[0]], state.devices[pair[1]], street, t)
    state.gap_segments[pair] = _GapSegment(t, a, b)


def _gap_close(state: SimulationState, pair, t: float) -> None:
    if not state.track_gaps:
        return
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


def _next_movement_event(d: Device, t: float) -> Event | None:
    """The single pending event of a moving device from its current position."""
    if not d.moving:
        return None
    length = d.street_length
    if d.leg == d.path.n_legs - 1:
        dt = (d.path.end.p - d.pos.p) * length / d.velocity
        return Event(t + dt, EventKind.REACH_DESTINATION, d.id)
    dt = (1.0 - d.pos.p) * length / d.velocity
    return Event(t + dt, EventKind.REACH_CROSSING, d.id)


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
                _gap_open(state, pair, street, 0.0)
    init_queue(state)
    return state


def init_queue(state: SimulationState) -> None:
    """One movement event per moving device plus the Finish event at T."""
    for did in sorted(state.devices):
        ev = _next_movement_event(state.devices[did], 0.0)
        if ev is not None:
            state.queue.push(ev)
    state.queue.push(Event(state.T, EventKind.FINISH))


# -- handlers --------------------------------------------------------------------


def _depart_street(state: SimulationState, d: Device, street: Street, t: float) -> None:
    """Resolve contacts with everyone left behind and leave the street."""
    for other_id in sorted(street.devices):
        if other_id == d.id:
            continue
        pair = _pair(d.id, other_id)
        edge = state.active.pop(pair, None)
        if edge is not None:
            _evaluate(state, pair, edge, t)
            _log_history(state, pair, edge, t)
        _gap_close(state, pair, t)
    street.devices.discard(d.id)


def _enter_street(state: SimulationState, d: Device, street: Street, t: float) -> None:
    """Update residents to time t and solve fresh contact intervals."""
    for other_id in sorted(street.devices):
        if other_id == d.id:
            continue
        other = state.devices[other_id]
        advance_to(other, t)
        pair = _pair(d.id, other_id)
        interval = compute_contact_interval(d, other, street, t, state.r)
        if interval is not None:
            edge = ContactEdge(pair[0], pair[1], interval[0], interval[1],
                               connection=pair in state.established)
            state.active[pair] = edge
        _gap_open(state, pair, street, t)
    street.devices.add(d.id)


def handle_reach_crossing(ev: Event, state: SimulationState) -> None:
    """The device leaves its street, enters the next one and reschedules."""
    d = state.devices[ev.device]
    t = ev.time
    if d.leg >= d.path.n_legs - 1:
        raise RuntimeInvariantError(
            f"device {d.id} has no next street; destination event was missed"
        )
    old_street = state.graph.edges[d.path.streets[d.leg]]
    _depart_street(state, d, old_street, t)

    crossing = d.path.crossings[d.leg]
    d.leg += 1
    new_eid = d.path.streets[d.leg]
    new_street = state.graph.edges[new_eid]
    other = new_street.v if crossing == new_street.u else new_street.u
    d.pos = StreetPosition(new_eid, crossing, other, 0.0)
    d.time_of_pos = t
    d.street_length = new_street.length
    _enter_street(state, d, new_street, t)

    nxt = _next_movement_event(d, t)
    if nxt is not None:
        state.queue.push(nxt)


def handle_reach_destination(ev: Event, state: SimulationState) -> None:
    """Reverse the traveled path and update contacts for the changed motion."""
    d = state.devices[ev.device]
    t = ev.time
    street = state.graph.edges[d.path.streets[d.leg]]
    d.path = d.path.reverse()
    d.leg = 0
    d.pos = d.path.start
    d.time_of_pos = t

    for other_id in sorted(street.devices):
        if other_id == d.id:
            continue
        other = state.devices[other_id]
        pair = _pair(d.id, other_id)
        edge = state.active.get(pair)
        if edge is not None:
            _evaluate(state, pair, edge, t)
        a, b = _relative_line(d, other, street, t)
        win = _solve_window(a, b, state.r)
        new_abs = None if win is None else (t + win[0], t + win[1])
        if edge is not None:
            merged = merge_reversal_interval((edge.c_min, edge.c_max), new_abs, t)
            if merged is None:
                _log_history(state, pair, edge, t)
                del state.active[pair]
            elif merged[0] == edge.c_min:
                edge.c_max = merged[1]
            else:
                _log_history(state, pair, edge, t)
                edge.c_min, edge.c_max = merged
        else:
            if new_abs is not None and new_abs[1] >= t:
                lo = max(new_abs[0], t)
                state.active[pair] = ContactEdge(pair[0], pair[1], lo, new_abs[1],
                                                 connection=pair in state.established)
        _gap_close(state, pair, t)
        _gap_open(state, pair, street, t)

    nxt = _next_movement_event(d, t)
    if nxt is not None:
        state.queue.push(nxt)


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


_DISPATCH = {
    EventKind.REACH_CROSSING: handle_reach_crossing,
    EventKind.REACH_DESTINATION: handle_reach_destination,
    EventKind.GLOBAL_UPDATE: handle_global_update,
    EventKind.FINISH: handle_finish,
}


def run(state: SimulationState) -> ConnectionGraph:
    """Drain the event queue and return the connection graph.

    Identical inputs (same sampled geometry, devices and parameters) produce
    a bitwise-identical result.
    """
    while len(state.queue):
        ev = state.queue.pop()
        if ev.time < state.time - 1e-9:
            raise RuntimeInvariantError(
                f"event time regression: {ev.time} after {state.time}"
            )
        state.time = ev.time
        if state.trace is not None:
            state.trace(ev, state)
        _DISPATCH[ev.kind](ev, state)
    # close out contacts still running at the horizon
    for pair in sorted(state.active):
        edge = state.active[pair]
        _log_history(state, pair, edge, state.time)
        _gap_close(state, pair, state.time)
    return state.connection_graph()


# -- contact history -------------------------------------------------------------


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
    arr = np.asarray(state.history, dtype=float)
    u = arr[:, 2]
    w = arr[:, 3]
    mask = np.minimum(w, T2) - u > rho2
    pairs = arr[mask, :2].astype(np.int64)
    edges = frozenset((int(i), int(j)) for i, j in pairs)
    return ConnectionGraph(tuple(sorted(state.devices)), edges)
