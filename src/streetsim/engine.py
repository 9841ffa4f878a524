"""Continuous-time event engine.

Instead of stepping the whole system in fixed time slices, the engine fires
movement events (a device reaching a crossing or its destination) at their
exact times, and only the device that caused an event is updated when it
fires.  Which devices share a street is ``state.occupancy``, one set of
device ids per street id, built by :func:`initialize` from the devices'
positions and kept by the handlers; the street graph itself is never
written.  Per pair of devices sharing a street the engine keeps the
analytically solved contact interval; a connection is established once a
contact has lasted longer than the connection time rho.

Contacts never feed back into motion, so each device's event times follow
from its own commute alone, and :func:`initialize` computes them all up to
T: the current route, then the reversed route and its reversal, alternately,
as ``Device.turn_around`` would make them current.  Each time is the
previous one plus the leg's ``dt`` (metres over velocity), added in order
from 0.0, as a queue that rescheduled each device when it fired added them.
Those three routes a device are ``state.routes``, a :class:`RouteTable` with
one row per leg: its device, its street, and where it ends (the crossing
and the street entered there, or the destination and the position the
device turns to).  The schedule is two arrays in firing order,
``state.event_times`` (float64) and ``state.event_legs`` (int32, the row of
the leg the event ends): 12 bytes an event and no Python object per event.
They live in anonymous memory maps of their own; :func:`run` takes them out
of the state, walks them in chunks and hands each walked chunk's pages
back, so the schedule's memory shrinks as the contact history grows.  The
loop reads each event's device, streets, crossing and new position from
the route table, so it never reads or updates a device's ``path`` or
``leg``: after a run they still hold the commute as it was at
:func:`initialize`.

Contacts are only ever between devices on one street, so the events that
touch one set of streets fire apart from the rest.  :func:`run` cuts the
streets into two strips of about equal work: ordered by the x of their
midpoints from the torus seam, cut where the events that leave, enter or
turn on them reach half of all such events; the seam is the other cut.  A
forked process fires the events that touch the second strip while this one
fires those of the first, each in firing order, so every street sees the
same events in the same order as one loop would show it and the results are
bitwise those of one loop.  A crossing from one strip to the other is a
leave (settle the contacts left behind) in one part and an enter (solve the
contacts ahead) in the other.  Each part keeps only the initial contacts on
its own streets and closes out only its own devices and pairs; the second
part then sends its history rows and its devices' final states through a
pipe, and this process appends the rows and rebuilds the occupancy of the
second strip's streets from those states.  A run fires in one part, in
process, when a ``state.trace`` hook is set, when the schedule holds fewer
than :data:`SPLIT_MIN_EVENTS` events, when fewer than two CPUs are usable,
when the strips cannot both get events, or when ``os.fork`` fails.  Either
way the same loop body (:func:`_fire`) fires the events.

Events at one instant fire crossings before destinations, then by device
id, except that an event a device reaches at the instant of its own
previous event (a zero-duration chain, such as reaching a destination at
p = 0 and leaving again from p = 1) keeps the largest kind of that chain so
far.  That is the order in which a heap of one pending ``(time, kind,
device)`` per device, rescheduled as each event fired, pops them: a stable
sort of every event by (time, kind', device), kind' the running maximum of
kind within one device's run of equal times.  After the schedule the
close-out at T (one in each part, see above) brings all positions to T and
logs the contacts still running up to T.

A run's cost is its event count, which :func:`initialize` knows before it
allocates the schedule: per device the current route's legs plus
((T - that route's time) / round-trip time + 1) round trips of legs, an
overcount by about one round trip.  Above :data:`MAX_EVENTS`
in all it raises :class:`RuntimeInvariantError` naming the device with the
most events, its count and its commute length (a commute a few ulps long
would fire events without end).

When ``state.trace`` is set, :func:`run` calls ``state.trace(ev, state)``
with an :class:`Event` once per event, after the clock has moved to
``ev.time`` and before the event is handled; ``ev.kind`` is an
:class:`EventKind` (an int, usable as an index).  The close-out passes two
more records at T, FINISH and then GLOBAL_UPDATE, whose ``ev.device`` is
``None``.  The hook is read once, when ``run`` starts; without one no
:class:`Event` is built.  The hook is for callers that watch the state as
events fire (tests, the benchmark's event counter).  A trace of the events
needs no hook: the schedule and the route table already hold every event's
time, kind, device and street, so ``streetsim run`` writes its trace files
from those, in a process of its own, while the loop runs.

Every maximal same-street contact interval is logged to ``state.history``,
the single record of contacts: a :class:`ContactHistory`, one flat
``array('d')`` with the four doubles (i, j, u, w) of each interval, 32
bytes an interval (device ids are exact as doubles below 2**53).  The
connection rule is applied to it alone: :func:`derived_connection_graph`
builds the graph for any (T', rho') with T' <= T, and :func:`run` returns
it at (T, rho), in numpy over a view of the array: it masks the
intervals and keeps the distinct pairs as an (m, 2) array, from which the
graph's ``edges`` frozenset is built only when something reads it.

``tests/contact_oracle.py`` rebuilds the whole history without events,
from each device's own commute and per-street geometry; the tests require
the engine's history to be the oracle's (i, j) multiset with endpoints
within 1e-9 s, and the same connection graph.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
from array import array
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .forking import forked
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
    "MAX_EVENTS",
    "SPLIT_MIN_EVENTS",
    "initialize",
    "RouteTable",
    "run",
    "derived_connection_graph",
]


class EventKind(IntEnum):
    """Event kinds, as written to trace files.  Movement events at one
    instant fire in this order, but for a device's zero-duration chain (see
    the module docstring); the close-out's two records (FINISH, then
    GLOBAL_UPDATE) come after every event at T."""

    REACH_CROSSING = 3
    REACH_DESTINATION = 4
    GLOBAL_UPDATE = 5
    FINISH = 6


# an event's kind, by whether its leg ends at the destination
_KINDS = (EventKind.REACH_CROSSING, EventKind.REACH_DESTINATION)

# the most events initialize schedules for one run: 26 times the largest
# count seen on the benchmark's configs (378,228, accept1 program seed 2)
MAX_EVENTS = 10_000_000

# events _fire converts to Python objects, and then releases, at a time
_CHUNK = 4096

# cells (events) of the blocks in which _schedule adds up event times; a
# block's temporaries take about 50 bytes a cell
_BLOCK_CELLS = 1 << 15


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


class RouteTable(NamedTuple):
    """The legs the moving devices of a run travel: three routes a device
    (see :func:`_route_table`), route after route, one row per leg.

    A scheduled event is the end of one leg, and the schedule names it by
    its row.  ``street`` is the street the leg runs on, where the event
    fires.  A leg ends at ``crossing``, where the device enters
    ``next_street``, or at the destination (``crossing`` is -1 and
    ``next_street`` the leg's own street).  Route k's destination leg is row
    ``last[k]``, where the device turns on the same street to the fraction
    ``turn_p[k]`` between the crossings ``turn_v1[k]`` and ``turn_v2[k]``:
    the start of the route it travels next.
    """

    device: np.ndarray  # int32
    street: np.ndarray  # int32
    next_street: np.ndarray  # int32
    crossing: np.ndarray  # int32
    destination: np.ndarray  # bool
    last: np.ndarray  # per route
    turn_v1: np.ndarray  # per route
    turn_v2: np.ndarray  # per route
    turn_p: np.ndarray  # per route

    @classmethod
    def empty(cls) -> "RouteTable":
        none = np.empty(0, dtype=np.intc)
        return cls(none, none, none, none, np.empty(0, dtype=bool), none, none, none,
                   np.empty(0))


@dataclass
class SimulationState:
    graph: StreetGraph
    devices: dict[int, Device]
    r: float
    rho: float
    T: float
    time: float = 0.0
    # the schedule, in firing order: each event's time, and the row of
    # ``routes`` whose leg it ends; emptied by run, with the routes
    event_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    event_legs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intc))
    routes: RouteTable = field(default_factory=RouteTable.empty)
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


def _schedule(devices: list[Device], graph: StreetGraph,
              T: float) -> tuple[np.ndarray, np.ndarray, RouteTable]:
    """Times and legs of every event of the moving ``devices`` up to T, in
    firing order, and the route table the legs are rows of.

    Each device travels the routes of :func:`_route_table`: its current
    route, then the two routes ``Device.routes_ahead`` names, alternately,
    leg by leg as :func:`_nth_leg` counts them.  A leg's time step is its
    metres over the velocity: (1 - p) * length to leave a route's first
    street, each interior street's length, end_p * length into its last
    street, or (end_p - p) * length on a one-street route.  A device's
    times add the steps in order from 0.0, so each is the previous time
    plus one step, as a rescheduling heap computed it.  Raises before
    anything event-sized is allocated when the events would be more than
    :data:`MAX_EVENTS`.
    """
    if not devices:
        return np.empty(0), np.empty(0, dtype=np.intc), RouteTable.empty()
    routes, n_legs, first, p, end_p = _route_table(devices)
    arr = graph.street_arrays()
    metres = arr.length[np.searchsorted(arr.ids, routes.street)]
    last = first + (n_legs - 1)
    first_length, last_length = metres[first], metres[last]
    metres[first] = (1.0 - p) * first_length
    metres[last] = end_p * last_length
    one = n_legs == 1
    metres[first[one]] = (end_p[one] - p[one]) * first_length[one]
    ids = np.array([d.id for d in devices], dtype=np.intc)
    velocity = np.array([d.velocity for d in devices], dtype=float)
    steps = metres / np.repeat(np.repeat(velocity, 3), n_legs)

    # the budget: the current route's legs, then at most one round trip's
    # legs more than fit between the end of that route and T
    route_s = np.add.reduceat(steps, first)
    period = route_s[1::3] + route_s[2::3]
    n_first, n_cycle = n_legs[0::3], n_legs[1::3] + n_legs[2::3]
    with np.errstate(divide="ignore", invalid="ignore"):
        counts = np.where(period > 0.0, n_first + n_cycle
                          * (np.maximum(T - route_s[0::3], 0.0) / period + 1.0), np.inf)
    if counts.sum() > MAX_EVENTS:
        k = int(counts.argmax())
        commute = float(np.add.reduceat(metres, first)[3 * k + 1])
        raise RuntimeInvariantError(
            f"device {ids[k]} would fire {counts[k]:.4g} events by T = {T!r} s on a "
            f"commute of {commute!r} m; the run's {counts.sum():.4g} events exceed "
            f"MAX_EVENTS = {MAX_EVENTS:,}"
        )

    # Each device's times are one row of a block, added along the row;
    # devices of similar widths share a block.  A row is one round trip
    # longer than the budget's count: rounding moves a time by far less
    # than a round trip below MAX_EVENTS events.
    width = (np.ceil(counts) + n_cycle).astype(np.intp)
    times = _mapped(int(width.sum()), np.float64)
    fired_legs = _mapped(len(times), np.intc)
    n = 0
    by_width = np.argsort(width, kind="stable")
    sorted_width = width[by_width].tolist()
    first_leg, cycle_leg = first[0::3], first[1::3]
    start = 0
    while start < len(by_width):
        stop = start + 1
        while stop < len(by_width) and (stop + 1 - start) * sorted_width[stop] <= _BLOCK_CELLS:
            stop += 1
        rows = by_width[start:stop, None]
        row_width = sorted_width[stop - 1]
        # a row wider than a block is added in segments, carrying its time
        carry = np.zeros((len(rows), 1))
        segment = max(_BLOCK_CELLS // len(rows), 1)
        for j0 in range(0, row_width, segment):
            j = np.arange(j0, min(j0 + segment, row_width))
            legs = _nth_leg(j, n_first[rows], first_leg[rows], cycle_leg[rows], n_cycle[rows])
            t = steps[legs]
            t[:, :1] += carry
            np.add.accumulate(t, axis=1, out=t)
            fired = t <= T
            k = int(np.count_nonzero(fired))
            times[n:n + k] = t[fired]
            fired_legs[n:n + k] = legs[fired]
            n += k
            if not fired[:, -1].any():
                break
            if j[-1] == row_width - 1:
                raise RuntimeInvariantError("a device fires more events than its row holds")
            carry = t[:, -1:]
        start = stop

    times = np.ndarray(n, np.float64, buffer=times.base)
    return times, _firing_order(times, fired_legs[:n], routes.device, routes.destination), routes


def _route_table(devices: list[Device]) -> tuple:
    """The legs of the routes the moving ``devices`` travel, three routes a
    device: its current route from its current leg, then the two routes
    ``Device.routes_ahead`` names, which it travels alternately from then on.

    Returns the :class:`RouteTable`, and per route its number of legs, the
    index of its first leg, its start p and its end p.  The position a
    destination leg turns to is the start of the route that follows: the
    second after the first, the third after the second, the second again
    after the third.  Nothing per leg is a Python object.
    """
    routes = []  # three per device: (streets, crossings, start, end_p)
    for d in devices:
        path = d.path
        routes.append((path.streets[d.leg:], path.crossings[d.leg:], d.pos, path.end.p))
        routes.extend(d.routes_ahead())
    streets, crossings, starts, end_p = zip(*routes)
    n_legs = np.fromiter(map(len, streets), dtype=np.intp, count=len(routes))
    n = int(n_legs.sum())
    if n >= 2**31:
        raise RuntimeInvariantError(f"the routes have {n} legs, more than an int32 numbers")
    street = np.fromiter(chain.from_iterable(streets), dtype=np.intc, count=n)
    first = np.cumsum(n_legs) - n_legs
    last = first + (n_legs - 1)
    destination = np.zeros(n, dtype=bool)
    destination[last] = True
    crossing = np.full(n, -1, dtype=np.intc)
    crossing[~destination] = np.fromiter(chain.from_iterable(crossings), dtype=np.intc,
                                         count=n - len(routes))
    next_street = street.copy()
    onward = np.flatnonzero(~destination)
    next_street[onward] = street[onward + 1]
    ids = np.array([d.id for d in devices], dtype=np.intc)
    start_v1, start_v2 = np.array([(s.v1, s.v2) for s in starts], dtype=np.intc).T
    start_p = np.array([s.p for s in starts], dtype=float)
    following = np.arange(1, len(routes) + 1)
    following[2::3] -= 2
    table = RouteTable(np.repeat(np.repeat(ids, 3), n_legs), street, next_street, crossing,
                       destination, last, start_v1[following], start_v2[following],
                       start_p[following])
    return table, n_legs, first, start_p, np.array(end_p, dtype=float)


def _nth_leg(j: np.ndarray, n_first, first_leg, cycle_leg, n_cycle) -> np.ndarray:
    """The route-table index of a device's leg number j (from 0): the first
    route's ``n_first`` legs from ``first_leg``, then the ``n_cycle`` legs of
    the two alternating routes from ``cycle_leg``, round and round."""
    return np.where(j < n_first, first_leg + j, cycle_leg + (j - n_first) % n_cycle)


def _firing_order(times: np.ndarray, legs: np.ndarray, device: np.ndarray,
                  destination: np.ndarray) -> np.ndarray:
    """Sort the times of events given device by device in place, and return
    their legs in firing order.

    Each device's events are contiguous and in order; ``device`` and
    ``destination`` give each leg's device and kind.  Events fire by (time,
    kind', device), and a device's in order, kind' being the running maximum
    of kind over the device's run of events at one time: the order in which
    a heap holding each device's next event, pushed when its previous one
    fires, pops (time, kind, device).  One unstable sort puts the times in
    order; the events that share a time are then put in order by the rest
    of the key.
    """
    order = np.argsort(times)
    fired = _mapped(len(times), np.intc)
    np.take(legs, order, out=fired)
    times.sort()
    same = np.flatnonzero(times[1:] == times[:-1])
    if len(same):
        tied = np.union1d(same, same + 1)
        group = np.maximum.accumulate(np.where(np.isin(tied - 1, same), 0, tied))
        leg = legs[order[tied]]
        _place_ties(fired, group, leg, device[leg], destination[leg].astype(np.int8), order[tied])
    return fired


def _mapped(n: int, dtype) -> np.ndarray:
    """An array of n items in an anonymous memory map of its own.

    Its pages take memory once written and go back to the system when the
    array is dropped or :func:`_release` hands them back, so the schedule
    never leaves holes in the heap that later allocations cannot use.
    """
    dtype = np.dtype(dtype)
    pages = mmap.mmap(-1, max(n, 1) * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    return np.ndarray(n, dtype, buffer=pages)


def _release(a: np.ndarray, start: int, stop: int) -> None:
    """Hand the whole pages among items [start, stop) of a mapped array back
    to the system, once every item before ``stop`` has been read."""
    if isinstance(a.base, mmap.mmap):
        lo, hi = (k * a.itemsize // mmap.PAGESIZE * mmap.PAGESIZE for k in (start, stop))
        if hi > lo:
            a.base.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _place_ties(fired: np.ndarray, first: np.ndarray, leg: np.ndarray, device: np.ndarray,
                kind: np.ndarray, seen: np.ndarray) -> None:
    """Write the legs of events that share a time into ``fired`` in
    :func:`_firing_order`'s order.

    ``first`` is the first place of each event's time in ``fired``, ``kind``
    1 for a destination and 0 for a crossing, and ``seen`` the event's place
    in the device-by-device order.
    """
    by_seen = np.lexsort((seen, first))
    first, leg, device, kind, seen = (a[by_seen] for a in (first, leg, device, kind, seen))
    # the previous event of the same device, at the same time
    chained = np.flatnonzero((seen[1:] == seen[:-1] + 1) & (device[1:] == device[:-1])
                             & (first[1:] == first[:-1])) + 1
    while True:  # a destination's kind moves one step along each chain a pass
        up = chained[kind[chained - 1] > kind[chained]]
        if not len(up):
            break
        kind[up] = 1
    fire = np.lexsort((seen, device, kind, first))
    first = first[fire]
    fired[first + np.arange(len(first)) - np.searchsorted(first, first)] = leg[fire]


def initialize(
    graph: StreetGraph,
    devices: list[Device],
    r: float,
    rho: float,
    T: float,
) -> SimulationState:
    """Set up run state: street occupancy, initial contacts and the
    schedule of every movement event up to T.

    Occupancy is built from the devices' positions and lives in the state;
    the graph is only read, so runs can share it as long as each run gets
    its own device clones.  Raises :class:`RuntimeInvariantError` before
    the schedule is allocated when it would hold more than
    :data:`MAX_EVENTS` events.
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
        if not 0 <= d.id < 2**30:
            raise ValueError(f"device id {d.id} outside [0, 2**30)")
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

    state.event_times, state.event_legs, state.routes = _schedule(
        [d for d in dev_map.values() if d.moving], graph, T)
    return state


# -- handlers --------------------------------------------------------------------
#
# A crossing, the most frequent event, is handled inside _fire's loop; a
# destination by _reach_destination.  The contact bookkeeping of entering a
# street, advancing residents and solving contact windows, is written out
# rather than called.  A contact that stops is settled as _settle does.
# Occupancy sets are walked unsorted; nothing the walk produces depends on
# its order (history is sorted on write, graphs are frozensets).


def _reach_destination(state: SimulationState, d: Device, t: float, pos: StreetPosition) -> None:
    """Turn the device to ``pos``, the start of its reversed route on the
    same street, and update contacts for the changed motion.

    Per co-resident this is ``_solve_window`` on ``_relative_line`` and
    ``merge_reversal_interval``, written out with the same float operations;
    the turning device's line is referenced to t, where its m*(t - t) term
    adds 0.0.
    """
    eid = pos.street
    street = state.graph.edges[eid]
    length = street.length
    u = street.u
    d.pos = pos
    d.time_of_pos = t
    did = d.id
    v = d.velocity
    x_d, m_d = (pos.p * length, v) if pos.v1 == u else ((1.0 - pos.p) * length, -v)
    devices = state.devices
    active = state.active
    r = state.r
    for oid in state.occupancy[eid]:
        if oid == did:
            continue
        o = devices[oid]
        _, v1, _, p = o.pos
        x_o = p * length if v1 == u else (1.0 - p) * length
        m_o = (o.velocity if v1 == u else -o.velocity) if o.moving else 0.0
        a = x_d - (x_o + m_o * (t - o.time_of_pos))
        b = m_d - m_o
        # the new motion's contact window [lo, hi], if any
        if b != 0.0:
            lo = (-r - a) / b
            hi = (r - a) / b
            if not lo <= hi:
                lo, hi = hi, lo
            lo, hi, solved = t + lo, t + hi, True
        else:
            lo, hi, solved = -math.inf, math.inf, abs(a) <= r
        pair = (did, oid) if did < oid else (oid, did)
        interval = active.get(pair)
        if interval is not None:
            if solved and lo < t < hi:
                merged = (interval[0], hi)
            elif not solved or hi < t:
                merged = None
            else:
                merged = (max(lo, t), hi)
            # a contact that goes on (same start) is settled when it stops
            if merged is None or merged[0] != interval[0]:
                _settle(state, pair, interval, t)
            if merged is None:
                del active[pair]
            else:
                active[pair] = merged
        elif solved and hi >= t:
            active[pair] = (max(lo, t), hi)


# What a part does with an event, by the leg the event ends: settle the
# contacts on the street the device leaves, solve them on the street it
# enters, both, or turn it at its destination; 0 is another part's event.
_LEAVE, _ENTER, _CROSS, _TURN = 1, 2, 3, 4

# the fewest scheduled events for which run splits the loop in two parts
SPLIT_MIN_EVENTS = 1 << 14

# bytes of history rows read from the second part's pipe at a time
_PIPE_CHUNK = 1 << 18


def _fire(state: SimulationState, times: np.ndarray, legs: np.ndarray, routes: RouteTable,
          action: np.ndarray) -> None:
    """Fire, in order, the scheduled events ``action`` gives this part.

    ``action`` holds, per leg of ``routes``, what this part does with the
    event that ends the leg (``_LEAVE`` and so on).  Each event's device,
    streets and crossing come from the route table.  The schedule is walked
    in chunks, and each chunk's pages are handed back once it has fired.
    """
    devices = state.devices
    occupancy = state.occupancy
    active = state.active
    edges = state.graph.edges
    r = state.r
    log = state.history.extend
    trace = state.trace
    # builds a StreetPosition from a tuple of its fields without the call
    # through the named tuple's own __new__
    position = tuple.__new__
    for start in range(0, len(times), _CHUNK):
        stop = start + _CHUNK
        legs_here = legs[start:stop]
        acts = action[legs_here]
        mine = np.flatnonzero(acts)
        legs_here, acts = legs_here[mine], acts[mine]
        # the positions the chunk's destinations turn to, in firing order
        turning = legs_here[acts == _TURN]
        route = np.searchsorted(routes.last, turning)
        turns = map(position, repeat(StreetPosition), zip(
            routes.street[turning].tolist(), routes.turn_v1[route].tolist(),
            routes.turn_v2[route].tolist(), routes.turn_p[route].tolist()))
        for t, act, did, left, eid, crossing in zip(
                times[start:stop][mine].tolist(), acts.tolist(), routes.device[legs_here].tolist(),
                routes.street[legs_here].tolist(), routes.next_street[legs_here].tolist(),
                routes.crossing[legs_here].tolist()):
            state.time = t
            if trace is not None:
                trace(Event(t, _KINDS[act == _TURN], did), state)
            d = devices[did]
            if act == _TURN:
                _reach_destination(state, d, t, next(turns))
                continue

            if act & _LEAVE:
                # settle the contacts with everyone left behind
                members = occupancy[left]
                members.discard(did)
                for oid in members:
                    pair = (did, oid) if did < oid else (oid, did)
                    interval = active.pop(pair, None)
                    if interval is not None:
                        c_min, c_max = interval
                        w = t if t < c_max else c_max  # min(c_max, t)
                        if w > c_min:
                            log((pair[0], pair[1], c_min, w))
            if not act & _ENTER:
                continue

            # enter the next street at p = 0, moving from the crossing
            # towards the street's other end
            street = edges[eid]
            length = street.length
            u = street.u
            d.pos = position(StreetPosition, (eid, crossing, street.v if crossing == u else u, 0.0))
            d.time_of_pos = t
            d.street_length = length
            members = occupancy[eid]
            if members:
                # bring each resident to t and solve the contact window in
                # closed form, as advance_to and compute_contact_interval do;
                # both lines are referenced to t, where _relative_line's
                # m*(t - t) terms add 0.0
                v = d.velocity
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
                            o.pos = position(StreetPosition, (sid, v1, v2, p))
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
        _release(times, start, stop)
        _release(legs, start, stop)


def _run_part(state: SimulationState, times: np.ndarray, legs: np.ndarray, routes: RouteTable,
              streets, action: np.ndarray) -> list[int]:
    """Run the part of the loop that owns ``streets`` and close it out at T.

    The part keeps only the initial contacts on its own streets, fires its
    events, brings the devices on its streets to T and settles its running
    contacts up to T.  Returns the ids of those devices, in order.
    """
    own = set(streets)
    devices = state.devices
    state.active = {pair: interval for pair, interval in state.active.items()
                    if devices[pair[0]].pos.street in own}
    _fire(state, times, legs, routes, action)
    state.time = T = state.T
    if state.trace is not None:
        state.trace(Event(T, EventKind.FINISH), state)
        state.trace(Event(T, EventKind.GLOBAL_UPDATE), state)
    ids = sorted(chain.from_iterable(state.occupancy[eid] for eid in own))
    for did in ids:
        advance_to(devices[did], T)
    active = state.active
    for pair in sorted(active):
        _settle(state, pair, active[pair], T)
    active.clear()
    return ids


def _strips(graph: StreetGraph, legs: np.ndarray,
            routes: RouteTable) -> list[tuple[list[int], np.ndarray]] | None:
    """Two parts of the loop, each the streets of one strip of the torus and
    its action per leg (see ``_LEAVE``), or None when one part would fire no
    event.

    The streets are ordered by the x of their midpoints from the torus seam,
    and cut where the events that leave, enter or turn on them reach half
    of all such events (at the nearer of the two streets around the half):
    the seam and that cut bound the strips.  A crossing between the strips
    is a leave in one part and an enter in the other.
    """
    arr = graph.street_arrays()
    row = np.searchsorted(arr.ids, routes.street)
    next_row = np.searchsorted(arr.ids, routes.next_street)
    fired = np.bincount(legs, minlength=len(row))
    onward = ~routes.destination
    work = (np.bincount(row, fired, minlength=len(arr.ids))
            + np.bincount(next_row[onward], fired[onward], minlength=len(arr.ids)))
    by_x = np.argsort(np.mod(arr.ux + 0.5 * arr.dx + graph.L, 2.0 * graph.L), kind="stable")
    total = np.cumsum(work[by_x])
    half = 0.5 * total[-1]
    cut = int(np.searchsorted(total, half))
    if cut > 0 and half - total[cut - 1] < total[cut] - half:
        cut -= 1
    if not 0.0 < total[cut] < total[-1]:
        return None
    west = np.zeros(len(arr.ids), dtype=bool)
    west[by_x[:cut + 1]] = True
    parts = []
    for side in (west, ~west):
        leave, enter = side[row], side[next_row]
        action = np.where(routes.destination, _TURN * leave, _LEAVE * leave + _ENTER * enter)
        parts.append((arr.ids[side].tolist(), action.astype(np.int8)))
    return parts


def _split(state: SimulationState, times: np.ndarray, legs: np.ndarray, routes: RouteTable,
           parts) -> bool:
    """Run the two ``parts`` of the loop, the second in a forked process,
    and return True; where no process can be forked, run nothing and
    return False.

    The second part sends through a pipe what it made: any exception it
    raised, or else its devices' states at T and its history rows, which
    this process appends chunk by chunk before it rebuilds the occupancy of
    that part's streets from those states.
    """
    (west, west_action), (east, east_action) = parts
    history = state.history
    logged = len(history.data)
    read_end, write_end = os.pipe()

    def second_part():
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            try:
                devices = state.devices
                ids = _run_part(state, times, legs, routes, east, east_action)
                sent = (None, [(did, devices[did].pos, devices[did].time_of_pos,
                                devices[did].street_length) for did in ids],
                        len(history.data) - logged)
            except Exception as exc:
                sent = (exc, [], 0)
            header = pickle.dumps(sent)
            pipe.write(len(header).to_bytes(8, "little"))
            pipe.write(header)
            pipe.write(memoryview(history.data)[logged:])

    def close_pipe():
        os.close(read_end)
        os.close(write_end)

    with forked(second_part, close_pipe) as child:
        if child is None:
            return False
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            _run_part(state, times, legs, routes, west, west_action)
            received = _receive(state, pipe, east)
    if not received:
        raise RuntimeInvariantError(
            f"the event loop's second part exited with status {child.status} before it sent "
            f"its result")
    return True


def _receive(state: SimulationState, pipe, streets: list[int]) -> bool:
    """Take in what the second part sent through ``pipe``: raise its
    exception, or set its devices' states, rebuild its streets' occupancy
    and append its history rows.  False when the pipe ends early."""
    size = int.from_bytes(pipe.read(8), "little")
    header = pipe.read(size)
    if not size or len(header) != size:
        return False
    exc, finals, n_values = pickle.loads(header)
    if exc is not None:
        raise exc
    devices, occupancy = state.devices, state.occupancy
    for eid in streets:
        occupancy[eid].clear()
    for did, pos, time_of_pos, street_length in finals:
        d = devices[did]
        d.pos, d.time_of_pos, d.street_length = pos, time_of_pos, street_length
        occupancy[pos.street].add(did)
    data = state.history.data
    left = n_values * data.itemsize
    while left:
        n = min(left, _PIPE_CHUNK)
        chunk = pipe.read(n)
        if len(chunk) != n:
            return False
        data.frombytes(chunk)
        left -= n
    return True


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(state: SimulationState) -> ConnectionGraph:
    """Fire every scheduled event, close out at T and return the
    connection graph at (T, rho), read from the history.

    The run takes the schedule and the route table out of the state, which
    holds empty ones from then on.  The close-out brings every device to T,
    logs every contact still running up to T and empties ``state.active``.
    Identical inputs (same sampled geometry, devices and parameters)
    produce a bitwise-identical result, in one part or in two.
    """
    times, legs, routes = state.event_times, state.event_legs, state.routes
    state.event_times, state.event_legs = np.empty(0), np.empty(0, dtype=np.intc)
    state.routes = RouteTable.empty()
    parts = None
    if state.trace is None and len(legs) >= SPLIT_MIN_EVENTS and _usable_cpus() >= 2:
        parts = _strips(state.graph, legs, routes)
    if parts is None or not _split(state, times, legs, routes, parts):
        whole = np.where(routes.destination, _TURN, _CROSS).astype(np.int8)
        _run_part(state, times, legs, routes, state.occupancy, whole)
    del times, legs, routes, parts
    return derived_connection_graph(state, state.T, state.rho)


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
