"""Event-free oracle for the engine's whole contact history.

Contacts never change how a device moves, so each device's street visits
follow from its own commute alone, and the contact history follows from the
visits plus per-street geometry.  This module rebuilds the history without
the engine's queue, events or handlers:

1. Each device's commute is replayed into street visits
   ``(street, t_in, t_out, x_in, m)``: on ``[t_in, t_out]`` the device sits
   at ``x_in + m*(t - t_in)`` metres from the street's endpoint ``u``.  Event
   times add the engine's ``dt`` expressions (metres over velocity) in the
   same order, from 0.0, so they are the engine's bit for bit; events with
   ``t <= T`` fire.  A visit is split at every destination reversal, and a
   stationary device has one visit over ``[0, T]``.
2. Per street, a sort-and-sweep finds the overlapping visits of distinct
   devices.  Each overlap solves ``|dx| <= r`` in closed form, from the
   overlap's start, as the engine does when a device enters a street or
   turns around.
3. Windows of one pair on one street merge across a reversal when the new
   motion keeps the pair strictly inside r at the reversal, as
   ``merge_reversal_interval`` does; every other window is settled at the
   overlap's end, as ``_settle`` does.

Events at one instant are ordered by (kind, device), as in the engine's
schedule, except that an event a device reaches at the instant it is already
at (a zero-duration chain: reach a destination at p = 0, turn, leave) sorts
after every event reached earlier at that instant.  The engine orders such a
chain by the running maximum of its kinds instead (``engine._firing_order``),
as a rescheduling heap would; that moves only zero-length co-residences,
which log nothing and establish nothing.  ``heap_reference.py`` merges this
replay's per-device events in the engine's order.

Everything after the per-device replay is numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streetsim.engine import derived_connection_graph

_INIT = -1  # rank of the state at t = 0, before every event
_CLOSE = np.iinfo(np.int64).max  # rank of the close-out at T, after every event
_RANK_BASE = 1 << 20  # > any device id: ranks sort by (wave, kind, device)
_CROSSING, _DESTINATION = 3, 4


@dataclass(frozen=True)
class OracleResult:
    history: list[tuple[int, int, float, float]]  # (i, j, u, w), i < j, w > u
    established: set[tuple[int, int]]
    closest_gap: dict[tuple[int, int], float]  # least |dx| of every pair that shared a street


def device_visits(d, graph, T: float) -> list[tuple]:
    """Street visits of one device over [0, T].

    Rows are ``(street, t_in, rank_in, t_out, rank_out, x_in, m, turned)``:
    the ranks order events at one instant, and ``turned`` marks a visit
    that starts with a reversal on the same street.
    """
    edges = graph.edges
    if d.time_of_pos != 0.0:
        raise ValueError(f"device {d.id} is not at its initial state")
    pos = d.pos
    eid, v1, p = pos.street, pos.v1, pos.p
    street = edges[eid]
    if not d.moving:
        x = p * street.length if v1 == street.u else (1.0 - p) * street.length
        return [(eid, 0.0, _INIT, T, _CLOSE, x, 0.0, False)]
    n = _RANK_BASE
    path, leg, v = d.path, 0, d.velocity
    t, rank, turned, wave = 0.0, _INIT, False, 0
    visits = []
    while True:
        street = edges[eid]
        length = street.length
        forward = v1 == street.u
        x = p * length if forward else (1.0 - p) * length
        m = v if forward else -v
        if leg == len(path.streets) - 1:
            kind = _DESTINATION
            dt = (path.end.p - p) * length / v
        else:
            kind = _CROSSING
            dt = (1.0 - p) * length / v
        t_next = t + dt
        if t_next > T:
            visits.append((eid, t, rank, T, _CLOSE, x, m, turned))
            return visits
        wave = wave + 1 if t_next == t else 0
        if wave > 2 * len(path.streets) + 2:
            raise ValueError(f"device {d.id} has a moving commute of length zero")
        rank_next = (wave * 8 + kind) * n + d.id
        visits.append((eid, t, rank, t_next, rank_next, x, m, turned))
        if kind == _DESTINATION:
            path = path.reverse()
            leg = 0
            eid, v1, _, p = path.start
            turned = True
        else:
            v1 = path.crossings[leg]
            leg += 1
            eid = path.streets[leg]
            p = 0.0
            turned = False
        t, rank = t_next, rank_next


def contact_oracle(graph, devices, r: float, rho: float, T: float) -> OracleResult:
    """History, established set and minimum gaps of an engine run of
    ``devices`` (in their initial state) on ``graph`` out to ``T``."""
    rows = []
    owner = []
    for d in devices:
        vis = device_visits(d, graph, T)
        rows.extend(vis)
        owner.extend([d.id] * len(vis))
    if not rows:
        return OracleResult([], set(), {})
    dtypes = (np.int64, float, np.int64, float, np.int64, float, float, bool)
    street, t_in, rank_in, t_out, rank_out, x_in, m, turned = (
        np.array(col, dtype=dtype) for col, dtype in zip(zip(*rows), dtypes))
    dev = np.array(owner, dtype=np.int64)

    # event keys (time, rank) as ordinals, so "before" is one integer compare
    times = np.concatenate([t_in, t_out])
    ranks = np.concatenate([rank_in, rank_out])
    order = np.lexsort((ranks, times))
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = (np.diff(times[order]) != 0) | (np.diff(ranks[order]) != 0)
    ordinal = np.empty(len(order), dtype=np.int64)
    ordinal[order] = np.cumsum(new_key)
    k_in, k_out = ordinal[:len(t_in)], ordinal[len(t_in):]

    # sort-and-sweep per street: visit a overlaps every later-starting visit
    # b on its street with k_in[b] < k_out[a]
    span = int(ordinal.max()) + 1
    by_start = np.lexsort((k_in, street))
    start_key = street[by_start] * span + k_in[by_start]
    end_key = street[by_start] * span + k_out[by_start]
    stop = np.searchsorted(start_key, end_key, side="left")
    idx = np.arange(len(by_start))
    count = np.maximum(stop - idx - 1, 0)
    first = np.repeat(idx, count)
    offset = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
    # (a device's own visits only touch, at the event between them)
    a_vis, b_vis = by_start[first], by_start[first + 1 + offset]
    swap = dev[a_vis] > dev[b_vis]
    a_vis, b_vis = np.where(swap, b_vis, a_vis), np.where(swap, a_vis, b_vis)
    if not len(a_vis):
        return OracleResult([], set(), {})

    # one segment per overlap, ordered per pair in time
    seg_order = np.lexsort((np.maximum(k_in[a_vis], k_in[b_vis]), dev[b_vis], dev[a_vis]))
    a_vis, b_vis = a_vis[seg_order], b_vis[seg_order]
    i, j = dev[a_vis], dev[b_vis]
    s = np.maximum(t_in[a_vis], t_in[b_vis])
    e = np.minimum(t_out[a_vis], t_out[b_vis])
    later = np.where(k_in[a_vis] > k_in[b_vis], a_vis, b_vis)
    starts_with_turn = turned[later]

    gap0 = (x_in[a_vis] + m[a_vis] * (s - t_in[a_vis])) - (x_in[b_vis] + m[b_vis] * (s - t_in[b_vis]))
    slope = m[a_vis] - m[b_vis]
    gap1 = gap0 + slope * (e - s)

    # the window of the motion from s on, as the engine solves it at s
    relative = slope != 0.0  # else parallel: in contact throughout or never
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-r - gap0) / slope
        t2 = (r - gap0) / slope
    lo = np.where(relative, np.minimum(t1, t2), -np.inf)
    hi = np.where(relative, np.maximum(t1, t2), np.inf)
    exists = np.where(relative, hi >= 0.0, np.abs(gap0) <= r)
    new_lo, new_hi = s + lo, s + hi
    straddles = exists & (new_lo < s) & (s < new_hi)
    win_lo = np.maximum(new_lo, s)

    # a segment that starts with a turn continues the pair's previous window
    same_pair = np.zeros(len(i), dtype=bool)
    same_pair[1:] = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
    continued = np.zeros(len(i), dtype=bool)
    continued[1:] = same_pair[1:] & starts_with_turn[1:] & straddles[1:] & exists[:-1]

    group_first = np.flatnonzero(~continued)
    group_last = np.append(group_first[1:] - 1, len(i) - 1)
    ok = exists[group_first]
    u = win_lo[group_first][ok]
    w = np.minimum(new_hi[group_last], e[group_last])[ok]
    gi, gj = i[group_first][ok], j[group_first][ok]
    logged = w > u
    history = list(zip(gi[logged].tolist(), gj[logged].tolist(),
                       u[logged].tolist(), w[logged].tolist()))
    est = w - u > rho
    established = set(zip(gi[est].tolist(), gj[est].tolist()))

    crosses = ((gap0 <= 0.0) & (gap1 >= 0.0)) | ((gap0 >= 0.0) & (gap1 <= 0.0))
    seg_gap = np.where(crosses, 0.0, np.minimum(np.abs(gap0), np.abs(gap1)))
    pair_first = np.flatnonzero(~same_pair)
    closest_gap = dict(zip(zip(i[pair_first].tolist(), j[pair_first].tolist()),
                           np.minimum.reduceat(seg_gap, pair_first).tolist()))
    return OracleResult(history, established, closest_gap)


def assert_matches_engine(state, oracle: OracleResult, tol: float = 1e-9) -> None:
    """The engine's history is the oracle's as an (i, j) multiset, with
    endpoints within ``tol``, and the connection graph read from the
    engine's history has the oracle's established set as its edges."""
    engine_rows, oracle_rows = sorted(state.history), sorted(oracle.history)
    assert len(engine_rows) == len(oracle_rows), \
        f"engine logged {len(engine_rows)} intervals, oracle {len(oracle_rows)}"
    if engine_rows:
        a, b = np.array(engine_rows), np.array(oracle_rows)
        bad = np.flatnonzero((a[:, :2] != b[:, :2]).any(axis=1)
                             | (np.abs(a[:, 2:] - b[:, 2:]) > tol).any(axis=1))
        assert not len(bad), (f"{len(bad)} of {len(a)} intervals differ, first: "
                              f"engine {engine_rows[bad[0]]}, oracle {oracle_rows[bad[0]]}")
    edges = derived_connection_graph(state, state.T, state.rho).edges
    assert edges == oracle.established, (
        f"established differ: engine only {sorted(edges - oracle.established)}, "
        f"oracle only {sorted(oracle.established - edges)}")
