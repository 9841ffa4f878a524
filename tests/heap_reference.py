"""The event order of a rescheduling heap, as a reference for the engine's
presorted schedule.

The engine fires every event in the order a binary heap holding one pending
``(time, kind, device)`` per device pops them, when each device's next
event is pushed as its previous one fires.  :func:`heap_merge` is that heap,
over whole per-device sequences; :func:`replayed_events` gives a device's
sequence from the contact oracle's event-free replay of its commute.
"""

from __future__ import annotations

from heapq import heappop, heappush

from streetsim.engine import EventKind

from contact_oracle import _CLOSE, _RANK_BASE, device_visits

KINDS = (EventKind.REACH_CROSSING, EventKind.REACH_DESTINATION)


def heap_merge(sequences: dict[int, list[tuple[float, EventKind]]]) -> list[tuple]:
    """``(time, kind, device)`` of every event in the order the heap pops them.

    ``sequences`` maps a device to its events ``(time, kind)`` in its own
    order; the device's next event enters the heap when its previous one
    leaves it.
    """
    heap = []
    for device, seq in sequences.items():
        if seq:
            heappush(heap, (seq[0][0], seq[0][1], device, 0))
    popped = []
    while heap:
        t, kind, device, k = heappop(heap)
        popped.append((t, kind, device))
        seq = sequences[device]
        if k + 1 < len(seq):
            heappush(heap, (seq[k + 1][0], seq[k + 1][1], device, k + 1))
    return popped


def replayed_events(d, graph, T: float) -> list[tuple[float, EventKind]]:
    """The device's events up to T, ``(time, kind)``, from the oracle's replay."""
    return [(t_out, EventKind(rank_out // _RANK_BASE % 8))
            for *_, t_out, rank_out, _, _, _ in device_visits(d, graph, T) if rank_out != _CLOSE]


def scheduled(state) -> list[tuple]:
    """A state's schedule as ``(time, kind, device)``, in firing order."""
    routes, legs = state.routes, state.event_legs
    return [(t, KINDS[turns], device) for t, turns, device in zip(
        state.event_times.tolist(), routes.destination[legs].tolist(),
        routes.device[legs].tolist())]
