import math
import os
import sys

import numpy as np
import pytest

from streetsim.forking import forked
from streetsim.mobility import Device, shortest_path, street_coords
from streetsim.streets import Street, StreetGraph, StreetPosition
from streetsim.torus import TorusPoint, min_image_delta


def make_graph(L, verts, edge_pairs):
    """Hand-built street graph for unit tests.

    ``verts``: {id: (x, y)}; ``edge_pairs``: list of (u, v).  Lengths and
    unwrapped deltas come from the minimal-image geometry.  No cells.
    """
    vertices = {vid: TorusPoint(float(x), float(y)) for vid, (x, y) in verts.items()}
    edges = {}
    for eid, (u, v) in enumerate(edge_pairs):
        delta = min_image_delta(vertices[u], vertices[v], L)
        length = math.hypot(*delta)
        edges[eid] = Street(eid, u, v, length, delta, (0, 0))
    return StreetGraph(L, vertices, edges, {})


def total_street_length(g: StreetGraph) -> float:
    """Sum of all street lengths in meters."""
    return sum(e.length for e in g.edges.values())


def coords(pos: StreetPosition, g: StreetGraph) -> TorusPoint:
    """Torus coordinates of one street position: ``street_coords`` of one row."""
    return TorusPoint(*street_coords([pos], g)[0].tolist())


def make_device(did, g, frm, to, velocity):
    """Device with a shortest path from frm to to, ready for the engine."""
    path = shortest_path(g, frm, to)
    return Device(
        id=did, pos=path.start, time_of_pos=0.0, velocity=velocity,
        path=path, home=frm,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def single_street_graph():
    """One 100 m street on a large torus."""
    return make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])


def sp(g, eid, v1, v2, p):
    return StreetPosition(eid, v1, v2, p)


class Forks(list):
    """The pids of forked processes, in fork order, and what each was forked
    for: the name of the function ``forking.forked`` ran in it
    (``_write_trace_file`` for a trace writer, ``second_part`` for the event
    loop's second part), or None for a fork made elsewhere (a pool worker)."""

    def __init__(self):
        super().__init__()
        self.purpose = {}

    def of(self, purpose: str) -> list[int]:
        return [pid for pid in self if self.purpose[pid] == purpose]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes this process forks, recorded by a wrapper
    around ``os.fork`` (processes forked from them record into their own copy)."""
    pids = Forks()
    fork = os.fork

    def recording_fork():
        caller = sys._getframe(1)
        work = caller.f_locals.get("work") if caller.f_code is forked.__wrapped__.__code__ else None
        pid = fork()
        if pid:
            pids.append(pid)
            pids.purpose[pid] = getattr(work, "func", work).__name__ if work else None
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture(autouse=True)
def no_child_left(forks):
    """Fail a test that leaves a process it forked unreaped."""
    yield
    left = [pid for pid in forks if not reaped(pid)]
    assert not left, f"forked children left unreaped: {left}"


def reaped(pid: int) -> bool:
    """True once the child ``pid`` has been waited for: ``waitpid`` no
    longer knows it.  (A child still there is reaped by this call.)"""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
