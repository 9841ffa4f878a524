"""Span recording around the layer functions that ``streetsim run`` calls.

:func:`instrument` replaces, for the duration of a ``with`` block, the names
that ``streetsim.config``, ``streetsim.analysis`` and ``streetsim.cli`` look
up at call time with wrappers that record one span per call.  The program
itself runs unchanged: the benchmark calls ``streetsim.cli.main`` inside the
block, and checks that its output bytes equal those of an uninstrumented run.

Events are counted through the engine's ``state.trace`` hook, which the
wrapper around ``analysis.initialize`` installs on the sweep's state.
Spans are kept in memory and written once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import streetsim.analysis
import streetsim.cli
import streetsim.config
from streetsim.engine import EventKind

# the CLI's second simulation per seed; the layer spans under it are not
# part of the sweep's set-up, event loop or post-processing metrics
SIDE_OUTPUTS = "cli.side_outputs"


class Tracer:
    """In-memory spans: [id, parent id, name, start, end, counts]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open = [None]

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._open[-1], name, perf_counter(), None, None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def _in_sweep(self, rec) -> bool:
        """True unless the span lies under the CLI's side-output simulation."""
        while rec[1] is not None:
            rec = self.spans[rec[1]]
            if rec[2] == SIDE_OUTPUTS:
                return False
        return True

    def seconds(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] == name and (name == SIDE_OUTPUTS or self._in_sweep(s)))

    def total(self, key: str) -> int:
        return sum(s[5].get(key, 0) for s in self.spans if s[5] and self._in_sweep(s))

    def layer_seconds(self) -> float:
        """Wall time covered by outermost spans (they never overlap)."""
        return sum(s[4] - s[3] for s in self.spans if s[1] is None)

    def write(self, path, context: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "context": context}) + "\n")
            for sid, parent, name, start, end, counts in self.spans:
                rec = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def count_events(ev, _state) -> None:
    """The event-counting hook; ``tally`` has one slot per EventKind value."""
    count_events.tally[ev.kind] += 1


def _counts(name: str, result, args) -> dict | None:
    """Deterministic counts taken at a layer boundary."""
    if name == "streets.generate_pvt":
        return {"n_streets": len(result.edges)}
    if name == "mobility.sample_devices":
        return {"n_devices": len(result)}
    if name == "engine.loop":
        state = args[0]
        tally = count_events.tally
        return {"events": sum(tally),
                "reach_crossing": tally[EventKind.REACH_CROSSING],
                "reach_destination": tally[EventKind.REACH_DESTINATION],
                "history_intervals": len(state.history),
                "connections": len(state.established)}
    if name == "engine.derive":
        return {"derived_edges": len(result.edges), "sweep_points": 1}
    return None


# (span name, module, attribute): the names the program calls a layer through
PATCHES = (
    ("streets.generate_pvt", streetsim.config, "generate_pvt"),
    ("streets.cell_index", streetsim.config, "build_cell_index"),
    ("mobility.sample_devices", streetsim.config, "sample_devices"),
    ("mobility.waypoints", streetsim.config, "sample_destination_kappa_prime"),
    ("mobility.waypoints", streetsim.config, "sample_destination_kappa_doubleprime"),
    ("mobility.velocity", streetsim.config, "sample_velocity"),
    ("mobility.paths", streetsim.config, "assign_commute"),
    ("engine.initialize", streetsim.analysis, "initialize"),
    ("engine.loop", streetsim.analysis, "run"),
    ("engine.derive", streetsim.analysis, "derived_connection_graph"),
    ("analysis.largest_cluster", streetsim.analysis, "largest_cluster_fraction"),
    ("analysis.wraps", streetsim.analysis, "connection_graph_wraps"),
    ("analysis.histogram", streetsim.analysis, "cluster_size_histogram"),
    ("cli.write_csv", streetsim.cli, "write_sweep_csv"),
    (SIDE_OUTPUTS, streetsim.cli, "_emit_side_outputs"),
)


def _wrap(tr: Tracer, name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name) as rec:
            result = fn(*args, **kwargs)
            if name == "engine.initialize":
                count_events.tally = [0] * (max(EventKind) + 1)
                result.trace = count_events
            rec[5] = _counts(name, result, args)
        return result

    return wrapper


@contextmanager
def instrument(tr: Tracer):
    """Record spans for every call through the names in :data:`PATCHES`."""
    originals = [(mod, attr, getattr(mod, attr)) for _, mod, attr in PATCHES]
    try:
        for (name, mod, attr), (_, _, fn) in zip(PATCHES, originals):
            setattr(mod, attr, _wrap(tr, name, fn))
        yield tr
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
