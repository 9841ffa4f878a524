"""The trace writer that ran on the engine's per-event hook, as a reference
for the CLI's writer, which writes the trace from the schedule.

:func:`hook_trace` installs on ``state.trace`` the writer ``streetsim run``
used before the trace came from the schedule: one JSON line per record the
hook sees, with the street of the event's device as the hook sees it when
the event fires, then the close-out's two records at T.
"""

from __future__ import annotations

import io

from streetsim.engine import run


def hook_trace(state) -> str:
    """Run ``state`` with the hook writer and return the trace it wrote."""
    out = io.StringIO()
    write, devices = out.write, state.devices
    number = float.__repr__

    # the bytes json.dumps gives for the event's record
    def trace(ev, st):
        t, kind, dev = ev
        if dev is None:
            write(f'{{"t": {number(t)}, "kind": {int(kind)}, "device": null, "street": null}}\n')
        else:
            write(f'{{"t": {number(t)}, "kind": {int(kind)}, "device": {dev}, '
                  f'"street": {devices[dev].pos.street}}}\n')

    state.trace = trace
    run(state)
    return out.getvalue()
