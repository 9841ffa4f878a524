"""One way to run work in a forked child beside the parent.

``streetsim run`` forks two kinds of helper: the trace writer, which writes a
seed's trace file from the schedule while the event loop runs, and the event
loop's second part (see :mod:`streetsim.engine`).  Both go through
:func:`forked`, so every child is made, left and reaped the same way.  How
many of them can run at once is :func:`usable_cpus`, which also caps
``--jobs``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
from collections.abc import Callable, Iterator

__all__ = ["Child", "forked", "usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Child:
    """A forked child: its ``pid``, and its exit ``status`` once it has been
    reaped (None before)."""

    __slots__ = ("pid", "status")

    def __init__(self, pid: int):
        self.pid = pid
        self.status: int | None = None


@contextlib.contextmanager
def forked(work: Callable[[], None],
           in_process: Callable[[], None] | None = None) -> Iterator[Child | None]:
    """Run ``work()`` in a forked child while the ``with`` block runs here.

    Yields the :class:`Child`.  The child runs with the garbage collector
    off (a collection would copy the pages it touches) and leaves only
    through ``os._exit``: status 0 once ``work`` returns, 1 on any
    exception, so it never runs the rest of the parent's program, nor
    flushes the parent's buffers or runs its exit handlers.  The child is
    reaped on every way out of the block: waited for when the block ends or
    raises an :class:`Exception`, killed first on any other
    :class:`BaseException` (an interrupt); its status is then in
    ``Child.status``.

    Where ``os.fork`` fails, ``in_process()`` (by default ``work()``) runs
    here before the block, and the block gets None.
    """
    try:
        pid = os.fork()
    except OSError:
        (work if in_process is None else in_process)()
        yield None
        return
    if pid == 0:
        status = 1
        try:
            gc.disable()
            work()
            status = 0
        finally:
            os._exit(status)
    child = Child(pid)
    try:
        yield child
    except BaseException as exc:
        if not isinstance(exc, Exception):
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        child.status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
