"""Base class for simulation components.

An :class:`Entity` is anything with behaviour in the simulated world —
a switch, a host, a link, an approximated cluster.  Entities hold a
reference to their :class:`~repro.des.kernel.Simulator` and get small
conveniences for scheduling and logging.  The design mirrors OMNeT++'s
``cSimpleModule``: users change any piece of the system by changing the
implementation of event handlers (paper Section 2.1).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.des.kernel import Simulator


class Entity:
    """A named participant in a simulation.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Unique human-readable identifier (e.g. ``"tor-3"``); used in
        traces, logs and error messages.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def schedule(self, delay: float, fn: Callable[..., None], *args, priority: int = 0) -> list:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        return self.sim.schedule(delay, fn, *args, priority=priority)

    def schedule_at(self, time: float, fn: Callable[..., None], *args, priority: int = 0) -> list:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        return self.sim.schedule_at(time, fn, *args, priority=priority)


class Timer:
    """A restartable one-shot timer built on kernel events.

    TCP retransmission and delayed-ACK logic restart and cancel timers
    constantly; this wrapper gives them an arm/disarm interface instead
    of manual event-handle bookkeeping.  It holds the kernel's heap
    entry ``[time, priority, seq, fn, args]``, whose ``fn`` the kernel
    blanks once the entry has run or been cancelled.
    """

    __slots__ = ("_sim", "_fn", "_entry")

    def __init__(self, sim: Simulator, fn: Callable[[], None]) -> None:
        self._sim = sim
        self._fn = fn
        self._entry: Optional[list] = None

    @property
    def armed(self) -> bool:
        """True if the timer is set and has not yet fired."""
        return self._entry is not None and self._entry[3] is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time at which the timer will fire, or None."""
        return self._entry[0] if self.armed else None

    def arm(self, delay: float) -> None:
        """(Re)start the timer to fire ``delay`` seconds from now."""
        if self._entry is not None:
            self._sim.cancel(self._entry)
        self._entry = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._entry is not None:
            self._sim.cancel(self._entry)
            self._entry = None

    def _fire(self) -> None:
        self._entry = None
        self._fn()
