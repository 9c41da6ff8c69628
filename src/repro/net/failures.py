"""Deterministic link-failure and recovery injection.

A scenario declares ``(time, link)`` events; the injector schedules
them on the simulator, flips the link state on the routing policy
(which rebuilds its tables), and records each applied event both as a
trace event (``link.fail`` / ``link.recover``) and in an ``applied``
list that run manifests surface.

Events are plain data — no randomness is involved — so same-seed runs
with the same failure spec replay identically, which is what lets the
determinism matrix test compare signatures across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.des.kernel import Simulator
from repro.topology.routing import EcmpRouting

_ACTIONS = ("down", "up")


@dataclass(frozen=True)
class LinkFailure:
    """One scheduled link state change.

    ``action`` is ``"down"`` (fail) or ``"up"`` (recover).
    """

    time: float
    a: str
    b: str
    action: str = "down"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"failure time must be >= 0, got {self.time}")
        if self.action not in _ACTIONS:
            raise ValueError(f"failure action must be one of {_ACTIONS}, got {self.action!r}")


def normalize_failures(raw: object) -> tuple[LinkFailure, ...]:
    """Coerce spec-file failure entries into :class:`LinkFailure` tuples.

    Accepts ``LinkFailure`` instances, ``{"time": ..., "link": [a, b],
    "action": ...}`` dicts, or ``(time, a, b[, action])`` sequences,
    sorted by (time, endpoints, action) so the schedule is independent
    of spec-file ordering.
    """
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        raise TypeError(f"failures must be a list, got {type(raw).__name__}")
    events: list[LinkFailure] = []
    for entry in raw:
        if isinstance(entry, LinkFailure):
            events.append(entry)
        elif isinstance(entry, dict):
            unknown = set(entry) - {"time", "link", "action"}
            if unknown:
                raise ValueError(f"unknown failure keys: {sorted(unknown)}")
            link = entry.get("link")
            if not isinstance(link, (list, tuple)) or len(link) != 2:
                raise ValueError(f"failure 'link' must be a [a, b] pair, got {link!r}")
            events.append(
                LinkFailure(
                    time=float(entry["time"]),
                    a=str(link[0]),
                    b=str(link[1]),
                    action=str(entry.get("action", "down")),
                )
            )
        elif isinstance(entry, (list, tuple)) and len(entry) in (3, 4):
            time, a, b = entry[0], entry[1], entry[2]
            action = entry[3] if len(entry) == 4 else "down"
            events.append(LinkFailure(time=float(time), a=str(a), b=str(b), action=str(action)))
        else:
            raise ValueError(f"cannot parse failure entry {entry!r}")
    events.sort(key=lambda e: (e.time, e.a, e.b, e.action))
    return tuple(events)


class FailureInjector:
    """Schedules link failures against a simulator and routing policy.

    Validates every referenced link against the topology up front (a
    typo in a spec fails at construction, not mid-run) and schedules
    one event per entry.  ``applied`` accumulates the events that have
    fired, in order, as manifest-ready dicts.
    """

    def __init__(
        self,
        sim: Simulator,
        routing: EcmpRouting,
        failures: Sequence[LinkFailure],
        tracer=None,
    ) -> None:
        self.sim = sim
        self.routing = routing
        self.failures = normalize_failures(list(failures))
        self.tracer = tracer
        self.applied: list[dict] = []
        topology = routing.topology
        for event in self.failures:
            try:
                topology.link_between(event.a, event.b)
            except KeyError:
                raise ValueError(
                    f"failure spec references nonexistent link "
                    f"{event.a!r}-{event.b!r}"
                ) from None
        for event in self.failures:
            sim.schedule_at(event.time, self._apply, event, priority=-10)

    def _apply(self, event: LinkFailure) -> None:
        changed = self.routing.set_link_state(event.a, event.b, up=event.action == "up")
        record = {
            "time": event.time,
            "link": [event.a, event.b],
            "action": event.action,
            "changed": changed,
        }
        self.applied.append(record)
        if self.sim.metrics is not None:
            self.sim.metrics.counter("net.link_failure_events", action=event.action).inc()
        if self.tracer is not None:
            self.tracer.event(
                "link.fail" if event.action == "down" else "link.recover",
                t=event.time,
                link=[event.a, event.b],
                changed=changed,
            )

    def summary(self) -> list[dict]:
        """Applied events so far, manifest-ready."""
        return list(self.applied)
