"""Discrete event simulation (DES) kernel.

This package is the substrate that plays the role OMNeT++ plays in the
paper: a deterministic, single-threaded discrete event simulator.  Network
behaviour is represented as a series of events (packet arrivals, timer
expirations, application wake-ups) kept in a temporally ordered event
queue, exactly as described in Section 2.1 of the paper.

Public API
----------
``Simulator``
    The event loop.  Owns simulated time, the event heap, named random
    streams, and event accounting.  ``schedule`` returns the event's
    heap entry, which is its cancellation handle.
``Entity``
    Base class for simulation components (switches, hosts, links, ...).
``Monitor`` / ``TimeSeries`` / ``Counter``
    Lightweight statistics collection.
``SimulationError``, ``SchedulingError``
    Kernel error types.
"""

from repro.des.errors import SchedulingError, SimulationError
from repro.des.kernel import Simulator
from repro.des.entities import Entity, Timer
from repro.des.monitors import Counter, Monitor, TimeSeries
from repro.des.rng import RandomStreams
from repro.des.simlog import SimTimeAdapter, get_sim_logger

__all__ = [
    "Counter",
    "Entity",
    "Monitor",
    "RandomStreams",
    "SchedulingError",
    "SimTimeAdapter",
    "SimulationError",
    "Simulator",
    "TimeSeries",
    "get_sim_logger",
    "Timer",
]
