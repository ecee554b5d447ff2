"""Discrete-event engine: virtual clock, event queue, link latency, seeded RNG.

Virtual time is a float number of milliseconds.  The queue processes events
in strict ``(fire_at, seq)`` order, where ``seq`` is the scheduling sequence
number, so simultaneous events run FIFO and every run is reproducible.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import SchedulingInPast

SimTime = float


class SimEvent(NamedTuple):
    """A scheduled delivery of ``payload`` to ``target`` at ``fire_at``.

    The queue's heap holds events as they are: ``seq`` is unique, so tuple
    ordering never reaches ``target`` or ``payload``.
    """

    fire_at: SimTime
    seq: int
    target: Any
    payload: Any


# ``_new_event((fire_at, seq, target, payload))`` equals ``SimEvent(...)``, but skips
# the Python-level ``__new__`` that ``NamedTuple`` writes.
_new_event = partial(tuple.__new__, SimEvent)


class EventQueue:
    """Time-ordered event queue owning the virtual clock.

    Single-threaded by contract: one logical execution context owns the
    queue.  Independent simulations each build their own queue.  ``clock``
    is the virtual time now and ``seq`` the sequence number of the event
    being handled, -1 before the first; only the queue moves them.
    """

    def __init__(self):
        self._heap: list[SimEvent] = []
        self.clock: SimTime = 0.0
        self.seq = -1
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: SimTime, target: Any, payload: Any) -> SimEvent:
        """Store an event; returns it with a fresh sequence number.

        Raises SchedulingInPast if ``fire_at`` precedes the current clock.
        """
        if fire_at < self.clock:
            raise SchedulingInPast(
                f"fire_at={fire_at} is before clock={self.clock}"
            )
        event = _new_event((fire_at, self._next_seq, target, payload))
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        return event

    def reserve(self, n: int = 1) -> int:
        """Take the next ``n`` sequence numbers without storing an event; returns the first.

        An event later stored at one of them with :meth:`schedule_reserved`
        sorts among same-instant events where one scheduled now would have.
        """
        seq = self._next_seq
        self._next_seq += n
        return seq

    def schedule_reserved(self, fire_at: SimTime, seq: int, target: Any,
                          payload: Any) -> SimEvent:
        """Store an event at a sequence number taken earlier by :meth:`reserve`.

        Raises SchedulingInPast if ``fire_at`` precedes the current clock.
        """
        if fire_at < self.clock:
            raise SchedulingInPast(
                f"fire_at={fire_at} is before clock={self.clock}"
            )
        event = _new_event((fire_at, seq, target, payload))
        heapq.heappush(self._heap, event)
        return event

    def __iter__(self):
        """The stored events, in no particular order."""
        return iter(self._heap)

    def run_until(self, deadline: SimTime, handler: Callable[[SimEvent], None]) -> int:
        """Process every event with ``fire_at <= deadline`` in order.

        The handler may schedule further events; those due before the
        deadline are processed in the same call.  Returns the number of
        events processed.  The clock never moves backwards; after the call
        it sits at ``deadline`` (or stays put if the deadline already
        passed).
        """
        heap, pop, processed = self._heap, heapq.heappop, 0
        while heap and heap[0].fire_at <= deadline:
            event = pop(heap)
            self.clock = event.fire_at
            self.seq = event.seq
            handler(event)
            processed += 1
        if deadline > self.clock:
            self.clock = deadline
        return processed


@dataclass(frozen=True)
class LatencyModel:
    """Affine point-to-point delivery latency.

    ``base_ms`` is the fixed per-hop cost, ``prop_ms_per_m`` scales with the
    euclidean sender-receiver distance, and ``proc_ms_per_unit`` scales with
    the receiver's load (its pending-job count) at send time.
    """

    base_ms: float
    prop_ms_per_m: float = 0.0
    proc_ms_per_unit: float = 0.0

    def __post_init__(self):
        if self.base_ms < 0 or self.prop_ms_per_m < 0 or self.proc_ms_per_unit < 0:
            raise ValueError("latency coefficients must be >= 0")


def link_latency(model: LatencyModel, src, dst, receiver_load: float = 0.0) -> SimTime:
    """One-way delivery time from ``src`` to ``dst`` points, in ms."""
    dist = math.hypot(dst.x - src.x, dst.y - src.y)
    return model.base_ms + model.prop_ms_per_m * dist + model.proc_ms_per_unit * receiver_load


def _stream_entropy(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RngStream:
    """A named, reproducible random stream derived from a root seed.

    Identical ``(seed, name)`` pairs always yield identical sequences, and
    distinct names give independent streams, so adding a node (a new name)
    never perturbs the draws of existing nodes.
    """

    seed: int
    name: str = "root"
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, _stream_entropy(self.name)])
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, name: str) -> "RngStream":
        return RngStream(self.seed, f"{self.name}/{name}")

    def random(self) -> float:
        return float(self._gen.random())

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def disk_point(self, cx: float, cy: float, radius: float) -> tuple[float, float]:
        """Uniform point inside the disk, via the sqrt-radius polar draw."""
        r = radius * math.sqrt(self._gen.random())
        theta = self._gen.random() * 2.0 * math.pi
        return cx + r * math.cos(theta), cy + r * math.sin(theta)
