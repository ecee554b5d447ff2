"""Discrete-event engine: virtual clock, event queue, link latency, seeded RNG.

Virtual time is a float number of milliseconds.  The queue processes events
in ``(fire_at, seq)`` order, where ``seq`` is the sequence number an event
takes when it is stored, so simultaneous events run FIFO and every run is
reproducible.

Each named random stream draws numpy's ``PCG64`` bits, seeded as
``SeedSequence([seed, entropy(name)])`` would seed it.  A run derives the
streams its set-up draws from in one batch, which reproduces numpy's
``SeedSequence`` mixing and ``PCG64`` seeding without building either object
per stream; ``tests/test_simcore.py`` checks the batch, and a stream derived
alone, against numpy's own objects.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache, partial
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

        A caller keys work that no event stands for by them, in the order an
        event stored now would take.
        """
        seq = self._next_seq
        self._next_seq += n
        return seq

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


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed(seed: int, entropy):
    """``PCG64(SeedSequence([seed & (2**64 - 1), entropy]))``'s ``(state, inc)``.

    ``entropy`` is an int below 2**64, or a ``uint64`` array of them, one
    per stream; for an array the result is a list of pairs.  numpy's hash
    mix runs on the ints, or once over the whole array masked to 32 bits,
    and ``pcg64_set_seed``'s two LCG steps run in Python ints.  The entropy
    words are the seed's one or two 32-bit words, then the entropy's two;
    the pool holds four, and a word that numpy leaves out because the value
    is short (an entropy below 2**32) mixes exactly as the zero word it is here.
    """
    seed &= _MASK64
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    pool = [*seed_words, entropy & _MASK32, entropy >> 32, *[0] * (2 - len(seed_words))]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src]) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    # ``generate_state(4, uint64)``: eight 32-bit words, low word first.
    hash_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    halves = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]

    def seeded(hi, lo, inc_hi, inc_lo):
        inc = (inc_hi << 64 | inc_lo) << 1 & _MASK128 | 1
        return ((hi << 64 | lo) + inc) * _PCG_MULT + inc & _MASK128, inc

    if isinstance(entropy, int):
        return seeded(*halves)
    return [seeded(*row) for row in zip(*(half.tolist() for half in halves))]


def stream_states(seed: int, names: list[str]) -> list[tuple[int, int]]:
    """Each named stream's PCG64 ``(state, inc)`` under ``seed``, derived in one batch.

    Equal bit for bit to ``PCG64(SeedSequence([seed & (2**64 - 1),
    _stream_entropy(name)]))``, as a stream derived alone is.
    """
    return _pcg64_seed(seed, np.array([_stream_entropy(name) for name in names], dtype=np.uint64))


@cache
def _generator():
    """The one numpy ``Generator`` that draws for every stream; ``numpy.random`` loads here.

    Each use sets its whole state first, so no draw sees another stream's
    bits; like the event queue, it serves one thread.
    """
    return np.random.Generator(np.random.PCG64(0))


@dataclass(slots=True)
class RngStream:
    """A named, reproducible random stream derived from a root seed.

    Identical ``(seed, name)`` pairs always yield identical sequences, and
    distinct names give independent streams, so adding a node (a new name)
    never perturbs the draws of existing nodes.  The bits are numpy's
    ``Generator(PCG64(SeedSequence(...)))``'s: ``random`` steps the PCG64
    state in Python, and ``exponentials`` runs numpy's own code on one
    shared generator set to this stream's state.

    ``state`` and ``inc`` are the PCG64 state; ``None`` derives it from the
    seed and name.  ``children`` holds the states of children derived in one
    batch by :meth:`with_children`, until :meth:`child` hands each out.
    """

    seed: int
    name: str = "root"
    state: int | None = field(default=None, repr=False)
    inc: int = field(default=0, repr=False)
    children: dict[str, tuple[int, int]] | None = field(default=None, repr=False,
                                                         compare=False)

    def __post_init__(self):
        if self.state is None:
            self.state, self.inc = _pcg64_seed(self.seed, _stream_entropy(self.name))

    @classmethod
    def with_children(cls, seed: int, names: list[str]) -> "RngStream":
        """The root stream of ``seed``, holding the states of its children ``names``."""
        (state, inc), *states = stream_states(seed, ["root", *(f"root/{n}" for n in names)])
        return cls(seed, "root", state, inc, dict(zip(names, states)))

    def child(self, name: str) -> "RngStream":
        """Stream ``name`` under this one; a state from the batch is handed out once."""
        state, inc = None, 0
        if self.children and name in self.children:
            state, inc = self.children.pop(name)
            if not self.children:  # every batch state is out: drop the emptied table
                self.children = None
        return RngStream(self.seed, f"{self.name}/{name}", state, inc)

    def random(self) -> float:
        """Uniform in ``[0, 1)``: one LCG step, the XSL-RR output, its top 53 bits."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        word, rot = (state >> 64) ^ (state & _MASK64), state >> 122
        out = ((word >> rot) | (word << (64 - rot))) & _MASK64
        return (out >> 11) * 2.0**-53

    def exponentials(self, mean: float) -> Iterator[float]:
        """Endless ``exponential(mean)`` draws, fetched from numpy in doubling batches.

        Each batch runs on the shared generator set to this stream's state.
        The stream moves past a whole batch when it fetches it, drawn or not.
        """
        gen, size = _generator(), 8
        bits = gen.bit_generator
        while True:
            # No draw of a stream buffers half of a 64-bit output, so none is pending.
            bits.state = {"bit_generator": "PCG64", "state": {"state": self.state, "inc": self.inc},
                          "has_uint32": 0, "uinteger": 0}
            batch = gen.exponential(mean, size).tolist()
            self.state = bits.state["state"]["state"]
            yield from batch
            size *= 2

    def disk_point(self, cx: float, cy: float, radius: float) -> tuple[float, float]:
        """Uniform point inside the disk, via the sqrt-radius polar draw."""
        r = radius * math.sqrt(self.random())
        theta = self.random() * 2.0 * math.pi
        return cx + r * math.cos(theta), cy + r * math.sin(theta)
