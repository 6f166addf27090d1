"""Host-speed normalisation of the benchmark's timings.

A shared virtual machine changes speed by tens of percent for seconds at
a time, and a run of a few tens of seconds often falls mostly in one
state.  So every timed stretch is bracketed by samples of a short, fixed
kernel that uses no code of the program under test, and each duration is
scaled by how fast that kernel ran around it::

    normalised = seconds * REFERENCE_S / median(kernel samples around it)

The result stays in seconds — the seconds the stretch would take on a
host where the kernel takes :data:`REFERENCE_S` — and a change to the
program moves it exactly as it moves host time, while a change in the
host's speed moves the kernel and the stretch alike and largely cancels
(not wholly: in some slow spells the kernel slows more than the
simulator does).

The kernel is a tiny set-associative LRU cache written here, so that it
does the simulator's kind of work — objects, method calls, list and
dictionary updates in interpreted Python — and slows down with it.  A
plain arithmetic loop tracked the host's slow spells about half as well.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Sequence

#: Accesses per kernel slice; one slice takes about two milliseconds.
STEPS = 2500

#: Slices per sample; their median is the sample, so one interrupted
#: slice does not skew it.
SLICES = 3

#: The kernel's slice time, in seconds, on the host the benchmark was
#: tuned on while it ran at its faster speed.
REFERENCE_S = 0.0017


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


class _Cache:
    """64 sets x 4 ways, 32-byte blocks, LRU."""

    def __init__(self) -> None:
        self.sets = [[] for _ in range(64)]
        self.stats = {"hit": 0, "miss": 0}

    def access(self, address: int, write: bool) -> bool:
        block = address >> 5
        lines = self.sets[block & 63]
        tag = block >> 6
        for index, line in enumerate(lines):
            if line.tag == tag:
                lines.insert(0, lines.pop(index))
                line.dirty = line.dirty or write
                self.stats["hit"] += 1
                return True
        if len(lines) >= 4:
            lines.pop()
        lines.insert(0, _Line(tag))
        self.stats["miss"] += 1
        return False


def _addresses():
    rng = random.Random(1)
    return tuple((rng.randrange(1 << 16) if rng.random() < 0.8
                  else rng.randrange(1 << 22), rng.random() < 0.3)
                 for _ in range(4096))


_ADDRESSES = _addresses()


def kernel(steps: int = STEPS) -> int:
    """Fixed work: ``steps`` accesses of a fixed stream to a fresh cache."""
    cache = _Cache()
    addresses = _ADDRESSES
    for step in range(steps):
        address, write = addresses[(step * 7) % len(addresses)]
        cache.access(address, write)
    return cache.stats["hit"]


def sample() -> float:
    """Seconds one kernel slice takes now (median of :data:`SLICES`)."""
    slices = []
    for _ in range(SLICES):
        started = time.perf_counter()
        kernel()
        slices.append(time.perf_counter() - started)
    return statistics.median(slices)


def normalise(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` scaled to the reference speed, given kernel samples
    taken around the stretch (their median is the host's speed then)."""
    return seconds * REFERENCE_S / statistics.median(samples)
