"""Filter interface shared by every MNM technique.

A *miss filter* watches one cache's placement/replacement stream (at the
MNM's bookkeeping granule — the L2 block size, Section 3.1) and answers, for
a granule block address, either

* **definite miss** — the block is provably absent from the cache, or
* **maybe** — the block may be present; perform the normal lookup.

The answer must be *one-sided* (Section 3.6 of the paper): declaring a miss
for a resident block would force a redundant access to a farther level and
break correctness of the bypass, so every technique is engineered so that a
``True`` from :meth:`MissFilter.is_definite_miss` is a proof of absence.
The property-based tests in ``tests/core/test_soundness.py`` enforce this
for every technique on randomized event streams.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as _np

#: Event actions of :meth:`MissFilter.replay`: the hook each one reaches.
REPLACE, PLACE, INVALIDATE = 0, 1, 2

#: Replay segments at or below this many rows are answered with scalar
#: ``is_definite_miss`` calls instead of ``query_many`` — a numpy
#: round-trip costs more than a handful of scalar lookups.
SCALAR_SEGMENT = 16

#: The scalar hooks a vectorized :meth:`MissFilter.replay` stands in for.
_HOOKS = ("is_definite_miss", "on_place", "on_replace", "on_invalidate")


class Placement(enum.Enum):
    """Where the MNM sits relative to the caches (Figure 1 / Section 2).

    PARALLEL: consulted on every reference, concurrently with the L1 lookup;
        its delay hides under the L1 latency, so bypass decisions are free
        time-wise, but every reference pays the MNM access energy.
    SERIAL: consulted only after an L1 miss; MNM energy is paid only on L1
        misses, but every access that goes past L1 pays the MNM delay once.
    DISTRIBUTED: per-level filter state sits next to each cache and is
        consulted immediately before that cache's lookup (the third option
        Section 2 sketches): only the levels a request actually reaches pay
        any MNM energy — the cheapest placement energy-wise — but every
        reached level adds the MNM delay to the walk.
    """

    PARALLEL = "parallel"
    SERIAL = "serial"
    DISTRIBUTED = "distributed"


class MissFilter(ABC):
    """Per-cache miss filter observing placements and replacements.

    All addresses handed to a filter are **granule block addresses**: byte
    addresses shifted by the L2 block-offset width.  The
    :class:`~repro.core.machine.MostlyNoMachine` performs the mapping from
    each cache's own block size (a 128-byte block covers four 32-byte
    granules and generates four events).
    """

    #: Short technique tag used in reports ("rmnm", "smnm", ...).
    technique: str = "abstract"

    @abstractmethod
    def is_definite_miss(self, granule_addr: int) -> bool:
        """Return True only if the block is provably absent from the cache."""

    @abstractmethod
    def on_place(self, granule_addr: int) -> None:
        """Observe a granule entering the cache."""

    @abstractmethod
    def on_replace(self, granule_addr: int) -> None:
        """Observe a granule leaving the cache."""

    def on_flush(self) -> None:
        """The tracked cache was flushed; drop all filter state."""

    def on_invalidate(self, granule_addr: int) -> None:
        """A cross-context event touched this granule; downgrade conservatively.

        In a multi-core hierarchy another core's fill or eviction can move a
        block this filter never observed through its own place/replace
        stream.  The only sound reaction to such partial knowledge is to
        *stop proving anything* about the granule: the default treats it as
        a placement, which for every technique clears any standing miss
        proof (counters saturate upward, sum flip-flops set, the RMNM entry
        is dropped) and can only ever cost coverage, never soundness.

        Overrides may add bookkeeping but must keep the downgrade — they
        are required to route through ``super().on_invalidate(...)``
        (enforced statically by R006 and dynamically by the multicore
        false-miss property tests).
        """
        self.on_place(granule_addr)

    def query_many(self, granule_addrs):
        """Batched :meth:`is_definite_miss` over a sequence of granules.

        Returns one boolean answer per input granule, as a numpy bool
        array.  This default is
        correct by construction — it loops over :meth:`is_definite_miss` —
        and is the oracle every vectorized override must agree with
        element-wise (pinned by ``tests/core/test_soundness.py``).  Batched
        queries are read-only: they must never mutate filter state.
        """
        miss = self.is_definite_miss
        return _np.asarray([miss(int(granule)) for granule in granule_addrs],
                           dtype=bool)

    def replay(self, bounds, actions, granules, queries):
        """Apply an event stream, answering the queries interleaved with it.

        ``queries`` holds one granule per row.  Event ``i`` is
        ``actions[i]`` (:data:`REPLACE`, :data:`PLACE` or
        :data:`INVALIDATE`, reaching :meth:`on_replace`, :meth:`on_place`
        or :meth:`on_invalidate`) on granule ``granules[i]``, applied once
        rows ``[0, bounds[i])`` are answered: row ``q`` sees every event
        with ``bounds[i] <= q``.  Bounds never decrease.  Returns one
        :meth:`is_definite_miss` answer per row, as a numpy bool array,
        and leaves the filter as the scalar hooks would.

        This default is the in-class oracle every vectorized override must
        equal, in answers and in final state (pinned by
        ``tests/core/test_replay.py``).  Between two events every answer
        is constant, so a segment is one :meth:`query_many` call; a
        segment of at most :data:`SCALAR_SEGMENT` rows uses
        :meth:`is_definite_miss` instead — the element-wise agreement of
        the two makes them interchangeable.
        """
        bounds, actions, granules, queries = event_columns(
            bounds, actions, granules, queries)
        hooks = (self.on_replace, self.on_place, self.on_invalidate)
        # Indexing a memoryview yields Python ints without a list copy.
        query_ints = memoryview(queries)
        rows = queries.shape[0]
        answers = _np.zeros(rows, dtype=bool)
        position = 0
        query = self.query_many
        miss = self.is_definite_miss
        for bound, action, granule in zip(memoryview(bounds),
                                          memoryview(actions),
                                          memoryview(granules)):
            if bound > position:
                if bound - position <= SCALAR_SEGMENT:
                    for row in range(position, bound):
                        if miss(query_ints[row]):
                            answers[row] = True
                else:
                    answers[position:bound] = query(queries[position:bound])
                position = bound
            hooks[action](granule)
        if position < rows:
            answers[position:] = query(queries[position:])
        return answers

    def _keeps_hooks_of(self, family: type) -> bool:
        """Whether every scalar hook in effect is ``family``'s own.

        A vectorized :meth:`replay` reimplements ``family``'s hooks, so it
        holds only while nothing (a subclass, an instance attribute)
        replaces one of them; otherwise the override must fall back to
        the default loop, which calls the hooks in effect.
        """
        return all(getattr(getattr(self, hook), "__func__", None)
                   is getattr(family, hook) for hook in _HOOKS)

    @property
    @abstractmethod
    def storage_bits(self) -> int:
        """Hardware state the filter needs, in bits (for the power model)."""

    @property
    def name(self) -> str:
        """Configuration name, e.g. ``TMNM_12x3``; defaults to the class name."""
        return type(self).__name__


class NullFilter(MissFilter):
    """A filter that never identifies a miss (the no-MNM baseline)."""

    technique = "null"

    def is_definite_miss(self, granule_addr: int) -> bool:
        return False

    def on_place(self, granule_addr: int) -> None:
        pass

    def on_replace(self, granule_addr: int) -> None:
        pass

    def query_many(self, granule_addrs):
        return _np.zeros(len(granule_addrs), dtype=bool)

    @property
    def storage_bits(self) -> int:
        return 0

    @property
    def name(self) -> str:
        return "NULL"


def event_columns(*columns):
    """:meth:`MissFilter.replay`'s arguments as contiguous int64 arrays."""
    return tuple(_np.ascontiguousarray(column, dtype=_np.int64)
                 for column in columns)


class CounterStream:
    """A table of counters under a stream of ±1 updates, replayed in batch.

    ``start`` holds the counters before the stream.  Update ``i`` adds
    ``deltas[i]`` (+1 or -1) to counter ``slots[i]`` once rows
    ``[0, bounds[i])`` are answered; bounds never decrease.  With ``cap``
    a counter that reaches ``cap``, or starts there, stays there (the
    sticky saturation of a TMNM counter); without it the counter is an
    exact count.  Below the cap a counter is its start plus the running
    sum of its updates, so one stable sort by slot and a grouped
    cumulative sum give every counter's value after every update, and a
    grouped running "reached the cap" flag pins the saturated ones.

    :attr:`exact` is False when a decrement would take an unsaturated
    counter below zero: the scalar hooks keep it at zero instead, which a
    running sum cannot express, so the caller must fall back to
    :meth:`MissFilter.replay`.  :attr:`final_slots` and
    :attr:`final_values` are the counters the stream touched and their
    values after it; nothing is written to ``start``.
    """

    def __init__(self, start, slots, deltas, bounds,
                 cap: Optional[int] = None) -> None:
        self._start = start
        self.exact = True
        self._values = _np.empty(0, dtype=_np.int64)
        self.final_slots = self.final_values = self._values
        if not slots.shape[0]:
            return
        order = _np.argsort(slots, kind="stable")
        self._slots = slots[order]
        ordered = deltas[order]
        sums = _np.cumsum(ordered)
        first = _np.concatenate(([True], self._slots[1:] != self._slots[:-1]))
        heads = _np.flatnonzero(first)
        group = _np.cumsum(first) - 1
        values = sums + (start[self._slots[heads]]
                         - (sums[heads] - ordered[heads]))[group]
        if cap is None:
            self.exact = not (values < 0).any()
        else:
            reached = (values >= cap) | (start[self._slots] >= cap)
            last = _np.maximum.accumulate(
                _np.where(reached, _np.arange(values.shape[0]), -1))
            saturated = last >= heads[group]
            self.exact = not ((values < 0) & ~saturated).any()
            values[saturated] = cap
        self._values = values
        # Within a slot the events keep their order, so (slot, bound)
        # keys ascend; a query row beyond the last bound sees the same
        # events as the last bound.
        self._last_bound = int(bounds[-1])
        self._stride = self._last_bound + 1
        self._keys = self._slots * self._stride + bounds[order]
        tails = _np.append(heads[1:], values.shape[0]) - 1
        self.final_slots = self._slots[tails]
        self.final_values = values[tails]

    def at(self, slots, rows):
        """Counter ``slots[j]`` as row ``rows[j]`` sees it."""
        if not self._values.shape[0]:
            return self._start[slots]
        keys = slots * self._stride + _np.minimum(rows, self._last_bound)
        position = _np.searchsorted(self._keys, keys, side="right") - 1
        clipped = _np.maximum(position, 0)
        seen = (position >= 0) & (self._slots[clipped] == slots)
        return _np.where(seen, self._values[clipped], self._start[slots])


@dataclass
class FilterStats:
    """Lookup counters for one filter (kept by the machine, not the filter)."""

    lookups: int = 0
    miss_answers: int = 0
