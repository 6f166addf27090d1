"""Table MNM (Section 3.3 of the paper).

A TMNM table is an array of ``2^N`` 3-bit saturating counters indexed by an
``N``-bit slice of the block address.  The counter tracks how many resident
blocks map to the slot:

* placement increments (unless saturated),
* replacement decrements (unless saturated),
* a **zero** counter proves no resident block maps there → definite miss.

Saturation is *sticky*: once a counter reaches its maximum we can no longer
tell how many blocks share the slot, so it stays saturated — an eternal
"maybe" — until the cache is flushed (Section 3.3: "the counter values are
reset when the caches are flushed").  Below the saturation point the
counter is exact, because a counter that never saturated has seen every
increment and decrement, which is what makes a zero answer sound.

``TMNM_{N}x{replication}``: ``replication`` tables examine different slices
of the block address (offsets 0, 6, 12, ... like the SMNM checkers); a miss
is proven if *any* table's counter is zero.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Tuple

import numpy as _np

from repro.core.base import REPLACE, CounterStream, MissFilter, event_columns
from repro.core.smnm import CHECKER_STRIDE, offsets_suffix

#: Counter width used by the paper ("We use a counter of 3 bits").
COUNTER_BITS = 3

#: Saturation value for a 3-bit counter.
COUNTER_MAX = (1 << COUNTER_BITS) - 1


# repro: allow[R006] internal TMNM building block, not a wireable filter; audited through TMNM's own soundness tests
class CounterTable:
    """One table of sticky-saturating counters over an address-bit slice."""

    def __init__(
        self,
        index_bits: int,
        bit_offset: int = 0,
        counter_bits: int = COUNTER_BITS,
    ) -> None:
        if index_bits < 1:
            raise ValueError(f"index_bits must be >= 1, got {index_bits}")
        if bit_offset < 0:
            raise ValueError(f"bit_offset must be >= 0, got {bit_offset}")
        if counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {counter_bits}")
        self.index_bits = index_bits
        self.bit_offset = bit_offset
        self.counter_bits = counter_bits
        self.counter_max = (1 << counter_bits) - 1
        self._index_mask = (1 << index_bits) - 1
        # array('q') instead of a list: scalar reads/writes behave the same,
        # but numpy can view the buffer zero-copy for batched queries.
        self._counters = array("q", bytes(8 * (1 << index_bits)))
        # Zero-copy int64 view over the buffer, built once per (re)alloc:
        # batched queries are hot enough that per-call frombuffer shows up.
        self._view = _np.frombuffer(self._counters, dtype=_np.int64)

    def _index(self, granule_addr: int) -> int:
        return (granule_addr >> self.bit_offset) & ((1 << self.index_bits) - 1)

    def count(self, granule_addr: int) -> int:
        """Current counter value for the slot of ``granule_addr``."""
        return self._counters[self._index(granule_addr)]

    def is_definite_miss(self, granule_addr: int) -> bool:
        """True iff the slot counter is zero (no resident block maps here)."""
        return self._counters[self._index(granule_addr)] == 0

    def on_place(self, granule_addr: int) -> None:
        """Count a placed block into its slot (saturating)."""
        index = self._index(granule_addr)
        if self._counters[index] < self.counter_max:
            self._counters[index] += 1

    def on_replace(self, granule_addr: int) -> None:
        """Count a replaced block out of its slot (sticky at saturation)."""
        index = self._index(granule_addr)
        value = self._counters[index]
        # A saturated counter is sticky; a zero counter on replace would mean
        # the event streams are inconsistent — stay at zero defensively
        # rather than wrap (soundness over accounting).
        if 0 < value < self.counter_max:
            self._counters[index] = value - 1

    def query_many(self, granule_addrs):
        """Vectorized :meth:`is_definite_miss` over an int64 granule array."""
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        return self._view[self.slots_of(granules)] == 0

    def slots_of(self, granules):
        """Vectorized slot index of every granule of an int64 array."""
        return (granules >> self.bit_offset) & self._index_mask

    @property
    def counts(self):
        """Zero-copy int64 view of the counters; writes go through."""
        return self._view

    def reset(self) -> None:
        """Zero every counter (cache flush)."""
        self._counters = array("q", bytes(8 * (1 << self.index_bits)))
        self._view = _np.frombuffer(self._counters, dtype=_np.int64)

    @property
    def saturated_slots(self) -> int:
        """How many slots are stuck at the maximum (degraded coverage)."""
        return sum(1 for value in self._counters if value == self.counter_max)

    @property
    def storage_bits(self) -> int:
        """Table size in bits."""
        return (1 << self.index_bits) * self.counter_bits


class TMNM(MissFilter):
    """Table MNM for one cache: ``replication`` counter tables.

    Named ``TMNM_{index_bits}x{replication}`` as in the paper (Figure 12).
    """

    technique = "tmnm"

    def __init__(
        self,
        index_bits: int,
        replication: int = 1,
        counter_bits: int = COUNTER_BITS,
        offsets: Optional[Sequence[int]] = None,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if offsets is None:
            offsets = [CHECKER_STRIDE * k for k in range(replication)]
        if len(offsets) != replication:
            raise ValueError(f"need {replication} offsets, got {len(offsets)}")
        self.index_bits = index_bits
        self.replication = replication
        self.counter_bits = counter_bits
        self.tables: Tuple[CounterTable, ...] = tuple(
            CounterTable(index_bits, offset, counter_bits) for offset in offsets
        )

    def is_definite_miss(self, granule_addr: int) -> bool:
        return any(t.is_definite_miss(granule_addr) for t in self.tables)

    def query_many(self, granule_addrs):
        """Vectorized OR over the replicated tables' batched answers."""
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        answers = self.tables[0].query_many(granules)
        for table in self.tables[1:]:
            answers |= table.query_many(granules)
        return answers

    def on_place(self, granule_addr: int) -> None:
        for table in self.tables:
            table.on_place(granule_addr)

    def on_replace(self, granule_addr: int) -> None:
        for table in self.tables:
            table.on_replace(granule_addr)

    def on_flush(self) -> None:
        for table in self.tables:
            table.reset()

    def replay(self, bounds, actions, granules, queries):
        """Vectorized :meth:`MissFilter.replay`: a running sum per counter.

        Each table replays as one :class:`~repro.core.base.CounterStream`
        (+1 per placement or invalidation, -1 per replacement, sticky at
        the maximum), and a row is a miss when any table's counter reads
        zero at it.  Falls back to the default loop, before writing any
        state, when a scalar hook is overridden or a replacement would
        find an unsaturated counter at zero.
        """
        if not self._keeps_hooks_of(TMNM):
            return super().replay(bounds, actions, granules, queries)
        bounds, actions, granules, queries = event_columns(
            bounds, actions, granules, queries)
        deltas = _np.where(actions == REPLACE, -1, 1)
        rows = _np.arange(queries.shape[0])
        answers = _np.zeros(queries.shape[0], dtype=bool)
        finals = []
        for table in self.tables:
            stream = CounterStream(table.counts, table.slots_of(granules),
                                   deltas, bounds, table.counter_max)
            if not stream.exact:
                return super().replay(bounds, actions, granules, queries)
            answers |= stream.at(table.slots_of(queries), rows) == 0
            finals.append((table, stream.final_slots, stream.final_values))
        for table, slots, values in finals:
            table.counts[slots] = values
        return answers

    @property
    def storage_bits(self) -> int:
        return sum(t.storage_bits for t in self.tables)

    @property
    def name(self) -> str:
        """``TMNM_{N}x{replication}``, then ``w{bits}`` for a counter
        width other than 3 and ``@{offsets}`` for slice offsets other than
        the default ones — a name per configuration."""
        width = ("" if self.counter_bits == COUNTER_BITS
                 else f"w{self.counter_bits}")
        offsets = offsets_suffix(
            [table.bit_offset for table in self.tables])
        return f"TMNM_{self.index_bits}x{self.replication}{width}{offsets}"
