"""Replacements MNM (Section 3.1 of the paper).

The RMNM records the addresses of blocks *replaced from* the caches.  If a
block was replaced from cache *i* and has not re-entered it since, an access
to that block provably misses in cache *i*.  Cold misses are invisible to
the RMNM (a never-resident block was never replaced), which is why its
coverage collapses on cold-miss-dominated applications (Figure 10).

The paper uses a **single RMNM cache shared by every tracked cache level**:
a small set-associative cache addressed by granule block addresses whose
"data" is one bit per tracked cache — bit *i* set means "replaced from
cache *i*, not placed back since", i.e. a definite miss at that cache.
Each set is LRU, and only a replacement touches its order.

Soundness notes:

* An RMNM entry is *created* only by a replacement event; placements clear
  bits of an existing entry.  Losing an entry to RMNM-cache eviction loses
  coverage, never soundness.
* Caches with blocks larger than the granule fire one event per covered
  granule (``block/granule`` RMNM updates, as in the paper).

The scalar hooks (:meth:`RMNMCache.record_replace`,
:meth:`RMNMCache.record_place`) are the interpreter's path and the oracle
of :meth:`RMNMCache.replay`, which applies a whole event stream in batch
for the record/replay kernel (pinned by ``tests/core/test_replay.py``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as _np

from repro.addresses import is_power_of_two
from repro.core.base import REPLACE, MissFilter, event_columns


#: Flags of a replay timeline item's code, below its lane (-1: an eviction).
_BOUNDARY, _SETS = 1, 2


# repro: allow[R006] the lanes' shared cache, not a wireable filter; its replay's oracle is its own record_replace, record_place and replaced_bits_of, pinned by tests/core/test_replay.py
class RMNMCache:
    """The shared replacement-record cache.

    Each set maps a granule to its replaced-bit word, in LRU order (oldest
    first): a replacement makes its granule the most recent, and the
    oldest entry of a full set is evicted for a new one.  Placements and
    lookups leave the order alone.

    Args:
        num_blocks: total entries (``n`` in the paper's ``RMNM_n_m`` naming).
        associativity: ways per set (``m`` in ``RMNM_n_m``).
        num_lanes: how many caches share this RMNM (one bit lane each);
            the paper uses ``total caches - level-1 caches``.
    """

    def __init__(self, num_blocks: int, associativity: int,
                 num_lanes: int) -> None:
        if not is_power_of_two(num_blocks):
            raise ValueError(f"num_blocks must be a power of two, got {num_blocks}")
        if associativity < 1 or num_blocks % associativity != 0:
            raise ValueError(
                f"associativity {associativity} must divide num_blocks {num_blocks}"
            )
        if num_lanes < 1:
            raise ValueError(f"num_lanes must be >= 1, got {num_lanes}")
        self.num_blocks = num_blocks
        self.associativity = associativity
        self.num_lanes = num_lanes
        self.num_sets = num_blocks // associativity
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]

    @property
    def name(self) -> str:
        """Paper-style configuration name (``RMNM_{blocks}_{assoc}``)."""
        return f"RMNM_{self.num_blocks}_{self.associativity}"

    @property
    def storage_bits(self) -> int:
        """Tag + lane bits per entry (tags dominate; assume 32-bit addresses)."""
        index_bits = (self.num_sets - 1).bit_length()
        tag_bits = 32 - index_bits
        return self.num_blocks * (tag_bits + self.num_lanes)

    def _entries(self, granule_addr: int) -> Dict[int, int]:
        return self._sets[granule_addr & (self.num_sets - 1)]

    def is_replaced(self, granule_addr: int, lane: int) -> bool:
        """True if the granule is recorded as replaced-from cache ``lane``."""
        return bool(self.replaced_bits_of(granule_addr) >> lane & 1)

    def replaced_bits_of(self, granule_addr: int) -> int:
        """Current replaced-bit word of one granule (0 = no entry)."""
        return self._entries(granule_addr).get(granule_addr, 0)

    def replaced_bits_many(self, granule_addrs):
        """Replaced-bit words for a batch of granules (0 = no entry)."""
        sets = self._sets
        mask = self.num_sets - 1
        values = (sets[g & mask].get(g, 0)
                  for g in (granule_addrs.tolist()
                            if isinstance(granule_addrs, _np.ndarray)
                            else granule_addrs))
        return _np.fromiter(values, dtype=_np.int64, count=len(granule_addrs))

    def record_replace(self, granule_addr: int, lane: int) -> None:
        """Record a replacement; may evict another RMNM entry (coverage loss)."""
        entries = self._entries(granule_addr)
        bits = entries.pop(granule_addr, None)
        if bits is None:
            bits = 0
            if len(entries) == self.associativity:
                del entries[next(iter(entries))]
        entries[granule_addr] = bits | 1 << lane

    def record_place(self, granule_addr: int, lane: int) -> None:
        """A granule entered cache ``lane``: clear its replaced bit if recorded."""
        entries = self._entries(granule_addr)
        bits = entries.get(granule_addr)
        if bits is not None:
            entries[granule_addr] = bits & ~(1 << lane)

    def replay(self, bounds, lanes, actions, granules, queries):
        """Apply a stream of lane events, answering the queries interleaved
        with it.

        ``queries`` holds one granule per row.  Event ``i`` is
        ``actions[i]`` on granule ``granules[i]`` in lane ``lanes[i]``:
        :data:`~repro.core.base.REPLACE` reaches :meth:`record_replace`,
        a placement or an invalidation :meth:`record_place`.  It is
        applied once rows ``[0, bounds[i])`` are answered; bounds never
        decrease.  Returns each row's replaced-bit word as an int64 array
        and leaves every set with the granules, LRU order and bits that
        the scalar hooks, its oracle, would leave.

        Only replacements touch the LRU order, so one pass of them over
        the sets gives which replacements create an entry and which
        granule each one evicts.  A granule's *timeline* (its events and
        its evictions, in event order) then splits into incarnations, each
        from the replacement that creates its entry to the entry's
        eviction; within one, lane ``L``'s bit is set exactly when the
        lane's latest event is a replacement.  A row's word is its
        granule's word after the last timeline item the row sees.
        """
        bounds, lanes, actions, granules, queries = event_columns(
            bounds, lanes, actions, granules, queries)
        sets = self._sets
        mask = self.num_sets - 1
        start = {granule: bits for entries in sets
                 for granule, bits in entries.items()}
        answers = (self.replaced_bits_many(queries) if start
                   else _np.zeros(queries.shape[0], dtype=_np.int64))
        if not granules.shape[0]:
            return answers

        # Residency: the replacements alone, over the sets.  A new entry's
        # bits are written once the words are known.
        replaces = _np.flatnonzero(actions == REPLACE)
        created: List[int] = []
        evicted_at: List[int] = []
        evicted: List[int] = []
        ways = self.associativity
        for event, granule in zip(replaces.tolist(),
                                  granules[replaces].tolist()):
            entries = sets[granule & mask]
            if granule in entries:
                entries[granule] = entries.pop(granule)
                continue
            if len(entries) == ways:
                victim = next(iter(entries))
                del entries[victim]
                evicted_at.append(event)
                evicted.append(victim)
            entries[granule] = 0
            created.append(event)

        # Words.  Items in event order (an eviction just before the event
        # that causes it, whose granule differs), stably sorted by granule.
        # An item's ``code`` is its lane and two flags: set (a
        # replacement) and boundary (it creates or evicts an entry).
        codes = lanes << 2
        codes[replaces] |= _SETS
        codes[created] |= _SETS | _BOUNDARY
        item_granules = _np.insert(granules, evicted_at, evicted)
        order = _np.argsort(item_granules, kind="stable")
        item_granules = item_granules[order]
        item_bounds = _np.insert(bounds, evicted_at, bounds[evicted_at])[order]
        item_codes = _np.insert(codes, evicted_at, -1 << 2 | _BOUNDARY)[order]
        count = item_granules.shape[0]
        positions = _np.arange(count)
        first = _np.empty(count, dtype=bool)
        first[0] = True
        _np.not_equal(item_granules[1:], item_granules[:-1], out=first[1:])
        heads = _np.flatnonzero(first)
        group = _np.cumsum(first) - 1
        head_of = heads[group]
        boundary = _np.maximum.accumulate(
            _np.where(item_codes & _BOUNDARY, positions, -1))
        # Whether a boundary of its own granule precedes (or is) an item;
        # before the first one the granule is in its starting incarnation.
        moved = boundary >= head_of
        resident = moved & (item_codes[boundary] & _SETS != 0)
        incarnation = _np.maximum(boundary, head_of)
        item_lanes = item_codes >> 2
        uniq = item_granules[heads]
        if start:
            # A starting entry keeps each lane's starting bit until the
            # lane's first event.
            resident |= ~moved & _np.array(
                [granule in start for granule in uniq.tolist()])[group]
            initial = _np.array([start.get(granule, 0)
                                 for granule in uniq.tolist()],
                                dtype=_np.int64)[group]
        words = _np.zeros(count, dtype=_np.int64)
        for lane in range(self.num_lanes):
            last = _np.maximum.accumulate(
                _np.where(item_lanes == lane, positions, -1))
            ours = last >= incarnation
            bit = ours & (item_codes[last] & _SETS != 0)
            if start:
                bit |= ~ours & ~moved & (initial >> lane & 1 != 0)
            words |= bit.astype(_np.int64) << lane
        words[~resident] = 0

        # Rows: a row sees the items whose bound is at most its index.
        if queries.shape[0]:
            stride = max(queries.shape[0], int(bounds[-1])) + 1
            keys = group * stride + item_bounds
            rank = _np.minimum(_np.searchsorted(uniq, queries),
                               uniq.shape[0] - 1)
            position = _np.searchsorted(
                keys, rank * stride + _np.arange(queries.shape[0]),
                side="right") - 1
            seen = ((uniq[rank] == queries) & (position >= 0)
                    & (group[position] == rank))
            answers = _np.where(seen, words[position], answers)

        # Final state: the residency pass left every set's granules and
        # order; write the last word of each granule the stream left (an
        # entry the pass created already holds 0).
        tails = _np.append(heads[1:], count) - 1
        alive = resident[tails]
        if not start:
            alive &= words[tails] != 0
        for granule, bits in zip(uniq[alive].tolist(),
                                 words[tails][alive].tolist()):
            sets[granule & mask][granule] = bits
        return answers

    def flush_lane(self, lane: int) -> None:
        """Clear one cache's lane everywhere (that cache was flushed)."""
        keep = ~(1 << lane)
        for entries in self._sets:
            for granule, bits in entries.items():
                entries[granule] = bits & keep

    def flush(self) -> None:
        """Drop every entry."""
        for entries in self._sets:
            entries.clear()

    @property
    def occupancy(self) -> int:
        """Entries currently held."""
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        return f"RMNMCache(blocks={self.num_blocks}, assoc={self.associativity})"


class RMNMLane(MissFilter):
    """Per-cache view of a shared :class:`RMNMCache` (one bit lane)."""

    technique = "rmnm"

    def __init__(self, shared: RMNMCache, lane: int) -> None:
        if not 0 <= lane < shared.num_lanes:
            raise ValueError(
                f"lane {lane} out of range for an RMNM with {shared.num_lanes} lanes"
            )
        self.shared = shared
        self.lane = lane

    def is_definite_miss(self, granule_addr: int) -> bool:
        return self.shared.is_replaced(granule_addr, self.lane)

    def query_many(self, granule_addrs):
        """Extract this lane's bit from the shared batched lookup."""
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        bits = self.shared.replaced_bits_many(granules)
        return (bits >> self.lane) & 1 != 0

    def on_place(self, granule_addr: int) -> None:
        self.shared.record_place(granule_addr, self.lane)

    def on_replace(self, granule_addr: int) -> None:
        self.shared.record_replace(granule_addr, self.lane)

    def on_flush(self) -> None:
        self.shared.flush_lane(self.lane)

    @property
    def storage_bits(self) -> int:
        """The shared structure's bits, apportioned evenly across lanes."""
        return self.shared.storage_bits // self.shared.num_lanes

    @property
    def name(self) -> str:
        return f"{self.shared.name}[lane{self.lane}]"
