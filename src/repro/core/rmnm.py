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

Soundness notes:

* An RMNM entry is *created* only by a replacement event; placements clear
  bits of an existing entry.  Losing an entry to RMNM-cache eviction loses
  coverage, never soundness.
* Caches with blocks larger than the granule fire one event per covered
  granule (``block/granule`` RMNM updates, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as _np

from repro.addresses import is_power_of_two
from repro.cache.replacement import make_policy
from repro.core.base import MissFilter


@dataclass
class _RMNMEntry:
    """One RMNM cache line: a granule address plus a replaced-bit vector."""

    granule_addr: int
    replaced_bits: int = 0


class RMNMCache:
    """The shared replacement-record cache.

    Args:
        num_blocks: total entries (``n`` in the paper's ``RMNM_n_m`` naming).
        associativity: ways per set (``m`` in ``RMNM_n_m``).
        num_lanes: how many caches share this RMNM (one bit lane each);
            the paper uses ``total caches - level-1 caches``.
        replacement: victim policy for the RMNM cache itself.
    """

    def __init__(
        self,
        num_blocks: int,
        associativity: int,
        num_lanes: int,
        replacement: str = "lru",
    ) -> None:
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
        self._sets: List[Dict[int, _RMNMEntry]] = [dict() for _ in range(self.num_sets)]
        self._ways: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._free: List[List[int]] = [
            list(range(associativity - 1, -1, -1)) for _ in range(self.num_sets)
        ]
        self._policy = make_policy(replacement, self.num_sets, associativity)
        # Monotone state-version counter driving the batched-query memo.
        self._version = 0
        self._bits_memo: Optional[tuple] = None

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

    def _set_index(self, granule_addr: int) -> int:
        return granule_addr & (self.num_sets - 1)

    def _lookup(self, granule_addr: int) -> Optional[_RMNMEntry]:
        return self._sets[self._set_index(granule_addr)].get(granule_addr)

    def is_replaced(self, granule_addr: int, lane: int) -> bool:
        """True if the granule is recorded as replaced-from cache ``lane``."""
        entry = self._lookup(granule_addr)
        return entry is not None and bool(entry.replaced_bits >> lane & 1)

    def replaced_bits_of(self, granule_addr: int) -> int:
        """Current replaced-bit word of one granule (0 = no entry)."""
        entry = self._lookup(granule_addr)
        return 0 if entry is None else entry.replaced_bits

    def replaced_bits_many(self, granule_addrs):
        """Replaced-bit vectors for a batch of granules (0 = no entry).

        Memoized on ``(state version, input identity)``: every lane of a
        batched :meth:`RMNMLane.query_many` fan-out passes the *same*
        granule array, so the dict walk runs once per batch, not once per
        lane.  The memo holds a reference to the key array, keeping its
        ``id`` stable for the lifetime of the cached result.
        """
        memo = self._bits_memo
        if (memo is not None and memo[0] == self._version
                and memo[1] is granule_addrs):
            return memo[2]
        sets = self._sets
        mask = self.num_sets - 1
        values = (
            0 if (entry := sets[g & mask].get(g)) is None
            else entry.replaced_bits
            for g in (granule_addrs.tolist()
                      if isinstance(granule_addrs, _np.ndarray)
                      else granule_addrs)
        )
        bits = _np.fromiter(values, dtype=_np.int64, count=len(granule_addrs))
        self._bits_memo = (self._version, granule_addrs, bits)
        return bits

    def record_replace(self, granule_addr: int, lane: int) -> None:
        """Record a replacement; may evict another RMNM entry (coverage loss)."""
        self._version += 1
        set_index = self._set_index(granule_addr)
        entries = self._sets[set_index]
        ways = self._ways[set_index]
        entry = entries.get(granule_addr)
        if entry is None:
            free = self._free[set_index]
            if free:
                way = free.pop()
            else:
                way = self._policy.victim(set_index)
                victim = next(g for g, w in ways.items() if w == way)
                del entries[victim]
                del ways[victim]
            entry = _RMNMEntry(granule_addr)
            entries[granule_addr] = entry
            ways[granule_addr] = way
        else:
            way = ways[granule_addr]
        entry.replaced_bits |= 1 << lane
        self._policy.on_fill(set_index, way)

    def record_place(self, granule_addr: int, lane: int) -> None:
        """A granule entered cache ``lane``: clear its replaced bit if recorded."""
        entry = self._lookup(granule_addr)
        if entry is not None:
            self._version += 1
            entry.replaced_bits &= ~(1 << lane)

    def flush_lane(self, lane: int) -> None:
        """Clear one cache's lane everywhere (that cache was flushed)."""
        self._version += 1
        for entries in self._sets:
            for entry in entries.values():
                entry.replaced_bits &= ~(1 << lane)

    def flush(self) -> None:
        """Drop every entry."""
        self._version += 1
        for set_index in range(self.num_sets):
            self._sets[set_index].clear()
            self._ways[set_index].clear()
            self._free[set_index] = list(range(self.associativity - 1, -1, -1))
        self._policy.reset()

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
