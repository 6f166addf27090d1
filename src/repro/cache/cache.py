"""A single set-associative cache with placement/replacement event hooks.

The MNM needs to observe two event streams from every cache (Section 2 of
the paper): the addresses of blocks *placed into* the cache (these travel
through the MNM anyway, since requests do) and the addresses of blocks
*replaced from* the cache (sent to the MNM on dedicated signals).
:class:`Cache` therefore exposes ``add_place_listener`` and
``add_replace_listener``; the hierarchy wires filters to them.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.addresses import (
    ADDRESS_SPACE,
    block_address,
    is_power_of_two,
    log2_exact,
    validate_address,
)
from repro.cache.replacement import ReplacementPolicy, make_policy


class AccessKind(enum.Enum):
    """What a memory reference is for.

    Instruction fetches go to the instruction side of split tiers, loads and
    stores to the data side; unified tiers serve all three.
    """

    INSTRUCTION = "instruction"
    LOAD = "load"
    STORE = "store"

    @property
    def is_data(self) -> bool:
        return self is not AccessKind.INSTRUCTION


class CacheSide(enum.Enum):
    """Which reference kinds a cache serves."""

    INSTRUCTION = "instruction"
    DATA = "data"
    UNIFIED = "unified"

    def serves(self, kind: AccessKind) -> bool:
        if self is CacheSide.UNIFIED:
            return True
        if self is CacheSide.INSTRUCTION:
            return kind is AccessKind.INSTRUCTION
        return kind.is_data


@dataclass(frozen=True)
class CacheConfig:
    """Static description of one cache.

    Attributes:
        name: human-readable identifier, e.g. ``"dl1"`` or ``"ul3"``.
        level: hierarchy level this cache sits at (1-based).
        size_bytes: total capacity.
        associativity: ways per set (1 = direct-mapped).
        block_size: line size in bytes.
        hit_latency: cycles to return data on a hit.
        miss_latency: cycles to *detect* a miss; defaults to ``hit_latency``
            (a full lookup is needed to know the block is absent), matching
            ``cache_miss_time`` in Equation 1 of the paper.
        side: instruction/data/unified.
        ports: number of access ports (used by the power model).
        replacement: replacement policy name (see ``repro.cache.replacement``).
    """

    name: str
    level: int
    size_bytes: int
    associativity: int
    block_size: int
    hit_latency: int
    miss_latency: Optional[int] = None
    side: CacheSide = CacheSide.UNIFIED
    ports: int = 1
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if not is_power_of_two(self.size_bytes):
            raise ValueError(f"size_bytes must be a power of two, got {self.size_bytes}")
        if not is_power_of_two(self.block_size):
            raise ValueError(f"block_size must be a power of two, got {self.block_size}")
        if self.associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {self.associativity}")
        if self.size_bytes % (self.block_size * self.associativity) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"block_size*associativity = {self.block_size * self.associativity}"
            )
        if self.hit_latency < 1:
            raise ValueError(f"hit_latency must be >= 1, got {self.hit_latency}")
        if self.miss_latency is not None and self.miss_latency < 0:
            raise ValueError(f"miss_latency must be >= 0, got {self.miss_latency}")
        if self.ports < 1:
            raise ValueError(f"ports must be >= 1, got {self.ports}")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity

    @property
    def index_bits(self) -> int:
        return log2_exact(self.num_sets)

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.block_size)

    @property
    def effective_miss_latency(self) -> int:
        """Cycles to detect a miss (``cache_miss_time`` in Equation 1)."""
        return self.hit_latency if self.miss_latency is None else self.miss_latency

    def describe(self) -> str:
        """One-line human-readable summary, e.g. ``dl1: 4KB 1-way 32B 2cyc``."""
        size = self.size_bytes
        if size % (1024 * 1024) == 0:
            size_str = f"{size // (1024 * 1024)}MB"
        elif size % 1024 == 0:
            size_str = f"{size // 1024}KB"
        else:
            size_str = f"{size}B"
        return (
            f"{self.name}: {size_str} {self.associativity}-way "
            f"{self.block_size}B {self.hit_latency}cyc"
        )


@dataclass
class CacheStats:
    """Per-cache access counters."""

    probes: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all probes (0.0 when the cache was never probed)."""
        return self.hits / self.probes if self.probes else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.probes if self.probes else 0.0

    def reset(self) -> None:
        self.probes = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0


PlaceListener = Callable[["Cache", int], None]
ReplaceListener = Callable[["Cache", int], None]


class Cache:
    """A set-associative cache storing block addresses (no data payloads).

    Addresses handed to :meth:`probe`/:meth:`fill` are **byte** addresses;
    the cache derives its own block addresses.  Listener callbacks receive
    *this cache's* block addresses (at this cache's block granularity); the
    MNM re-maps them to its own granule via
    :class:`repro.addresses.BlockMapper`.

    State is flat and per *slot* (``slot = set_index * associativity +
    way``): one ``block -> way`` dict (ways are small cached ints, so it
    holds no per-block int objects), a ``slot -> block`` array and a dirty
    bytearray.  A set hands out its never-filled ways in ascending
    order; ways freed by :meth:`invalidate_range` go on the set's free
    list (built on first use) and are reused first, latest first.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self.policy: ReplacementPolicy = make_policy(
            config.replacement, config.num_sets, config.associativity
        )
        self._place_listeners: List[PlaceListener] = []
        self._replace_listeners: List[ReplaceListener] = []
        #: Dirty state of the most recent eviction returned by :meth:`fill`
        #: (the hierarchy reads this to drive writebacks).
        self.last_evicted_dirty: bool = False
        self._offset_bits = config.offset_bits
        self._set_mask = config.num_sets - 1
        self._assoc = config.associativity
        self._reset_slots()

    def _reset_slots(self) -> None:
        config = self.config
        self._way_of: Dict[int, int] = {}
        # Block addresses fit 32 bits: addresses are validated to.
        self._block_at = array("I", bytes(4 * config.num_blocks))
        self._dirty = bytearray(config.num_blocks)
        self._untouched: List[int] = [0] * config.num_sets
        self._free: Dict[int, List[int]] = {}

    # ---------------------------------------------------------------- events

    def add_place_listener(self, listener: PlaceListener) -> None:
        """Register a callback fired with ``(cache, block_addr)`` on each fill."""
        self._place_listeners.append(listener)

    def add_replace_listener(self, listener: ReplaceListener) -> None:
        """Register a callback fired with ``(cache, block_addr)`` on each eviction."""
        self._replace_listeners.append(listener)

    # ------------------------------------------------------------- addressing

    def block_addr(self, address: int) -> int:
        """Block address (tag ++ index) of a byte address for this cache."""
        return block_address(address, self.config.block_size)

    def set_index(self, blk: int) -> int:
        """Set number a block address maps to."""
        return blk & self._set_mask

    def tag(self, blk: int) -> int:
        """Tag portion of a block address."""
        return blk >> self.config.index_bits

    # ----------------------------------------------------------------- state

    def contains(self, address: int) -> bool:
        """True if the block holding ``address`` is resident (no state change)."""
        return self.block_addr(address) in self._way_of

    def contains_block(self, blk: int) -> bool:
        """Like :meth:`contains` but takes a block address directly."""
        return blk in self._way_of

    def way_of_block(self, blk: int) -> Optional[int]:
        """The way holding block address ``blk``, or None if not resident."""
        return self._way_of.get(blk)

    def resident_blocks(self) -> List[int]:
        """All resident block addresses, by set, each set in fill order."""
        # The dict is in fill order; a stable sort by set keeps it per set.
        return sorted(self._way_of, key=self.set_index)

    @property
    def occupancy(self) -> int:
        """Number of blocks currently resident."""
        return len(self._way_of)

    # ---------------------------------------------------------------- access

    def probe(self, address: int, *, write: bool = False) -> bool:
        """Look up ``address``; return True on hit.

        A hit refreshes replacement state (and sets the dirty bit on a
        write); a miss only counts statistics — filling is a separate,
        explicit :meth:`fill` so that the hierarchy controls the refill
        path.
        """
        if not 0 <= address < ADDRESS_SPACE:
            validate_address(address)
        blk = address >> self._offset_bits
        stats = self.stats
        stats.probes += 1
        way = self._way_of.get(blk)
        if way is None:
            stats.misses += 1
            return False
        stats.hits += 1
        set_index = blk & self._set_mask
        if write:
            self._dirty[set_index * self._assoc + way] = 1
        self.policy.on_hit(set_index, way)
        return True

    def fill(self, address: int, *, dirty: bool = False) -> Optional[int]:
        """Bring the block of ``address`` in; return the evicted block address.

        Filling a block that is already resident refreshes its replacement
        state without firing events.  Returns the *block address* (this
        cache's granularity) of the victim, or None if no eviction happened.
        """
        if not 0 <= address < ADDRESS_SPACE:
            validate_address(address)
        blk = address >> self._offset_bits
        set_index = blk & self._set_mask
        base = set_index * self._assoc
        way_of = self._way_of
        way = way_of.get(blk)
        if way is not None:
            if dirty:
                self._dirty[base + way] = 1
            self.policy.on_fill(set_index, way)
            return None

        stats = self.stats
        evicted: Optional[int] = None
        self.last_evicted_dirty = False
        free = self._free.get(set_index) if self._free else None
        untouched = self._untouched[set_index]
        if free:
            way = free.pop()
            slot = base + way
        elif untouched < self._assoc:
            way = untouched
            self._untouched[set_index] = way + 1
            slot = base + way
        else:
            way = self.policy.victim(set_index)
            slot = base + way
            evicted = self._block_at[slot]
            del way_of[evicted]
            stats.evictions += 1
            if self._dirty[slot]:
                stats.dirty_evictions += 1
                self.last_evicted_dirty = True

        way_of[blk] = way
        self._block_at[slot] = blk
        self._dirty[slot] = 1 if dirty else 0
        stats.fills += 1
        self.policy.on_fill(set_index, way)

        # Fire replace before place: that is the hardware event order (the
        # victim leaves before the new block lands) and the order Table 1 of
        # the paper shows.
        if evicted is not None:
            for listener in self._replace_listeners:
                listener(self, evicted)
        for listener in self._place_listeners:
            listener(self, blk)
        return evicted

    def invalidate_range(self, base_address: int, size: int) -> int:
        """Invalidate every resident block overlapping ``[base, base+size)``.

        Fires replace events (an invalidation is a replacement as far as
        the MNM's bookkeeping is concerned — the block leaves the cache).
        Returns the number of blocks invalidated.  Used by the inclusive-
        hierarchy back-invalidation path.
        """
        first = self.block_addr(base_address)
        last = self.block_addr(base_address + max(size - 1, 0))
        count = 0
        for blk in range(first, last + 1):
            way = self._way_of.pop(blk, None)
            if way is None:
                continue
            set_index = blk & self._set_mask
            self._dirty[set_index * self._assoc + way] = 0
            self._free.setdefault(set_index, []).append(way)
            self.stats.evictions += 1
            count += 1
            for listener in self._replace_listeners:
                listener(self, blk)
        return count

    def flush(self) -> None:
        """Empty the cache and reset replacement state (stats are kept)."""
        self._reset_slots()
        self.policy.reset()

    def __repr__(self) -> str:
        return f"Cache({self.config.describe()})"
