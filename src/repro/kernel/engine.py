"""Record/replay kernel: the fast implementation of every simulation kind.

The interpreter in :mod:`repro.simulate` walks every reference through
every design's filters one at a time.  This kernel restructures the same
computation into three phases so the per-reference Python overhead is paid
once, not once per design:

**Phase A (record, :func:`record`, :func:`record_multicore`).**  Leave
the real :class:`~repro.cache.hierarchy.CacheHierarchy` (or
:class:`~repro.multicore.hierarchy.MulticoreHierarchy`) in the state the
interpreter's walk of the reference stream leaves it (warm-up and the
statistics resets included), and record what that walk's tracked caches
fire instead of feeding filter listeners.  :func:`record` simulates one
cache at a time, not one reference at a time: each cache runs once over
its own accesses, the references that missed every closer cache on their
side, in stream order.  That is exact because the recorded hierarchy is
non-inclusive and writes nothing back, so a cache's state depends on its
own accesses only.  A direct-mapped level 1 (the paper's 4 KB L1s) is
computed in numpy — an access hits when the previous access to its set
was to the same block; every other cache runs a probe-and-fill loop that
drives its own replacement policy.  The tracked caches' misses and
victims become place and replace events, sorted once into the walk's
firing order.  :func:`record_multicore` walks the interleaved stream with
recording listeners, since peers' coherence invalidations tie the caches
together.  The result is flat integer arrays: per reference the address,
access-kind code and supplier code (and the issuing core), and per event
the reference ordinal, cache and block of the ordered place/replace
stream each cache produced (and the active core).

**Phase B (replay, :class:`Replay`).**  For each design, build a real
:class:`~repro.core.machine.MostlyNoMachine` (or
:class:`~repro.multicore.mnm.MulticoreMNM`) on the recorded hierarchy,
which is never accessed again, and replay the recorded events against its
filter banks.  A non-RMNM component takes its bank's whole event stream
(warm-up first) and query rows in one
:meth:`~repro.core.base.MissFilter.replay` call.  The default applies
each event through the scalar hooks and, since filter state only
changes at events, answers each segment between two events with one
vectorized :meth:`~repro.core.base.MissFilter.query_many` call; TMNM,
SMNM and CMNM override it with numpy replays of their counters,
flip-flops and finder, which the default loop pins as their oracle.  An
RMNM is an LRU cache of replaced granules whose order only replacements
touch: it replays once per geometry and owner domain, over the domain's
event stream less the events of granules the domain never replaces
(prepared once for every geometry), with
:meth:`~repro.core.rmnm.RMNMCache.replay` — one pass of the
replacements over its sets, then one search per row — and each lane's
bits are then extracted vectorially.

**Phase C (account, :class:`Accounting`).**  Timing, energy and coverage
depend only on the (kind, supplier, miss-bit pattern) equivalence class of
a reference, so the models run once per *class*: latencies fold with
``bincount`` dot products, and each present class's count goes to the
coverage meter, the energy accountant and the telemetry buffer in one
call each.  The accountant itself counts classes and prices each once
(:class:`~repro.power.energy.EnergyAccountant`), so the kernel's energy
floats are the interpreter's whatever order the references came in.

:func:`run_reference_pass_fast` composes the phases for many designs over
a reference stream; :func:`repro.simulate.run_core_trace` composes them
for one design over the out-of-order core's stream, then times the core
against the resulting latencies; :func:`run_multicore_pass_fast` composes
them for many designs over an interleaved multicore walk, folding
coverage only.  The interpreter is the oracle: every
number the kernel returns — ints, floats, telemetry counters — must equal
it exactly, which CI pins by byte-comparing full reports between
``--engine interp`` and ``--engine fast``.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as _np

from repro.addresses import log2_exact
from repro.analysis.coverage import CoverageMeter
from repro.cache.cache import AccessKind, Cache, CacheConfig, CacheSide
from repro.cache.hierarchy import AccessOutcome, CacheHierarchy, HierarchyConfig
from repro.cache.replacement import RandomPolicy
from repro.core.base import (
    INVALIDATE,
    PLACE,
    REPLACE,
    MissFilter,
)
from repro.core.hybrid import CompositeFilter, components_of
from repro.core.machine import Bank, MNMDesign, MostlyNoMachine
from repro.core.rmnm import RMNMLane
from repro.multicore.config import MulticoreConfig
from repro.multicore.hierarchy import MulticoreHierarchy
from repro.multicore.mnm import MulticoreMNM
from repro.multicore.schedule import interleave
from repro.power.energy import EnergyAccountant, HierarchyEnergyModel
from repro.telemetry import get_registry

#: Access kinds by the integer code the recording stores.
KINDS: Tuple[AccessKind, ...] = (AccessKind.INSTRUCTION, AccessKind.LOAD,
                                 AccessKind.STORE)
#: Each kind's code, keyed by the member's ``id`` (see reference_columns).
_KIND_CODES: Dict[int, int] = {id(kind): code for code, kind in enumerate(KINDS)}


# ---------------------------------------------------------------------------
# Phase A: record
# ---------------------------------------------------------------------------

class Recording:
    """One simulation of a hierarchy over a stream, in flat integer arrays.

    Attributes:
        hierarchy: the simulated hierarchy, in the state the walk of every
            reference through it leaves (its statistics are the run's): a
            :class:`~repro.cache.hierarchy.CacheHierarchy`, or a
            :class:`~repro.multicore.hierarchy.MulticoreHierarchy` for a
            multicore walk.
        tracked: ``(tier, cache)`` of every cache at tier 2 or beyond.
        count: recorded references (the warm-up prefix excluded).
        seen: references consumed, warm-up prefix included.
        addresses / kinds / suppliers: per recorded reference, the byte
            address, the :data:`KINDS` code and the supplying tier (0 for
            main memory).
        event_ordinals / event_codes / event_blocks: per tracked-cache
            event, in the walk's firing order (by reference, farthest tier
            first, a replacement before the placement it makes room for):
            the recorded reference that caused it (-1 during the warm-up
            prefix), ``2 * tracked_index + is_place`` and the cache's block
            address.
        cores / event_cores: multicore walks only (empty otherwise): per
            recorded reference the issuing core, and per event the
            hierarchy's active core when it fired.
    """

    __slots__ = ("hierarchy", "tracked", "count", "seen", "addresses",
                 "kinds", "suppliers", "event_ordinals", "event_codes",
                 "event_blocks", "cores", "event_cores")

    def __init__(self, hierarchy: Union[CacheHierarchy, MulticoreHierarchy],
                 tracked: List[Tuple[int, Cache]], cores: int = 1) -> None:
        self.hierarchy = hierarchy
        self.tracked = tracked
        self.count = 0
        self.seen = 0
        # Compact columns: addresses and blocks fit 32 bits (addresses are
        # validated to), ordinals 31 (fewer than 2**31 references), kinds
        # and suppliers a byte.  Core columns are as wide as the core count
        # needs (it has no upper bound).
        self.addresses = array("I")
        self.kinds = array("b")
        self.suppliers = array("b")
        self.event_ordinals = array("i")
        self.event_codes = array("i")
        self.event_blocks = array("I")
        core_code = "b" if cores <= 1 << 7 else "h" if cores <= 1 << 15 else "i"
        self.cores = array(core_code)
        self.event_cores = array(core_code)


def _listen(recording: Recording, current: List[int],
            multicore: MulticoreHierarchy) -> None:
    """Register the recording listeners on every tracked cache.

    ``current[0]`` is the recorded ordinal of the in-flight access (-1
    during the warm-up).  Each event also records the ``multicore``
    hierarchy's active core.  Registered after the listeners the
    hierarchy registers itself (the inclusive back-invalidators), the
    recorded event order is the order a filter listener sees.
    """
    ordinals = recording.event_ordinals
    codes = recording.event_codes
    blocks = recording.event_blocks
    event_cores = recording.event_cores

    def _recording_listener(code: int):
        def listener(_cache: Cache, block: int) -> None:
            ordinals.append(current[0])
            codes.append(code)
            blocks.append(block)
            event_cores.append(multicore.active_core)

        return listener

    for index, (_tier, cache) in enumerate(recording.tracked):
        cache.add_replace_listener(_recording_listener(2 * index))
        cache.add_place_listener(_recording_listener(2 * index + 1))


def reference_columns(
    references: Iterable[Tuple[int, AccessKind]],
) -> Tuple[array, array]:
    """``(addresses, kinds)`` columns of a reference stream, for :func:`record`.

    Addresses become 32-bit unsigned ints and kinds their :data:`KINDS`
    codes.  A malformed reference raises what the walk (unpacking it, then
    :meth:`~repro.cache.hierarchy.CacheHierarchy.access`) raises for it,
    at the first one: the unpacking error for one that is not an
    ``(address, kind)`` pair, ``KeyError(kind)`` for a kind that is not an
    :class:`AccessKind`, ``ValueError`` for an address outside the 32-bit
    space, ``TypeError`` for one that is not an integer.
    """
    if not isinstance(references, (list, tuple)):
        references = list(references)
    try:
        addresses = array("I", [address for address, _kind in references])
        # Kinds are coded by identity: hashing an Enum member runs Python
        # code, and any other object maps to None, which ``array`` rejects.
        kinds = array("b", map(_KIND_CODES.get,
                               map(id, map(itemgetter(1), references))))
    except (TypeError, ValueError, OverflowError):
        _reject(references)
        raise
    return addresses, kinds


def _reject(references: Sequence[Tuple[int, AccessKind]]) -> None:
    """Raise what the walk raises at the first malformed reference."""
    probe = Cache(CacheConfig("check", 1, 1, 1, 1, 1)).probe
    for address, kind in references:
        if id(kind) not in _KIND_CODES:
            raise KeyError(kind)
        probe(address)  # the walk's own address check
        array("I", (address,))  # the recorded column's


def record(
    addresses: Sequence[int],
    kinds: Sequence[int],
    hierarchy_config: HierarchyConfig,
    warmup: int = 0,
    reset_at: int = 0,
) -> Recording:
    """Phase A: simulate a fresh hierarchy over a reference stream's columns.

    ``addresses`` (32-bit unsigned) and ``kinds`` (:data:`KINDS` codes)
    are the stream as :func:`reference_columns` or
    :func:`repro.cpu.core.core_references` build it.  The first ``warmup``
    references only warm the caches: they are not recorded (their events
    are, with ordinal -1, so filters can train on them), and the
    hierarchy's statistics restart once the prefix is complete.  When
    ``reset_at`` is positive the statistics also restart just before
    recorded reference ``reset_at`` (or after the last one, when it is the
    stream's length) — the full-system warm-up boundary, where queries
    continue but measurement starts.

    The result is the walk's: every reference through
    :meth:`~repro.cache.hierarchy.CacheHierarchy.access` in turn.  It is
    computed one cache at a time instead, which is exact because the
    hierarchy is non-inclusive and writes nothing back, so a cache's state
    depends only on its own accesses: the rows that missed every closer
    cache on their side, in stream order.  A direct-mapped level-1 cache
    is computed in numpy (:func:`_fill_direct_mapped`); every other cache
    runs its own probe-and-fill loop (:func:`_fill_in_order`).  A tracked
    cache's misses become its place events and its victims its replace
    events, sorted once into the walk's firing order; warm-up events keep
    ordinal -1, in walk order.  Every cache ends as the walk leaves it:
    statistics (counted from the last reset), contents, dirty bits (a
    store hit dirties its block at any tier, a store miss only at level
    1), ``last_evicted_dirty`` and replacement state.
    """
    hierarchy = CacheHierarchy(hierarchy_config)
    tracked = [(tier, cache) for tier, cache in hierarchy.all_caches()
               if tier >= 2]
    recording = Recording(hierarchy, tracked)

    addresses = _np.asarray(addresses)
    if addresses.dtype != _np.uint32:
        raise TypeError(f"record takes uint32 addresses, not "
                        f"{addresses.dtype}; see reference_columns")
    kinds = _np.asarray(kinds, dtype=_np.int8)
    total = addresses.shape[0]
    seen = min(max(warmup, 0), total)
    count = total - seen
    # Only the last statistics reset shows: at recorded reference
    # ``reset_at`` when the stream reaches it, else after a complete
    # warm-up prefix.
    if 0 < reset_at <= count:
        stats_from = seen + reset_at
    elif 0 < warmup <= total:
        stats_from = warmup
    else:
        stats_from = 0

    suppliers = _np.zeros(total, dtype=_np.int8)  # 0: main memory
    reaching = _np.ones(total, dtype=bool)  # missed every closer tier
    fetches = kinds == 0
    # Each event's sort key is its row times ``width`` plus its rank in
    # the row's firing order: farthest tier first, replace before place.
    width = 2 * hierarchy.num_tiers
    keys, codes, blocks = [], [], []
    index = 0
    for tier, cache in hierarchy.all_caches():
        config = cache.config
        if config.side is CacheSide.UNIFIED:
            rows = _np.flatnonzero(reaching)
        else:
            rows = _np.flatnonzero(
                reaching & (fetches == (config.side is CacheSide.INSTRUCTION)))
        accessed = addresses[rows] >> config.offset_bits
        stores = kinds[rows] == 2
        if tier == 1 and config.associativity == 1:
            hits = _fill_direct_mapped(cache, rows, accessed, stores,
                                       stats_from)
        else:
            hits, victims = _fill_in_order(cache, rows, accessed, stores,
                                           tier == 1, stats_from)
            if tier >= 2:
                missed = rows[~hits]
                evicting = victims >= 0
                rank = width - 2 * tier
                keys += (missed[evicting] * width + rank,
                         missed * width + rank + 1)
                codes += (_np.full(int(evicting.sum()), 2 * index),
                          _np.full(missed.shape[0], 2 * index + 1))
                blocks += (victims[evicting], accessed[~hits])
                index += 1
        supplied = rows[hits]
        suppliers[supplied] = tier
        reaching[supplied] = False

    if keys:
        event_keys = _np.concatenate(keys)
        order = _np.argsort(event_keys)
        event_rows = event_keys[order] // width
        for column, values in (
                (recording.event_ordinals, _np.maximum(event_rows - seen, -1)),
                (recording.event_codes, _np.concatenate(codes)[order]),
                (recording.event_blocks, _np.concatenate(blocks)[order])):
            column.frombytes(values.astype(column.typecode).tobytes())
    recording.addresses.frombytes(addresses[seen:].tobytes())
    recording.kinds.frombytes(kinds[seen:].tobytes())
    recording.suppliers.frombytes(suppliers[seen:].tobytes())
    recording.count = count
    recording.seen = total
    return recording


def _fill_direct_mapped(cache: Cache, rows: "_np.ndarray",
                        blocks: "_np.ndarray", stores: "_np.ndarray",
                        stats_from: int) -> "_np.ndarray":
    """Whether each of a fresh direct-mapped ``cache``'s accesses hits.

    ``rows`` are the accesses' stream positions (ascending), ``blocks``
    their block addresses and ``stores`` their write flags.  Grouped by
    set, an access hits when the previous access to its set was to the
    same block; a miss into a set that held a block evicts it, dirty when
    a store touched that block since it was filled (a store hit sets the
    dirty bit, a store miss fills the block dirty).
    """
    n = rows.shape[0]
    if n == 0:
        return _np.zeros(0, dtype=bool)
    sets = blocks & (cache.config.num_sets - 1)
    order = _np.argsort(sets, kind="stable")
    sets, blocks, stores, rows = (sets[order], blocks[order], stores[order],
                                  rows[order])
    same_set = _np.zeros(n, dtype=bool)
    same_set[1:] = sets[1:] == sets[:-1]
    hits = same_set.copy()
    hits[1:] &= blocks[1:] == blocks[:-1]
    misses = ~hits
    evictions = misses & same_set
    # A residency starts at each miss; it is dirty once any access in it
    # stores.  An eviction removes its set's previous residency.
    residency = _np.cumsum(misses) - 1
    dirty = _np.bincount(residency[stores], minlength=int(residency[-1]) + 1
                         ) > 0
    dirty_evictions = evictions & dirty[residency - 1]

    counted = rows >= stats_from
    stats = cache.stats
    stats.probes = int(counted.sum())
    stats.hits = int((hits & counted).sum())
    stats.misses = stats.fills = stats.probes - stats.hits
    stats.evictions = int((evictions & counted).sum())
    stats.dirty_evictions = int((dirty_evictions & counted).sum())

    # Final state: each set's last residency, entered into the block map in
    # fill order as the walk would have.
    miss_at = _np.flatnonzero(misses)
    last = _np.flatnonzero(_np.append(sets[1:] != sets[:-1], True))
    final = residency[last]
    by_fill = _np.argsort(rows[miss_at[final]])
    way_of = cache._way_of
    block_at = cache._block_at
    dirty_at = cache._dirty
    untouched = cache._untouched
    on_fill = cache.policy.on_fill
    for set_index, block, is_dirty in zip(sets[last][by_fill].tolist(),
                                          blocks[last][by_fill].tolist(),
                                          dirty[final][by_fill].tolist()):
        way_of[block] = 0
        block_at[set_index] = block
        dirty_at[set_index] = is_dirty
        untouched[set_index] = 1
        on_fill(set_index, 0)
    cache.last_evicted_dirty = bool(
        dirty_evictions[miss_at[_np.argmax(rows[miss_at])]])
    if isinstance(cache.policy, RandomPolicy):  # one draw per eviction
        for _ in range(int(evictions.sum())):
            cache.policy.victim(0)
    result = _np.empty(n, dtype=bool)
    result[order] = hits
    return result


def _fill_in_order(cache: Cache, rows: "_np.ndarray", blocks: "_np.ndarray",
                   stores: "_np.ndarray", dirty_fills: bool, stats_from: int
                   ) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Run a fresh ``cache`` over its accesses in stream order.

    ``rows``, ``blocks`` and ``stores`` are as for
    :func:`_fill_direct_mapped`.  Each access is the walk's probe and, on
    a miss, its fill: a hit refreshes the replacement state and a store
    hit dirties the block; a miss takes the set's next never-filled way,
    else the policy's victim, and fills the block dirty when it is a store
    and ``dirty_fills`` (level 1's rule).  The cache's own policy sees
    every ``on_hit``, ``on_fill`` and ``victim`` call the walk makes, so
    every policy ends in the walk's state, and so do the statistics
    (counted from row ``stats_from``) and ``last_evicted_dirty``.
    Returns whether each access hits, and each miss's victim block (-1:
    none).
    """
    way_of = cache._way_of
    block_at = cache._block_at
    dirty = cache._dirty
    untouched = cache._untouched
    policy = cache.policy
    on_hit, on_fill, choose = policy.on_hit, policy.on_fill, policy.victim
    ways = cache.config.associativity
    set_mask = cache.config.num_sets - 1
    hits = bytearray(rows.shape[0])
    victims = array("q")
    evicted_dirty = bytearray()
    for position, (block, store) in enumerate(zip(blocks.tolist(),
                                                  stores.tolist())):
        way = way_of.get(block)
        set_index = block & set_mask
        if way is not None:
            hits[position] = 1
            if store:
                dirty[set_index * ways + way] = 1
            on_hit(set_index, way)
            continue
        way = untouched[set_index]
        if way < ways:
            untouched[set_index] = way + 1
            slot = set_index * ways + way
            victims.append(-1)
            evicted_dirty.append(0)
        else:
            way = choose(set_index)
            slot = set_index * ways + way
            evicted = block_at[slot]
            del way_of[evicted]
            victims.append(evicted)
            evicted_dirty.append(dirty[slot])
        way_of[block] = way
        block_at[slot] = block
        dirty[slot] = store and dirty_fills
        on_fill(set_index, way)

    hit = _np.frombuffer(hits, dtype=bool)
    victim = _np.frombuffer(victims, dtype=_np.int64)
    dirty_victim = _np.frombuffer(evicted_dirty, dtype=bool)
    # Rows ascend, so the counted accesses and misses are suffixes.
    first = int(_np.searchsorted(rows, stats_from))
    first_miss = first - int(hit[:first].sum())
    stats = cache.stats
    stats.probes = hit.shape[0] - first
    stats.hits = int(hit[first:].sum())
    stats.misses = stats.fills = stats.probes - stats.hits
    stats.evictions = int((victim[first_miss:] >= 0).sum())
    stats.dirty_evictions = int(dirty_victim[first_miss:].sum())
    cache.last_evicted_dirty = bool(dirty_victim.shape[0]
                                    and dirty_victim[-1])
    return hit, victim


def record_multicore(
    streams: Sequence[Sequence[Tuple[int, AccessKind]]],
    hierarchy_config: HierarchyConfig,
    mc: MulticoreConfig,
    warmup: int = 0,
) -> Recording:
    """Phase A for a multicore pass: walk the interleaved per-core streams.

    ``mc``'s schedule decides the interleaving, exactly as in
    :func:`repro.simulate.run_multicore_pass`.  The first ``warmup``
    interleaved references only warm the caches (events recorded with
    ordinal -1), and the statistics and invalidation counters restart
    once the prefix is complete.  The tracked caches are the shared ones.
    """
    hierarchy = MulticoreHierarchy(hierarchy_config, mc)
    recording = Recording(hierarchy, list(hierarchy.shared_caches()),
                          mc.cores)
    current = [-1]
    _listen(recording, current, hierarchy)

    access = hierarchy.access
    nexts = [iter(stream).__next__ for stream in streams]
    order = interleave([len(stream) for stream in streams], mc.schedule,
                       mc.schedule_seed)
    seen = 0
    if warmup > 0:
        for core in islice(order, warmup):
            address, kind = nexts[core]()
            access(core, address, kind)
            seen += 1
        if seen == warmup:
            hierarchy.reset_stats()

    cores = recording.cores
    addresses = recording.addresses
    kinds = recording.kinds
    suppliers = recording.suppliers
    instruction, load, _store = KINDS
    count = 0
    for core in order:
        address, kind = nexts[core]()
        current[0] = count
        count += 1
        supplier = access(core, address, kind).supplier
        cores.append(core)
        addresses.append(address)
        kinds.append(0 if kind is instruction else 1 if kind is load else 2)
        suppliers.append(0 if supplier is None else supplier)
    recording.count = count
    recording.seen = seen + count
    return recording


# ---------------------------------------------------------------------------
# Phase B: replay
# ---------------------------------------------------------------------------

class Replay:
    """Per-design miss bits from a recording's event stream.

    A *bank* is a filter watching one tracked cache for one owner core,
    or for every core (owner None: the single-core machine's filters and
    a multicore pass's shared banks).  Its *rows* are the recorded
    references it answers: its owner's references of the kinds its cache
    serves.  Its *events* are its cache's, each a place or a replace — or
    an invalidate, when another core's access fired it.

    Filter state is a pure function of (configuration, event stream), so
    identically-configured components on the same bank — which recur
    constantly across the paper's design line-up (a TMNM size appears
    standalone *and* inside hybrids, placement variants share every
    filter) — share one replay.  The memo key includes the type, the
    paper-style name (which encodes the configuration: geometry, a
    non-default counter width, non-default slice offsets) and the storage
    bits as a defensive fingerprint.
    """

    def __init__(self, recording: Recording) -> None:
        self.recording = recording
        self.n = recording.count
        hierarchy = recording.hierarchy
        tracked = recording.tracked
        self.num_tiers = hierarchy.num_tiers
        granule = hierarchy.config.mnm_granule
        self.fanouts = [cache.config.block_size // granule
                        for _tier, cache in tracked]
        #: Each tracked cache's index in the recording's ``tracked``.
        self.index_of = {cache: index
                         for index, (_tier, cache) in enumerate(tracked)}
        addresses = _np.frombuffer(recording.addresses,
                                   dtype=recording.addresses.typecode)
        self.granules = (addresses >> log2_exact(granule)).astype(_np.int64)
        self._kinds = _np.frombuffer(recording.kinds,
                                     dtype=recording.kinds.typecode)
        self._cores = _np.frombuffer(recording.cores,
                                     dtype=recording.cores.typecode)
        # Kind codes each tracked cache serves; None: every kind (unified).
        self._serving: List[Optional[List[int]]] = []
        for _tier, cache in tracked:
            serving = [code for code, kind in enumerate(KINDS)
                       if cache.config.side.serves(kind)]
            self._serving.append(None if len(serving) == len(KINDS)
                                 else serving)
        self._rows: Dict[Tuple, Tuple[Optional["_np.ndarray"],
                                      "_np.ndarray"]] = {}

        # Events as (ordinal, tracked index, is_place, first granule).  A
        # query at recorded reference ``i`` sees state *before* reference
        # ``i``'s own events (the interpreter queries first, accesses
        # second), so an event at ordinal ``o`` bounds the rows with
        # ordinal <= o — ``searchsorted(..., side="right")``.
        # Event columns are zero-copy views; derived columns are built per
        # use, so a replay holds no per-event copies.
        self.event_ordinals = _np.frombuffer(
            recording.event_ordinals, dtype=recording.event_ordinals.typecode)
        self.event_codes = _np.frombuffer(
            recording.event_codes, dtype=recording.event_codes.typecode)
        self.event_blocks = _np.frombuffer(
            recording.event_blocks, dtype=recording.event_blocks.typecode)
        self.event_cores = _np.frombuffer(
            recording.event_cores, dtype=recording.event_cores.typecode)
        self._fanout_of = _np.array(self.fanouts, dtype=_np.int64)
        self.warm = int(_np.count_nonzero(self.event_ordinals < 0))

        self._component_answers: Dict[Tuple, "_np.ndarray"] = {}
        self._lane_answers: Dict[Tuple, "_np.ndarray"] = {}
        self._rmnm_events: Dict[Tuple, Tuple["_np.ndarray", ...]] = {}
        self._rmnm_bits: Dict[Tuple, "_np.ndarray"] = {}

    # -- rows and events --------------------------------------------------------

    def rows(self, cache_index: Optional[int], owner: Optional[int]
             ) -> Tuple[Optional["_np.ndarray"], "_np.ndarray"]:
        """``(rows, granules)`` a bank answers, ascending.

        ``rows`` None means every recorded reference.  ``cache_index``
        None means every kind: the rows of an RMNM domain.
        """
        key = (cache_index, owner)
        entry = self._rows.get(key)
        if entry is None:
            serving = (None if cache_index is None
                       else self._serving[cache_index])
            mask = None if serving is None else _np.isin(self._kinds, serving)
            if owner is not None:
                mine = self._cores == owner
                mask = mine if mask is None else mask & mine
            if mask is None:
                entry = (None, self.granules)
            else:
                rows = _np.flatnonzero(mask).astype(_np.int32)
                entry = (rows, self.granules[rows])
            self._rows[key] = entry
        return entry

    def _bounds(self, ordinals: "_np.ndarray", cache_index: Optional[int],
                owner: Optional[int]) -> "_np.ndarray":
        """Per event, how many of the bank's rows precede it."""
        rows, _granules = self.rows(cache_index, owner)
        if rows is None:
            return ordinals + 1
        return _np.searchsorted(rows, ordinals, side="right")

    def _actions(self, codes: "_np.ndarray",
                 event_cores: Optional["_np.ndarray"],
                 owner: Optional[int]) -> "_np.ndarray":
        """Per event, its ``is_place`` bit — or :data:`INVALIDATE` when
        ``owner``'s bank sees another core's event."""
        actions = codes & 1
        if owner is not None:
            actions[event_cores != owner] = INVALIDATE
        return actions

    def _domain_events(self, owner: Optional[int], lane_of: List[int]
                       ) -> Tuple["_np.ndarray", ...]:
        """An RMNM domain's ``(bounds, lanes, actions, granules)`` events.

        The domain's caches are those with a lane (``lane_of[index] >=
        0``); bounds count the domain's rows.  Warm-up events come first,
        with bound 0, and a block of ``fanout`` granules is that many
        events, in granule order.
        """
        codes = self.event_codes
        ordinals = self.event_ordinals
        blocks = self.event_blocks
        event_cores = self.event_cores if owner is not None else None
        caches = codes >> 1
        lanes = _np.asarray(lane_of)[caches]
        if min(lane_of) < 0:  # some tracked caches lie outside the domain
            mine = _np.flatnonzero(lanes >= 0)
            codes, ordinals, blocks, caches, lanes = (
                codes[mine], ordinals[mine], blocks[mine], caches[mine],
                lanes[mine])
            if event_cores is not None:
                event_cores = event_cores[mine]
        bounds = self._bounds(ordinals, None, owner)
        actions = self._actions(codes, event_cores, owner)
        fanouts = self._fanout_of[caches]
        granules = blocks.astype(_np.int64) * fanouts
        if granules.shape[0] and fanouts.max() > 1:
            each = _np.repeat(_np.arange(granules.shape[0]), fanouts)
            starts = _np.cumsum(fanouts) - fanouts
            granules = granules[each] + _np.arange(each.shape[0]) - starts[each]
            bounds, lanes, actions = bounds[each], lanes[each], actions[each]
        return bounds, lanes, actions, granules

    # -- replays ----------------------------------------------------------------

    def _replay_component(self, cache_index: int, owner: Optional[int],
                          component: MissFilter, lone: bool) -> "_np.ndarray":
        """One filter's answers on its bank's rows, from
        :meth:`~repro.core.base.MissFilter.replay` over the bank's events.

        Warm-up events come first, with bound 0 (their ordinal is -1).
        Another core's event reaches a ``lone`` filter as an invalidate and
        any other component as a place, as the interpreter's listeners
        dispatch it.  A block of ``fanout`` granules is that many events,
        in granule order.
        """
        mine = _np.flatnonzero((self.event_codes >> 1) == cache_index)
        actions = self._actions(
            self.event_codes[mine],
            self.event_cores[mine] if owner is not None else None, owner)
        if not lone:
            actions[actions == INVALIDATE] = PLACE
        bounds = self._bounds(self.event_ordinals[mine], cache_index, owner)
        fanout = self.fanouts[cache_index]
        granules = self.event_blocks[mine].astype(_np.int64) * fanout
        if fanout > 1:
            bounds = _np.repeat(bounds, fanout)
            actions = _np.repeat(actions, fanout)
            granules = (_np.repeat(granules, fanout)
                        + _np.tile(_np.arange(fanout), mine.shape[0]))
        _rows, bank_granules = self.rows(cache_index, owner)
        return component.replay(bounds, actions, granules, bank_granules)

    def _replay_rmnm(self, rmnm, owner: Optional[int],
                     lane_of: List[int]) -> "_np.ndarray":
        """Replaced-bit words of one RMNM domain, per row of the domain.

        The RMNM sees its domain's events in global order (its eviction
        decisions depend on the interleaving), so it replays over them
        once, in :meth:`~repro.core.rmnm.RMNMCache.replay`; lanes then
        extract their bit vectorially.  Another core's event is a
        placement: :class:`RMNMLane` keeps the default downgrade, which
        is its ``on_place``.  The machine's RMNM starts empty and only a
        replace creates an entry, so the events of granules the domain
        never replaces change nothing and are left out; what is left is
        prepared once per owner and lane layout, for every geometry.
        """
        key = (owner, tuple(lane_of))
        events = self._rmnm_events.get(key)
        if events is None:
            events = self._domain_events(owner, lane_of)
            _bounds, _lanes, actions, granules = events
            keep = _np.isin(granules, granules[actions == REPLACE])
            events = tuple(column[keep] for column in events)
            self._rmnm_events[key] = events
        _rows, granules = self.rows(None, owner)
        return rmnm.replay(*events, granules)

    def _lane(self, cache_index: int, owner: Optional[int],
              component: RMNMLane, lane_of: List[int]) -> "_np.ndarray":
        rmnm = component.shared
        domain = ((rmnm.num_blocks, rmnm.associativity), owner,
                  tuple(lane_of))
        key = (domain, cache_index)
        answers = self._lane_answers.get(key)
        if answers is None:
            replaced = self._rmnm_bits.get(domain)
            if replaced is None:
                replaced = self._replay_rmnm(rmnm, owner, lane_of)
                self._rmnm_bits[domain] = replaced
            domain_rows, _granules = self.rows(None, owner)
            rows, _granules = self.rows(cache_index, owner)
            if rows is None:
                lane_bits = replaced
            elif domain_rows is None:
                lane_bits = replaced[rows]
            else:
                lane_bits = replaced[_np.searchsorted(domain_rows, rows)]
            answers = (lane_bits >> component.lane) & 1 != 0
            self._lane_answers[key] = answers
        return answers

    def _component(self, cache_index: int, owner: Optional[int],
                   component: MissFilter, lone: bool,
                   lane_of: Optional[List[int]]) -> "_np.ndarray":
        """One component's answers on its bank's rows (memoised).

        Another core's event reaches a ``lone`` filter (the bank's whole
        filter) as its own ``on_invalidate``.  A composite keeps the
        default downgrade — its ``on_invalidate`` is its ``on_place`` —
        so the event reaches each component as ``on_place``.
        """
        if isinstance(component, RMNMLane):
            return self._lane(cache_index, owner, component, lane_of)
        # Only a private bank sees another core's events, so only there
        # can ``lone`` matter (when the component overrides on_invalidate).
        key = (cache_index, owner, owner is not None and lone,
               type(component).__name__, component.name,
               component.storage_bits)
        answers = self._component_answers.get(key)
        if answers is None:
            answers = self._replay_component(cache_index, owner, component,
                                             lone)
            self._component_answers[key] = answers
        return answers

    def bank_bits(self, banks: Sequence[Bank]) -> "_np.ndarray":
        """``(count, num_tiers)`` miss bits of one design's ``banks``.

        Each bank's answers are the OR of its (memoised) component
        replays, written at its rows and tier; its :class:`FilterStats`
        advance exactly as the interpreter's per-reference queries would
        advance them.
        """
        # Each owner domain's RMNM lanes, by tracked cache (-1: no lane).
        lanes: Dict[Optional[int], List[int]] = {}
        for bank in banks:
            for component in components_of(bank.filter):
                if isinstance(component, RMNMLane):
                    lanes.setdefault(bank.core, [-1] * len(self.fanouts))[
                        self.index_of[bank.cache]] = component.lane
        bits_matrix = _np.zeros((self.n, self.num_tiers), dtype=bool)
        for bank in banks:
            cache_index, owner = self.index_of[bank.cache], bank.core
            lone = not isinstance(bank.filter, CompositeFilter)
            answers: Optional["_np.ndarray"] = None
            for component in components_of(bank.filter):
                part = self._component(cache_index, owner, component, lone,
                                       lanes.get(owner))
                answers = part if answers is None else answers | part
            bank.stats.lookups += answers.shape[0]
            bank.stats.miss_answers += int(answers.sum())
            rows, _granules = self.rows(cache_index, owner)
            if rows is None:
                bits_matrix[:, bank.tier - 1] = answers
            else:
                bits_matrix[rows, bank.tier - 1] = answers
        return bits_matrix

    def bits(self, machine: MostlyNoMachine) -> "_np.ndarray":
        """``(count, num_tiers)`` miss bits of ``machine`` per reference.

        A single-core machine is the one-shared-bank case: one bank per
        tracked cache, for every core.  The registry's ``mnm.queries`` /
        ``mnm.miss_answers`` advance as the interpreter's queries would
        advance them.
        """
        bits_matrix = self.bank_bits(machine.banks())
        registry = get_registry()
        if registry.enabled:
            registry.counter("mnm.queries").inc(self.n)
            registry.counter("mnm.miss_answers").inc(
                int(bits_matrix.any(axis=1).sum()))
        return bits_matrix


# ---------------------------------------------------------------------------
# Phase C: account
# ---------------------------------------------------------------------------

class Accounting:
    """Prices references by equivalence class and folds the totals.

    A reference's class is its (kind, supplier) *base* id, shifted left by
    one bit per tracked tier and OR-ed with its miss-bit pattern when a
    design's bits are known.  Every model runs once per present class.
    """

    def __init__(self, recording: Recording) -> None:
        num_tiers = self.num_tiers = recording.hierarchy.num_tiers
        self.num_base = len(KINDS) * (num_tiers + 1)
        self.pattern_bits = max(num_tiers - 1, 0)
        self.pattern_mask = (1 << self.pattern_bits) - 1
        # Class ids index small tables; int32 halves the per-reference arrays.
        self._dtype = (_np.int32 if self.num_classes(True) < 1 << 31
                       else _np.int64)
        kinds = _np.frombuffer(recording.kinds, dtype=recording.kinds.typecode)
        suppliers = _np.frombuffer(recording.suppliers,
                                   dtype=recording.suppliers.typecode)
        self.base_ids = (kinds.astype(self._dtype) * (num_tiers + 1)
                         + suppliers)
        self._outcomes: Dict[int, AccessOutcome] = {}
        self._bits: Dict[int, Tuple[bool, ...]] = {}

    def num_classes(self, with_bits: bool) -> int:
        return self.num_base << self.pattern_bits if with_bits else self.num_base

    def class_ids(self, bits_matrix: Optional["_np.ndarray"]) -> "_np.ndarray":
        """Per-reference class ids (base ids alone when ``bits_matrix`` is None)."""
        if bits_matrix is None:
            return self.base_ids
        pattern = _np.zeros(bits_matrix.shape[0], dtype=self._dtype)
        for tier in range(2, self.num_tiers + 1):
            pattern |= bits_matrix[:, tier - 1].astype(self._dtype) << (tier - 2)
        return (self.base_ids << self.pattern_bits) | pattern

    def outcome(self, base_id: int) -> AccessOutcome:
        outcome = self._outcomes.get(base_id)
        if outcome is None:
            num_tiers = self.num_tiers
            kind_code, sup_code = divmod(base_id, num_tiers + 1)
            if sup_code == 0:
                hits: Tuple[bool, ...] = (False,) * num_tiers
                supplier = None
            else:
                hits = tuple(t == sup_code for t in range(1, num_tiers + 1))
                supplier = sup_code
            outcome = AccessOutcome(
                address=0, kind=KINDS[kind_code], hits=hits, supplier=supplier,
            )
            self._outcomes[base_id] = outcome
        return outcome

    def bits(self, pattern: int) -> Tuple[bool, ...]:
        bits_tuple = self._bits.get(pattern)
        if bits_tuple is None:
            bits_tuple = (False,) + tuple(
                bool((pattern >> (tier - 2)) & 1)
                for tier in range(2, self.num_tiers + 1)
            )
            self._bits[pattern] = bits_tuple
        return bits_tuple

    def unpack(self, class_id: int, with_bits: bool
               ) -> Tuple[AccessOutcome, Optional[Tuple[bool, ...]]]:
        """The (outcome, bits) pair every reference of a class shares."""
        if not with_bits:
            return self.outcome(class_id), None
        return (self.outcome(class_id >> self.pattern_bits),
                self.bits(class_id & self.pattern_mask))

    def table(self, present: "_np.ndarray", with_bits: bool,
              price: Callable[[AccessOutcome, Optional[Tuple[bool, ...]]], int]
              ) -> "_np.ndarray":
        """Per-class integer price (``price(outcome, bits)``) of present classes."""
        values = _np.zeros(self.num_classes(with_bits), dtype=_np.int64)
        for class_id in present.tolist():
            values[class_id] = price(*self.unpack(class_id, with_bits))
        return values

    def fold(self, counts: "_np.ndarray", present: "_np.ndarray",
             with_bits: bool, latency_of: Optional["_np.ndarray"] = None,
             meter: Optional[CoverageMeter] = None,
             accountant: Optional[EnergyAccountant] = None,
             telemetry=None) -> None:
        """Fold class counts into a coverage meter, an energy accountant and
        access telemetry.

        ``latency_of`` is the per-class latency table (read only for
        telemetry); ``telemetry`` is a :class:`repro.simulate.
        _AccessTelemetry` buffer.  Any sink may be None.
        """
        for class_id in present.tolist():
            class_count = int(counts[class_id])
            outcome, class_bits = self.unpack(class_id, with_bits)
            if meter is not None:
                meter.record_many(outcome, class_bits, class_count)
            if accountant is not None:
                accountant.account_many(outcome, class_bits, class_count)
            if telemetry is not None:
                telemetry.record_many(outcome, class_bits, class_count,
                                      int(latency_of[class_id]))


def count_classes(class_ids: "_np.ndarray", size: int
                  ) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """``(counts per class, present class ids)`` of a class-id array."""
    counts = _np.bincount(class_ids, minlength=size)
    return counts, _np.flatnonzero(counts)


# ---------------------------------------------------------------------------
# The multi-design reference pass
# ---------------------------------------------------------------------------

def run_reference_pass_fast(
    references: Iterable[Tuple[int, AccessKind]],
    hierarchy_config: HierarchyConfig,
    designs: Sequence[MNMDesign],
    workload_name: str = "",
    warmup: int = 0,
):
    """Batched equivalent of :func:`repro.simulate.run_reference_pass`.

    Returns the same :class:`~repro.simulate.ReferencePassResult` the
    interpreter would, byte for byte.
    """
    # Imported here: simulate imports this module lazily on dispatch.
    from repro.simulate import (
        DesignPassResult,
        ReferencePassResult,
        _AccessTelemetry,
        design_meters,
    )

    registry = get_registry()

    addresses, kinds = reference_columns(references)
    recording = record(addresses, kinds, hierarchy_config, warmup=warmup)
    n = recording.count
    if n == 0:
        raise ValueError(
            f"reference pass for {workload_name or hierarchy_config.name!r} "
            f"measured nothing: warmup={warmup} consumed the entire "
            f"reference stream ({recording.seen} references)"
        )
    num_tiers = recording.hierarchy.num_tiers
    accounting = Accounting(recording)
    energy_model = HierarchyEnergyModel(hierarchy_config)

    # Baseline: priced per (kind, supplier) class.
    baseline = design_meters(recording.hierarchy, None, energy_model)
    timing = baseline.timing
    base_counts, base_present = count_classes(accounting.base_ids,
                                              accounting.num_base)
    baseline_access_time = int(base_counts @ accounting.table(
        base_present, False, timing.latency))
    baseline_miss_time = int(base_counts @ accounting.table(
        base_present, False, lambda outcome, _bits: timing.miss_time(outcome)))
    accounting.fold(base_counts, base_present, False,
                    accountant=baseline.accountant)

    if registry.enabled:
        registry.counter("pass.references").inc(n)

    # The recorded hierarchy hosts every design's machine: it is never
    # accessed again (it only gives each machine caches to attach to — the
    # filters see the recorded event stream instead), so the listeners the
    # machines register on it never fire and designs cannot interfere
    # through it.
    replay = Replay(recording)
    results: Dict[str, DesignPassResult] = {}
    for design in designs:
        meters = design_meters(recording.hierarchy, design, energy_model)
        class_ids = accounting.class_ids(replay.bits(meters.machine))
        counts, present = count_classes(class_ids,
                                        accounting.num_classes(True))
        latency_of = accounting.table(present, True, meters.timing.latency)
        telemetry = (_AccessTelemetry(registry, design.name, num_tiers,
                                      with_access_instruments=False)
                     if registry.enabled else None)
        accounting.fold(counts, present, True, latency_of, meters.coverage,
                        meters.accountant, telemetry)
        access_time = int(counts @ latency_of)
        if telemetry is not None:
            telemetry.flush()

        results[design.name] = DesignPassResult(
            design_name=design.name,
            coverage=meters.coverage,
            energy=meters.accountant.totals,
            access_time=access_time,
            storage_bits=meters.machine.storage_bits,
        )

    cache_stats = {
        cache.config.name: (cache.stats.probes, cache.stats.hits)
        for _, cache in recording.hierarchy.all_caches()
    }
    if registry.enabled:
        recording.hierarchy.export_stats(registry)
    return ReferencePassResult(
        workload=workload_name,
        hierarchy_name=hierarchy_config.name,
        references=n,
        baseline_access_time=baseline_access_time,
        baseline_miss_time=baseline_miss_time,
        baseline_energy=baseline.accountant.totals,
        designs=results,
        cache_stats=cache_stats,
    )


# ---------------------------------------------------------------------------
# The multi-design multicore pass
# ---------------------------------------------------------------------------

def run_multicore_pass_fast(
    streams: Sequence[Sequence[Tuple[int, AccessKind]]],
    hierarchy_config: HierarchyConfig,
    designs: Sequence[MNMDesign],
    mc: MulticoreConfig,
    workload_names: Tuple[str, ...] = (),
    warmup: int = 0,
):
    """Batched equivalent of :func:`repro.simulate.run_multicore_pass`.

    Records the interleaved walk once, replays every design's banks over
    it, and folds coverage by class counts: a multicore result has no
    timing and no energy.  ``streams`` are the per-core reference lists,
    already validated by the caller.  Returns the same
    :class:`~repro.simulate.MulticorePassResult` the interpreter would,
    byte for byte.
    """
    # Imported here: simulate imports this module lazily on dispatch.
    from repro.simulate import MulticoreDesignResult, MulticorePassResult

    recording = record_multicore(streams, hierarchy_config, mc, warmup)
    n = recording.count
    if n == 0:
        raise ValueError(
            f"multicore pass for {hierarchy_config.name!r} measured "
            f"nothing: warmup={warmup} consumed the entire interleaved "
            f"stream ({recording.seen} references)"
        )
    hierarchy = recording.hierarchy
    accounting = Accounting(recording)
    size = accounting.num_classes(True)
    replay = Replay(recording)
    # Measured events per tracked cache, each fanning out to one
    # invalidation per granule in every other core's private bank.
    measured = _np.bincount(replay.event_codes[replay.warm:] >> 1,
                            minlength=len(recording.tracked))

    # As in run_reference_pass_fast, the walked hierarchy hosts every
    # design's banks and is never accessed again.
    results: Dict[str, MulticoreDesignResult] = {}
    for design in designs:
        mnm = MulticoreMNM(hierarchy, design, mc.mnm_sharing)
        banks = mnm.banks()
        private = {replay.index_of[bank.cache] for bank in banks
                   if bank.core is not None}
        meter = CoverageMeter(hierarchy.num_tiers)
        counts, present = count_classes(
            accounting.class_ids(replay.bank_bits(banks)), size)
        accounting.fold(counts, present, True, meter=meter)
        results[design.name] = MulticoreDesignResult(
            design_name=design.name,
            coverage=meter,
            storage_bits=mnm.storage_bits,
            cross_core_invalidations=(mc.cores - 1) * sum(
                int(measured[index]) * replay.fanouts[index]
                for index in private),
        )

    registry = get_registry()
    if registry.enabled:
        hierarchy.export_stats(registry)
    return MulticorePassResult(
        workloads=tuple(workload_names),
        hierarchy_name=hierarchy_config.name,
        cores=mc.cores,
        mnm_sharing=mc.mnm_sharing,
        l2_policy=mc.l2_policy,
        schedule=mc.schedule,
        schedule_seed=mc.schedule_seed,
        references=n,
        back_invalidations=hierarchy.back_invalidations,
        coherence_invalidations=hierarchy.coherence_invalidations,
        designs=results,
        cache_stats={
            cache.config.name: (cache.stats.probes, cache.stats.hits)
            for _, cache in hierarchy.all_caches()
        },
    )
