"""Record/replay kernel: the fast implementation of both simulation kinds.

The interpreter in :mod:`repro.simulate` walks every reference through
every design's filters one at a time.  This kernel restructures the same
computation into three phases so the per-reference Python overhead is paid
once, not once per design:

**Phase A (record, :func:`record`).**  Drive the real :class:`~repro.
cache.hierarchy.CacheHierarchy` over the reference stream exactly as the
interpreter does (including warm-up and the statistics resets), but with
recording listeners on every tracked cache instead of filter listeners.
The result is flat integer arrays: per reference the address, access-kind
code and supplier code, and per event the reference ordinal, cache and
block of the ordered place/replace stream each cache produced.

**Phase B (replay, :class:`Replay`).**  For each design, build a real
:class:`~repro.core.machine.MostlyNoMachine` on a fresh (never accessed)
host hierarchy and replay the recorded events against its filters.  Filter
state only changes at events, so between consecutive events every query is
answered by one vectorized :meth:`~repro.core.base.MissFilter.query_many`
call over the whole segment.  Non-RMNM components replay per cache (a
cache's own events are sparse, so segments are long); the shared RMNM
replays once per geometry over the global event stream, and each lane's
bits are then extracted vectorially.

**Phase C (account, :class:`Accounting`).**  Timing, energy and coverage
depend only on the (kind, supplier, miss-bit pattern) equivalence class of
a reference, so the models run once per *class* and integer totals fold
with ``bincount`` dot products.  Float energy is kept byte-identical by
recording, per class, the exact sequence of ``+=`` operands the accountant
performs, then replaying those operands in original reference order with
the same left-to-right summation the interpreter used.

:func:`run_reference_pass_fast` composes the phases for many designs over
a reference stream; :func:`repro.simulate.run_core_trace` composes them
for one design over the out-of-order core's stream, then times the core
against the resulting latencies.  The interpreter is the oracle: every
number the kernel returns — ints, floats, telemetry counters — must equal
it exactly, which CI pins by byte-comparing full reports between
``--engine interp`` and ``--engine fast``.
"""

from __future__ import annotations

import time
from array import array
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.addresses import log2_exact
from repro.analysis.coverage import CoverageMeter
from repro.analysis.timing import AccessTimingModel
from repro.cache.cache import AccessKind, Cache
from repro.cache.hierarchy import AccessOutcome, CacheHierarchy, HierarchyConfig
from repro.core.hybrid import CompositeFilter
from repro.core.machine import MNMDesign, MostlyNoMachine
from repro.core.rmnm import RMNMLane
from repro.power.energy import EnergyAccountant, HierarchyEnergyModel
from repro.power.mnm_power import (
    machine_level_query_energies_nj,
    machine_query_energy_nj,
    machine_update_energy_nj,
)
from repro.telemetry import get_profiler, get_registry

try:  # numpy is required here (the interpreter is the numpy-free path).
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Access kinds by the integer code the recording stores.
KINDS: Tuple[AccessKind, ...] = (AccessKind.INSTRUCTION, AccessKind.LOAD,
                                 AccessKind.STORE)

#: EnergyTotals fields accumulated with float ``+=`` (order-sensitive).
_FLOAT_FIELDS = ("cache_probe_nj", "miss_probe_nj", "refill_nj", "mnm_nj")

#: References per chunk of the energy fold (bounds its scratch memory).
_ENERGY_CHUNK = 1024

#: Segments at or below this length are answered with scalar
#: ``is_definite_miss`` calls instead of ``query_many`` — a numpy
#: round-trip costs more than a handful of scalar lookups.
_SCALAR_SEGMENT = 16


def engine_available() -> bool:
    """True when the fast engine can run (numpy importable)."""
    return _np is not None


def _require_numpy() -> None:
    if _np is None:
        raise RuntimeError(
            "the fast engine requires numpy; "
            "use engine='interp' on numpy-free installs"
        )


# ---------------------------------------------------------------------------
# Phase A: record
# ---------------------------------------------------------------------------

class Recording:
    """One hierarchy walk, held in flat integer arrays.

    Attributes:
        hierarchy: the walked hierarchy (its statistics are the run's).
        tracked: ``(tier, cache)`` of every cache at tier 2 or beyond.
        count: recorded references (the warm-up prefix excluded).
        seen: references consumed, warm-up prefix included.
        addresses / kinds / suppliers: per recorded reference, the byte
            address, the :data:`KINDS` code and the supplying tier (0 for
            main memory).
        event_ordinals / event_codes / event_blocks: per tracked-cache
            event, in firing order: the recorded reference that caused it
            (-1 during the warm-up prefix), ``2 * tracked_index + is_place``
            and the cache's block address.
    """

    __slots__ = ("hierarchy", "tracked", "count", "seen", "addresses",
                 "kinds", "suppliers", "event_ordinals", "event_codes",
                 "event_blocks")

    def __init__(self, hierarchy: CacheHierarchy,
                 tracked: List[Tuple[int, Cache]]) -> None:
        self.hierarchy = hierarchy
        self.tracked = tracked
        self.count = 0
        self.seen = 0
        # Compact columns: addresses and blocks fit 32 bits (addresses are
        # validated to), ordinals 31 (fewer than 2**31 references), kinds
        # and suppliers a byte.
        self.addresses = array("I")
        self.kinds = array("b")
        self.suppliers = array("b")
        self.event_ordinals = array("i")
        self.event_codes = array("i")
        self.event_blocks = array("I")


def record(
    references: Iterable[Tuple[int, AccessKind]],
    hierarchy_config: HierarchyConfig,
    warmup: int = 0,
    reset_at: int = 0,
) -> Recording:
    """Phase A: walk a fresh hierarchy over ``references``.

    The first ``warmup`` references only warm the caches: they are not
    recorded (their events are, with ordinal -1, so filters can train on
    them), and the hierarchy's statistics restart once the prefix is
    complete.  When ``reset_at`` is positive the statistics also restart
    just before recorded reference ``reset_at`` (or after the last one,
    when it is the stream's length) — the full-system warm-up boundary,
    where queries continue but measurement starts.
    """
    hierarchy = CacheHierarchy(hierarchy_config)
    tracked = [(tier, cache) for tier, cache in hierarchy.all_caches()
               if tier >= 2]
    recording = Recording(hierarchy, tracked)
    current = [-1]  # recorded ordinal of the in-flight access; -1 = warm-up
    ordinals = recording.event_ordinals
    codes = recording.event_codes
    blocks = recording.event_blocks

    def _recording_listener(code: int):
        def listener(_cache: Cache, block: int) -> None:
            ordinals.append(current[0])
            codes.append(code)
            blocks.append(block)

        return listener

    for index, (_tier, cache) in enumerate(tracked):
        cache.add_replace_listener(_recording_listener(2 * index))
        cache.add_place_listener(_recording_listener(2 * index + 1))

    access = hierarchy.access
    stream = iter(references)
    seen = 0
    if warmup > 0:
        for address, kind in islice(stream, warmup):
            access(address, kind)
            seen += 1
        if seen == warmup:
            hierarchy.reset_stats()

    addresses = recording.addresses
    kinds = recording.kinds
    suppliers = recording.suppliers
    instruction, load, _store = KINDS  # kind codes are indices into KINDS
    count = 0
    for address, kind in stream:
        if count == reset_at and count:
            hierarchy.reset_stats()
        current[0] = count
        count += 1
        supplier = access(address, kind).supplier
        addresses.append(address)
        kinds.append(0 if kind is instruction else 1 if kind is load else 2)
        suppliers.append(0 if supplier is None else supplier)
    if count == reset_at and count:  # the boundary follows the last access
        hierarchy.reset_stats()
    recording.count = count
    recording.seen = seen + count
    return recording


# ---------------------------------------------------------------------------
# Phase B: replay
# ---------------------------------------------------------------------------

class Replay:
    """Per-design miss bits from a recording's event stream.

    Filter state is a pure function of (configuration, event stream), so
    identically-configured components on the same cache — which recur
    constantly across the paper's design line-up (a TMNM size appears
    standalone *and* inside hybrids, placement variants share every
    filter) — share one replay.  The memo key includes the type, the
    paper-style name (which encodes the geometry) and the storage bits as
    a defensive fingerprint of the remaining parameters.
    """

    def __init__(self, recording: Recording) -> None:
        _require_numpy()
        self.recording = recording
        self.n = recording.count
        hierarchy = recording.hierarchy
        tracked = recording.tracked
        self.num_tiers = hierarchy.num_tiers
        granule = hierarchy.config.mnm_granule
        self.fanouts = [cache.config.block_size // granule
                        for _tier, cache in tracked]
        addresses = _np.frombuffer(recording.addresses,
                                   dtype=recording.addresses.typecode)
        self.granules = (addresses >> log2_exact(granule)).astype(_np.int64)
        kinds = _np.frombuffer(recording.kinds, dtype=recording.kinds.typecode)

        # Rows each tracked cache serves: None means every reference
        # (unified caches); split tiers get the rows of the kinds they serve.
        self.rows: List[Optional["_np.ndarray"]] = []
        self.cache_granules: List["_np.ndarray"] = []
        for tier, cache in tracked:
            serving = [code for code, kind in enumerate(KINDS)
                       if hierarchy.cache_for(tier, kind) is cache]
            if len(serving) == len(KINDS):
                self.rows.append(None)
                self.cache_granules.append(self.granules)
            else:
                rows = _np.flatnonzero(_np.isin(kinds, serving)).astype(
                    _np.int32)
                self.rows.append(rows)
                self.cache_granules.append(self.granules[rows])

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
        self._fanout_of = _np.array(self.fanouts, dtype=_np.int64)
        self.warm = int(_np.count_nonzero(self.event_ordinals < 0))

        self._component_answers: Dict[Tuple, "_np.ndarray"] = {}
        self._lane_answers: Dict[Tuple, "_np.ndarray"] = {}
        self._rmnm_bits: Dict[Tuple[int, int], "_np.ndarray"] = {}

    # -- event views ----------------------------------------------------------

    # Event iterators zip memoryviews: they yield Python ints one at a
    # time, without materialising a list per column.

    def _cache_events(self, cache_index: int, warm: bool):
        """One cache's (bound, is_place, first granule) events, in order."""
        span = slice(None, self.warm) if warm else slice(self.warm, None)
        codes = self.event_codes[span]
        mine = _np.flatnonzero((codes >> 1) == cache_index)
        places = memoryview(codes[mine] & 1)
        firsts = memoryview(self.event_blocks[span][mine].astype(_np.int64)
                            * self.fanouts[cache_index])
        if warm:
            return zip(places, firsts)
        ordinals = self.event_ordinals[span][mine]
        rows = self.rows[cache_index]
        if rows is None:
            bounds = ordinals + 1
        else:
            bounds = _np.searchsorted(rows, ordinals, side="right")
        return zip(memoryview(bounds), places, firsts)

    def _global_events(self, warm: bool):
        """Every tracked cache's (bound, index, is_place, first), in order."""
        span = slice(None, self.warm) if warm else slice(self.warm, None)
        codes = self.event_codes[span]
        caches = codes >> 1
        firsts = (self.event_blocks[span].astype(_np.int64)
                  * self._fanout_of[caches])
        return zip(memoryview(self.event_ordinals[span] + 1),
                   memoryview(caches), memoryview(codes & 1),
                   memoryview(firsts))

    # -- replays ----------------------------------------------------------------

    def _replay_component(self, cache_index: int, component) -> "_np.ndarray":
        """Train one filter on warm-up, then run the segmented batch replay.

        Between two state-changing events every answer is constant, so the
        whole segment is one vectorized :meth:`query_many` call; events
        apply scalar, exactly as the interpreter's listeners would.  Very
        short segments (miss-heavy streams have many) fall back to the
        scalar oracle :meth:`is_definite_miss` — the element-wise-agreement
        contract makes the two paths interchangeable — because a numpy
        round-trip costs more than a handful of scalar calls.
        """
        on_place = component.on_place
        on_replace = component.on_replace
        fanout = self.fanouts[cache_index]
        for is_place, first_granule in self._cache_events(cache_index, True):
            target = on_place if is_place else on_replace
            if fanout == 1:
                target(first_granule)
            else:
                for granule_addr in range(first_granule,
                                          first_granule + fanout):
                    target(granule_addr)
        cache_granules = self.cache_granules[cache_index]
        # Indexing a memoryview yields Python ints without a list copy.
        granule_ints = memoryview(cache_granules)
        rows_served = cache_granules.shape[0]
        answers = _np.zeros(rows_served, dtype=bool)
        position = 0
        query = component.query_many
        miss = component.is_definite_miss
        for bound, is_place, first_granule in self._cache_events(
                cache_index, False):
            if bound > position:
                if bound - position <= _SCALAR_SEGMENT:
                    for row in range(position, bound):
                        if miss(granule_ints[row]):
                            answers[row] = True
                else:
                    answers[position:bound] = query(
                        cache_granules[position:bound])
                position = bound
            target = on_place if is_place else on_replace
            if fanout == 1:
                target(first_granule)
            else:
                for granule_addr in range(
                        first_granule, first_granule + fanout):
                    target(granule_addr)
        if position < rows_served:
            answers[position:] = query(cache_granules[position:])
        return answers

    def _replay_rmnm(self, rmnm) -> "_np.ndarray":
        """Per-reference replaced-bit words of one shared RMNM geometry.

        The RMNM sees every tracked cache's events in global order (its
        eviction decisions depend on the interleaving), so it replays over
        the global stream once; lanes then extract their bit vectorially.
        """
        fanouts = self.fanouts
        for _bound, cache_index, is_place, first_granule in (
                self._global_events(True)):
            record_event = rmnm.record_place if is_place else rmnm.record_replace
            fanout = fanouts[cache_index]
            if fanout == 1:
                record_event(first_granule, cache_index)
            else:
                for granule_addr in range(first_granule,
                                          first_granule + fanout):
                    record_event(granule_addr, cache_index)
        n = self.n
        granules = self.granules
        replaced = _np.empty(n, dtype=_np.int64)
        position = 0
        record_place = rmnm.record_place
        record_replace = rmnm.record_replace
        bits_many = rmnm.replaced_bits_many
        bits_of = rmnm.replaced_bits_of
        all_ints = memoryview(granules)
        for bound, cache_index, is_place, first_granule in (
                self._global_events(False)):
            if bound > position:
                if bound - position <= _SCALAR_SEGMENT:
                    for row in range(position, bound):
                        replaced[row] = bits_of(all_ints[row])
                else:
                    replaced[position:bound] = bits_many(
                        granules[position:bound])
                position = bound
            record_event = record_place if is_place else record_replace
            fanout = fanouts[cache_index]
            if fanout == 1:
                record_event(first_granule, cache_index)
            else:
                for granule_addr in range(
                        first_granule, first_granule + fanout):
                    record_event(granule_addr, cache_index)
        if position < n:
            replaced[position:] = bits_many(granules[position:])
        return replaced

    def _lane(self, rmnm, cache_index: int, lane: int) -> "_np.ndarray":
        geometry = (rmnm.num_blocks, rmnm.associativity)
        key = (geometry, cache_index, lane)
        answers = self._lane_answers.get(key)
        if answers is None:
            replaced = self._rmnm_bits.get(geometry)
            if replaced is None:
                replaced = self._replay_rmnm(rmnm)
                self._rmnm_bits[geometry] = replaced
            rows = self.rows[cache_index]
            lane_bits = replaced if rows is None else replaced[rows]
            answers = (lane_bits >> lane) & 1 != 0
            self._lane_answers[key] = answers
        return answers

    def _component(self, cache_index: int, component) -> "_np.ndarray":
        if isinstance(component, RMNMLane):
            return self._lane(component.shared, cache_index, component.lane)
        key = (cache_index, type(component).__name__, component.name,
               component.storage_bits)
        answers = self._component_answers.get(key)
        if answers is None:
            answers = self._replay_component(cache_index, component)
            self._component_answers[key] = answers
        return answers

    def bits(self, machine: MostlyNoMachine) -> "_np.ndarray":
        """``(count, num_tiers)`` miss bits of ``machine`` per reference.

        Each cache's answers are the OR of its (memoised) component
        replays; the machine's :class:`FilterStats` and the registry's
        ``mnm.queries`` / ``mnm.miss_answers`` advance exactly as the
        interpreter's per-reference queries would advance them.
        """
        n = self.n
        bits_matrix = _np.zeros((n, self.num_tiers), dtype=bool)
        for cache_index, (tier, cache) in enumerate(self.recording.tracked):
            filter_ = machine.filter_for(cache.config.name)
            components = (filter_.components
                          if isinstance(filter_, CompositeFilter)
                          else (filter_,))
            answers: Optional["_np.ndarray"] = None
            for component in components:
                part = self._component(cache_index, component)
                answers = part if answers is None else answers | part
            if answers is None:  # pragma: no cover - composites are never empty
                answers = _np.zeros(self.cache_granules[cache_index].shape[0],
                                    dtype=bool)
            stats = machine.stats_for(cache.config.name)
            stats.lookups += answers.shape[0]
            stats.miss_answers += int(answers.sum())
            rows = self.rows[cache_index]
            if rows is None:
                bits_matrix[:, tier - 1] = answers
            else:
                bits_matrix[rows, tier - 1] = answers
        registry = get_registry()
        if registry.enabled:
            registry.counter("mnm.queries").inc(n)
            registry.counter("mnm.miss_answers").inc(
                int(bits_matrix.any(axis=1).sum()))
        return bits_matrix


# ---------------------------------------------------------------------------
# Phase C: account
# ---------------------------------------------------------------------------

class _FieldRecorder:
    """Append-only stand-in for one float field of ``EnergyTotals``."""

    __slots__ = ("adds",)

    def __init__(self) -> None:
        self.adds: List[float] = []

    def __iadd__(self, value: float) -> "_FieldRecorder":
        self.adds.append(value)
        return self


class _RecordingTotals:
    """``EnergyTotals`` double that captures the accountant's add stream.

    :meth:`EnergyAccountant.account` only ever does ``totals.<field> +=``
    (and ``totals.accesses += 1``), so swapping the accountant's ``totals``
    for this object records, per equivalence class, the exact operand
    sequence each field receives.
    """

    __slots__ = ("cache_probe_nj", "miss_probe_nj", "refill_nj",
                 "mnm_nj", "accesses")

    def __init__(self) -> None:
        self.cache_probe_nj = _FieldRecorder()
        self.miss_probe_nj = _FieldRecorder()
        self.refill_nj = _FieldRecorder()
        self.mnm_nj = _FieldRecorder()
        self.accesses = 0

    def take(self) -> Dict[str, Tuple[float, ...]]:
        """Pop the captured per-field programs, resetting the buffers."""
        programs = {}
        for fieldname in _FLOAT_FIELDS:
            recorder = getattr(self, fieldname)
            programs[fieldname] = tuple(recorder.adds)
            recorder.adds = []
        self.accesses = 0
        return programs


class Accounting:
    """Prices references by equivalence class and folds the totals.

    A reference's class is its (kind, supplier) *base* id, shifted left by
    one bit per tracked tier and OR-ed with its miss-bit pattern when a
    design's bits are known.  Every model runs once per present class.
    """

    def __init__(self, recording: Recording) -> None:
        _require_numpy()
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
        self._recorder = _RecordingTotals()

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
             with_bits: bool, latency_of: "_np.ndarray",
             meter: Optional[CoverageMeter], telemetry) -> None:
        """Fold class counts into a coverage meter and access telemetry.

        ``latency_of`` is the per-class latency table; ``telemetry`` is a
        :class:`repro.simulate._AccessTelemetry` buffer.  Either sink may
        be None.
        """
        for class_id in present.tolist():
            class_count = int(counts[class_id])
            outcome, class_bits = self.unpack(class_id, with_bits)
            if meter is not None:
                meter.record_many(outcome, class_bits, class_count)
            if telemetry is not None:
                telemetry.record_many(outcome, class_bits, class_count,
                                      int(latency_of[class_id]))

    def energy(self, accountant: EnergyAccountant, class_ids: "_np.ndarray",
               present: "_np.ndarray", with_bits: bool) -> None:
        """Set ``accountant.totals`` as if it had accounted ``class_ids`` in order.

        Each present class's exact add stream is captured once, zero-padded
        to the longest program, and the flattened per-reference sequence is
        summed with ``np.add.accumulate`` — a strict left-to-right fold, so
        it performs the same float additions as the interpreter's ``+=``
        loop from the dataclass default ``0.0``.  The padding is exact:
        every operand is a non-negative energy cost, so the running total
        is never ``-0.0`` and ``x + 0.0 == x`` bit-for-bit.
        """
        size = self.num_classes(with_bits)
        recorder = self._recorder
        programs: Dict[str, List[Tuple[float, ...]]] = {
            fieldname: [()] * size for fieldname in _FLOAT_FIELDS
        }
        real_totals = accountant.totals
        accountant.totals = recorder  # type: ignore[assignment]
        try:
            for class_id in present.tolist():
                accountant.account(*self.unpack(class_id, with_bits))
                for fieldname, program in recorder.take().items():
                    programs[fieldname][class_id] = program
        finally:
            accountant.totals = real_totals
        for fieldname, field_programs in programs.items():
            width = max(map(len, field_programs), default=0)
            if width == 0 or class_ids.shape[0] == 0:
                setattr(real_totals, fieldname, 0.0)
                continue
            matrix = _np.zeros((size, width), dtype=_np.float64)
            for class_id, program in enumerate(field_programs):
                if program:
                    matrix[class_id, :len(program)] = program
            # Folded in chunks of references, carrying the running total
            # into each chunk's first operand (``a + b == b + a`` exactly).
            total = 0.0
            for start in range(0, class_ids.shape[0], _ENERGY_CHUNK):
                flat = matrix[class_ids[start:start + _ENERGY_CHUNK]].ravel()
                flat[0] += total
                _np.add.accumulate(flat, out=flat)
                total = float(flat[-1])
            setattr(real_totals, fieldname, total)
        real_totals.accesses = int(class_ids.shape[0])


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
    interpreter would, byte for byte.  Raises ``RuntimeError`` when numpy
    is unavailable — callers should fall back to ``engine="interp"``.
    """
    _require_numpy()
    # Imported here: simulate imports this module lazily on dispatch.
    from repro.simulate import (
        DesignPassResult,
        ReferencePassResult,
        _AccessTelemetry,
    )

    registry = get_registry()
    profiler = get_profiler()
    pass_started = time.perf_counter() if profiler.enabled else 0.0

    recording = record(references, hierarchy_config, warmup=warmup)
    n = recording.count
    if n == 0:
        raise ValueError(
            f"reference pass for {workload_name or hierarchy_config.name!r} "
            f"measured nothing: warmup={warmup} consumed the entire "
            f"reference stream ({recording.seen} references)"
        )
    num_tiers = recording.hierarchy.num_tiers
    accounting = Accounting(recording)
    timing = AccessTimingModel(hierarchy_config)
    energy_model = HierarchyEnergyModel(hierarchy_config)

    # Baseline: priced per (kind, supplier) class.
    base_ids = accounting.base_ids
    base_counts, base_present = count_classes(base_ids, accounting.num_base)
    baseline_access_time = int(base_counts @ accounting.table(
        base_present, False, timing.latency))
    baseline_miss_time = int(base_counts @ accounting.table(
        base_present, False, lambda outcome, _bits: timing.miss_time(outcome)))
    baseline_accountant = EnergyAccountant(energy_model)
    accounting.energy(baseline_accountant, base_ids, base_present, False)

    if registry.enabled:
        registry.counter("pass.references").inc(n)

    # The walked hierarchy hosts every design's machine: it is never
    # accessed again (it only gives each machine caches to attach to — the
    # filters see the recorded event stream instead), so the listeners the
    # machines register on it never fire and designs cannot interfere
    # through it.
    replay = Replay(recording)
    results: Dict[str, DesignPassResult] = {}
    for design in designs:
        machine = MostlyNoMachine(recording.hierarchy, design)
        meter = CoverageMeter(num_tiers)
        accountant = EnergyAccountant(
            energy_model,
            placement=design.placement,
            mnm_query_nj=machine_query_energy_nj(machine),
            mnm_update_nj=machine_update_energy_nj(machine),
            mnm_level_query_nj=machine_level_query_energies_nj(machine),
        )
        design_timing = AccessTimingModel(
            hierarchy_config,
            placement=design.placement,
            mnm_delay=design.delay,
            mnm_free=design.perfect,
        )
        class_ids = accounting.class_ids(replay.bits(machine))
        counts, present = count_classes(class_ids,
                                        accounting.num_classes(True))
        latency_of = accounting.table(present, True, design_timing.latency)
        telemetry = (_AccessTelemetry(registry, design.name, num_tiers,
                                      with_access_instruments=False)
                     if registry.enabled else None)
        accounting.fold(counts, present, True, latency_of, meter, telemetry)
        access_time = int(counts @ latency_of)
        accounting.energy(accountant, class_ids, present, True)
        if telemetry is not None:
            telemetry.flush()

        results[design.name] = DesignPassResult(
            design_name=design.name,
            coverage=meter,
            energy=accountant.totals,
            access_time=access_time,
            storage_bits=machine.storage_bits,
        )

    cache_stats = {
        cache.config.name: (cache.stats.probes, cache.stats.hits)
        for _, cache in recording.hierarchy.all_caches()
    }
    if registry.enabled:
        recording.hierarchy.export_stats(registry)
    if profiler.enabled:
        profiler.add("reference_pass", time.perf_counter() - pass_started,
                     units=n, unit_name="references")
    return ReferencePassResult(
        workload=workload_name,
        hierarchy_name=hierarchy_config.name,
        references=n,
        baseline_access_time=baseline_access_time,
        baseline_miss_time=baseline_miss_time,
        baseline_energy=baseline_accountant.totals,
        designs=results,
        cache_stats=cache_stats,
    )
