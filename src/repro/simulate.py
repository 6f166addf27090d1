"""High-level simulation façade.

Two entry points cover everything the experiments need:

* :func:`run_core_trace` — full-system run: the out-of-order core executes
  a trace against the cache hierarchy with a given MNM design, yielding
  execution cycles (Figure 15), energy (Figure 16), coverage and per-cache
  statistics in one pass.
* :func:`run_reference_pass` — hierarchy-only run evaluating **many MNM
  designs in a single pass** over a trace's reference stream.  Bypasses
  never change cache contents, so every design can passively observe the
  same simulation; this is what makes the coverage sweeps (Figures 10-14)
  tractable in pure Python.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.coverage import CoverageMeter
from repro.analysis.timing import AccessTimingModel
from repro.cache.cache import AccessKind
from repro.cache.hierarchy import AccessOutcome, CacheHierarchy, HierarchyConfig
from repro.core.base import Placement
from repro.core.machine import MNMDesign, MostlyNoMachine
from repro.cpu.branch import BranchPredictor
from repro.cpu.core import (
    CoreConfig,
    CoreResult,
    OutOfOrderCore,
    core_references,
    paper_core,
)
from repro.cpu.memory import MemorySystem
from repro.power.energy import EnergyAccountant, EnergyTotals, HierarchyEnergyModel
from repro.power.mnm_power import (
    machine_level_query_energies_nj,
    machine_query_energy_nj,
    machine_update_energy_nj,
)
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    access_record,
    get_profiler,
    get_registry,
    get_tracer,
)
from repro.workloads.trace import Trace


class _AccessTelemetry:
    """Per-run buffer of one design's access metrics.

    Built only when the global registry is live, so the hot paths pay a
    single ``is not None`` check when telemetry is disabled.  Counts are
    buffered locally (plain ints) rather than written straight into the
    registry so the warmup boundary can :meth:`clear` them — warmup
    accesses never leak into the snapshot — and :meth:`flush` folds the
    measured totals into the global instruments at the end of a run.

    The bypass and candidate counts follow :class:`~repro.analysis.
    coverage.CoverageMeter` semantics exactly: a tier is a *candidate*
    when the walk reached and missed it (tiers 2..missed) and *bypassed*
    when its miss bit was also set — so snapshot counters and meter
    totals agree by construction.
    """

    __slots__ = ("_registry", "_design", "_with_access",
                 "accesses", "latency", "bypass", "candidates")

    def __init__(self, registry: MetricsRegistry, design_name: str,
                 num_tiers: int, with_access_instruments: bool = True) -> None:
        self._registry = registry
        self._design = design_name
        self._with_access = with_access_instruments
        self.accesses = 0
        self.latency = (Histogram("memory.latency_cycles")
                        if with_access_instruments else None)
        self.bypass = [0] * num_tiers
        self.candidates = [0] * num_tiers

    def record(self, outcome: AccessOutcome,
               bits: Optional[Sequence[bool]],
               latency: Optional[int] = None) -> None:
        """Fold one (outcome, bits, latency) triple into the buffer."""
        self.record_many(outcome, bits, 1, latency)

    def record_many(self, outcome: AccessOutcome,
                    bits: Optional[Sequence[bool]], count: int,
                    latency: Optional[int] = None) -> None:
        """Fold ``count`` identical triples: ``count`` :meth:`record` calls."""
        self.accesses += count
        if self.latency is not None and latency is not None:
            self.latency.observe_many(latency, count)
        candidates = self.candidates
        bypass = self.bypass
        for tier in range(2, outcome.tiers_missed + 1):
            candidates[tier - 1] += count
            if bits is not None and bits[tier - 1]:
                bypass[tier - 1] += count

    def clear(self) -> None:
        """Zero the buffer (the warmup boundary)."""
        self.accesses = 0
        if self.latency is not None:
            self.latency.reset()
        self.bypass = [0] * len(self.bypass)
        self.candidates = [0] * len(self.candidates)

    def flush(self) -> None:
        """Fold the buffered totals into the global registry and clear."""
        registry = self._registry
        if self._with_access:
            registry.counter("memory.accesses").inc(self.accesses)
            if self.latency is not None:
                registry.histogram(
                    "memory.latency_cycles", self.latency.bounds
                ).merge(self.latency)
        prefix = f"mnm.{self._design}"
        for tier in range(2, len(self.bypass) + 1):
            registry.counter(
                f"{prefix}.candidates.l{tier}").inc(self.candidates[tier - 1])
            registry.counter(
                f"{prefix}.bypass.l{tier}").inc(self.bypass[tier - 1])
        self.clear()


class SimulatedMemory(MemorySystem):
    """Memory system backed by the simulated hierarchy and an optional MNM.

    Each access queries the MNM first (hardware order: the decision must
    exist before the walk), walks the hierarchy, then feeds the optional
    coverage meter and energy accountant, and returns the priced latency.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        mnm: Optional[MostlyNoMachine] = None,
        timing: Optional[AccessTimingModel] = None,
        accountant: Optional[EnergyAccountant] = None,
        coverage: Optional[CoverageMeter] = None,
        prefetcher: Optional["NextLinePrefetcher"] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.mnm = mnm
        if timing is None:
            timing = AccessTimingModel(hierarchy.config)
        self.timing = timing
        self.accountant = accountant
        self.coverage = coverage
        self.prefetcher = prefetcher
        l1i = hierarchy.cache_for(1, AccessKind.INSTRUCTION).config
        self._fetch_block = l1i.block_size
        self._l1i_latency = l1i.hit_latency
        # Telemetry: resolved once at construction; disabled runs pay a
        # single None-check per access.
        self._design_name = mnm.name if mnm is not None else "NONE"
        registry = get_registry()
        self._telemetry = (
            _AccessTelemetry(registry, self._design_name, hierarchy.num_tiers)
            if registry.enabled else None
        )
        tracer = get_tracer()
        self._tracer = tracer if tracer.enabled else None

    def access(self, address: int, kind: AccessKind) -> int:
        bits = self.mnm.query(address, kind) if self.mnm is not None else None
        outcome = self.hierarchy.access(address, kind)
        if self.coverage is not None and bits is not None:
            self.coverage.record(outcome, bits)
        if self.accountant is not None:
            self.accountant.account(outcome, bits)
        if self.prefetcher is not None:
            # prefetches walk the hierarchy off the critical path; their
            # fills train the MNM through the normal event streams
            self.prefetcher.on_demand_access(address, kind, outcome)
        latency = self.timing.latency(outcome, bits)
        if self._telemetry is not None:
            self._telemetry.record(outcome, bits, latency)
        tracer = self._tracer
        if tracer is not None and tracer.want():
            tracer.emit(access_record(
                address, kind.value, outcome.supplier, outcome.tiers_missed,
                {self._design_name: bits} if bits is not None else {},
                latency,
            ))
        return latency

    @property
    def fetch_block_size(self) -> int:
        return self._fetch_block

    @property
    def l1_instruction_latency(self) -> int:
        return self._l1i_latency

    def reset_meters(self) -> None:
        """Zero measurement state (energy, coverage, cache counters) while
        keeping all warmed simulation state — the warmup boundary."""
        if self.accountant is not None:
            self.accountant.reset()
        if self.coverage is not None:
            self.coverage.reset()
        if self._telemetry is not None:
            self._telemetry.clear()
        self.hierarchy.reset_stats()

    def export_telemetry(self) -> None:
        """Flush buffered access metrics into the global metrics registry.

        No-op when telemetry is disabled.  :func:`run_core_trace` calls
        this at the end of a run; standalone users of
        :class:`SimulatedMemory` call it themselves once measurement is
        over (after which the buffer starts from zero again).
        """
        if self._telemetry is not None:
            self._telemetry.flush()


class ReplayedMemory(MemorySystem):
    """Memory system that hands the core precomputed latencies in order.

    The fast engine computes a full-system run's memory side first: the
    latency of every access the core will make, in order
    (:func:`repro.cpu.core.core_references`).  This replays them.  It
    raises if the core asks for an ``(address, kind)`` other than the
    next one derived, if the warm-up boundary falls elsewhere than
    derived, or (:meth:`finish`) if a latency is left over.
    """

    def __init__(self, addresses: Sequence[int], kinds: Sequence[int],
                 kind_of: Sequence[AccessKind], latencies: Sequence[int],
                 fetch_block_size: int, l1_instruction_latency: int,
                 boundary: int) -> None:
        self._addresses = addresses
        self._kinds = kinds
        self._kind_of = kind_of
        self._latencies = latencies
        self._fetch_block = fetch_block_size
        self._l1i_latency = l1_instruction_latency
        self._boundary = boundary
        self._next = 0

    def access(self, address: int, kind: AccessKind) -> int:
        index = self._next
        if (index >= len(self._latencies)
                or address != self._addresses[index]
                or kind is not self._kind_of[self._kinds[index]]):
            raise RuntimeError(
                f"core access {index} ({address:#x}, {kind!r}) is not the "
                f"derived reference stream's"
            )
        self._next = index + 1
        return self._latencies[index]

    @property
    def fetch_block_size(self) -> int:
        return self._fetch_block

    @property
    def l1_instruction_latency(self) -> int:
        return self._l1i_latency

    def end_warmup(self) -> None:
        """The core's warm-up boundary: it must fall where derived."""
        if self._next != self._boundary:
            raise RuntimeError(
                f"warm-up ended after {self._next} accesses, derived "
                f"{self._boundary}"
            )

    def finish(self) -> None:
        """Raise unless the core consumed every latency."""
        left = len(self._latencies) - self._next
        if left:
            raise RuntimeError(f"{left} derived accesses were never made")


def build_memory(
    hierarchy_config: HierarchyConfig,
    design: Optional[MNMDesign] = None,
    with_energy: bool = True,
    with_coverage: bool = True,
    writeback: bool = False,
    prefetch_degree: int = 0,
    hierarchy: Optional[CacheHierarchy] = None,
) -> SimulatedMemory:
    """Wire a fresh hierarchy + MNM + meters for one design.

    ``design=None`` (or a design with no filters and no RMNM) builds the
    no-MNM baseline.  ``writeback`` enables dirty-victim write-back
    traffic; ``prefetch_degree`` > 0 attaches a tagged next-N-line
    prefetcher (both off for the paper's experiments).  ``hierarchy``
    wires to an existing hierarchy of ``hierarchy_config`` instead of a
    fresh one (``writeback`` is then the hierarchy's own).
    """
    from repro.cache.prefetch import NextLinePrefetcher

    if hierarchy is None:
        hierarchy = CacheHierarchy(hierarchy_config, writeback=writeback)
    prefetcher = (
        NextLinePrefetcher(hierarchy, degree=prefetch_degree)
        if prefetch_degree > 0
        else None
    )
    mnm: Optional[MostlyNoMachine] = None
    timing = AccessTimingModel(hierarchy_config)
    accountant = None
    coverage = None

    if design is not None and _design_is_active(design):
        mnm = MostlyNoMachine(hierarchy, design)
        timing = AccessTimingModel(
            hierarchy_config,
            placement=design.placement,
            mnm_delay=design.delay,
            mnm_free=design.perfect,
        )
        if with_coverage:
            coverage = CoverageMeter(hierarchy.num_tiers)

    if with_energy:
        model = HierarchyEnergyModel(hierarchy_config)
        if mnm is not None:
            accountant = EnergyAccountant(
                model,
                placement=design.placement,
                mnm_query_nj=machine_query_energy_nj(mnm),
                mnm_update_nj=machine_update_energy_nj(mnm),
                mnm_level_query_nj=machine_level_query_energies_nj(mnm),
            )
        else:
            accountant = EnergyAccountant(model)

    return SimulatedMemory(hierarchy, mnm, timing, accountant, coverage,
                           prefetcher=prefetcher)


def _design_is_active(design: MNMDesign) -> bool:
    return bool(
        design.perfect
        or design.rmnm_geometry is not None
        or design.default_factories
        or design.level_factories
    )


# ---------------------------------------------------------------------------
# Full-system runs (core + memory): Figures 15/16, Table 2
# ---------------------------------------------------------------------------

@dataclass
class WorkloadRun:
    """Result bundle of one full-system trace run."""

    workload: str
    design_name: str
    core: CoreResult
    coverage: Optional[CoverageMeter]
    energy: Optional[EnergyTotals]
    cache_stats: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # cache_stats: name -> (probes, hits)

    @property
    def cycles(self) -> int:
        return self.core.cycles

    def hit_rate(self, cache_name: str) -> float:
        probes, hits = self.cache_stats.get(cache_name, (0, 0))
        return hits / probes if probes else 0.0


def _check_engine(engine: str) -> None:
    if engine not in ("interp", "fast"):
        raise ValueError(
            f"unknown engine {engine!r} (expected 'interp' or 'fast')"
        )


def _use_kernel(engine: str) -> bool:
    """True when ``engine`` resolves to the fast kernel.

    The decision tracer forces the interpreter (only it emits per-access
    records), and so does a numpy-free install; both are safe because
    the engines agree on every reported number.
    """
    if engine != "fast" or get_tracer().enabled:
        return False
    from repro.kernel import engine_available

    return engine_available()


def run_core_trace(
    trace: Trace,
    hierarchy_config: HierarchyConfig,
    design: Optional[MNMDesign] = None,
    core_config: Optional[CoreConfig] = None,
    predictor: Optional[BranchPredictor] = None,
    warmup: int = 0,
    engine: str = "fast",
) -> WorkloadRun:
    """Run the out-of-order core over a trace with one MNM design.

    ``warmup`` instructions train caches/filters/predictors but are
    excluded from every reported number (the paper's SimPoint-style
    fast-forward, scaled down).

    ``engine`` picks how the memory side is computed, with the same
    values and fallbacks as :func:`run_reference_pass`.  ``"interp"``
    runs the core against :class:`SimulatedMemory`, which queries, walks
    and prices each access as the core makes it: the oracle.  ``"fast"``
    relies on the core making its accesses in program order whatever
    the timing, so each access's latency, energy and coverage depend
    only on (trace, hierarchy, design): the kernel records, replays and
    accounts the core's reference stream in batch
    (:func:`_kernel_memory`), then the unchanged core runs against
    :class:`ReplayedMemory`.  Both return identical results.
    """
    _check_engine(engine)
    if core_config is None:
        core_config = paper_core(8)
    profiler = get_profiler()
    started = time.perf_counter() if profiler.enabled else 0.0
    if _use_kernel(engine):
        memory, replayed = _kernel_memory(trace, hierarchy_config, design,
                                          warmup)
        core = OutOfOrderCore(core_config, replayed, predictor)
        result = core.run(trace.instructions, warmup=warmup,
                          on_warmup_end=replayed.end_warmup)
        replayed.finish()
    else:
        memory = build_memory(hierarchy_config, design)
        core = OutOfOrderCore(core_config, memory, predictor)
        result = core.run(trace.instructions, warmup=warmup,
                          on_warmup_end=memory.reset_meters)
    stats = {
        cache.config.name: (cache.stats.probes, cache.stats.hits)
        for _, cache in memory.hierarchy.all_caches()
    }
    registry = get_registry()
    if registry.enabled:
        registry.counter("core.instructions").inc(result.instructions)
        registry.counter("core.cycles").inc(result.cycles)
        memory.export_telemetry()
        memory.hierarchy.export_stats(registry)
    if profiler.enabled:
        profiler.add("core_trace", time.perf_counter() - started,
                     units=result.instructions, unit_name="instructions")
    return WorkloadRun(
        workload=trace.name,
        design_name=design.name if design is not None else "NONE",
        core=result,
        coverage=memory.coverage,
        energy=memory.accountant.totals if memory.accountant else None,
        cache_stats=stats,
    )


def _kernel_memory(
    trace: Trace,
    hierarchy_config: HierarchyConfig,
    design: Optional[MNMDesign],
    warmup: int,
) -> Tuple[SimulatedMemory, ReplayedMemory]:
    """A full-system run's memory side, computed by the kernel in batch.

    Records the core's reference stream, then wires the design's machine,
    timing model, accountant, coverage meter and telemetry buffer exactly
    as :func:`build_memory` does for the interpreter, onto the walked
    hierarchy (which is never accessed again, so the machine's own
    listeners never fire; its filters learn from the replayed events).
    Queries start at reference 0, because warm-up latencies steer the
    core's timing; coverage, energy, telemetry and cache statistics count
    from the warm-up boundary, the first access of instruction
    ``warmup``.  Returns the filled-in memory and the core's replay.
    """
    from repro.kernel.engine import (
        KINDS,
        Accounting,
        Replay,
        count_classes,
        record,
    )

    instructions = trace.instructions
    level_one = hierarchy_config.tiers[0]
    fetch_block = (level_one.unified or level_one.instruction).block_size
    boundary = 0
    if 0 < warmup < len(instructions):
        boundary = sum(1 for _ in core_references(instructions[:warmup],
                                                  fetch_block))
    recording = record(core_references(instructions, fetch_block),
                       hierarchy_config, reset_at=boundary)
    memory = build_memory(hierarchy_config, design,
                          hierarchy=recording.hierarchy)
    with_bits = memory.mnm is not None
    bits = Replay(recording).bits(memory.mnm) if with_bits else None
    accounting = Accounting(recording)
    class_ids = accounting.class_ids(bits)
    size = accounting.num_classes(with_bits)
    _counts, present = count_classes(class_ids, size)
    latency_of = accounting.table(present, with_bits, memory.timing.latency)
    measured = class_ids[boundary:]
    counts, present = count_classes(measured, size)
    accounting.fold(counts, present, with_bits, latency_of, memory.coverage,
                    memory._telemetry)
    accounting.energy(memory.accountant, measured, present, with_bits)
    replayed = ReplayedMemory(
        recording.addresses, recording.kinds, KINDS,
        memoryview(latency_of[class_ids]), fetch_block,
        memory.l1_instruction_latency, boundary)
    return memory, replayed


# ---------------------------------------------------------------------------
# Multi-design reference passes: Figures 2/3/10-14
# ---------------------------------------------------------------------------

@dataclass
class DesignPassResult:
    """Per-design accumulators from a shared reference pass."""

    design_name: str
    coverage: CoverageMeter
    energy: EnergyTotals
    access_time: int  # summed data access time under this design
    storage_bits: int = 0  # MNM state cost of the design on this hierarchy


@dataclass
class ReferencePassResult:
    """Everything measured in one multi-design reference pass."""

    workload: str
    hierarchy_name: str
    references: int
    baseline_access_time: int
    baseline_miss_time: int
    baseline_energy: EnergyTotals
    designs: Dict[str, DesignPassResult]
    cache_stats: Dict[str, Tuple[int, int]]

    @property
    def miss_time_fraction(self) -> float:
        """Figure 2's metric for this workload/hierarchy."""
        if not self.baseline_access_time:
            return 0.0
        return self.baseline_miss_time / self.baseline_access_time

    def access_time_reduction(self, design_name: str) -> float:
        """Relative data-access-time saving of one design."""
        if not self.baseline_access_time:
            return 0.0
        saved = self.baseline_access_time - self.designs[design_name].access_time
        return saved / self.baseline_access_time

    def energy_reduction(self, design_name: str) -> float:
        """Relative cache+MNM energy saving of one design (Figure 16)."""
        baseline = self.baseline_energy.total_nj
        if not baseline:
            return 0.0
        return (baseline - self.designs[design_name].energy.total_nj) / baseline


def run_reference_pass(
    references: Iterable[Tuple[int, AccessKind]],
    hierarchy_config: HierarchyConfig,
    designs: Sequence[MNMDesign],
    workload_name: str = "",
    warmup: int = 0,
    engine: str = "fast",
) -> ReferencePassResult:
    """Evaluate many MNM designs against one shared hierarchy simulation.

    All designs observe identical cache state (bypass never changes
    contents), so filters, meters and accountants for every design ride on
    a single simulation pass.

    ``engine`` picks the implementation: ``"interp"`` is the reference
    interpreter below; ``"fast"`` is the numpy record/replay kernel in
    :mod:`repro.kernel`, byte-identical by contract (pinned by the
    engine-equivalence tests and CI).  When the access tracer is enabled
    the interpreter runs regardless of ``engine`` — only it emits
    per-access trace records — which is safe precisely because the two
    engines agree on every reported number.  On numpy-free installs
    ``"fast"`` likewise falls back to the interpreter (same results,
    just slower).
    """
    _check_engine(engine)
    if _use_kernel(engine):
        from repro.kernel import run_reference_pass_fast

        return run_reference_pass_fast(
            references, hierarchy_config, designs,
            workload_name=workload_name, warmup=warmup,
        )
    registry = get_registry()
    tracer = get_tracer()
    profiler = get_profiler()
    pass_started = time.perf_counter() if profiler.enabled else 0.0

    hierarchy = CacheHierarchy(hierarchy_config)
    timing = AccessTimingModel(hierarchy_config)
    energy_model = HierarchyEnergyModel(hierarchy_config)

    baseline_accountant = EnergyAccountant(energy_model)
    baseline_access_time = 0
    baseline_miss_time = 0

    entries: List[Tuple[MNMDesign, MostlyNoMachine, CoverageMeter,
                        EnergyAccountant, AccessTimingModel]] = []
    for design in designs:
        machine = MostlyNoMachine(hierarchy, design)
        meter = CoverageMeter(hierarchy.num_tiers)
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
        entries.append((design, machine, meter, accountant, design_timing))

    # Telemetry instruments (None when disabled — the common case — so
    # the loop below pays one truthiness check per reference).
    metrics: Optional[List[_AccessTelemetry]] = None
    ref_counter = None
    if registry.enabled:
        ref_counter = registry.counter("pass.references")
        metrics = [
            _AccessTelemetry(registry, design.name, hierarchy.num_tiers,
                             with_access_instruments=False)
            for design, *_ in entries
        ]
    trace_on = tracer.enabled
    telemetry_active = metrics is not None or trace_on

    # Hot-loop bindings: the per-design method tuples and the reused
    # ``bits_list`` buffer replace per-reference list/dict allocations
    # (pinned by the hot-path counter-equality test).
    design_names = tuple(entry[0].name for entry in entries)
    query_fns = tuple(entry[1].query for entry in entries)
    record_fns = tuple(entry[2].record for entry in entries)
    account_fns = tuple(entry[3].account for entry in entries)
    latency_fns = tuple(entry[4].latency for entry in entries)
    design_range = range(len(entries))
    hierarchy_access = hierarchy.access
    baseline_latency = timing.latency
    baseline_miss = timing.miss_time
    baseline_account = baseline_accountant.account

    access_times = [0] * len(entries)
    bits_list: List[Tuple[bool, ...]] = [()] * len(entries)
    count = 0
    seen = 0
    for address, kind in references:
        seen += 1
        if seen <= warmup:
            # Warm caches (filters train through the event listeners);
            # queries are pointless here since nothing is recorded.
            hierarchy_access(address, kind)
            if seen == warmup:
                hierarchy.reset_stats()
            continue
        count += 1
        for index in design_range:
            bits_list[index] = query_fns[index](address, kind)
        outcome = hierarchy_access(address, kind)
        baseline_access_time += baseline_latency(outcome)
        baseline_miss_time += baseline_miss(outcome)
        baseline_account(outcome)
        for index in design_range:
            bits = bits_list[index]
            record_fns[index](outcome, bits)
            account_fns[index](outcome, bits)
            access_times[index] += latency_fns[index](outcome, bits)
        if telemetry_active:
            if metrics is not None:
                ref_counter.inc()
                for index, recorder in enumerate(metrics):
                    recorder.record(outcome, bits_list[index])
            if trace_on and tracer.want():
                tracer.emit(access_record(
                    address, kind.value, outcome.supplier,
                    outcome.tiers_missed,
                    dict(zip(design_names, bits_list)),
                ))

    if count == 0:
        raise ValueError(
            f"reference pass for {workload_name or hierarchy_config.name!r} "
            f"measured nothing: warmup={warmup} consumed the entire "
            f"reference stream ({seen} references)"
        )
    results = {
        design.name: DesignPassResult(
            design_name=design.name,
            coverage=meter,
            energy=accountant.totals,
            access_time=access_times[index],
            storage_bits=machine.storage_bits,
        )
        for index, (design, machine, meter, accountant, _timing) in enumerate(entries)
    }
    cache_stats = {
        cache.config.name: (cache.stats.probes, cache.stats.hits)
        for _, cache in hierarchy.all_caches()
    }
    if metrics is not None:
        for recorder in metrics:
            recorder.flush()
        hierarchy.export_stats(registry)
    if profiler.enabled:
        profiler.add("reference_pass", time.perf_counter() - pass_started,
                     units=count, unit_name="references")
    return ReferencePassResult(
        workload=workload_name,
        hierarchy_name=hierarchy_config.name,
        references=count,
        baseline_access_time=baseline_access_time,
        baseline_miss_time=baseline_miss_time,
        baseline_energy=baseline_accountant.totals,
        designs=results,
        cache_stats=cache_stats,
    )


# ---------------------------------------------------------------------------
# Multi-core contention passes (shared tiers, competitive fills)
# ---------------------------------------------------------------------------

@dataclass
class MulticoreDesignResult:
    """Per-design accumulators from one shared multicore pass."""

    design_name: str
    coverage: CoverageMeter
    storage_bits: int
    cross_core_invalidations: int

    @property
    def bypass_rate(self) -> float:
        """Identified misses per measured reference (the contention figure's
        second axis: how often the MNM still earns its bypass under
        sharing)."""
        meter = self.coverage
        return meter.identified / meter.accesses if meter.accesses else 0.0


@dataclass
class MulticorePassResult:
    """Everything measured in one multi-design multicore pass."""

    workloads: Tuple[str, ...]
    hierarchy_name: str
    cores: int
    mnm_sharing: str
    l2_policy: str
    schedule: str
    schedule_seed: int
    references: int
    back_invalidations: int
    coherence_invalidations: int
    designs: Dict[str, MulticoreDesignResult]
    cache_stats: Dict[str, Tuple[int, int]]


def run_multicore_pass(
    per_core_references: Sequence[Sequence[Tuple[int, AccessKind]]],
    hierarchy_config: HierarchyConfig,
    designs: Sequence[MNMDesign],
    mc: "MulticoreConfig",
    workload_names: Tuple[str, ...] = (),
    warmup: int = 0,
    engine: str = "fast",
) -> MulticorePassResult:
    """Evaluate many MNM designs against one shared multicore simulation.

    ``per_core_references[i]`` is core *i*'s reference stream; the
    schedule in ``mc`` decides the interleaving.  As in
    :func:`run_reference_pass`, bypasses never change cache contents, so
    every design (each with its own :class:`~repro.multicore.mnm.
    MulticoreMNM` bank set) observes one shared simulation.

    The fast kernel does not model multicore contention: ``engine="fast"``
    deliberately falls back to this interpreter (pinned by
    ``tests/multicore/test_pass.py``), keeping the CLI's ``--engine``
    flag safe to pass everywhere.
    """
    from repro.analysis.coverage import CoverageMeter as _Meter
    from repro.multicore.config import MulticoreConfig
    from repro.multicore.hierarchy import MulticoreHierarchy
    from repro.multicore.mnm import MulticoreMNM
    from repro.multicore.schedule import interleave

    _check_engine(engine)
    if not isinstance(mc, MulticoreConfig):
        raise TypeError(f"mc must be a MulticoreConfig, got {type(mc)!r}")
    streams = [list(stream) for stream in per_core_references]
    if len(streams) != mc.cores:
        raise ValueError(
            f"{mc.cores} cores need {mc.cores} reference streams, "
            f"got {len(streams)}"
        )

    profiler = get_profiler()
    pass_started = time.perf_counter() if profiler.enabled else 0.0

    hierarchy = MulticoreHierarchy(hierarchy_config, mc)
    entries: List[Tuple[MNMDesign, MulticoreMNM, _Meter]] = [
        (
            design,
            MulticoreMNM(hierarchy, design, mc.mnm_sharing),
            _Meter(hierarchy.num_tiers),
        )
        for design in designs
    ]

    positions = [0] * mc.cores
    bits_list: List[Tuple[bool, ...]] = [()] * len(entries)
    design_range = range(len(entries))
    count = 0
    seen = 0
    for core in interleave(
        [len(stream) for stream in streams], mc.schedule, mc.schedule_seed
    ):
        address, kind = streams[core][positions[core]]
        positions[core] += 1
        seen += 1
        if seen <= warmup:
            hierarchy.access(core, address, kind)
            if seen == warmup:
                hierarchy.reset_stats()
                for _, mnm, _ in entries:
                    mnm.cross_core_invalidations = 0
            continue
        count += 1
        for index in design_range:
            bits_list[index] = entries[index][1].query(core, address, kind)
        outcome = hierarchy.access(core, address, kind)
        for index in design_range:
            entries[index][2].record(outcome, bits_list[index])

    if count == 0:
        raise ValueError(
            f"multicore pass for {hierarchy_config.name!r} measured "
            f"nothing: warmup={warmup} consumed the entire interleaved "
            f"stream ({seen} references)"
        )

    registry = get_registry()
    if registry.enabled:
        hierarchy.export_stats(registry)
    if profiler.enabled:
        profiler.add("multicore_pass", time.perf_counter() - pass_started,
                     units=count, unit_name="references")

    return MulticorePassResult(
        workloads=tuple(workload_names),
        hierarchy_name=hierarchy_config.name,
        cores=mc.cores,
        mnm_sharing=mc.mnm_sharing,
        l2_policy=mc.l2_policy,
        schedule=mc.schedule,
        schedule_seed=mc.schedule_seed,
        references=count,
        back_invalidations=hierarchy.back_invalidations,
        coherence_invalidations=hierarchy.coherence_invalidations,
        designs={
            design.name: MulticoreDesignResult(
                design_name=design.name,
                coverage=meter,
                storage_bits=mnm.storage_bits,
                cross_core_invalidations=mnm.cross_core_invalidations,
            )
            for design, mnm, meter in entries
        },
        cache_stats={
            cache.config.name: (cache.stats.probes, cache.stats.hits)
            for _, cache in hierarchy.all_caches()
        },
    )
