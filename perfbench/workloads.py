"""The benchmark's four workloads: set-up, operations and output checks.

Each workload turns a seed and a :class:`Scale` into a :class:`Prepared`
list of operations.  One operation is one user-visible call into the
public ``repro`` API; a *round* runs every operation once, in order.
Set-up generates every trace the operations need (the program only ever
receives generated traces) and builds the hierarchy and design
configurations.  Each operation's result is inspected after it returns,
outside its timing: how much work it did, whether any design broke the
soundness invariant, and a digest of every simulated number.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import numbers
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import simulate
from repro.cache.presets import hierarchy_preset, paper_hierarchy_5level
from repro.core.presets import (
    figure10_designs,
    figure11_designs,
    figure12_designs,
    figure13_designs,
    figure14_designs,
    figure15_designs,
    parse_design,
)
from repro.experiments.base import DEFAULT_WARMUP_FRACTION, ExperimentSettings
from repro.experiments.checkpoint import RunJournal
from repro.experiments.executor import default_jobs
from repro.experiments.passcache import configure_pass_cache
from repro.experiments.planning import MULTICORE_DESIGNS
from repro.multicore.config import L2_POLICIES, SHARINGS, MulticoreConfig
from repro.search import Objective, SuccessiveHalvingSampler, space_preset
from repro.search import runner as search_runner
from repro.workloads import get_trace, workload_names
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class Scale:
    """Input sizes, in instructions per generated trace."""

    sweep_instructions: int
    fullsys_instructions: int
    contention_instructions: int
    search_instructions: int
    #: Candidates the search's sampler draws per operation.
    search_samples: int
    #: Stream prefix the sweep's fast-versus-interpreter check replays.
    oracle_references: int


#: The default sizes keep each workload's split of self time over the
#: layers close to the repository's default of 120k instructions (see
#: perfbench/README.md, "Input sizes") while one sweep or fullsys round
#: still fits in a run.
SCALES: Dict[str, Scale] = {
    "default": Scale(sweep_instructions=30000, fullsys_instructions=20000,
                     contention_instructions=5000, search_instructions=6000,
                     search_samples=6, oracle_references=400),
    # For the benchmark's own tests: every path, a fraction of a second.
    "tiny": Scale(sweep_instructions=1000, fullsys_instructions=600,
                  contention_instructions=400, search_instructions=1000,
                  search_samples=3, oracle_references=120),
}

#: The contention workload's per-core streams: core *i* runs
#: ``CONTENTION_APPS[i % 2]`` with trace seed ``seed + i``.
CONTENTION_APPS = ("gcc", "twolf")
CONTENTION_CORES = 4

#: The search workload's fixed inputs.  The sampler seed is fixed so the
#: trace seed is the only thing a benchmark seed changes.
#: Two apps, so every sampler round fans out over the process pool.
SEARCH_APPS = ("gcc", "twolf")
SEARCH_SAMPLER_SEED = 0
SEARCH_ETA = 3
SEARCH_RUNGS = 2
#: 25 KB of filter state: prunes the largest sampled hybrids statically.
SEARCH_BUDGET_BITS = 25 * 8192
#: Upper bound on the search's process pool (also bounded by the CPUs).
SEARCH_MAX_JOBS = 4


@dataclass
class Inspection:
    """What one operation's result says, read after the operation."""

    #: Measured references x designs evaluated (the no-MNM baseline is one).
    design_refs: int
    violations: int
    digest: str
    #: The simulated pass results behind the exact per-layer counts.
    passes: List[object] = field(default_factory=list)
    #: The search report, when the operation ran one.
    report: Optional[object] = None


@dataclass
class Operation:
    """One closed-loop call: ``run`` is timed, ``inspect`` is not."""

    name: str
    run: Callable[[], object]
    inspect: Callable[[object], Inspection]


@dataclass
class Prepared:
    """A workload ready to run: its operations and the traces behind them."""

    operations: List[Operation]
    traces: List[Trace]
    fetch_block: int
    #: Pool size of the operations' executor (1 when they use none).
    jobs: int = 1
    #: Sweep only: of the named operations, those whose fast-engine
    #: snapshot of a stream prefix differs from the interpreter oracle's.
    oracle: Optional[Callable[[Sequence[str]], List[str]]] = None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def canonical(value):
    """A JSON-ready form of a result in which every number is exact."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return [[canonical(key), canonical(item)]
                for key, item in sorted(value.items(),
                                        key=lambda pair: repr(pair[0]))]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "__dict__"):
        return {key: canonical(item)
                for key, item in sorted(vars(value).items())}
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of :func:`canonical` — equal digests, equal results."""
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def snapshot(result):
    """Every number of a reference pass, floats exact, comparable.

    The shape of ``benchmarks/bench_kernel.py``'s oracle snapshot.
    """
    designs = tuple(
        (name,
         dataclasses.astuple(design.energy),
         design.access_time,
         design.storage_bits,
         design.coverage.accesses,
         design.coverage.violations,
         design.coverage.candidates,
         design.coverage.identified,
         tuple(design.coverage.tier_candidates(tier)
               for tier in range(2, design.coverage.num_tiers + 1)))
        for name, design in sorted(result.designs.items()))
    return (result.references,
            result.baseline_access_time,
            result.baseline_miss_time,
            dataclasses.astuple(result.baseline_energy),
            tuple(sorted(result.cache_stats.items())),
            designs)


def _inspect_pass(result) -> Inspection:
    """A reference or multicore pass: every design plus the baseline."""
    return Inspection(
        design_refs=result.references * (len(result.designs) + 1),
        violations=sum(design.coverage.violations
                       for design in result.designs.values()),
        digest=digest(result),
        passes=[result],
    )


def _fetch_block(hierarchy) -> int:
    return hierarchy.tiers[0].configs[0].block_size


def _streams(traces: Sequence[Trace], fetch_block: int) -> List[list]:
    return [list(trace.memory_references(fetch_block)) for trace in traces]


# ---------------------------------------------------------------------------
# sweep: Figures 10-14 on the fast engine
# ---------------------------------------------------------------------------

FIGURES = (("fig10", figure10_designs), ("fig11", figure11_designs),
           ("fig12", figure12_designs), ("fig13", figure13_designs),
           ("fig14", figure14_designs))


def prepare_sweep(seed: int, scale: Scale, workdir: str) -> Prepared:
    """One fast reference pass per (figure, app), 5-level hierarchy."""
    hierarchy = paper_hierarchy_5level()
    fetch_block = _fetch_block(hierarchy)
    apps = workload_names()
    traces = [get_trace(app, scale.sweep_instructions, seed) for app in apps]
    streams = _streams(traces, fetch_block)
    figures = [(figure, designs_fn()) for figure, designs_fn in FIGURES]

    def make(app, references, designs):
        warmup = int(len(references) * DEFAULT_WARMUP_FRACTION)
        return lambda: simulate.run_reference_pass(
            references, hierarchy, designs, workload_name=app,
            warmup=warmup, engine="fast")

    inputs = {f"{figure}/{app}": (app, references, designs)
              for figure, designs in figures
              for app, references in zip(apps, streams)}
    operations = [Operation(name, make(*args), _inspect_pass)
                  for name, args in inputs.items()]

    def oracle(names: Sequence[str]) -> List[str]:
        mismatched = []
        for name in names:
            app, references, designs = inputs[name]
            prefix = references[:scale.oracle_references]
            fast, interp = (
                snapshot(simulate.run_reference_pass(
                    prefix, hierarchy, designs, workload_name=app,
                    warmup=len(prefix) // 4, engine=engine))
                for engine in ("fast", "interp"))
            if fast != interp:
                mismatched.append(name)
        return mismatched

    return Prepared(operations, traces, fetch_block, oracle=oracle)


# ---------------------------------------------------------------------------
# fullsys: Figures 15/16 and Table 2 on the out-of-order core
# ---------------------------------------------------------------------------

def prepare_fullsys(seed: int, scale: Scale, workdir: str) -> Prepared:
    """One core run per (app, design): no-MNM baseline + Figure 15 line-up."""
    hierarchy = paper_hierarchy_5level()
    level_one = tuple(config.name for config in hierarchy.tiers[0].configs)
    instructions = scale.fullsys_instructions
    warmup = int(instructions * DEFAULT_WARMUP_FRACTION)
    designs = (None,) + figure15_designs()
    traces = [get_trace(app, instructions, seed) for app in workload_names()]

    def inspect(run) -> Inspection:
        return Inspection(
            design_refs=sum(run.cache_stats[name][0] for name in level_one),
            violations=run.coverage.violations if run.coverage else 0,
            digest=digest(run),
            passes=[run],
        )

    def make(trace, design):
        return lambda: simulate.run_core_trace(trace, hierarchy, design,
                                               warmup=warmup)

    operations = [
        Operation(f"{design.name if design else 'NONE'}/{trace.name}",
                  make(trace, design), inspect)
        for trace in traces for design in designs
    ]
    return Prepared(operations, traces, _fetch_block(hierarchy))


# ---------------------------------------------------------------------------
# contention: the multicore topologies
# ---------------------------------------------------------------------------

def prepare_contention(seed: int, scale: Scale, workdir: str) -> Prepared:
    """One multicore pass per (MNM sharing, L2 policy), 3-level hierarchy."""
    hierarchy = hierarchy_preset("3level")
    fetch_block = _fetch_block(hierarchy)
    names = tuple(CONTENTION_APPS[core % len(CONTENTION_APPS)]
                  for core in range(CONTENTION_CORES))
    traces = [get_trace(app, scale.contention_instructions, seed + core)
              for core, app in enumerate(names)]
    streams = _streams(traces, fetch_block)
    warmup = int(sum(map(len, streams)) * DEFAULT_WARMUP_FRACTION)
    designs = tuple(parse_design(name) for name in MULTICORE_DESIGNS)

    def make(mc):
        return lambda: simulate.run_multicore_pass(
            streams, hierarchy, designs, mc, workload_names=names,
            warmup=warmup, engine="fast")

    operations = [
        Operation(f"{sharing}/{policy}",
                  make(MulticoreConfig(cores=CONTENTION_CORES,
                                       mnm_sharing=sharing,
                                       l2_policy=policy)),
                  _inspect_pass)
        for sharing in SHARINGS for policy in L2_POLICIES
    ]
    return Prepared(operations, traces, fetch_block)


# ---------------------------------------------------------------------------
# search: successive halving over the paper space
# ---------------------------------------------------------------------------

def prepare_search(seed: int, scale: Scale, workdir: str) -> Prepared:
    """One ``run_search`` on a cold journal directory per operation."""
    settings = ExperimentSettings(
        num_instructions=scale.search_instructions, seed=seed,
        workloads=SEARCH_APPS, engine="fast")
    # Every trace prefix the sampler's fidelities ask for, generated here
    # (the program memoises them, and fork-started workers inherit them).
    traces = []
    for rung in range(SEARCH_RUNGS):
        fidelity = float(SEARCH_ETA) ** (rung - SEARCH_RUNGS + 1)
        instructions = max(search_runner.MIN_INSTRUCTIONS,
                           int(round(settings.num_instructions * fidelity)))
        traces.extend(get_trace(app, instructions, seed)
                      for app in SEARCH_APPS)
    hierarchy = paper_hierarchy_5level()
    space = space_preset("paper")
    objective = Objective(budget_bits=SEARCH_BUDGET_BITS)
    jobs = min(SEARCH_MAX_JOBS, default_jobs())

    def run():
        run_dir = tempfile.mkdtemp(prefix="search-", dir=workdir)
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        try:
            with RunJournal.open(run_dir) as journal:
                report = search_runner.run_search(
                    space,
                    SuccessiveHalvingSampler(
                        num_samples=scale.search_samples, eta=SEARCH_ETA,
                        num_rungs=SEARCH_RUNGS, seed=SEARCH_SAMPLER_SEED),
                    objective, settings=settings,
                    hierarchy_config=hierarchy, jobs=jobs, journal=journal,
                    include_baselines=False)
        finally:
            configure_pass_cache()
        return report, run_dir

    def inspect(outcome) -> Inspection:
        report, run_dir = outcome
        passes_dir = RunJournal.passes_dir(run_dir)
        passes = []
        try:
            # The passes this operation's executor computed, as its
            # workers wrote them.
            for name in sorted(os.listdir(passes_dir)):
                with open(os.path.join(passes_dir, name), "rb") as handle:
                    passes.append(pickle.load(handle)["payload"])
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return Inspection(
            design_refs=sum(result.references * (len(result.designs) + 1)
                            for result in passes),
            violations=sum(design.coverage.violations
                           for result in passes
                           for design in result.designs.values()),
            digest=digest((report.to_dict(), passes)),
            passes=passes,
            report=report,
        )

    operation = Operation("halving/paper", run, inspect)
    return Prepared([operation], traces, _fetch_block(hierarchy), jobs=jobs)



@dataclass(frozen=True)
class Workload:
    """A named workload, its set-up, and why the benchmark runs it."""

    name: str
    prepare: Callable[[int, Scale, str], Prepared]
    why: str
    #: Timed set-ups per run (``setup_s`` is their median): the trace
    #: sets' own, then more on further seeds, dropped, where a set-up is
    #: quick.  Fixed, so every run holds the same traces in memory.
    setups: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("sweep", prepare_sweep,
                 "Figures 10-14 on the fast engine: load on cache record, "
                 "core replay and kernel accounting, none on cpu", 3),
        Workload("fullsys", prepare_fullsys,
                 "Figures 15/16 and Table 2: per-instruction cpu work "
                 "dominates and the kernel is never used", 5),
        Workload("contention", prepare_contention,
                 "4-core topologies: coherence and back-invalidation drive "
                 "the filters' on_invalidate path, no kernel", 9),
        Workload("search", prepare_search,
                 "successive-halving search: the only load on experiments "
                 "(planning, pool, pass cache, journal) and search", 9),
    )
}


# ---------------------------------------------------------------------------
# Exact simulated counts
# ---------------------------------------------------------------------------

def simulated_counts(inspections: Sequence[Inspection]) -> Dict[str, float]:
    """Counts of the modelled machine over one round; they repeat exactly."""
    counts = dict.fromkeys((
        "cache.misses", "core.violations", "cpu.instructions",
        "multicore.coherence_invalidations", "multicore.back_invalidations",
        "multicore.cross_core_invalidations", "search.candidates.evaluated",
        "search.candidates.deduped", "search.candidates.pruned"), 0)
    identified = candidates = cycles = 0
    for inspection in inspections:
        for result in inspection.passes:
            counts["cache.misses"] += sum(
                probes - hits for probes, hits in result.cache_stats.values())
            if isinstance(result, simulate.WorkloadRun):
                meters = [result.coverage] if result.coverage else []
                counts["cpu.instructions"] += result.core.instructions
                cycles += result.core.cycles
            else:
                meters = [design.coverage
                          for design in result.designs.values()]
            if isinstance(result, simulate.MulticorePassResult):
                counts["multicore.coherence_invalidations"] += (
                    result.coherence_invalidations)
                counts["multicore.back_invalidations"] += (
                    result.back_invalidations)
                counts["multicore.cross_core_invalidations"] += sum(
                    design.cross_core_invalidations
                    for design in result.designs.values())
            for meter in meters:
                identified += meter.identified
                candidates += meter.candidates
                counts["core.violations"] += meter.violations
        report = inspection.report
        if report is not None:
            counts["search.candidates.evaluated"] += report.evaluated
            counts["search.candidates.deduped"] += report.deduped
            counts["search.candidates.pruned"] += report.pruned
    counts["core.coverage_pct"] = (
        100.0 * identified / candidates if candidates else 0.0)
    counts["cpu.ipc"] = counts["cpu.instructions"] / cycles if cycles else 0.0
    return counts


def reference_count(prepared: Prepared) -> int:
    """References in the reference streams of the set-up's traces."""
    return sum(sum(1 for _ in trace.memory_references(prepared.fetch_block))
               for trace in prepared.traces)
