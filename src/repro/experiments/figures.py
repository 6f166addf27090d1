"""Runners for every figure in the paper's evaluation.

Each function reproduces one figure's data as an
:class:`~repro.experiments.base.ExperimentResult` whose rows mirror the
figure's bars: one row per application plus the arithmetic mean.  See
DESIGN.md §4 for the experiment index and EXPERIMENTS.md for measured
numbers against the paper's.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.presets import (
    DEPTH_PRESETS,
    hierarchy_preset,
    paper_hierarchy_5level,
)
from repro.core.base import Placement
from repro.core.machine import MNMDesign
from repro.core.presets import (
    figure10_designs,
    figure11_designs,
    figure12_designs,
    figure13_designs,
    figure14_designs,
    figure15_designs,
)
from repro.experiments.base import (
    ExperimentResult,
    ExperimentSettings,
    core_run,
    mean_row,
    reference_pass,
)


def run_figure2(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 2: fraction of data-access time caused by cache misses."""
    settings = settings or ExperimentSettings()
    rows: List[List[object]] = []
    for workload in settings.workload_list:
        row: List[object] = [workload]
        for preset in DEPTH_PRESETS:
            result = reference_pass(
                workload, hierarchy_preset(preset), (), settings
            )
            row.append(result.miss_time_fraction * 100.0)
        rows.append(row)
    rows.append(mean_row("Arith. Mean", rows))
    return ExperimentResult(
        experiment_id="fig02",
        title="Fraction of misses in data access time [%]",
        headers=["app"] + [p for p in DEPTH_PRESETS],
        rows=rows,
        paper_reference="Figure 2: ~25.5% at 5 levels, growing with depth",
    )


def run_figure3(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 3: fraction of cache energy spent on miss probes."""
    settings = settings or ExperimentSettings()
    rows: List[List[object]] = []
    for workload in settings.workload_list:
        row: List[object] = [workload]
        for preset in DEPTH_PRESETS:
            result = reference_pass(
                workload, hierarchy_preset(preset), (), settings
            )
            row.append(result.baseline_energy.miss_fraction * 100.0)
        rows.append(row)
    rows.append(mean_row("Arith. Mean", rows))
    return ExperimentResult(
        experiment_id="fig03",
        title="Fraction of misses in cache power consumption [%]",
        headers=["app"] + [p for p in DEPTH_PRESETS],
        rows=rows,
        paper_reference="Figure 3: ~18% at 5 levels on average",
    )


def _coverage_figure(
    experiment_id: str,
    title: str,
    designs: Tuple[MNMDesign, ...],
    settings: ExperimentSettings,
    paper_reference: str,
) -> ExperimentResult:
    """Shared machinery for Figures 10-14: coverage per design per app."""
    hierarchy = paper_hierarchy_5level()
    rows: List[List[object]] = []
    violations = 0
    for workload in settings.workload_list:
        result = reference_pass(workload, hierarchy, designs, settings)
        row: List[object] = [workload]
        for design in designs:
            meter = result.designs[design.name].coverage
            violations += meter.violations
            row.append(meter.coverage * 100.0)
        rows.append(row)
    rows.append(mean_row("Arith. Mean", rows))
    notes = ""
    if violations:
        notes = f"WARNING: {violations} soundness violations observed!"
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["app"] + [d.name for d in designs],
        rows=rows,
        notes=notes,
        paper_reference=paper_reference,
    )


def run_figure10(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 10: RMNM coverage for four replacement-cache geometries."""
    return _coverage_figure(
        "fig10", "RMNM coverage [%]", figure10_designs(),
        settings or ExperimentSettings(),
        "Figure 10: low on average (~24% for RMNM_4096_8); cold-miss "
        "dominated apps near zero",
    )


def run_figure11(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 11: SMNM coverage for four checker configurations."""
    return _coverage_figure(
        "fig11", "SMNM coverage [%]", figure11_designs(),
        settings or ExperimentSettings(),
        "Figure 11: weakest technique; best on small-cache-miss-heavy apps "
        "(apsi)",
    )


def run_figure12(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 12: TMNM coverage for four table configurations."""
    return _coverage_figure(
        "fig12", "TMNM coverage [%]", figure12_designs(),
        settings or ExperimentSettings(),
        "Figure 12: ~25.6% for TMNM_12x3; TMNM_10x3 beats the larger "
        "TMNM_11x2 (parallel tables win)",
    )


def run_figure13(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 13: CMNM coverage for four finder/table configurations."""
    return _coverage_figure(
        "fig13", "CMNM coverage [%]", figure13_designs(),
        settings or ExperimentSettings(),
        "Figure 13: best single technique (~46.4% for CMNM_8_12)",
    )


def run_figure14(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 14: HMNM coverage for the Table 3 hybrids."""
    return _coverage_figure(
        "fig14", "HMNM coverage [%]", figure14_designs(),
        settings or ExperimentSettings(),
        "Figure 14: hybrids dominate; HMNM4 ~53.1% on average",
    )


def _performance_designs() -> Tuple[MNMDesign, ...]:
    return figure15_designs()


def run_figure15(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 15: execution-cycle reduction with a parallel MNM.

    One out-of-order-core run per (workload, design) against the 5-level
    hierarchy, parallel placement, plus a no-MNM baseline.
    """
    settings = settings or ExperimentSettings()
    hierarchy = paper_hierarchy_5level()
    designs = _performance_designs()
    rows: List[List[object]] = []
    for workload in settings.workload_list:
        baseline = core_run(workload, hierarchy, None, settings)
        row: List[object] = [workload]
        for design in designs:
            run = core_run(workload, hierarchy, design, settings)
            reduction = (
                (baseline.cycles - run.cycles) / baseline.cycles
                if baseline.cycles
                else 0.0
            )
            row.append(reduction * 100.0)
        rows.append(row)
    rows.append(mean_row("Arith. Mean", rows))
    return ExperimentResult(
        experiment_id="fig15",
        title="Reduction in execution cycles [%], parallel MNM",
        headers=["app"] + [d.name for d in designs],
        rows=rows,
        paper_reference="Figure 15: HMNM4 up to 12.4% (5.4% avg); perfect up "
        "to 25.0% (10.0% avg)",
        notes="Magnitudes run above the paper's because the synthetic "
        "workloads are more memory-bound than 300M-instruction SPEC "
        "samples (see EXPERIMENTS.md); orderings and per-app contrasts "
        "are the reproduced shape.",
    )


def run_figure16(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Figure 16: cache power reduction with a serial MNM."""
    settings = settings or ExperimentSettings()
    hierarchy = paper_hierarchy_5level()
    designs = tuple(
        design.with_placement(Placement.SERIAL) for design in _performance_designs()
    )
    rows: List[List[object]] = []
    for workload in settings.workload_list:
        baseline = core_run(workload, hierarchy, None, settings)
        baseline_energy = baseline.energy.total_nj
        row: List[object] = [workload]
        for design in designs:
            run = core_run(workload, hierarchy, design, settings)
            reduction = (
                (baseline_energy - run.energy.total_nj) / baseline_energy
                if baseline_energy
                else 0.0
            )
            row.append(reduction * 100.0)
        rows.append(row)
    rows.append(mean_row("Arith. Mean", rows))
    return ExperimentResult(
        experiment_id="fig16",
        title="Reduction in cache power consumption [%], serial MNM",
        headers=["app"] + [d.name for d in designs],
        rows=rows,
        paper_reference="Figure 16: HMNM4 up to 11.6% (3.8% avg); perfect up "
        "to 37.6% (10.2% avg)",
    )
