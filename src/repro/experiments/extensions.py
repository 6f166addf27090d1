"""Extension experiments (beyond the paper's tables and figures).

These runners follow the same conventions as the paper experiments so
the CLI, report generator and JSON output handle them uniformly; they are
flagged as extensions in the registry.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.sweep import pareto_frontier, sweep_designs
from repro.cache.presets import (
    DEPTH_PRESETS,
    hierarchy_preset,
    paper_hierarchy_5level,
)
from repro.core.presets import (
    figure10_designs,
    figure11_designs,
    figure12_designs,
    figure13_designs,
    figure14_designs,
    hmnm_design,
    parse_design,
    perfect_design,
)
from repro.experiments.base import (
    ExperimentResult,
    ExperimentSettings,
    mean_row,
    reference_pass,
)
from repro.workloads import get_trace


def run_pareto(settings: Optional[ExperimentSettings] = None) -> ExperimentResult:
    """Coverage-vs-storage Pareto frontier over every paper configuration.

    Answers the cross-technique question the paper's per-figure layout
    leaves implicit: which configurations are *efficient* — no smaller
    design matches their coverage?
    """
    settings = settings or ExperimentSettings()
    hierarchy = paper_hierarchy_5level()
    designs = (
        figure10_designs() + figure11_designs() + figure12_designs()
        + figure13_designs() + figure14_designs()
    )

    # merge reference streams of the selected workloads so the frontier
    # reflects the suite, not one application
    references: List = []
    for workload in settings.workload_list:
        trace = get_trace(workload, settings.num_instructions, settings.seed)
        references.extend(trace.memory_references())

    points = sweep_designs(
        references, hierarchy, designs,
        warmup=int(len(references) * settings.warmup_fraction),
        engine=settings.engine,
    )
    frontier_names = {p.design_name for p in pareto_frontier(points)}

    rows = []
    for point in sorted(points, key=lambda p: p.storage_bits):
        rows.append([
            point.design_name,
            round(point.storage_kb, 2),
            point.coverage * 100.0,
            round(point.coverage_per_kb * 100.0, 2),
            "yes" if point.design_name in frontier_names else "",
        ])
    violations = sum(p.violations for p in points)
    return ExperimentResult(
        experiment_id="pareto",
        title="Coverage vs storage across all paper configurations",
        headers=["design", "KB", "coverage %", "cov%/KB", "frontier"],
        rows=rows,
        notes=("WARNING: soundness violations!" if violations else
               "all designs one-sided (0 violations)"),
        paper_reference="extension (synthesises Figures 10-14)",
    )


def run_depth_sensitivity(
    settings: Optional[ExperimentSettings] = None,
) -> ExperimentResult:
    """MNM benefit vs hierarchy depth: HMNM2 and oracle access-time cuts.

    Extends Figures 2/15 into one view: the deeper the hierarchy, the
    larger the share of data-access time the MNM can reclaim, for a real
    hybrid and for the perfect bound, per workload.
    """
    settings = settings or ExperimentSettings()
    designs = (hmnm_design(2), perfect_design())
    rows: List[List[object]] = []
    for workload in settings.workload_list:
        row: List[object] = [workload]
        for preset in DEPTH_PRESETS:
            result = reference_pass(
                workload, hierarchy_preset(preset), designs, settings
            )
            row.append(result.access_time_reduction("HMNM2") * 100.0)
            row.append(result.access_time_reduction("PERFECT") * 100.0)
        rows.append(row)
    rows.append(mean_row("Arith. Mean", rows))
    headers = ["app"]
    for preset in DEPTH_PRESETS:
        headers.append(f"{preset} H2")
        headers.append(f"{preset} perf")
    return ExperimentResult(
        experiment_id="depth",
        title="Access-time reduction vs hierarchy depth [%]",
        headers=headers,
        rows=rows,
        paper_reference="extension (Figures 2 + 15 combined across depths)",
    )


def run_multicore_contention(
    settings: Optional[ExperimentSettings] = None,
    core_counts=None,
    sharings=("private", "shared", "hybrid"),
    l2_policies=("inclusive", "exclusive"),
    schedule: str = "round_robin",
    schedule_seed: int = 0,
    design_names=None,
) -> ExperimentResult:
    """The contention figure family: MNM coverage under shared hierarchies.

    For every (cores, MNM sharing, L2 policy) topology, every workload is
    run on all cores (per-core generator seeds) and the per-design
    coverage and bypass rate are averaged across workloads.  The paper
    never asked what sharing does to a miss proof; this table answers it:
    private filter banks stay sound (violations must read 0) but pay
    coverage for every cross-core downgrade, shared banks keep the
    single-core coverage at the cost of shared-port hardware, hybrid
    splits the difference per level.
    """
    from repro.experiments.base import multicore_pass
    from repro.experiments.planning import (
        MULTICORE_CORE_COUNTS,
        MULTICORE_DESIGNS,
    )
    from repro.multicore.config import MulticoreConfig

    settings = settings or ExperimentSettings()
    core_counts = tuple(core_counts or MULTICORE_CORE_COUNTS)
    names = tuple(design_names or MULTICORE_DESIGNS)
    designs = tuple(parse_design(name) for name in names)
    hierarchy = paper_hierarchy_5level()
    workloads = settings.workload_list

    rows: List[List[object]] = []
    total_back = 0
    total_coherence = 0
    for cores in core_counts:
        for sharing in sharings:
            for policy in l2_policies:
                mc = MulticoreConfig(
                    cores=cores, mnm_sharing=sharing, l2_policy=policy,
                    schedule=schedule, schedule_seed=schedule_seed,
                )
                per_design: dict = {
                    name: {"coverage": 0.0, "bypass": 0.0, "violations": 0,
                           "xcore": 0, "storage_bits": 0}
                    for name in names
                }
                for workload in workloads:
                    result = multicore_pass(
                        (workload,), hierarchy, designs, mc, settings
                    )
                    total_back += result.back_invalidations
                    total_coherence += result.coherence_invalidations
                    for name in names:
                        design_result = result.designs[name]
                        acc = per_design[name]
                        acc["coverage"] += design_result.coverage.coverage
                        acc["bypass"] += design_result.bypass_rate
                        acc["violations"] += design_result.coverage.violations
                        acc["xcore"] += design_result.cross_core_invalidations
                        acc["storage_bits"] = design_result.storage_bits
                for name in names:
                    acc = per_design[name]
                    count = len(workloads)
                    rows.append([
                        name, cores, sharing, policy,
                        acc["coverage"] / count * 100.0,
                        acc["bypass"] / count * 100.0,
                        acc["storage_bits"] / 8192.0,
                        acc["xcore"] // count,
                        acc["violations"],
                    ])
    return ExperimentResult(
        experiment_id="multicore",
        title="MNM coverage under multi-core contention",
        headers=["design", "cores", "sharing", "l2", "coverage %",
                 "bypass %", "KB", "xcore-inv", "violations"],
        rows=rows,
        notes=(f"{len(workloads)} workloads per topology; "
               f"schedule={schedule} seed={schedule_seed}; "
               f"back-invalidations={total_back} "
               f"coherence-invalidations={total_coherence}; "
               "violations must be 0 (soundness contract)"),
        paper_reference="extension (sharing axis the paper never models)",
    )


def run_search_extension(
    settings: Optional[ExperimentSettings] = None,
) -> ExperimentResult:
    """A small seeded random design-space search, as a registry experiment.

    The full autotuner lives behind ``repro-mnm search`` with its own
    space/sampler/objective flags; this entry gives ``repro-mnm all`` (and
    the report generator) a representative taste: 16 random candidates
    from the paper space plus the fixed paper line-up, ranked by coverage.
    """
    from repro.search import Objective, make_sampler, run_search, space_preset

    settings = settings or ExperimentSettings()
    report = run_search(
        space_preset("paper"),
        make_sampler("random", seed=settings.seed, num_samples=16),
        Objective(metric="coverage"),
        settings=settings,
    )
    rows: List[List[object]] = []
    for rank, evaluation in enumerate(report.ranked[:report.top_k], start=1):
        rows.append([
            evaluation.point.name,
            rank,
            evaluation.point.family,
            round(evaluation.storage_kb, 2),
            evaluation.coverage * 100.0,
        ])
    frontier = ", ".join(point.design_name for point in report.frontier)
    return ExperimentResult(
        experiment_id="search",
        title="Design-space search: top configurations by coverage",
        headers=["design", "rank", "family", "KB", "coverage %"],
        rows=rows,
        notes=(f"evaluated {report.evaluated} candidates "
               f"({report.pruned} pruned) from a {report.space_size}-point "
               f"space; frontier: {frontier}"),
        paper_reference="extension (searches beyond Figures 10-14)",
    )
