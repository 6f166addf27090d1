"""Execution planning: experiments → independent simulation tasks.

The parallel executor (:mod:`repro.experiments.executor`) cannot ship
live :class:`~repro.core.machine.MNMDesign` objects to worker processes —
their filter factories are closures, which do not pickle.  Instead each
experiment contributes *task specs*: plain picklable descriptions
(workload, hierarchy config, paper design names, settings) that a worker
rebuilds locally with :func:`repro.core.presets.parse_design` and runs
through the same memoised entry points the serial path uses
(:func:`~repro.experiments.base.reference_pass` /
:func:`~repro.experiments.base.core_run`).  Because both sides construct
designs through the same preset functions, parent and worker derive
identical content-addressed cache keys — seeding the parent's cache with
worker results is therefore exact, and a parallel report is bit-identical
to a serial one.

Experiments whose work does not decompose into named-design passes
(``table1``, ``table3``, ``pareto``) simply have no planner and run
serially in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

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
    hmnm_design,
    parse_design,
    perfect_design,
)
from repro.experiments.base import (
    ExperimentSettings,
    core_run,
    multicore_pass,
    reference_pass,
)
from repro.experiments.passcache import (
    core_key,
    key_digest,
    multicore_key,
    pass_key,
)
from repro.multicore.config import MulticoreConfig

#: Characters of the cache-key digest used as a task's short id.  Twelve
#: hex chars (48 bits) keep manifests readable while making a collision
#: within one run's few hundred tasks vanishingly unlikely.
TASK_ID_CHARS = 12


def _build_design(name: str, placement: str) -> MNMDesign:
    design = parse_design(name)
    if design.placement.value != placement:
        design = design.with_placement(Placement(placement))
    return design


@dataclass(frozen=True)
class PassTask:
    """One multi-design reference pass, described portably."""

    workload: str
    hierarchy_config: HierarchyConfig
    design_names: Tuple[str, ...]
    placement: str
    settings: ExperimentSettings
    #: Which experiment planned this task — identity only (never part of
    #: the cache key, which is purely structural), stamped by
    #: ``plan_experiments`` so failures name their owner.
    experiment_id: str = ""

    def designs(self) -> Tuple[MNMDesign, ...]:
        return tuple(
            _build_design(name, self.placement) for name in self.design_names
        )

    #: Span/manifest label for this task family.
    kind = "reference_pass"

    def cache_key(self) -> str:
        return pass_key(self.workload, self.hierarchy_config,
                        self.designs(), self.settings)

    def task_id(self) -> str:
        """Short stable id (cache-key digest prefix) for spans/manifests."""
        return key_digest(self.cache_key())[:TASK_ID_CHARS]

    def describe(self) -> str:
        """Human-readable identity for error messages and the task ledger."""
        designs = ",".join(self.design_names) or "<baseline>"
        return (f"{self.experiment_id or '?'}: reference pass "
                f"workload={self.workload} "
                f"hierarchy={self.hierarchy_config.name} "
                f"designs={designs} placement={self.placement}")

    def execute(self):
        return reference_pass(self.workload, self.hierarchy_config,
                              self.designs(), self.settings)


@dataclass(frozen=True)
class CoreTask:
    """One full-system (out-of-order core) run, described portably."""

    workload: str
    hierarchy_config: HierarchyConfig
    design_name: Optional[str]  # None = no-MNM baseline
    placement: str
    settings: ExperimentSettings
    #: See :attr:`PassTask.experiment_id`.
    experiment_id: str = ""

    def design(self) -> Optional[MNMDesign]:
        if self.design_name is None:
            return None
        return _build_design(self.design_name, self.placement)

    #: Span/manifest label for this task family.
    kind = "core_run"

    def cache_key(self) -> str:
        return core_key(self.workload, self.hierarchy_config,
                        self.design(), self.settings)

    def task_id(self) -> str:
        """Short stable id (cache-key digest prefix) for spans/manifests."""
        return key_digest(self.cache_key())[:TASK_ID_CHARS]

    def describe(self) -> str:
        """Human-readable identity for error messages and the task ledger."""
        return (f"{self.experiment_id or '?'}: core run "
                f"workload={self.workload} "
                f"hierarchy={self.hierarchy_config.name} "
                f"design={self.design_name or '<baseline>'} "
                f"placement={self.placement}")

    def execute(self):
        return core_run(self.workload, self.hierarchy_config,
                        self.design(), self.settings)


@dataclass(frozen=True)
class MulticoreTask:
    """One multi-design multicore contention pass, described portably.

    ``workloads`` are assigned to cores round-robin by
    :func:`~repro.experiments.base.multicore_pass`; ``mc`` carries the
    topology (cores, MNM sharing, L2 policy, schedule + seed), all of
    which the cache key covers.
    """

    workloads: Tuple[str, ...]
    hierarchy_config: HierarchyConfig
    design_names: Tuple[str, ...]
    mc: "MulticoreConfig"
    settings: ExperimentSettings
    #: See :attr:`PassTask.experiment_id`.
    experiment_id: str = ""

    def designs(self) -> Tuple[MNMDesign, ...]:
        return tuple(parse_design(name) for name in self.design_names)

    #: Span/manifest label for this task family.
    kind = "multicore_pass"

    def cache_key(self) -> str:
        return multicore_key(self.workloads, self.hierarchy_config,
                             self.designs(), self.mc, self.settings)

    def task_id(self) -> str:
        """Short stable id (cache-key digest prefix) for spans/manifests."""
        return key_digest(self.cache_key())[:TASK_ID_CHARS]

    def describe(self) -> str:
        """Human-readable identity for error messages and the task ledger."""
        designs = ",".join(self.design_names) or "<baseline>"
        return (f"{self.experiment_id or '?'}: multicore pass "
                f"workloads={','.join(self.workloads)} "
                f"hierarchy={self.hierarchy_config.name} "
                f"cores={self.mc.cores} sharing={self.mc.mnm_sharing} "
                f"l2={self.mc.l2_policy} designs={designs}")

    def execute(self):
        return multicore_pass(self.workloads, self.hierarchy_config,
                              self.designs(), self.mc, self.settings)


Task = Union[PassTask, CoreTask, MulticoreTask]
Planner = Callable[[ExperimentSettings], List[Task]]


def plan_design_passes(
    design_names: Sequence[str],
    hierarchy_config: HierarchyConfig,
    settings: ExperimentSettings,
    chunk_size: int = 4,
    placement: str = "parallel",
    experiment_id: str = "search",
) -> List[Task]:
    """Arbitrary design names → executor pass tasks, chunked for fan-out.

    The design-space search evaluates candidate batches whose size has
    nothing to do with the figure line-ups, so this planner splits the
    names into ``chunk_size`` groups (each group shares one simulation
    pass — ``run_reference_pass`` amortises the hierarchy walk over many
    designs) and emits one :class:`PassTask` per (chunk, workload).
    Chunking is positional, so the same names in the same order always
    produce the same tasks and therefore the same cache keys.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    tasks: List[Task] = []
    for start in range(0, len(design_names), chunk_size):
        chunk = tuple(design_names[start:start + chunk_size])
        for workload in settings.workload_list:
            tasks.append(PassTask(workload, hierarchy_config, chunk,
                                  placement, settings,
                                  experiment_id=experiment_id))
    return tasks


# ---------------------------------------------------------------------------
# Planners
# ---------------------------------------------------------------------------

def plan_depth_baselines(settings: ExperimentSettings) -> List[Task]:
    """Figures 2/3: a baseline pass per (workload, depth preset)."""
    return [
        PassTask(workload, hierarchy_preset(preset), (), "parallel", settings)
        for workload in settings.workload_list
        for preset in DEPTH_PRESETS
    ]


def _coverage_planner(
    designs_fn: Callable[[], Tuple[MNMDesign, ...]],
) -> Planner:
    """Figures 10-14: one pass per workload over the figure's line-up."""
    def plan(settings: ExperimentSettings) -> List[Task]:
        names = tuple(design.name for design in designs_fn())
        hierarchy = paper_hierarchy_5level()
        return [
            PassTask(workload, hierarchy, names, "parallel", settings)
            for workload in settings.workload_list
        ]
    return plan


plan_figure10 = _coverage_planner(figure10_designs)
plan_figure10.__doc__ = "Figure 10 passes: the RMNM line-up per workload."
plan_figure11 = _coverage_planner(figure11_designs)
plan_figure11.__doc__ = "Figure 11 passes: the SMNM line-up per workload."
plan_figure12 = _coverage_planner(figure12_designs)
plan_figure12.__doc__ = "Figure 12 passes: the TMNM line-up per workload."
plan_figure13 = _coverage_planner(figure13_designs)
plan_figure13.__doc__ = "Figure 13 passes: the CMNM line-up per workload."
plan_figure14 = _coverage_planner(figure14_designs)
plan_figure14.__doc__ = "Figure 14 passes: the HMNM line-up per workload."


def plan_depth_extension(settings: ExperimentSettings) -> List[Task]:
    """The depth extension: (HMNM2, PERFECT) per (workload, preset)."""
    names = (hmnm_design(2).name, perfect_design().name)
    return [
        PassTask(workload, hierarchy_preset(preset), names, "parallel",
                 settings)
        for workload in settings.workload_list
        for preset in DEPTH_PRESETS
    ]


def plan_table2(settings: ExperimentSettings) -> List[Task]:
    """Table 2: one baseline core run per workload."""
    hierarchy = paper_hierarchy_5level()
    return [
        CoreTask(workload, hierarchy, None, "parallel", settings)
        for workload in settings.workload_list
    ]


def _performance_planner(placement: str) -> Planner:
    """Figures 15/16: baseline + per-design core runs per workload."""
    def plan(settings: ExperimentSettings) -> List[Task]:
        names = tuple(design.name for design in figure15_designs())
        hierarchy = paper_hierarchy_5level()
        tasks: List[Task] = []
        for workload in settings.workload_list:
            tasks.append(
                CoreTask(workload, hierarchy, None, "parallel", settings))
            tasks.extend(
                CoreTask(workload, hierarchy, name, placement, settings)
                for name in names
            )
        return tasks
    return plan


#: Design line-up of the multicore contention figure: one representative
#: per family axis the sharing question bites on (counter, sum, hybrid,
#: oracle).
MULTICORE_DESIGNS: Tuple[str, ...] = ("TMNM_12x3", "SMNM_13x3", "HMNM2",
                                      "PERFECT")

#: Core counts swept by the default contention figure.
MULTICORE_CORE_COUNTS: Tuple[int, ...] = (1, 2, 4)


def plan_multicore_contention(
    settings: ExperimentSettings,
    core_counts: Sequence[int] = MULTICORE_CORE_COUNTS,
    sharings: Sequence[str] = ("private", "shared", "hybrid"),
    l2_policies: Sequence[str] = ("inclusive", "exclusive"),
    schedule: str = "round_robin",
    schedule_seed: int = 0,
    hierarchy_config: Optional[HierarchyConfig] = None,
    design_names: Sequence[str] = MULTICORE_DESIGNS,
    experiment_id: str = "multicore",
) -> List[Task]:
    """Contention sweep: one task per (workload, cores, sharing, policy).

    Every core of a task runs the *same* workload (with per-core seeds),
    so coverage is comparable across core counts — the only thing that
    changes along the axis is contention, not the load mix.
    """
    hierarchy = hierarchy_config or paper_hierarchy_5level()
    names = tuple(design_names)
    tasks: List[Task] = []
    for workload in settings.workload_list:
        for cores in core_counts:
            for sharing in sharings:
                for policy in l2_policies:
                    mc = MulticoreConfig(
                        cores=cores, mnm_sharing=sharing, l2_policy=policy,
                        schedule=schedule, schedule_seed=schedule_seed,
                    )
                    tasks.append(MulticoreTask(
                        (workload,), hierarchy, names, mc, settings,
                        experiment_id=experiment_id,
                    ))
    return tasks


plan_figure15 = _performance_planner("parallel")
plan_figure15.__doc__ = ("Figure 15 runs: baseline + parallel-placement "
                         "designs per workload.")
plan_figure16 = _performance_planner("serial")
plan_figure16.__doc__ = ("Figure 16 runs: baseline + serial-placement "
                         "designs per workload.")
