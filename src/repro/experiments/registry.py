"""Experiment registry: paper table/figure ids → runners."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.experiments import planning
from repro.experiments.base import ExperimentResult, ExperimentSettings
from repro.experiments.figures import (
    run_figure2,
    run_figure3,
    run_figure10,
    run_figure11,
    run_figure12,
    run_figure13,
    run_figure14,
    run_figure15,
    run_figure16,
)
from repro.experiments.tables import run_table1, run_table2, run_table3

Runner = Callable[[Optional[ExperimentSettings]], ExperimentResult]


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment."""

    experiment_id: str
    description: str
    runner: Runner
    heavy: bool = False      # needs full-system (core) runs per design
    extension: bool = False  # not a paper artifact (our extensions)
    #: Task planner for the parallel executor: maps settings to the
    #: independent simulation passes the runner will consume.  None means
    #: the experiment's work does not decompose and always runs inline.
    planner: Optional[planning.Planner] = None


_REGISTRY: Dict[str, ExperimentEntry] = {}


def _register(entry: ExperimentEntry) -> None:
    _REGISTRY[entry.experiment_id] = entry


_register(ExperimentEntry(
    "fig02", "Miss fraction of data access time vs hierarchy depth",
    run_figure2, planner=planning.plan_depth_baselines))
_register(ExperimentEntry(
    "fig03", "Miss fraction of cache power vs hierarchy depth", run_figure3,
    planner=planning.plan_depth_baselines))
_register(ExperimentEntry(
    "table1", "RMNM worked example scenario", run_table1))
_register(ExperimentEntry(
    "table2", "Workload characteristics on the 5-level hierarchy",
    run_table2, heavy=True, planner=planning.plan_table2))
_register(ExperimentEntry(
    "table3", "HMNM configuration recipes", run_table3))
_register(ExperimentEntry(
    "fig10", "RMNM coverage sweep", run_figure10,
    planner=planning.plan_figure10))
_register(ExperimentEntry(
    "fig11", "SMNM coverage sweep", run_figure11,
    planner=planning.plan_figure11))
_register(ExperimentEntry(
    "fig12", "TMNM coverage sweep", run_figure12,
    planner=planning.plan_figure12))
_register(ExperimentEntry(
    "fig13", "CMNM coverage sweep", run_figure13,
    planner=planning.plan_figure13))
_register(ExperimentEntry(
    "fig14", "HMNM coverage sweep", run_figure14,
    planner=planning.plan_figure14))
_register(ExperimentEntry(
    "fig15", "Execution-cycle reduction, parallel MNM", run_figure15,
    heavy=True, planner=planning.plan_figure15))
_register(ExperimentEntry(
    "fig16", "Cache power reduction, serial MNM", run_figure16, heavy=True,
    planner=planning.plan_figure16))

# -- extensions (not paper artifacts) ---------------------------------------

def _run_pareto(settings):
    from repro.experiments.extensions import run_pareto

    return run_pareto(settings)


_register(ExperimentEntry(
    "pareto", "Coverage-vs-storage frontier over all configurations",
    _run_pareto, extension=True))


def _run_depth(settings):
    from repro.experiments.extensions import run_depth_sensitivity

    return run_depth_sensitivity(settings)


_register(ExperimentEntry(
    "depth", "MNM access-time benefit vs hierarchy depth",
    _run_depth, extension=True, planner=planning.plan_depth_extension))


def _run_search(settings):
    from repro.experiments.extensions import run_search_extension

    return run_search_extension(settings)


# heavy: a random-search round simulates dozens of candidate designs —
# far more work than any single figure (``--skip-heavy`` skips it; the
# full autotuner is ``repro-mnm search``).
_register(ExperimentEntry(
    "search", "Design-space search for the best MNM by coverage",
    _run_search, heavy=True, extension=True))


def _run_multicore(settings):
    from repro.experiments.extensions import run_multicore_contention

    return run_multicore_contention(settings)


# heavy: the default sweep simulates every (cores, sharing, policy)
# topology per workload — a multiple of any single coverage figure
# (``repro-mnm multicore`` exposes the axes individually).
_register(ExperimentEntry(
    "multicore", "MNM coverage under multi-core contention",
    _run_multicore, heavy=True, extension=True,
    planner=planning.plan_multicore_contention))


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look an experiment up by id (e.g. ``fig10`` or ``table2``)."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(_REGISTRY)}"
        ) from None


def experiment_ids() -> Tuple[str, ...]:
    """All registered ids in paper order."""
    return tuple(_REGISTRY)


def run_experiment(
    experiment_id: str, settings: Optional[ExperimentSettings] = None
) -> ExperimentResult:
    """Run one experiment by id.

    A live span recorder (``--run-dir``) gets an ``experiment.<id>``
    span, so the run manifest's timeline attributes wall-clock and
    counter movement to the experiment that caused it.
    """
    from repro.telemetry import get_spans

    entry = get_experiment(experiment_id)
    with get_spans().span(f"experiment.{experiment_id}",
                          experiment=experiment_id):
        return entry.runner(settings)
