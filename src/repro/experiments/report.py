"""Markdown report generation: ``repro-mnm report``.

Runs a set of experiments and renders a self-contained markdown report —
one section per experiment with the results table, the paper reference,
and an ASCII chart of the headline column — the artifact a reproduction
run hands to a reviewer.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.experiments.base import ExperimentResult, ExperimentSettings
from repro.experiments.registry import (
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.telemetry import get_logger, get_spans

#: Which column each experiment charts (None = last column).
_CHART_COLUMNS = {
    "fig02": "5level",
    "fig03": "5level",
    "fig10": "RMNM_4096_8",
    "fig11": "SMNM_20x3",
    "fig12": "TMNM_12x3",
    "fig13": "CMNM_8_12",
    "fig14": "HMNM4",
    "fig15": "HMNM4",
    "fig16": "HMNM4",
}


def _markdown_table(result: ExperimentResult, float_digits: int = 1) -> str:
    def fmt(cell):
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return f"{cell:.{float_digits}f}"
        return str(cell)

    lines = ["| " + " | ".join(result.headers) + " |",
             "|" + "|".join("---" for _ in result.headers) + "|"]
    for row in result.rows:
        lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_markdown_report(
    results: Sequence[ExperimentResult],
    settings: ExperimentSettings,
    title: str = "MNM reproduction report",
    with_charts: bool = True,
) -> str:
    """Render executed experiments as one markdown document."""
    lines: List[str] = [
        f"# {title}",
        "",
        "Reproduction of *Just Say No: Benefits of Early Cache Miss "
        "Determination* (HPCA 2003).",
        "",
        f"- trace length: {settings.num_instructions} instructions per "
        f"workload ({settings.warmup_instructions} warmup)",
        f"- seed: {settings.seed}",
        f"- workloads: {', '.join(settings.workload_list)}",
        f"- generated: deterministic (re-run with the same settings to "
        f"reproduce bit-identically)",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment_id} — {result.title}")
        lines.append("")
        if result.paper_reference:
            lines.append(f"*Paper: {result.paper_reference}*")
            lines.append("")
        lines.append(_markdown_table(result))
        lines.append("")
        if with_charts and result.experiment_id in _CHART_COLUMNS:
            column = _CHART_COLUMNS[result.experiment_id]
            if column in result.headers:
                lines.append("```")
                lines.append(result.render_chart(column=column))
                lines.append("```")
                lines.append("")
        if result.notes:
            lines.append(f"> {result.notes}")
            lines.append("")
    return "\n".join(lines)


def generate_report(
    settings: Optional[ExperimentSettings] = None,
    experiments: Optional[Sequence[str]] = None,
    skip_heavy: bool = False,
    with_charts: bool = True,
    progress: bool = False,
    jobs: int = 1,
    policy=None,
    journal=None,
) -> str:
    """Run experiments and return the markdown report.

    ``jobs > 1`` precomputes the experiments' independent simulation
    passes on a process pool before the (then cache-hitting) serial
    experiment loop; the rendered markdown is bit-identical for every
    ``jobs`` value because each pass is a pure function of its inputs and
    results merge in a fixed order (see :mod:`repro.experiments.executor`).

    ``policy`` (an :class:`~repro.experiments.resilience.ExecutionPolicy`)
    controls retries/timeouts/degradation; ``journal`` (a
    :class:`~repro.experiments.checkpoint.RunJournal` over the pass
    cache's directory) lets an interrupted report run resume: a run
    with a journal prefetches even with ``jobs=1``, so every pass lands
    on disk the moment it completes.
    """
    settings = settings or ExperimentSettings()
    if experiments is None:
        experiments = [
            experiment_id for experiment_id in experiment_ids()
            if not (skip_heavy and get_experiment(experiment_id).heavy)
        ]
    logger = get_logger("report")
    spans = get_spans()
    if jobs > 1 or journal is not None:
        from repro.experiments.executor import prefetch_experiments

        started = time.perf_counter()
        with spans.span("report.prefetch", jobs=jobs):
            computed = prefetch_experiments(experiments, settings, jobs,
                                            policy=policy, journal=journal)
            if progress and computed:
                # Progress lines carry the active span's name so
                # ``repro-mnm obs show`` can align them to the timeline.
                logger.info(
                    f"prefetched {computed} simulation passes with {jobs} "
                    f"jobs ({time.perf_counter() - started:.1f}s)",
                    span=spans.current_name() or "report.prefetch")
    results = []
    for experiment_id in experiments:
        started = time.perf_counter()
        with spans.span(f"report.{experiment_id}", experiment=experiment_id):
            results.append(run_experiment(experiment_id, settings))
            if progress:
                logger.info(
                    f"{experiment_id} done "
                    f"({time.perf_counter() - started:.1f}s)",
                    span=spans.current_name() or f"report.{experiment_id}")
    with spans.span("report.render"):
        return render_markdown_report(results, settings,
                                      with_charts=with_charts)
