"""Budget-constrained autotuner: sampler proposals → executor tasks → report.

The runner owns the search loop.  Each sampler proposal batch is turned
into executor task specs (:func:`repro.experiments.planning.
plan_design_passes` — candidate names chunked into shared reference
passes, one task per chunk × workload) and fanned out over ``--jobs``
worker processes by :func:`repro.experiments.executor.execute_tasks`,
riding every contract the executor already pins:

* **dedupe** — tasks content-address into the pass cache, so a candidate
  re-proposed by a later round (or a re-run against a warm ``--cache-dir``)
  costs a lookup, not a simulation;
* **checkpoint/resume** — under ``--run-dir`` every completed pass is
  in the run directory's pass cache the moment it finishes, and the run
  journal is a view of that cache; an interrupted search re-run with the
  same ``--run-dir`` replays its (deterministic) decision sequence
  against the cached results and recomputes only unfinished passes;
* **determinism** — samplers are pure functions of ``(space, seed,
  scores)`` and results merge in plan order, so the ranked report is
  byte-identical for any ``--jobs`` value.

Over-budget candidates are pruned *statically*: filter storage is a pure
function of design × hierarchy (:func:`repro.power.budget.
design_storage_bits`), so a candidate that cannot satisfy ``--budget-bits``
never reaches a worker.  Progress streams through ``search.*`` telemetry
counters (proposed / evaluated / pruned / deduped candidates, planned
/ cache-hit tasks, rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.analysis.report import bar_chart
from repro.analysis.sweep import SweepPoint, pareto_frontier
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.presets import paper_hierarchy_5level
from repro.core.presets import all_paper_design_names, parse_design
from repro.experiments.base import (
    ExperimentSettings,
    multicore_pass,
    reference_pass,
)
from repro.experiments.checkpoint import RunJournal
from repro.experiments.executor import execute_tasks
from repro.experiments.planning import MulticoreTask, plan_design_passes
from repro.multicore import multicore_storage_bits
from repro.multicore.config import parse_multicore_name
from repro.experiments.resilience import ExecutionPolicy
from repro.power.budget import design_storage_bits
from repro.search.objectives import INFEASIBLE, Evaluation, Objective
from repro.search.samplers import Proposal, Sampler
from repro.search.space import DesignPoint, SearchSpace

#: Floor the fidelity scaling never goes below (ExperimentSettings refuses
#: shorter traces).
MIN_INSTRUCTIONS = 1000

#: Family tag given to baseline candidates injected from the paper line-up.
BASELINE_FAMILY = "paper"


@dataclass
class SearchReport:
    """Everything one search run produced, renderable byte-stably."""

    space_name: str
    space_size: int
    sampler: str
    objective: Objective
    settings: ExperimentSettings
    rounds: int
    proposed: int
    evaluated: int
    pruned: int
    deduped: int
    infeasible: int
    tasks_planned: int
    tasks_computed: int
    ranked: List[Evaluation] = field(default_factory=list)
    frontier: List[SweepPoint] = field(default_factory=list)
    top_k: int = 10

    @property
    def tasks_cache_hits(self) -> int:
        return self.tasks_planned - self.tasks_computed

    @property
    def winner(self) -> Optional[Evaluation]:
        """The best feasible full-fidelity candidate, if any."""
        return self.ranked[0] if self.ranked else None

    def render(self) -> str:
        """The ranked report (no wall-clock — byte-stable across runs)."""
        from repro.analysis.report import TextTable

        lines = [
            f"== search: space={self.space_name} sampler={self.sampler} ==",
            f"objective: {self.objective.describe()}",
            (f"settings: instructions={self.settings.num_instructions} "
             f"seed={self.settings.seed} "
             f"workloads={','.join(self.settings.workload_list)}"),
            (f"space size {self.space_size} | rounds {self.rounds} | "
             f"proposed {self.proposed} | evaluated {self.evaluated} | "
             f"pruned {self.pruned} | deduped {self.deduped} | "
             f"infeasible {self.infeasible}"),
            # computed/cache-hit counts are deliberately NOT rendered:
            # they vary between a cold run and a resumed one, and the
            # report is byte-identical across --jobs and resumes.  They
            # live in to_dict() and the search.* telemetry counters.
            f"executor tasks: {self.tasks_planned} planned",
            "",
        ]
        if not self.ranked:
            lines.append("no feasible candidate satisfied the constraints")
            return "\n".join(lines)

        table = TextTable(
            ["rank", "design", "family", "KB", "coverage %", "cov%/KB",
             "energy %", "score"],
            float_digits=3,
        )
        for rank, evaluation in enumerate(self.ranked[:self.top_k], start=1):
            per_kb = evaluation.coverage_per_kb
            table.add_row([
                rank,
                evaluation.point.name,
                evaluation.point.family,
                round(evaluation.storage_kb, 3),
                round(evaluation.coverage * 100.0, 3),
                ("inf" if per_kb == float("inf")
                 else round(per_kb * 100.0, 3)),
                round(evaluation.energy_reduction * 100.0, 3),
                round(self.objective.score(evaluation), 6),
            ])
        lines.append(table.render())

        if self.frontier:
            lines.append("")
            lines.append("Pareto frontier (storage vs coverage):")
            frontier_table = TextTable(["design", "KB", "coverage %"],
                                       float_digits=3)
            for point in self.frontier:
                frontier_table.add_row([
                    point.design_name,
                    round(point.storage_kb, 3),
                    round(point.coverage * 100.0, 3),
                ])
            lines.append(frontier_table.render())
        return "\n".join(lines)

    def render_chart(self, width: int = 50) -> str:
        """ASCII figure: coverage of the ranked top-k (the optional figure)."""
        top = self.ranked[:self.top_k]
        return bar_chart(
            f"search[{self.space_name}]: coverage % of top-{len(top)}",
            [evaluation.point.name for evaluation in top],
            [evaluation.coverage * 100.0 for evaluation in top],
            width=width,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable summary (CLI ``--json``)."""
        return {
            "experiment_id": "search",
            "space": self.space_name,
            "space_size": self.space_size,
            "sampler": self.sampler,
            "objective": self.objective.describe(),
            "settings": {
                "instructions": self.settings.num_instructions,
                "seed": self.settings.seed,
                "workloads": list(self.settings.workload_list),
            },
            "rounds": self.rounds,
            "proposed": self.proposed,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "deduped": self.deduped,
            "infeasible": self.infeasible,
            "tasks": {
                "planned": self.tasks_planned,
                "computed": self.tasks_computed,
                "cache_hits": self.tasks_cache_hits,
            },
            "ranked": [
                {
                    "design": evaluation.point.name,
                    "family": evaluation.point.family,
                    "storage_bits": evaluation.storage_bits,
                    "coverage": evaluation.coverage,
                    "energy_reduction": evaluation.energy_reduction,
                    "score": self.objective.score(evaluation),
                }
                for evaluation in self.ranked[:self.top_k]
            ],
            "frontier": [
                {
                    "design": point.design_name,
                    "storage_bits": point.storage_bits,
                    "coverage": point.coverage,
                }
                for point in self.frontier
            ],
        }


def baseline_points() -> Tuple[DesignPoint, ...]:
    """The paper's fixed line-up as injectable candidates.

    Always seeding the candidate set with the hand-picked configurations
    guarantees the search can only match or beat them under any sampler:
    the best feasible paper design is itself in the ranking.  The oracle
    (``PERFECT``) is excluded — it is not a buildable design and would
    trivially win every objective.
    """
    return tuple(
        DesignPoint(family=BASELINE_FAMILY, name=name)
        for name in all_paper_design_names()
        if name != "PERFECT"
    )


def _scaled_settings(settings: ExperimentSettings,
                     fidelity: float) -> ExperimentSettings:
    """Settings for a trace-prefix evaluation at ``fidelity``."""
    if fidelity >= 1.0:
        return settings
    instructions = max(MIN_INSTRUCTIONS,
                       int(round(settings.num_instructions * fidelity)))
    return replace(settings, num_instructions=instructions)


class _SearchState:
    """Mutable bookkeeping for one `run_search` invocation."""

    def __init__(self) -> None:
        self.evaluations: Dict[str, Evaluation] = {}
        self.storage_bits: Dict[str, int] = {}
        self.pruned_names: set = set()
        self.rounds = 0
        self.proposed = 0
        self.evaluated = 0
        self.pruned = 0
        self.deduped = 0
        self.tasks_planned = 0
        self.tasks_computed = 0


def run_search(
    space: SearchSpace,
    sampler: Sampler,
    objective: Objective,
    settings: Optional[ExperimentSettings] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    jobs: int = 1,
    policy: Optional[ExecutionPolicy] = None,
    journal: Optional[RunJournal] = None,
    top_k: int = 10,
    include_baselines: bool = True,
    chunk_size: int = 4,
) -> SearchReport:
    """Run one budget-constrained design search and return its report.

    Deterministic by construction: the sampler sees only seeded
    randomness and the scores of its own proposals, evaluations aggregate
    in plan order, and ranking ties break on (storage bits, name) — so
    the report is byte-identical for any ``jobs`` value and across
    kill+resume (the run directory's pass cache replays completed
    passes).
    """
    settings = settings or ExperimentSettings()
    hierarchy_config = hierarchy_config or paper_hierarchy_5level()
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    registry = telemetry.get_registry()
    logger = telemetry.get_logger("search")
    spans = telemetry.get_spans()
    state = _SearchState()

    def evaluate(proposal: Proposal) -> Dict[str, float]:
        """Score one proposal batch, simulating only what's new."""
        state.rounds += 1
        with spans.span("search.round", round=state.rounds,
                        fidelity=proposal.fidelity,
                        proposed=len(proposal.points)):
            return _evaluate_in_span(proposal)

    def _evaluate_in_span(proposal: Proposal) -> Dict[str, float]:
        state.proposed += len(proposal.points)
        registry.counter("search.rounds").inc()
        registry.counter("search.candidates.proposed").inc(
            len(proposal.points))
        scaled = _scaled_settings(settings, proposal.fidelity)

        # Order-preserving unique names, with the point that introduced them.
        points_by_name: Dict[str, DesignPoint] = {}
        for point in proposal.points:
            points_by_name.setdefault(point.name, point)

        to_run: List[str] = []
        to_run_multicore: List[str] = []
        for name, point in points_by_name.items():
            mc = point.multicore_config()
            if name not in state.storage_bits:
                # A multicore point's static cost is its banks on the
                # topology (private sharing replicates state per core),
                # not the base design's single-core footprint.
                state.storage_bits[name] = (
                    multicore_storage_bits(hierarchy_config, point.design(),
                                           mc)
                    if mc is not None else
                    design_storage_bits(hierarchy_config, point.design()))
            if not objective.within_budget(state.storage_bits[name]):
                if name not in state.pruned_names:
                    state.pruned_names.add(name)
                    state.pruned += 1
                    registry.counter("search.candidates.pruned").inc()
                continue
            known = state.evaluations.get(name)
            if known is not None and known.fidelity >= proposal.fidelity:
                state.deduped += 1
                registry.counter("search.candidates.deduped").inc()
                continue
            (to_run_multicore if mc is not None else to_run).append(name)

        if to_run:
            tasks = plan_design_passes(to_run, hierarchy_config, scaled,
                                       chunk_size=chunk_size)
            state.tasks_planned += len(tasks)
            registry.counter("search.tasks.planned").inc(len(tasks))
            computed = execute_tasks(tasks, jobs, policy=policy,
                                     journal=journal)
            state.tasks_computed += computed
            registry.counter("search.tasks.computed").inc(computed)
            registry.counter("search.tasks.cache_hits").inc(
                len(tasks) - computed)
            logger.info(
                f"round {state.rounds}: evaluated {len(to_run)} candidates "
                f"at fidelity {proposal.fidelity:g}",
                tasks=len(tasks), computed=computed,
                span=spans.current_name() or "search.round")

            for start in range(0, len(to_run), chunk_size):
                chunk = to_run[start:start + chunk_size]
                accumulators = {
                    name: {"identified": 0, "candidates": 0, "violations": 0,
                           "energy": 0.0, "access_time": 0.0,
                           "storage_bits": 0}
                    for name in chunk
                }
                designs = tuple(points_by_name[name].design()
                                for name in chunk)
                for workload in scaled.workload_list:
                    result = reference_pass(workload, hierarchy_config,
                                            designs, scaled)
                    for name in chunk:
                        design_result = result.designs[name]
                        meter = design_result.coverage
                        bucket = accumulators[name]
                        bucket["identified"] += meter.identified
                        bucket["candidates"] += meter.candidates
                        bucket["violations"] += meter.violations
                        bucket["energy"] += result.energy_reduction(name)
                        bucket["access_time"] += (
                            result.access_time_reduction(name))
                        bucket["storage_bits"] = design_result.storage_bits
                num_workloads = len(scaled.workload_list)
                for name in chunk:
                    bucket = accumulators[name]
                    state.evaluations[name] = Evaluation(
                        point=points_by_name[name],
                        storage_bits=bucket["storage_bits"],
                        identified=bucket["identified"],
                        candidates=bucket["candidates"],
                        violations=bucket["violations"],
                        energy_reduction=bucket["energy"] / num_workloads,
                        access_time_reduction=(
                            bucket["access_time"] / num_workloads),
                        fidelity=proposal.fidelity,
                    )
                    state.evaluated += 1
                    registry.counter("search.candidates.evaluated").inc()

        if to_run_multicore:
            # Multicore candidates fan out as MulticoreTask specs — one
            # topology pass per (candidate, workload); the same
            # content-addressed cache dedupes and resumes them.
            # Energy/access-time reductions are 0.0 by definition
            # (there is no multicore power model), so rank this family by
            # a coverage metric.
            parsed = {name: parse_multicore_name(name)
                      for name in to_run_multicore}
            tasks = [
                MulticoreTask((workload,), hierarchy_config, (base,), mc,
                              scaled, experiment_id="search")
                for name in to_run_multicore
                for mc, base in (parsed[name],)
                for workload in scaled.workload_list
            ]
            state.tasks_planned += len(tasks)
            registry.counter("search.tasks.planned").inc(len(tasks))
            computed = execute_tasks(tasks, jobs, policy=policy,
                                     journal=journal)
            state.tasks_computed += computed
            registry.counter("search.tasks.computed").inc(computed)
            registry.counter("search.tasks.cache_hits").inc(
                len(tasks) - computed)
            logger.info(
                f"round {state.rounds}: evaluated "
                f"{len(to_run_multicore)} multicore candidates "
                f"at fidelity {proposal.fidelity:g}",
                tasks=len(tasks), computed=computed,
                span=spans.current_name() or "search.round")

            for name in to_run_multicore:
                mc, base = parsed[name]
                designs = (parse_design(base),)
                identified = candidates = violations = 0
                storage_bits = 0
                for workload in scaled.workload_list:
                    result = multicore_pass((workload,), hierarchy_config,
                                            designs, mc, scaled)
                    design_result = result.designs[base]
                    meter = design_result.coverage
                    identified += meter.identified
                    candidates += meter.candidates
                    violations += meter.violations
                    storage_bits = design_result.storage_bits
                state.evaluations[name] = Evaluation(
                    point=points_by_name[name],
                    storage_bits=storage_bits,
                    identified=identified,
                    candidates=candidates,
                    violations=violations,
                    energy_reduction=0.0,
                    access_time_reduction=0.0,
                    fidelity=proposal.fidelity,
                )
                state.evaluated += 1
                registry.counter("search.candidates.evaluated").inc()

        scores: Dict[str, float] = {}
        for name in points_by_name:
            evaluation = state.evaluations.get(name)
            if evaluation is None or name in state.pruned_names:
                scores[name] = INFEASIBLE
            else:
                scores[name] = objective.score(evaluation)
        return scores

    if include_baselines:
        evaluate(Proposal(baseline_points()))

    stream = sampler.proposals(space)
    scores: Optional[Dict[str, float]] = None
    while True:
        try:
            proposal = stream.send(scores) if scores is not None \
                else next(stream)
        except StopIteration:
            break
        scores = evaluate(proposal)

    # Rank only full-trace evaluations: prefix scores steer the samplers
    # but never the report.
    full = [evaluation for evaluation in state.evaluations.values()
            if evaluation.fidelity >= 1.0]
    infeasible = sum(1 for evaluation in full
                     if not objective.feasible(evaluation))
    ranked = sorted(
        (evaluation for evaluation in full if objective.feasible(evaluation)),
        key=objective.sort_key,
    )
    frontier = pareto_frontier([
        SweepPoint(design_name=evaluation.point.name,
                   storage_bits=evaluation.storage_bits,
                   coverage=evaluation.coverage,
                   violations=evaluation.violations)
        for evaluation in full
    ])

    return SearchReport(
        space_name=space.name,
        space_size=space.size,
        sampler=sampler.describe(),
        objective=objective,
        settings=settings,
        rounds=state.rounds,
        proposed=state.proposed,
        evaluated=state.evaluated,
        pruned=state.pruned,
        deduped=state.deduped,
        infeasible=infeasible,
        tasks_planned=state.tasks_planned,
        tasks_computed=state.tasks_computed,
        ranked=ranked,
        frontier=frontier,
        top_k=top_k,
    )
