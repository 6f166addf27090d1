"""Tests for the search runner: determinism, dedupe, budgets, resume."""

import pytest

from repro import telemetry
from repro.experiments.base import ExperimentSettings
from repro.experiments.checkpoint import RunJournal
from repro.experiments.passcache import configure_pass_cache
from repro.search.objectives import Objective
from repro.search.runner import BASELINE_FAMILY, baseline_points, run_search
from repro.search.samplers import (
    GridSampler,
    RandomSampler,
    SuccessiveHalvingSampler,
)
from repro.search.space import quick_space
from tests.conftest import small_hierarchy_config

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))
HIERARCHY = small_hierarchy_config(3)


@pytest.fixture(autouse=True)
def fresh_state():
    """Each test starts with an empty cache and clean telemetry."""
    configure_pass_cache()
    telemetry.reset()
    yield
    configure_pass_cache()
    telemetry.reset()


def quick_search(sampler, objective=None, **kwargs):
    kwargs.setdefault("settings", TINY)
    kwargs.setdefault("hierarchy_config", HIERARCHY)
    kwargs.setdefault("include_baselines", False)
    return run_search(quick_space(), sampler, objective or Objective(),
                      **kwargs)


class TestDeterminism:
    def test_reports_byte_identical_across_jobs(self):
        serial = quick_search(RandomSampler(6, seed=7), jobs=1)
        configure_pass_cache()
        parallel = quick_search(RandomSampler(6, seed=7), jobs=2)
        assert parallel.render() == serial.render()
        assert parallel.to_dict() == serial.to_dict()

    def test_same_seed_same_report(self):
        first = quick_search(RandomSampler(5, seed=3))
        configure_pass_cache()
        second = quick_search(RandomSampler(5, seed=3))
        assert first.render() == second.render()


class TestRanking:
    def test_grid_ranks_every_point(self):
        space = quick_space()
        report = quick_search(GridSampler())
        assert report.evaluated == space.size
        assert len(report.ranked) == space.size
        # ranked by coverage descending (ties by storage then name)
        coverages = [e.coverage for e in report.ranked]
        assert coverages == sorted(coverages, reverse=True)

    def test_frontier_is_pareto(self):
        report = quick_search(GridSampler())
        frontier = report.frontier
        assert frontier
        storages = [p.storage_bits for p in frontier]
        coverages = [p.coverage for p in frontier]
        assert storages == sorted(storages)
        assert coverages == sorted(coverages)

    def test_no_sampled_point_violates_one_sidedness(self):
        report = quick_search(GridSampler())
        assert all(e.violations == 0 for e in report.ranked)


class TestBudget:
    def test_over_budget_candidates_are_pruned_not_simulated(self):
        # a budget below every design's storage: nothing simulates
        report = quick_search(GridSampler(),
                              Objective(budget_bits=1))
        assert report.evaluated == 0
        assert report.pruned == quick_space().size
        assert report.tasks_planned == 0
        assert report.ranked == []

    def test_winner_respects_budget(self):
        budget = 40_000
        report = quick_search(GridSampler(), Objective(budget_bits=budget))
        assert report.winner is not None
        assert report.winner.storage_bits <= budget
        assert all(e.storage_bits <= budget for e in report.ranked)

    def test_winner_at_least_matches_best_paper_config(self):
        # The acceptance criterion: seeding the candidate set with the
        # paper's fixed line-up means the search winner can never be
        # worse than the best hand-picked configuration under the budget.
        budget = 80_000  # roughly Table 3's HMNM2 footprint
        report = quick_search(
            RandomSampler(4, seed=1),
            Objective(metric="coverage", budget_bits=budget),
            include_baselines=True,
        )
        paper_best = max(
            (e.coverage for e in report.ranked
             if e.point.family == BASELINE_FAMILY),
            default=None,
        )
        assert paper_best is not None
        assert report.winner.coverage >= paper_best

    def test_min_coverage_marks_infeasible(self):
        report = quick_search(GridSampler(), Objective(min_coverage=0.99))
        # the tiny adversarial hierarchy never reaches 99% coverage with
        # the quick space's small filters
        assert report.infeasible > 0
        assert all(e.coverage >= 0.99 for e in report.ranked)


class TestBaselines:
    def test_baseline_points_exclude_the_oracle(self):
        names = [point.name for point in baseline_points()]
        assert "PERFECT" not in names
        assert "TMNM_10x1" in names
        assert "HMNM2" in names
        assert all(point.family == BASELINE_FAMILY
                   for point in baseline_points())


class TestFidelity:
    def test_halving_ranks_only_full_trace_evaluations(self):
        sampler = SuccessiveHalvingSampler(num_samples=6, eta=3, num_rungs=2,
                                           seed=4)
        report = quick_search(sampler)
        assert all(e.fidelity == 1.0 for e in report.ranked)
        # rung 0 ran at fidelity 1/3, so more candidates were evaluated
        # than are rankable
        assert report.evaluated > len(report.ranked)


class TestDedupeAndResume:
    def test_repeat_proposals_hit_the_cache(self):
        first = quick_search(GridSampler())
        assert first.tasks_computed == first.tasks_planned
        # same process, same cache: a second identical search recomputes
        # nothing
        second = quick_search(GridSampler())
        assert second.tasks_computed == 0
        assert second.tasks_cache_hits == second.tasks_planned
        assert second.render() == first.render()

    def test_journal_resume_recomputes_nothing(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        with RunJournal.open(run_dir) as journal:
            first = quick_search(RandomSampler(5, seed=2), journal=journal)
        assert first.tasks_computed > 0

        # a fresh process would start from the run directory's disk cache
        configure_pass_cache(cache_dir=RunJournal.passes_dir(run_dir))
        with RunJournal.open(run_dir) as journal:
            assert len(journal) == first.tasks_computed
            resumed = quick_search(RandomSampler(5, seed=2), journal=journal)
        assert resumed.tasks_computed == 0
        assert resumed.render() == first.render()


class TestValidation:
    def test_top_k_validated(self):
        with pytest.raises(ValueError, match="top_k"):
            quick_search(GridSampler(), top_k=0)


class TestTelemetry:
    def test_search_counters_stream(self):
        telemetry.enable_metrics()
        quick_search(GridSampler())
        counters = telemetry.get_registry().snapshot()["counters"]
        assert counters.get("search.rounds", 0) >= 1
        assert counters.get("search.candidates.evaluated", 0) == \
            quick_space().size
        assert counters.get("search.tasks.planned", 0) > 0
