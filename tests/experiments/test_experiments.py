"""Tests for the experiment harness (tiny settings for speed)."""

import pytest

from repro.experiments.base import (
    ExperimentSettings,
    clear_pass_cache,
    mean_row,
    reference_pass,
)
from repro.experiments.registry import (
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.cache.presets import DEPTH_PRESETS, paper_hierarchy_5level
from repro.core.presets import tmnm_design

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf", "mcf"))


class TestSettings:
    def test_defaults_use_all_workloads(self):
        assert len(ExperimentSettings().workload_list) == 10

    def test_subset(self):
        assert TINY.workload_list == ("twolf", "mcf")

    def test_warmup_instructions(self):
        assert TINY.warmup_instructions == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(num_instructions=10)
        with pytest.raises(ValueError):
            ExperimentSettings(warmup_fraction=1.0)


class TestMeanRow:
    def test_averages_numeric_columns(self):
        rows = [["a", 1.0, 2], ["b", 3.0, 4]]
        assert mean_row("Mean", rows) == ["Mean", 2.0, 3.0]

    def test_non_numeric_yields_none(self):
        rows = [["a", "x"], ["b", "y"]]
        assert mean_row("Mean", rows) == ["Mean", None]

    def test_empty(self):
        assert mean_row("Mean", []) == ["Mean"]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(experiment_ids())
        paper_ids = {"fig02", "fig03", "table1", "table2", "table3",
                     "fig10", "fig11", "fig12", "fig13", "fig14",
                     "fig15", "fig16"}
        assert paper_ids <= ids
        # everything beyond the paper set is flagged as an extension
        for extra in ids - paper_ids:
            assert get_experiment(extra).extension

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            get_experiment("fig99")

    def test_heavy_flags(self):
        assert get_experiment("fig15").heavy
        assert not get_experiment("fig10").heavy

    def test_pareto_extension(self):
        result = run_experiment("pareto", TINY)
        assert "WARNING" not in result.notes
        frontier = [row for row in result.rows if row[-1] == "yes"]
        assert frontier, "frontier must be non-empty"
        # frontier coverage strictly increases with storage
        coverages = [row[2] for row in frontier]
        assert coverages == sorted(coverages)


class TestPassCache:
    def test_reference_pass_memoised(self):
        clear_pass_cache()
        first = reference_pass("twolf", paper_hierarchy_5level(),
                               (tmnm_design(8, 1),), TINY)
        second = reference_pass("twolf", paper_hierarchy_5level(),
                                (tmnm_design(8, 1),), TINY)
        assert first is second

    def test_different_designs_not_shared(self):
        clear_pass_cache()
        a = reference_pass("twolf", paper_hierarchy_5level(),
                           (tmnm_design(8, 1),), TINY)
        b = reference_pass("twolf", paper_hierarchy_5level(), (), TINY)
        assert a is not b


class TestLightExperiments:
    def test_table1_scenario_validates(self):
        result = run_experiment("table1", TINY)
        assert "YES" in result.notes
        assert len(result.rows) == 5

    def test_table3_lists_hybrids(self):
        result = run_experiment("table3", TINY)
        assert [row[0] for row in result.rows] == ["HMNM1", "HMNM2",
                                                   "HMNM3", "HMNM4"]

    def test_fig02_fractions_in_range(self):
        result = run_experiment("fig02", TINY)
        assert result.headers == ["app"] + list(DEPTH_PRESETS)
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 100.0

    def test_fig02_mean_row_present(self):
        result = run_experiment("fig02", TINY)
        assert result.rows[-1][0] == "Arith. Mean"
        assert len(result.rows) == len(TINY.workload_list) + 1

    def test_fig03_fractions_in_range(self):
        result = run_experiment("fig03", TINY)
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 100.0

    def test_fig10_coverage_monotone_in_size(self):
        """Bigger RMNM caches can only record more replacements."""
        result = run_experiment("fig10", TINY)
        mean = result.rows[-1]
        assert mean[1] <= mean[-1] + 1e-9

    def test_fig13_no_violations_and_mean(self):
        result = run_experiment("fig13", TINY)
        assert "WARNING" not in result.notes
        for value in result.rows[-1][1:]:
            assert 0.0 <= value <= 100.0

    def test_fig14_hybrids_beat_components(self):
        clear_pass_cache()
        fig11 = run_experiment("fig11", TINY)
        fig14 = run_experiment("fig14", TINY)
        # HMNM4 mean coverage >= SMNM_20x3 mean coverage (it contains it)
        smnm_mean = fig11.rows[-1][4]
        hmnm_mean = fig14.rows[-1][4]
        assert hmnm_mean >= smnm_mean - 1e-9

    def test_result_helpers(self):
        result = run_experiment("fig10", TINY)
        assert result.column("app")[:2] == ["twolf", "mcf"]
        assert result.row_for("twolf")[0] == "twolf"
        with pytest.raises(KeyError):
            result.row_for("nosuch")
        rendered = result.render()
        assert "fig10" in rendered


class TestHeavyExperimentsSmoke:
    """One tiny heavy run each; ``tests/paper`` checks their shapes."""

    SETTINGS = ExperimentSettings(num_instructions=3000,
                                  warmup_fraction=0.3,
                                  workloads=("twolf",))

    def test_table2_shape(self):
        result = run_experiment("table2", self.SETTINGS)
        assert result.headers[0] == "app"
        row = result.row_for("twolf")
        assert row[1] > 0  # cycles
        for value in row[4:]:
            assert 0.0 <= value <= 100.0

    def test_fig15_perfect_dominates(self):
        result = run_experiment("fig15", self.SETTINGS)
        row = result.row_for("twolf")
        perfect = row[-1]
        for value in row[1:-1]:
            assert value <= perfect + 1e-9

    def test_fig16_reports_all_designs(self):
        result = run_experiment("fig16", self.SETTINGS)
        assert len(result.headers) == 6


class TestMulticoreExtension:
    """Restricted-axis run of the contention sweep (full axes are heavy)."""

    SETTINGS = ExperimentSettings(num_instructions=3000,
                                  warmup_fraction=0.3,
                                  workloads=("twolf",))

    def test_contention_table_shape_and_soundness(self):
        from repro.experiments.extensions import run_multicore_contention

        result = run_multicore_contention(
            self.SETTINGS, core_counts=(1, 2), sharings=("private", "shared"),
            l2_policies=("inclusive",),
            design_names=("TMNM_10x1", "PERFECT"),
        )
        assert result.experiment_id == "multicore"
        assert result.headers[:4] == ["design", "cores", "sharing", "l2"]
        # 2 designs x 2 core counts x 2 sharings x 1 policy
        assert len(result.rows) == 8
        violations = result.column("violations")
        assert all(value == 0 for value in violations)
        # private banks at 2 cores pay storage over the shared bank
        kb = {(row[0], row[1], row[2]): row[6] for row in result.rows}
        assert kb[("TMNM_10x1", 2, "private")] == (
            2 * kb[("TMNM_10x1", 2, "shared")])
        assert "soundness" in result.notes

    def test_registry_entry_is_heavy_extension(self):
        entry = get_experiment("multicore")
        assert entry.heavy and entry.extension
        assert entry.planner is not None
