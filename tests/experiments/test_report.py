"""Tests for the markdown report generator."""

import pytest

from repro.experiments.base import (
    ExperimentResult,
    ExperimentSettings,
    clear_pass_cache,
)
from repro.experiments.cli import main
from repro.experiments.report import (
    generate_report,
    render_markdown_report,
)
from repro.obs.manifest import load_manifest

TINY = ExperimentSettings(num_instructions=4000, warmup_fraction=0.25,
                          workloads=("twolf",))


def demo_result():
    return ExperimentResult(
        experiment_id="fig13",
        title="CMNM coverage [%]",
        headers=["app", "CMNM_2_9", "CMNM_8_12"],
        rows=[["twolf", 20.0, 90.0], ["Arith. Mean", 20.0, 90.0]],
        notes="a note",
        paper_reference="Figure 13",
    )


class TestRenderMarkdown:
    def test_structure(self):
        markdown = render_markdown_report([demo_result()], TINY)
        assert markdown.startswith("# MNM reproduction report")
        assert "## fig13 — CMNM coverage [%]" in markdown
        assert "| app | CMNM_2_9 | CMNM_8_12 |" in markdown
        assert "| twolf | 20.0 | 90.0 |" in markdown
        assert "> a note" in markdown
        assert "twolf" in markdown

    def test_chart_included_for_known_figures(self):
        markdown = render_markdown_report([demo_result()], TINY)
        assert "```" in markdown
        assert "█" in markdown

    def test_charts_can_be_disabled(self):
        markdown = render_markdown_report([demo_result()], TINY,
                                          with_charts=False)
        assert "█" not in markdown

    def test_settings_recorded(self):
        markdown = render_markdown_report([], TINY)
        assert "4000 instructions" in markdown
        assert "seed: 0" in markdown


class TestGenerateReport:
    def test_selected_experiments(self):
        markdown = generate_report(TINY, experiments=["table1", "table3"])
        assert "## table1" in markdown
        assert "## table3" in markdown
        assert "## fig02" not in markdown

    def test_skip_heavy_drops_core_experiments(self):
        markdown = generate_report(TINY, experiments=None, skip_heavy=True,
                                   with_charts=False)
        assert "## fig15" not in markdown
        assert "## fig10" in markdown


class TestReportCLI:
    def test_report_command_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.md"
        code = main([
            "report", "--skip-heavy", "--instructions", "4000",
            "--warmup-fraction", "0.25", "--workloads", "twolf",
            "--report-out", str(path),
        ])
        assert code == 0
        content = path.read_text()
        assert content.startswith("# MNM reproduction report")
        assert "## fig13" in content
        out = capsys.readouterr().out
        assert "report written" in out

    def test_line_up_does_exactly_its_work_on_the_pool(self, tmp_path,
                                                        capsys):
        # Exact counts of the skip-heavy line-up at 8000 instructions on
        # gcc and twolf; a run that silently simulates less fails here.
        clear_pass_cache()
        run_dir = tmp_path / "run"
        code = main([
            "report", "--skip-heavy", "--instructions", "8000",
            "--workloads", "gcc,twolf", "--jobs", "2",
            "--run-dir", str(run_dir),
            "--report-out", str(tmp_path / "report.md"),
        ])
        assert code == 0
        manifest = load_manifest(str(run_dir))
        assert len(manifest["tasks"]) == 26
        # Every task ran on the process pool: none resumed, none serial.
        assert {task["worker"] for task in manifest["tasks"]} == {"pool"}
        assert manifest["metrics"]["counters"]["pass.references"] == 72_100
        assert main(["obs", "show", str(run_dir)]) == 0
        capsys.readouterr()
