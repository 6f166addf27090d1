"""End-to-end tests for ``repro-mnm search``."""

import json

import pytest

from repro.experiments.cli import main

# Fast knobs shared by every invocation that actually simulates.
SMALL = ["--space", "quick", "--instructions", "4000",
         "--workloads", "twolf", "--no-baselines"]


class TestSearchCommand:
    def test_search_runs_and_reports(self, capsys):
        code = main(["search", *SMALL, "--sampler", "random",
                     "--samples", "4", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== search: space=quick" in out
        assert "rank" in out
        assert "Pareto frontier" in out

    def test_deterministic_across_jobs(self, tmp_path, capsys):
        # telemetry log lines legitimately differ between runs, so the
        # byte comparison targets the report artifact (--output), exactly
        # like the CI smoke job does
        args = ["search", *SMALL, "--sampler", "random", "--samples", "4",
                "--seed", "9"]
        serial_path = tmp_path / "serial.txt"
        parallel_path = tmp_path / "parallel.txt"
        assert main([*args, "--jobs", "1", "--output",
                     str(serial_path)]) == 0
        assert main([*args, "--jobs", "2", "--output",
                     str(parallel_path)]) == 0
        capsys.readouterr()
        assert parallel_path.read_bytes() == serial_path.read_bytes()

    def test_budget_and_json_output(self, tmp_path, capsys):
        path = tmp_path / "search.jsonl"
        code = main(["search", *SMALL, "--sampler", "grid",
                     "--budget-bits", "40000", "--top-k", "3",
                     "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text().strip())
        assert payload["experiment_id"] == "search"
        assert payload["objective"] == "coverage, budget<=40000bits"
        assert len(payload["ranked"]) <= 3
        for entry in payload["ranked"]:
            assert entry["storage_bits"] <= 40000

    def test_resume_after_interrupt_is_byte_identical(self, tmp_path,
                                                      capsys, monkeypatch):
        args = ["search", *SMALL, "--sampler", "random", "--samples", "4",
                "--seed", "5", "--jobs", "1"]
        clean_path = tmp_path / "clean.txt"
        assert main([*args, "--output", str(clean_path)]) == 0

        # Interrupt the run mid-flight via an injected KeyboardInterrupt,
        # then resume: the journal replays completed passes and the final
        # report must match the uninterrupted one byte for byte.
        run_dir = str(tmp_path / "run")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            json.dumps({"site": "task", "kind": "interrupt", "rate": 0.5,
                        "fail_attempts": 1, "seed": 1}))
        code = main([*args, "--run-dir", run_dir])
        assert code in (0, 130)  # interrupted (or too lucky to be hit)

        monkeypatch.delenv("REPRO_FAULTS")
        resumed_path = tmp_path / "resumed.txt"
        assert main([*args, "--run-dir", run_dir, "--output",
                     str(resumed_path)]) == 0
        capsys.readouterr()
        assert resumed_path.read_bytes() == clean_path.read_bytes()


class TestSearchValidation:
    def test_unknown_space_exits_4(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            raise SystemExit(main(["search", "--space", "galactic"]))
        assert excinfo.value.code == 4

    def test_unknown_sampler_exits_4(self):
        with pytest.raises(SystemExit) as excinfo:
            raise SystemExit(main(["search", "--sampler", "annealing"]))
        assert excinfo.value.code == 4

    def test_unknown_objective_exits_4(self):
        with pytest.raises(SystemExit) as excinfo:
            raise SystemExit(main(["search", "--objective", "latency"]))
        assert excinfo.value.code == 4

    def test_bad_samples_exits_4(self):
        with pytest.raises(SystemExit) as excinfo:
            raise SystemExit(main(["search", "--samples", "0"]))
        assert excinfo.value.code == 4

    def test_bad_budget_exits_4(self):
        with pytest.raises(SystemExit) as excinfo:
            raise SystemExit(main(["search", "--budget-bits", "0"]))
        assert excinfo.value.code == 4


class TestRegistryEntry:
    def test_search_is_a_registered_heavy_extension(self):
        from repro.experiments.registry import get_experiment

        entry = get_experiment("search")
        assert entry.heavy
        assert entry.extension
