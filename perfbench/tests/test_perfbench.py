"""The benchmark's own tests: tiny runs of every workload and the gate.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import clock, measure, run as cli, tracing
from perfbench.workloads import SCALES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


@pytest.fixture(autouse=True)
def one_round_is_enough(monkeypatch):
    monkeypatch.setattr(measure, "MIN_OPERATIONS", 1)


def tiny_run(workload, results_dir, traced=False, seed=1):
    return measure.run(workload, seed, 0.0, traced, "tiny", 0.0,
                       str(results_dir))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_the_gate(workload, tmp_path):
    result = tiny_run(workload, tmp_path)
    assert result.correct and result.error_rate == 0.0
    assert result.attempted == len(result.executions) > 0
    assert set(result.metrics) == {name for name, _, _ in measure.END_TO_END}
    assert all(value > 0 and math.isfinite(value)
               for value in result.metrics.values())
    assert all(value > 0 for value in result.notes["host"].values())
    # A second run of the same set is checked against the first's digests.
    again = tiny_run(workload, tmp_path)
    assert again.correct
    with open(tmp_path / "digests.json") as handle:
        keys = list(json.load(handle))
    assert len(keys) == 1 and keys[0].startswith(f"{workload}|seed=1|")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer(workload, tmp_path):
    before = tracing.current_attributes()
    result = tiny_run(workload, tmp_path, traced=True)
    assert tracing.current_attributes() == before
    assert result.correct
    metrics = result.metrics
    assert list(metrics) == [name for name, _, _ in measure.PER_LAYER]
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["trace.overhead"] > 0
    assert metrics["workloads.generate_s"] > 0
    assert metrics["core.coverage_pct"] > 0
    assert metrics["core.violations"] == 0
    if workload in ("fullsys", "contention"):
        assert metrics["kernel.self_s"] == 0.0
    else:
        assert metrics["kernel.self_s"] > 0
    busiest = {"sweep": "kernel.self_s", "fullsys": "cpu.self_s",
               "contention": "multicore.self_s", "search": "search.self_s"}
    assert metrics[busiest[workload]] > 0
    if workload == "contention":
        assert metrics["core.invalidate_calls"] > 0
        assert metrics["multicore.coherence_invalidations"] > 0
    if workload == "search":
        assert metrics["experiments.tasks"] > 0
        assert metrics["search.candidates.evaluated"] > 0


def test_wrappers_are_removed_after_an_exception():
    before = tracing.current_attributes()
    tracer = tracing.LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tracing.current_attributes() != before
            raise RuntimeError("boom")
    assert tracing.current_attributes() == before


def test_nested_calls_count_once_and_split_self_time():
    tracer = tracing.LayerTracer()

    def inner():
        return tracer.call("cache", "cache.accesses", lambda: 7, (), {})

    def outer():
        return tracer.call("core", "core.queries", inner, (), {})

    assert tracer.call("core", "core.queries", outer, (), {}) == 7
    assert tracer.calls["core.queries"] == 1
    assert tracer.calls["cache.accesses"] == 1
    total = tracer.layer_self["core"] + tracer.layer_self["cache"]
    assert total == pytest.approx(tracer.layer_seconds["core"])


def test_metric_names_and_benchmark_json_agree():
    names = [name for name, _, _ in measure.END_TO_END + measure.PER_LAYER]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(measure.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seeded_snapshot_mismatch_counts_as_an_error(tmp_path, monkeypatch,
                                                     capsys):
    import repro.kernel

    real = repro.kernel.run_reference_pass_fast

    def diverging(*args, **kwargs):
        result = real(*args, **kwargs)
        result.baseline_miss_time += 1
        return result

    monkeypatch.setattr(repro.kernel, "run_reference_pass_fast", diverging)
    monkeypatch.setattr(cli, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setitem(SCALES, "default", SCALES["tiny"])
    code = cli.main(["--workload", "sweep", "--seed", "1", "--seconds", "0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] > 0
    with open(tmp_path / "sweep-seed1-trace0.json") as handle:
        assert json.load(handle)["error_rate"] == 1.0


def test_changed_results_fail_against_the_first_run(tmp_path):
    assert tiny_run("contention", tmp_path).correct
    path = tmp_path / "digests.json"
    with open(path) as handle:
        ledger = json.load(handle)
    (digests,) = ledger.values()
    digests[sorted(digests)[0]] = "0" * 64
    with open(path, "w") as handle:
        json.dump(ledger, handle)
    result = tiny_run("contention", tmp_path)
    assert result.failed == 1 and not result.correct


def test_durations_scale_with_the_kernel_around_them():
    reference = clock.REFERENCE_S
    assert clock.normalise(2.0, [reference]) == pytest.approx(2.0)
    # A host running at half speed: the kernel and the stretch both
    # doubled; one outlying sample does not move the median.
    assert clock.normalise(4.0, [2 * reference, 9 * reference,
                                 2 * reference]) == pytest.approx(2.0)
    assert clock.sample() > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail([1.0] * 5 + [2.0] * 5)[0] == 50
    percentile, value, beyond = measure.tail([float(i) for i in range(100)])
    assert (percentile, beyond) == (90, 10) and value == pytest.approx(89.1)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode == 2
    assert done.stdout.strip() == ""
