"""Engine equivalence: the fast kernel against its interpreter oracle.

The contract under test is *byte identity*: every number in a
:class:`~repro.simulate.ReferencePassResult` — integer totals, exact
float energy, coverage counters, cache statistics — must be equal
between ``engine="interp"`` and ``engine="fast"`` for the same inputs.
Floats are compared with ``==`` on purpose: the kernel replays the
interpreter's exact addition order, so approximate comparison would
mask a real divergence.
"""

import dataclasses

import pytest

from repro import telemetry
from repro.cache.presets import paper_hierarchy_2level, paper_hierarchy_5level
from repro.core.machine import MNMDesign
from repro.core.presets import parse_design, smnm_design, tmnm_design
from repro.core.smnm import SMNM
from repro.core.tmnm import TMNM
from repro.simulate import run_reference_pass
from repro.workloads import get_trace, workload_names

#: One design per filter family, plus the hybrid and oracle bounds.
FAMILY_DESIGNS = ("TMNM_10x1", "SMNM_10x2", "CMNM_2_9", "RMNM_512_2",
                  "HMNM1", "PERFECT")


def _run(workload, hierarchy, engine, num_instructions=4000,
         warmup_fraction=0.3, designs=FAMILY_DESIGNS):
    trace = get_trace(workload, num_instructions, 0)
    fetch_block = hierarchy.tiers[0].configs[0].block_size
    references = list(trace.memory_references(fetch_block))
    return run_reference_pass(
        references, hierarchy, [parse_design(name) for name in designs],
        workload_name=workload,
        warmup=int(len(references) * warmup_fraction),
        engine=engine,
    )


def _snapshot(result):
    """Every reported field, floats exact, in a comparable form."""
    designs = []
    for name in sorted(result.designs):
        design = result.designs[name]
        meter = design.coverage
        designs.append((
            name,
            design.design_name,
            dataclasses.astuple(design.energy),
            design.access_time,
            design.storage_bits,
            meter.accesses,
            meter.violations,
            meter.candidates,
            meter.identified,
            tuple(meter.tier_candidates(tier)
                  for tier in range(2, meter.num_tiers + 1)),
            tuple(meter.tier_coverage(tier)
                  for tier in range(2, meter.num_tiers + 1)),
        ))
    return (
        result.workload,
        result.hierarchy_name,
        result.references,
        result.baseline_access_time,
        result.baseline_miss_time,
        dataclasses.astuple(result.baseline_energy),
        tuple(sorted(result.cache_stats.items())),
        tuple(designs),
    )


@pytest.mark.parametrize("workload", workload_names())
def test_engines_identical_on_every_workload(workload):
    """All ten paper workloads, one design per family, exact equality."""
    hierarchy = paper_hierarchy_2level()
    interp = _run(workload, hierarchy, "interp")
    fast = _run(workload, hierarchy, "fast")
    assert _snapshot(fast) == _snapshot(interp)


def test_engines_identical_on_deep_hierarchy():
    """The 5-level hierarchy exercises split tiers and granule fan-out."""
    hierarchy = paper_hierarchy_5level()
    interp = _run("gcc", hierarchy, "interp", num_instructions=3000)
    fast = _run("gcc", hierarchy, "fast", num_instructions=3000)
    assert _snapshot(fast) == _snapshot(interp)


def test_engines_identical_without_warmup():
    hierarchy = paper_hierarchy_2level()
    interp = _run("art", hierarchy, "interp", warmup_fraction=0.0)
    fast = _run("art", hierarchy, "fast", warmup_fraction=0.0)
    assert _snapshot(fast) == _snapshot(interp)


def test_engines_emit_identical_metrics():
    """``--metrics-out`` parity: same counters, same totals, both engines.

    Only wall-clock span timings are outside the byte-identity
    contract; the counter registry must match exactly.
    """
    hierarchy = paper_hierarchy_2level()
    try:
        telemetry.enable_metrics()
        _run("twolf", hierarchy, "interp")
        interp_counters = telemetry.get_registry().snapshot()
    finally:
        telemetry.reset()
    try:
        telemetry.enable_metrics()
        _run("twolf", hierarchy, "fast")
        fast_counters = telemetry.get_registry().snapshot()
    finally:
        telemetry.reset()
    assert fast_counters == interp_counters


@pytest.mark.parametrize("paper, custom", [
    (tmnm_design(10, 2), lambda _context: TMNM(10, 2, offsets=[0, 3])),
    (smnm_design(10, 2), lambda _context: SMNM(10, 2, offsets=[0, 2])),
], ids=["tmnm", "smnm"])
def test_components_differing_only_in_offsets_replay_apart(paper, custom):
    """Replays are shared by configuration: a filter whose slice offsets
    differ from a paper design's must not get that design's answers when
    both are in one pass."""
    hierarchy = paper_hierarchy_5level()
    fetch_block = hierarchy.tiers[0].configs[0].block_size
    references = list(get_trace("mcf", 6000, 1).memory_references(
        fetch_block))
    designs = [paper, MNMDesign(name="CUSTOM", default_factories=(custom,))]
    interp, fast = (
        run_reference_pass(references, hierarchy, designs,
                           workload_name="mcf", warmup=len(references) // 4,
                           engine=engine)
        for engine in ("interp", "fast"))
    assert _snapshot(fast) == _snapshot(interp)


def test_empty_reference_stream_raises_on_both_engines():
    hierarchy = paper_hierarchy_2level()
    designs = [parse_design("TMNM_10x1")]
    with pytest.raises(ValueError) as interp_error:
        run_reference_pass([], hierarchy, designs, engine="interp")
    with pytest.raises(ValueError) as fast_error:
        run_reference_pass([], hierarchy, designs, engine="fast")
    assert str(fast_error.value) == str(interp_error.value)


def test_unknown_engine_rejected():
    hierarchy = paper_hierarchy_2level()
    with pytest.raises(ValueError, match="unknown engine"):
        run_reference_pass([(0, None)], hierarchy, [], engine="turbo")


def test_tracer_forces_interpreter(tmp_path):
    """With the decision tracer on, ``fast`` must fall back to interp —
    only the interpreter emits per-access records — and still produce
    identical results (the engines agree, so the fallback is invisible)."""
    hierarchy = paper_hierarchy_2level()
    baseline = _run("vpr", hierarchy, "interp")
    try:
        telemetry.enable_tracing(str(tmp_path / "trace.jsonl"))
        traced = _run("vpr", hierarchy, "fast")
        records = telemetry.get_tracer().emitted
    finally:
        telemetry.reset()
    assert records > 0
    assert _snapshot(traced) == _snapshot(baseline)


# ---------------------------------------------------------------------------
# Full-system runs: run_core_trace under both engines
# ---------------------------------------------------------------------------

#: Families the golden digests' Figure 15 line-up leaves out.
CORE_DESIGNS = ("SMNM_13x3", "RMNM_512_2", "HMNM1")


def _core_run(workload, engine, design_name="HMNM4", hierarchy=None,
              width=8, warmup=1200):
    from repro.cpu.core import paper_core
    from repro.simulate import run_core_trace

    design = parse_design(design_name) if design_name else None
    return run_core_trace(get_trace(workload, 3000, 0),
                          hierarchy or paper_hierarchy_5level(), design,
                          core_config=paper_core(width), warmup=warmup,
                          engine=engine)


def _core_snapshot(run):
    meter = run.coverage
    return (
        run.workload, run.design_name, dataclasses.astuple(run.core),
        None if meter is None else (
            meter.accesses, meter.violations, meter.candidates,
            meter.identified,
            tuple(meter.tier_candidates(tier)
                  for tier in range(2, meter.num_tiers + 1))),
        dataclasses.astuple(run.energy), tuple(sorted(run.cache_stats.items())),
    )


@pytest.mark.parametrize("design_name", CORE_DESIGNS)
def test_core_trace_engines_identical(design_name):
    for workload in ("mcf", "twolf"):
        interp = _core_run(workload, "interp", design_name)
        fast = _core_run(workload, "fast", design_name)
        assert _core_snapshot(fast) == _core_snapshot(interp)


def test_core_trace_engines_identical_on_four_way_core_and_two_levels():
    for warmup in (0, 1500, 3000, 4000):
        interp = _core_run("art", "interp", "TMNM_10x1",
                           paper_hierarchy_2level(), width=4, warmup=warmup)
        fast = _core_run("art", "fast", "TMNM_10x1",
                         paper_hierarchy_2level(), width=4, warmup=warmup)
        assert _core_snapshot(fast) == _core_snapshot(interp)


def test_core_trace_engines_emit_identical_metrics():
    """memory.*, mnm.* (warm-up queries included), core.* and cache.*
    match."""
    snapshots = {}
    for engine in ("interp", "fast"):
        try:
            telemetry.enable_metrics()
            for design_name in (None, "HMNM4", "PERFECT"):
                _core_run("gcc", engine, design_name)
            snapshots[engine] = telemetry.get_registry().snapshot()
        finally:
            telemetry.reset()
    assert snapshots["fast"] == snapshots["interp"]
    counters = snapshots["fast"]["counters"]
    assert counters["mnm.queries"] > counters["memory.accesses"] > 0


def test_core_trace_tracer_forces_interpreter(tmp_path):
    baseline = _core_run("vpr", "interp")
    try:
        telemetry.enable_tracing(str(tmp_path / "trace.jsonl"))
        traced = _core_run("vpr", "fast")
        records = telemetry.get_tracer().emitted
    finally:
        telemetry.reset()
    assert records > 0
    assert _core_snapshot(traced) == _core_snapshot(baseline)


def test_core_trace_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        _core_run("gcc", "turbo")
