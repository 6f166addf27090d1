"""Differential fuzz: the fast engine against the interpreter, generated inputs.

``tests/kernel/test_engine_equivalence.py`` pins the engines on the paper's
workloads over fixed hierarchies.  This module generates the inputs
instead: hierarchies of 2-5 tiers (split or unified, any replacement
policy), designs from every search-space family plus the paper hybrids and
the oracle under every placement, short synthetic instruction traces with
taken and not-taken branches, warm-ups up to and past the trace length,
both paper cores and the perfect branch predictor.  Every field of every
result must be equal between ``engine="fast"`` and ``engine="interp"``,
floats with ``==``, and no design may report a violation.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig, CacheSide
from repro.cache.hierarchy import HierarchyConfig, TierConfig
from repro.core.base import Placement
from repro.core.presets import parse_design
from repro.cpu.branch import PerfectPredictor
from repro.cpu.core import paper_core
from repro.cpu.isa import Instruction, OpClass
from repro.search.space import paper_space
from repro.simulate import run_core_trace, run_reference_pass
from repro.workloads.trace import Trace

pytestmark = pytest.mark.skipif(
    not __import__("repro.kernel", fromlist=["engine_available"])
    .engine_available(),
    reason="fast engine requires numpy",
)

SPACE = paper_space()
SPECIAL_DESIGNS = ("PERFECT", "HMNM1", "HMNM2", "HMNM3", "HMNM4")
REPLACEMENTS = ("lru", "fifo", "plru", "random")
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def cache_configs(draw, name, level, side, block, latency):
    associativity = draw(st.sampled_from((1, 2, 4, 8)))
    sets = draw(st.sampled_from((1, 2, 4, 8, 16, 32)))
    hit = latency + draw(st.integers(0, 6))
    miss = draw(st.one_of(st.none(), st.integers(0, hit)))
    return CacheConfig(
        name=name, level=level, size_bytes=sets * associativity * block,
        associativity=associativity, block_size=block, hit_latency=hit,
        miss_latency=miss, side=side,
        replacement=draw(st.sampled_from(REPLACEMENTS)))


@st.composite
def hierarchies(draw):
    """2-5 tiers, each split or unified; block sizes never shrink outward."""
    num_tiers = draw(st.integers(2, 5))
    block = draw(st.sampled_from((8, 16, 32)))
    latency = 1
    tiers = []
    for level in range(1, num_tiers + 1):
        if level > 1:
            block *= draw(st.sampled_from((1, 2)))
            latency += draw(st.integers(1, 8))
        if draw(st.booleans()):
            data_block = block * draw(st.sampled_from((1, 2)))
            tiers.append(TierConfig.make_split(
                draw(cache_configs(f"i{level}", level,
                                   CacheSide.INSTRUCTION, block, latency)),
                draw(cache_configs(f"d{level}", level, CacheSide.DATA,
                                   data_block, latency))))
        else:
            tiers.append(TierConfig.make_unified(
                draw(cache_configs(f"u{level}", level, CacheSide.UNIFIED,
                                   block, latency))))
    return HierarchyConfig(
        name=f"fuzz-{num_tiers}", tiers=tuple(tiers),
        memory_latency=latency + draw(st.integers(1, 120)))


@st.composite
def designs(draw):
    """A design of any family, the hybrids or the oracle, any placement."""
    if draw(st.booleans()):
        design = parse_design(draw(st.sampled_from(SPECIAL_DESIGNS)))
    else:
        design = SPACE.point(draw(st.integers(0, SPACE.size - 1))).design()
    placement = draw(st.sampled_from(tuple(Placement)))
    design = design.with_placement(placement)
    return dataclasses.replace(design,
                               name=f"{design.name}@{placement.value}")


_OPS = tuple(OpClass)


@st.composite
def traces(draw):
    """Short instruction traces: reuse-heavy addresses, both branch outcomes."""
    steps = draw(st.lists(
        st.tuples(st.sampled_from(_OPS),
                  st.integers(0, 1 << 12),          # data word
                  st.integers(-1, 7), st.integers(-1, 7), st.integers(-1, 7),
                  st.booleans(),                    # branch taken
                  st.integers(-48, 48)),            # branch offset, words
        max_size=160))
    pc = draw(st.integers(0, 1 << 10)) * 4
    instructions = []
    for op, word, dest, src1, src2, taken, offset in steps:
        is_branch = op is OpClass.BRANCH
        target = max(pc + 4 * offset, 0) if is_branch else -1
        instructions.append(Instruction(
            op=op, pc=pc, dest=dest, src1=src1, src2=src2,
            addr=word * 4 if op.is_memory else -1,
            taken=is_branch and taken, target=target))
        pc = target if is_branch and taken else pc + 4
    return Trace(name="fuzz", seed=0, instructions=instructions)


# ---------------------------------------------------------------------------
# Exact comparison
# ---------------------------------------------------------------------------

def exact(value):
    """Every number of a result as nested tuples; floats stay floats."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, exact(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple(sorted((key, exact(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(exact(item) for item in value)
    if hasattr(value, "__dict__"):
        return tuple(sorted((key, exact(item))
                            for key, item in vars(value).items()))
    return value


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@FUZZ
@given(hierarchy=hierarchies(), design=st.one_of(st.none(), designs()),
       trace=traces(), data=st.data())
def test_core_trace_engines_agree(hierarchy, design, trace, data):
    warmup = data.draw(st.integers(0, len(trace) + 5), label="warmup")
    width = data.draw(st.sampled_from((4, 8)), label="core width")
    perfect = data.draw(st.booleans(), label="perfect predictor")
    runs = [
        run_core_trace(trace, hierarchy, design, core_config=paper_core(width),
                       predictor=PerfectPredictor() if perfect else None,
                       warmup=warmup, engine=engine)
        for engine in ("interp", "fast")
    ]
    interp, fast = runs
    assert exact(fast) == exact(interp)
    if interp.coverage is not None:
        assert interp.coverage.violations == 0


@FUZZ
@given(hierarchy=hierarchies(),
       design_set=st.lists(designs(), min_size=1, max_size=4,
                           unique_by=lambda design: design.name),
       trace=traces(), data=st.data())
def test_reference_pass_engines_agree(hierarchy, design_set, trace, data):
    fetch_block = hierarchy.tiers[0].configs[0].block_size
    references = list(trace.memory_references(fetch_block))
    warmup = data.draw(st.integers(0, len(references) + 3), label="warmup")
    results = {}
    for engine in ("interp", "fast"):
        try:
            results[engine] = run_reference_pass(
                references, hierarchy, design_set, workload_name="fuzz",
                warmup=warmup, engine=engine)
        except ValueError as error:  # warm-up consumed the whole stream
            results[engine] = ("ValueError", str(error))
    assert exact(results["fast"]) == exact(results["interp"])
    if warmup < len(references):
        assert all(result.coverage.violations == 0
                   for result in results["interp"].designs.values())
