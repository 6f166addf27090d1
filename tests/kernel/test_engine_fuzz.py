"""Differential fuzz: the fast engine against the interpreter, generated inputs.

``tests/kernel/test_engine_equivalence.py`` pins the engines on the paper's
workloads over fixed hierarchies.  This module generates the inputs
instead: hierarchies of 2-5 tiers (split or unified, any replacement
policy, level 1 direct-mapped in about half of them), designs from every
search-space family plus the paper hybrids and the oracle under every
placement and MNM delay, short synthetic instruction traces with
taken and not-taken branches, warm-ups up to and past the trace length,
both paper cores and the perfect branch predictor.  Full-system runs also
take 2,000-6,000-instruction traces of three shapes (loops, load chains
past the level-2 cache, store bursts) on cores with a small RUU and LSQ,
0, 1 or 16 MSHRs and every branch predictor, so the windows and MSHRs
fill and the predictor trains.  Reference passes also
run reuse-heavy random streams against one RMNM of 64-512 entries, long
enough that replaced blocks are placed again and queried.  Multicore
passes draw 1-4 cores of short reference streams over the same
hierarchies, every MNM sharing, L2 policy and schedule, and designs of
every filter family, the hybrids and the oracle.  Every field of every
result must be equal between ``engine="fast"`` and ``engine="interp"``,
floats with ``==``, and no design may report a violation; multicore
passes must also leave equal registry counters.  A warm-up that leaves
nothing to measure must raise the same ``ValueError`` in both.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cache.cache import AccessKind, CacheConfig, CacheSide
from repro.cache.hierarchy import HierarchyConfig, TierConfig
from repro.core.base import Placement
from repro.core.presets import parse_design, rmnm_design
from repro.cpu.branch import (
    BimodalPredictor,
    GSharePredictor,
    PerfectPredictor,
    StaticTakenPredictor,
)
from repro.cpu.core import paper_core
from repro.cpu.isa import Instruction, OpClass
from repro.multicore.config import (
    L2_POLICIES,
    SCHEDULES,
    SHARINGS,
    MulticoreConfig,
)
from repro.search.space import paper_space
from repro.simulate import (
    run_core_trace,
    run_multicore_pass,
    run_reference_pass,
)
from repro.workloads.trace import Trace
from tests.conftest import random_references, small_hierarchy_config

SPACE = paper_space()
SPECIAL_DESIGNS = ("PERFECT", "HMNM1", "HMNM2", "HMNM3", "HMNM4")
REPLACEMENTS = ("lru", "fifo", "plru", "random")
FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])
#: One or two sizes of every filter family, the paper hybrids and the oracle.
CONTENTION_DESIGNS = ("TMNM_8x1", "TMNM_12x3", "SMNM_10x1", "SMNM_13x3",
                     "CMNM_2_8", "CMNM_4_10", "RMNM_128_1", "RMNM_512_2",
                     "HMNM1", "HMNM4", "PERFECT")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def cache_configs(draw, name, level, side, block, latency,
                  associativities=(1, 2, 4, 8)):
    associativity = draw(st.sampled_from(associativities))
    sets = draw(st.sampled_from((1, 2, 4, 8, 16, 32)))
    hit = latency + draw(st.integers(0, 6))
    miss = draw(st.one_of(st.none(), st.integers(0, hit)))
    return CacheConfig(
        name=name, level=level, size_bytes=sets * associativity * block,
        associativity=associativity, block_size=block, hit_latency=hit,
        miss_latency=miss, side=side,
        replacement=draw(st.sampled_from(REPLACEMENTS)))


@st.composite
def hierarchies(draw, direct_mapped_level_one=None):
    """2-5 tiers, each split or unified; block sizes never shrink outward.

    Level 1 is direct-mapped when ``direct_mapped_level_one`` is True, and
    in about half the examples when it is None (the kernel computes such
    a level in numpy and every other cache in its probe-and-fill loop);
    its caches otherwise draw any associativity, so the loop over an
    associative level 1 stays covered.
    """
    if direct_mapped_level_one is None:
        direct_mapped_level_one = draw(st.booleans(),
                                       label="direct-mapped level 1")
    num_tiers = draw(st.integers(2, 5))
    block = draw(st.sampled_from((8, 16, 32)))
    latency = 1
    tiers = []
    for level in range(1, num_tiers + 1):
        if level > 1:
            block *= draw(st.sampled_from((1, 2)))
            latency += draw(st.integers(1, 8))
        ways = ((1,) if level == 1 and direct_mapped_level_one
                else (1, 2, 4, 8))
        if draw(st.booleans()):
            data_block = block * draw(st.sampled_from((1, 2)))
            tiers.append(TierConfig.make_split(
                draw(cache_configs(f"i{level}", level,
                                   CacheSide.INSTRUCTION, block, latency,
                                   ways)),
                draw(cache_configs(f"d{level}", level, CacheSide.DATA,
                                   data_block, latency, ways))))
        else:
            tiers.append(TierConfig.make_unified(
                draw(cache_configs(f"u{level}", level, CacheSide.UNIFIED,
                                   block, latency, ways))))
    return HierarchyConfig(
        name=f"fuzz-{num_tiers}", tiers=tuple(tiers),
        memory_latency=latency + draw(st.integers(1, 120)))


@st.composite
def designs(draw):
    """A design of any family, the hybrids or the oracle, any placement
    and an MNM delay of 1-4 cycles."""
    if draw(st.booleans()):
        design = parse_design(draw(st.sampled_from(SPECIAL_DESIGNS)))
    else:
        design = SPACE.point(draw(st.integers(0, SPACE.size - 1))).design()
    placement = draw(st.sampled_from(tuple(Placement)))
    delay = draw(st.integers(1, 4), label="delay")
    return dataclasses.replace(
        design, name=f"{design.name}@{placement.value}-d{delay}",
        placement=placement, delay=delay)


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


#: Shapes of the long traces (:func:`long_trace`).
LONG_SHAPES = ("loops", "load-chains", "store-bursts")
#: Ops of a loop body; its branches are taken at the loop's own rate.
LOOP_OPS = (OpClass.IALU, OpClass.IALU, OpClass.IMUL, OpClass.FMUL,
            OpClass.LOAD, OpClass.LOAD, OpClass.STORE, OpClass.BRANCH)
LONG_PREDICTORS = {
    "bimodal-2048": BimodalPredictor,
    "bimodal-64": lambda: BimodalPredictor(64),
    "bimodal-4": lambda: BimodalPredictor(4),
    "gshare": GSharePredictor,
    "static-taken": StaticTakenPredictor,
    "perfect": PerfectPredictor,
}


def long_trace(seed, shape, count, span):
    """``count`` instructions of one shape, from ``random.Random(seed)``.

    ``loops``: bodies of 6-40 instructions, each run 2-60 times and then
    exited (the back edge is taken until the last trip), with branches
    inside taken at the loop's own rate, so a predictor trains and still
    mispredicts.  ``load-chains``: pointer chases, each load's address
    register written by the previous load, at random addresses below
    ``span``, so long misses queue for MSHRs.  ``store-bursts``: runs of
    8-80 stores between short load and compute stretches, so the LSQ
    fills.
    """
    rng = random.Random(seed)
    instructions = []
    pc = rng.randrange(1 << 12) * 4

    def emit(op, dest=-1, src1=-1, src2=-1, addr=-1, taken=False, target=-1):
        nonlocal pc
        instructions.append(Instruction(op, pc, dest, src1, src2, addr,
                                        taken, target))
        pc = target if taken else pc + 4

    def register():
        return rng.randrange(16)

    def address():
        return rng.randrange(span) & ~3

    while len(instructions) < count:
        if shape == "loops":
            start, base, rate = pc, address(), rng.random()
            body = [(rng.choice(LOOP_OPS), register(), register(), register())
                    for _ in range(rng.randint(5, 39))]
            trips = rng.randint(2, 60)
            for trip in range(trips):
                for slot, (op, dest, src1, src2) in enumerate(body):
                    if op is OpClass.BRANCH:
                        emit(op, src1=src1, taken=rng.random() < rate,
                             target=pc + 4)
                    elif op.is_memory:
                        emit(op, dest if op is OpClass.LOAD else -1, src1,
                             addr=(base + 4 * (trip * len(body) + slot))
                             % span)
                    else:
                        emit(op, dest, src1, src2)
                emit(OpClass.BRANCH, src1=register(), taken=trip < trips - 1,
                     target=start)
        elif shape == "load-chains":
            chain = rng.randrange(16, 24)
            for _ in range(rng.randint(4, 60)):
                emit(OpClass.LOAD, chain, chain, addr=address())
                if rng.random() < 0.3:
                    emit(OpClass.IALU, register(), chain)
        else:
            for _ in range(rng.randint(8, 80)):
                emit(OpClass.STORE, src1=register(), addr=address())
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.5:
                    emit(OpClass.LOAD, register(), register(), addr=address())
                else:
                    emit(OpClass.IALU, register(), register(), register())
    return Trace(name=shape, seed=seed, instructions=instructions[:count])


@st.composite
def small_cores(draw):
    """A paper core's units with a small RUU and LSQ, 0, 1 or 16 MSHRs
    and a mispredict penalty of 0 or 3."""
    width = draw(st.sampled_from((4, 8)), label="core width")
    return dataclasses.replace(
        paper_core(width), name="fuzz-core",
        ruu_size=draw(st.integers(width, 32), label="RUU"),
        lsq_size=draw(st.integers(1, 16), label="LSQ"),
        mshr_count=draw(st.sampled_from((0, 1, 16)), label="MSHRs"),
        mispredict_penalty=draw(st.sampled_from((0, 3)),
                                label="mispredict penalty"))


#: Per-core reference streams: a small span, so the caches both hit and
#: evict, and every access kind (stores drive coherence invalidations).
#: A core may issue nothing.
core_streams = st.lists(
    st.lists(st.tuples(st.integers(0, (1 << 12) - 1).map(lambda a: a & ~3),
                       st.sampled_from(tuple(AccessKind))),
             max_size=60),
    min_size=1, max_size=4)


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
    runs = {}
    for engine in ("interp", "fast"):
        try:
            runs[engine] = run_core_trace(
                trace, hierarchy, design, core_config=paper_core(width),
                predictor=PerfectPredictor() if perfect else None,
                warmup=warmup, engine=engine)
        except ValueError as error:  # warm-up covers the whole trace
            runs[engine] = ("ValueError", str(error))
    assert exact(runs["fast"]) == exact(runs["interp"])
    interp = runs["interp"]
    if warmup >= len(trace):
        assert interp[0] == "ValueError"
    elif interp.coverage is not None:
        assert interp.coverage.violations == 0


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(LONG_SHAPES),
       count=st.integers(2000, 6000), hierarchy=hierarchies(),
       design=st.one_of(st.none(), designs()), core=small_cores(),
       predictor=st.sampled_from(sorted(LONG_PREDICTORS)), data=st.data())
def test_long_core_traces_engines_agree(seed, shape, count, hierarchy, design,
                                        core, predictor, data):
    """Traces long enough to fill the RUU, the LSQ and the MSHRs and to
    train the predictor, which the short traces above seldom do."""
    level_two = max(config.size_bytes for config in hierarchy.tiers[1].configs)
    trace = long_trace(seed, shape, count, span=4 * level_two)
    warmup = data.draw(st.integers(0, count // 2), label="warmup")
    runs = {
        engine: run_core_trace(
            trace, hierarchy, design, core_config=core,
            predictor=LONG_PREDICTORS[predictor](), warmup=warmup,
            engine=engine)
        for engine in ("interp", "fast")}
    assert exact(runs["fast"]) == exact(runs["interp"])
    if runs["interp"].coverage is not None:
        assert runs["interp"].coverage.violations == 0


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


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(500, 2000),
       span=st.integers(2 << 10, 8 << 10),
       entries=st.sampled_from((64, 128, 256, 512)),
       associativity=st.sampled_from((1, 2, 4, 8)))
def test_rmnm_reference_pass_engines_agree(seed, count, span, entries,
                                           associativity):
    """Reuse-heavy streams that place replaced blocks again and query
    them, so a wrong RMNM bit reaches a result; the fuzzer's short traces
    seldom do."""
    references = random_references(random.Random(seed), count, span)
    results = {
        engine: run_reference_pass(
            references, small_hierarchy_config(3),
            [rmnm_design(entries, associativity)], workload_name="rmnm",
            warmup=count // 4, engine=engine)
        for engine in ("interp", "fast")}
    assert exact(results["fast"]) == exact(results["interp"])
    assert all(result.coverage.violations == 0
               for result in results["interp"].designs.values())


@FUZZ
@given(hierarchy=hierarchies(), streams=core_streams,
       names=st.lists(st.sampled_from(CONTENTION_DESIGNS), min_size=1,
                      max_size=4, unique=True),
       sharing=st.sampled_from(SHARINGS), policy=st.sampled_from(L2_POLICIES),
       schedule=st.sampled_from(SCHEDULES), data=st.data())
def test_multicore_pass_engines_agree(hierarchy, streams, names, sharing,
                                      policy, schedule, data):
    total = sum(map(len, streams))
    warmup = data.draw(st.one_of(
        st.just(0),
        st.integers(1, max(total - 1, 1)),   # mid-stream
        st.integers(total, total + 2),       # covers the stream
    ), label="warmup")
    mc = MulticoreConfig(cores=len(streams), mnm_sharing=sharing,
                         l2_policy=policy, schedule=schedule,
                         schedule_seed=data.draw(st.integers(0, 99),
                                                 label="schedule seed"))
    designs = [parse_design(name) for name in names]
    results = {}
    for engine in ("interp", "fast"):
        try:
            telemetry.enable_metrics()
            try:
                result = run_multicore_pass(
                    streams, hierarchy, designs, mc,
                    workload_names=tuple(f"w{core}"
                                         for core in range(mc.cores)),
                    warmup=warmup, engine=engine)
            except ValueError as error:  # warm-up consumed the stream
                result = ("ValueError", str(error))
            results[engine] = (result,
                               telemetry.get_registry().snapshot())
        finally:
            telemetry.reset()
    assert exact(results["fast"]) == exact(results["interp"])
    interp = results["interp"][0]
    if warmup >= total:
        assert interp[0] == "ValueError"
    else:
        assert all(result.coverage.violations == 0
                   for result in interp.designs.values())
