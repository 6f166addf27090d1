"""Differential test: the kernel's record phase against the plain walk.

:func:`repro.kernel.engine.record` simulates the hierarchy one cache at a
time: each cache runs once over the references that missed every closer
cache on its side (a direct-mapped level 1 in numpy), and the tracked
caches' place and replace events are sorted into the walk's firing
order afterwards.  The oracle here is the loop it replaced: a fresh
:class:`~repro.cache.hierarchy.CacheHierarchy` with recording listeners,
one :meth:`~repro.cache.hierarchy.CacheHierarchy.access` per reference,
statistics reset after the warm-up prefix and at ``reset_at``.
Generated hierarchies have 2-5 tiers (split or unified, instruction and
data blocks of different sizes, every replacement policy, level 1
direct-mapped in about half of them); streams stay in a small address
range, so sets collide, and carry stores.  Real streams (the core's and
the coverage figures', seeds 1 and 2718) run through a small 5-level
hierarchy in which every tier evicts and through the paper's.  Every
recording column, ``count`` and ``seen`` must be equal, and so must
every cache's statistics, contents, dirty bits, ``last_evicted_dirty``
and replacement state.  ``record`` never calls ``access``.  A malformed
reference must raise the walk's exception, at the same reference.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import islice

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy, TierConfig
from repro.cache.presets import paper_hierarchy_5level
from repro.cpu.core import core_references
from repro.kernel.engine import KINDS, Recording, record, reference_columns
from repro.workloads import get_trace
from tests.conftest import small_hierarchy_config
from tests.kernel.test_engine_fuzz import hierarchies

RECORD = settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])

#: A 1 KB span: with 8-32 byte blocks and at most 32 sets, sets collide.
references = st.lists(
    st.tuples(st.integers(0, (1 << 10) - 1), st.sampled_from(KINDS)),
    max_size=120)

#: Malformed references: addresses out of range, too large for int64 and
#: not integers, kinds that are not an AccessKind, and references that
#: are not an (address, kind) pair.
MALFORMED = ((-1, AccessKind.LOAD), (1 << 32, AccessKind.STORE),
             (1 << 70, AccessKind.INSTRUCTION), (64.0, AccessKind.LOAD),
             (-1.5, AccessKind.LOAD), ("64", AccessKind.STORE),
             (None, AccessKind.LOAD), (64, "load"), (64, None),
             (-1, "store"), (64, AccessKind.LOAD, 0), (64,), 64)


def _listen(recording: Recording, current) -> None:
    """Register the recording listeners on every tracked cache.

    ``current[0]`` is the recorded ordinal of the in-flight access (-1
    during the warm-up).
    """
    ordinals = recording.event_ordinals
    codes = recording.event_codes
    blocks = recording.event_blocks

    def _recording_listener(code: int):
        def listener(_cache, block: int) -> None:
            ordinals.append(current[0])
            codes.append(code)
            blocks.append(block)

        return listener

    for index, (_tier, cache) in enumerate(recording.tracked):
        cache.add_replace_listener(_recording_listener(2 * index))
        cache.add_place_listener(_recording_listener(2 * index + 1))


def walk(stream, hierarchy_config, warmup=0, reset_at=0) -> Recording:
    """The record loop before the kernel simulated a cache at a time: one
    access per reference."""
    hierarchy = CacheHierarchy(hierarchy_config)
    tracked = [(tier, cache) for tier, cache in hierarchy.all_caches()
               if tier >= 2]
    recording = Recording(hierarchy, tracked)
    current = [-1]
    _listen(recording, current)
    access = hierarchy.access
    stream = iter(stream)
    seen = 0
    if warmup > 0:
        for address, kind in islice(stream, warmup):
            access(address, kind)
            seen += 1
        if seen == warmup:
            hierarchy.reset_stats()
    count = 0
    for address, kind in stream:
        if count == reset_at and count:
            hierarchy.reset_stats()
        current[0] = count
        count += 1
        supplier = access(address, kind).supplier
        recording.addresses.append(address)
        recording.kinds.append(KINDS.index(kind))
        recording.suppliers.append(0 if supplier is None else supplier)
    if count == reset_at and count:
        hierarchy.reset_stats()
    recording.count = count
    recording.seen = seen + count
    return recording


def policy_state(policy) -> dict:
    return {name: value.getstate() if isinstance(value, random.Random)
            else value for name, value in vars(policy).items()}


def cache_state(cache) -> tuple:
    return (vars(cache.stats), list(cache._way_of.items()),
            bytes(cache._block_at), bytes(cache._dirty),
            list(cache._untouched), cache._free, cache.last_evicted_dirty,
            policy_state(cache.policy))


def recording_state(recording: Recording) -> tuple:
    columns = tuple(
        (name, getattr(recording, name).typecode,
         getattr(recording, name).tolist())
        for name in ("addresses", "kinds", "suppliers", "event_ordinals",
                     "event_codes", "event_blocks", "cores", "event_cores"))
    caches = tuple((cache.config.name, cache_state(cache))
                   for _tier, cache in recording.hierarchy.all_caches())
    return recording.count, recording.seen, columns, caches


@st.composite
def boundaries(draw, length):
    """Warm-ups of 0, mid-stream, the length and past it; reset points of
    0, mid-stream and the recorded count."""
    warmup = draw(st.one_of(st.just(0), st.integers(1, max(length - 1, 1)),
                            st.just(length), st.just(length + 3)))
    count = max(length - warmup, 0)
    reset_at = draw(st.one_of(st.just(0),
                              st.integers(1, max(count - 1, 1)),
                              st.just(count)))
    return warmup, reset_at


@RECORD
@given(hierarchy=hierarchies(), stream=references, data=st.data())
def test_record_equals_the_walk(hierarchy, stream, data):
    warmup, reset_at = data.draw(boundaries(len(stream)), label="bounds")
    expected = walk(stream, hierarchy, warmup, reset_at)
    recorded = record(*reference_columns(stream), hierarchy, warmup,
                      reset_at)
    assert recording_state(recorded) == recording_state(expected)


#: Real streams: ``(hierarchy, apps, instructions)``.  Every tier of the
#: small 5-level hierarchy evicts (after the warm-up, seed-1 mcf's core
#: stream evicts 387, 264, 163 and 69 blocks from ``ul2`` to ``ul5``); in
#: the paper's, the same app fires 2,144, 696 and 114 replacements in
#: ``dl2``, ``ul3`` and ``ul4``, warm-up included.
REAL = {"small": (small_hierarchy_config(5), ("mcf", "twolf", "art"), 3000),
        "paper": (paper_hierarchy_5level(), ("mcf", "art"), 20000)}


@pytest.mark.parametrize("seed", [1, 2718])
@pytest.mark.parametrize("stream", ["core", "memory"])
@pytest.mark.parametrize("name, app", [(name, app) for name in REAL
                                       for app in REAL[name][1]])
def test_record_equals_the_walk_on_real_streams(name, app, stream, seed):
    """The core's stream with the 40% boundary as ``reset_at``, and the
    coverage figures' stream with a 40% warm-up."""
    hierarchy, _apps, instructions = REAL[name]
    trace = get_trace(app, instructions, seed)
    fetch_block = hierarchy.tiers[0].instruction.block_size
    if stream == "core":
        addresses, kinds, boundary, _ = core_references(
            trace, fetch_block, int(instructions * 0.4))
        pairs = list(zip(addresses.tolist(), map(KINDS.__getitem__,
                                                  kinds.tolist())))
        expected = walk(pairs, hierarchy, reset_at=boundary)
        recorded = record(addresses, kinds, hierarchy, reset_at=boundary)
    else:
        pairs = list(trace.memory_references(fetch_block))
        warmup = int(len(pairs) * 0.4)
        expected = walk(pairs, hierarchy, warmup)
        recorded = record(*reference_columns(pairs), hierarchy, warmup)
    assert recording_state(recorded) == recording_state(expected)
    assert any(cache.stats.evictions
               for _tier, cache in recorded.tracked)


def with_level_one_ways(hierarchy, ways):
    """``hierarchy`` with its split level 1 made ``ways``-way."""
    level_one = hierarchy.tiers[0]
    return dataclasses.replace(hierarchy, tiers=(TierConfig.make_split(
        dataclasses.replace(level_one.instruction, associativity=ways),
        dataclasses.replace(level_one.data, associativity=ways)),
    ) + hierarchy.tiers[1:])


@pytest.mark.parametrize("ways", [1, 2])
def test_record_never_walks_the_hierarchy(monkeypatch, ways):
    """No :meth:`CacheHierarchy.access` call, with a direct-mapped or an
    associative level 1; the oracle's calls show that the spy sees them."""
    calls = []
    real_access = CacheHierarchy.access

    def spy(self, address, kind):
        calls.append(address)
        return real_access(self, address, kind)

    monkeypatch.setattr(CacheHierarchy, "access", spy)
    hierarchy = with_level_one_ways(small_hierarchy_config(4), ways)
    pairs = list(get_trace("gcc", 3000, 1).memory_references(16))
    warmup = len(pairs) // 4
    recorded = record(*reference_columns(pairs), hierarchy, warmup)
    assert calls == []
    expected = walk(pairs, hierarchy, warmup)
    assert len(calls) == len(pairs)
    assert recording_state(recorded) == recording_state(expected)


def raised(call):
    """``(type, message)`` of what ``call`` raises for a malformed reference."""
    try:
        call()
    except (KeyError, TypeError, ValueError) as error:
        return type(error), str(error)
    return None


@RECORD
@given(hierarchy=hierarchies(direct_mapped_level_one=True),
       stream=references, data=st.data())
def test_malformed_reference_raises_the_walks_exception(hierarchy, stream,
                                                        data):
    stream = list(stream)
    for bad in data.draw(st.lists(st.sampled_from(MALFORMED), min_size=1,
                                  max_size=2), label="malformed"):
        stream.insert(data.draw(st.integers(0, len(stream)),
                                label="position"), bad)
    warmup, reset_at = data.draw(boundaries(len(stream)), label="bounds")
    expected = raised(lambda: walk(stream, hierarchy, warmup, reset_at))
    assert expected is not None
    assert raised(lambda: record(*reference_columns(stream), hierarchy,
                                 warmup, reset_at)) == expected
