"""Differential test: the kernel's record phase against the plain walk.

:func:`repro.kernel.engine.record` computes a direct-mapped level 1 in
numpy and walks only its misses through the hierarchy, from tier 2.  The
oracle here is the loop it replaced: a fresh
:class:`~repro.cache.hierarchy.CacheHierarchy` with the same recording
listeners, one :meth:`~repro.cache.hierarchy.CacheHierarchy.access` per
reference, statistics reset after the warm-up prefix and at ``reset_at``.
Hierarchies have 2-5 tiers and a direct-mapped level 1 (split or unified,
instruction and data blocks of different sizes, every replacement
policy); streams stay in a small address range, so sets collide, and
carry stores.  Every recording column, ``count`` and ``seen`` must be
equal, and so must every cache's statistics, contents, dirty bits,
``last_evicted_dirty`` and replacement state.  A malformed reference must
raise the walk's exception, at the same reference.
"""

from __future__ import annotations

import random
from itertools import islice

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy
from repro.kernel.engine import (
    KINDS,
    Recording,
    _listen,
    record,
    reference_columns,
)
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


def walk(stream, hierarchy_config, warmup=0, reset_at=0) -> Recording:
    """The record loop before level 1 moved to numpy: one access each."""
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
@given(hierarchy=hierarchies(direct_mapped_level_one=True),
       stream=references, data=st.data())
def test_record_equals_the_walk(hierarchy, stream, data):
    warmup, reset_at = data.draw(boundaries(len(stream)), label="bounds")
    expected = walk(stream, hierarchy, warmup, reset_at)
    recorded = record(*reference_columns(stream), hierarchy, warmup,
                      reset_at)
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
