"""Differential tests: every vectorized ``replay`` against its scalar oracle.

:meth:`MissFilter.replay` applies an event stream while answering the
queries interleaved with it.  Its default is the segmented scalar loop
over the hooks; TMNM, SMNM and CMNM override it with numpy replays that
must return the same answers *and* leave the same filter state.  Each
example builds two twin filters of one family, optionally trains both
with the same scalar prefix, replays a generated stream through the
family's override on one and through ``MissFilter.replay`` on the other,
and compares the answers, every granule's scalar answer afterwards and
the raw state (counters, flip-flops, finder registers, ``_placed_under``).

Streams draw granules from a small range so slots and sums collide,
replacements of absent granules (the below-zero fallback), double
placements, invalidations, repeated bounds, bounds equal to the query
count, and empty event and query arrays.

:meth:`RMNMCache.replay` is pinned the same way against the loop the
record/replay kernel ran before it: every event through the scalar
hooks, each segment of rows between two events answered from the
shared cache's words.  Twin RMNMs of 1-8 sets, 1-4 ways and 1-5 lanes
must give the same words and leave every set with the same granules, in
the same LRU order, with the same bits.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.core.base import REPLACE, SCALAR_SEGMENT, MissFilter
from repro.core.cmnm import CMNM
from repro.core.machine import MNMDesign
from repro.core.rmnm import RMNMCache
from repro.core.smnm import SMNM
from repro.core.tmnm import TMNM
from repro.multicore.config import MulticoreConfig
from repro.simulate import run_multicore_pass
from tests.conftest import random_references, small_hierarchy_config

DIFFERENTIAL = settings(max_examples=200, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

#: Granules stay below this, so slots, sums and high parts collide.
SPAN = 64


def tmnm_twins(draw):
    index_bits = draw(st.integers(1, 4))
    replication = draw(st.integers(1, 3))
    counter_bits = draw(st.integers(1, 3))
    offsets = draw(st.one_of(
        st.none(), st.lists(st.integers(0, 4), min_size=replication,
                            max_size=replication)))
    return lambda: TMNM(index_bits, replication, counter_bits=counter_bits,
                        offsets=offsets)


def smnm_twins(draw, counting):
    sum_width = draw(st.integers(1, 5))
    replication = draw(st.integers(1, 3))
    offsets = draw(st.one_of(
        st.none(), st.lists(st.integers(0, 4), min_size=replication,
                            max_size=replication)))
    return lambda: SMNM(sum_width, replication, counting=counting,
                        offsets=offsets)


def cmnm_twins(draw):
    num_registers = draw(st.integers(1, 3))
    low_bits = draw(st.integers(1, 3))
    address_bits = low_bits + draw(st.integers(1, 3))
    counter_bits = draw(st.integers(1, 3))
    return lambda: CMNM(num_registers, low_bits, address_bits=address_bits,
                        counter_bits=counter_bits)


@st.composite
def streams(draw, span=SPAN):
    """``(prefix, bounds, actions, granules, queries)`` of one example,
    granules below ``span``."""
    granule = st.integers(0, span - 1)
    event = st.tuples(st.integers(0, 2), granule)
    prefix = draw(st.one_of(st.just([]), st.lists(event, max_size=30)))
    queries = draw(st.lists(granule, max_size=40))
    events = draw(st.lists(event, max_size=60))
    # Nondecreasing bounds in [0, len(queries)]: runs of equal bounds,
    # warm-up-like zeros and bounds past the last row all occur.
    steps = draw(st.lists(st.integers(0, 3), min_size=len(events),
                          max_size=len(events)))
    bounds, bound = [], 0
    for step in steps:
        bound = min(bound + step, len(queries))
        bounds.append(bound)
    if events and draw(st.booleans()):
        bounds[-1] = len(queries)
    actions = [action for action, _granule in events]
    granules = [granule for _action, granule in events]
    return prefix, bounds, actions, granules, queries


def state_of(filter_):
    """Every piece of state the hooks can change, comparably."""
    scalar = [filter_.is_definite_miss(granule)
              for granule in range(4 * SPAN)]
    if isinstance(filter_, TMNM):
        raw = [list(table.counts) for table in filter_.tables]
    elif isinstance(filter_, SMNM):
        raw = [list(checker.counts) for checker in filter_.checkers]
    else:
        raw = (filter_.finder.state(),
               [list(table.counts) for table in filter_.tables],
               dict(filter_._placed_under))
    return scalar, raw


def check_twins(make, stream):
    prefix, bounds, actions, granules, queries = stream
    fast, oracle = make(), make()
    for twin in (fast, oracle):
        hooks = (twin.on_replace, twin.on_place, twin.on_invalidate)
        for action, granule in prefix:
            hooks[action](granule)
    answers = fast.replay(bounds, actions, granules, queries)
    expected = MissFilter.replay(oracle, bounds, actions, granules, queries)
    assert answers.dtype == bool
    assert answers.tolist() == expected.tolist()
    assert state_of(fast) == state_of(oracle)


@DIFFERENTIAL
@given(st.data(), streams())
def test_tmnm_replay_equals_scalar_loop(data, stream):
    check_twins(tmnm_twins(data.draw), stream)


@DIFFERENTIAL
@given(st.data(), streams())
def test_flipflop_smnm_replay_equals_scalar_loop(data, stream):
    check_twins(smnm_twins(data.draw, counting=False), stream)


@DIFFERENTIAL
@given(st.data(), streams())
def test_counting_smnm_replay_equals_scalar_loop(data, stream):
    check_twins(smnm_twins(data.draw, counting=True), stream)


@DIFFERENTIAL
@given(st.data(), streams())
def test_cmnm_replay_equals_scalar_loop(data, stream):
    check_twins(cmnm_twins(data.draw), stream)


def segmented_rmnm_replay(rmnm, bounds, lanes, actions, granules, queries):
    """The scalar oracle of :meth:`RMNMCache.replay`: each event through
    :meth:`~RMNMCache.record_replace` or :meth:`~RMNMCache.record_place`
    (an invalidation is a placement), each segment of rows between two
    events answered with :meth:`~RMNMCache.replaced_bits_many`, or with
    :meth:`~RMNMCache.replaced_bits_of` when it is short."""
    queries = np.asarray(queries, dtype=np.int64)
    words = np.zeros(queries.shape[0], dtype=np.int64)
    position = 0
    for bound, lane, action, granule in zip(bounds, lanes, actions,
                                            granules):
        if bound > position:
            if bound - position <= SCALAR_SEGMENT:
                for row in range(position, bound):
                    words[row] = rmnm.replaced_bits_of(int(queries[row]))
            else:
                words[position:bound] = rmnm.replaced_bits_many(
                    queries[position:bound])
            position = bound
        if action == REPLACE:
            rmnm.record_replace(granule, lane)
        else:
            rmnm.record_place(granule, lane)
    if position < queries.shape[0]:
        words[position:] = rmnm.replaced_bits_many(queries[position:])
    return words


def rmnm_state(rmnm):
    """Each set's granules in LRU order (oldest first), with their bits."""
    return [list(entries.items()) for entries in rmnm._sets]


@DIFFERENTIAL
@given(st.data())
def test_rmnm_replay_equals_scalar_loop(data):
    """Granules span twice the RMNM's entries, so sets fill and evict:
    the streams replace resident granules, place resident granules
    between replacements, place granules before any replacement, and
    replace granules the RMNM evicted earlier."""
    sets = data.draw(st.sampled_from((1, 2, 4, 8)), label="sets")
    ways = data.draw(st.sampled_from((1, 2, 4)), label="ways")
    num_lanes = data.draw(st.integers(1, 5), label="lanes")
    prefix, bounds, actions, granules, queries = data.draw(
        streams(2 * sets * ways), label="stream")
    lanes = data.draw(st.lists(st.integers(0, num_lanes - 1),
                               min_size=len(actions), max_size=len(actions)),
                      label="event lanes")
    prefix_lanes = data.draw(st.lists(st.integers(0, num_lanes - 1),
                                      min_size=len(prefix),
                                      max_size=len(prefix)),
                             label="prefix lanes")
    fast, oracle = (RMNMCache(sets * ways, ways, num_lanes)
                    for _twin in range(2))
    for twin in (fast, oracle):
        for (action, granule), lane in zip(prefix, prefix_lanes):
            if action == REPLACE:
                twin.record_replace(granule, lane)
            else:
                twin.record_place(granule, lane)
    words = fast.replay(bounds, lanes, actions, granules, queries)
    expected = segmented_rmnm_replay(oracle, bounds, lanes, actions,
                                     granules, queries)
    assert words.dtype == np.int64
    assert words.tolist() == expected.tolist()
    assert rmnm_state(fast) == rmnm_state(oracle)


class PinningTMNM(TMNM):
    """A TMNM whose ``on_invalidate`` also pins the granule's counters at
    saturation: an invalidated granule is never proved missing again."""

    def __init__(self) -> None:
        super().__init__(6, 1)
        self.invalidations = 0

    def on_invalidate(self, granule_addr: int) -> None:
        super().on_invalidate(granule_addr)
        self.invalidations += 1
        for table in self.tables:
            while table.count(granule_addr) < table.counter_max:
                table.on_place(granule_addr)


def test_overridden_hook_reaches_the_default_loop():
    """A lone private bank hands another core's events to the filter's
    own ``on_invalidate``; an override there must make the vectorized
    replay fall back, so the fast pass equals the interpreter's."""
    built = []

    def pinning(_context):
        built.append(PinningTMNM())
        return built[-1]

    designs = (MNMDesign(name="pinning", default_factories=(pinning,)),)
    mc = MulticoreConfig(cores=3, mnm_sharing="private")
    rng = random.Random(4)
    refs = [random_references(rng, 600, span=1 << 14) for _ in range(3)]
    results = {}
    for engine in ("interp", "fast"):
        del built[:]
        result = run_multicore_pass(refs, small_hierarchy_config(3), designs,
                                    mc, warmup=300, engine=engine)
        assert sum(filter_.invalidations for filter_ in built) > 0
        results[engine] = {
            name: (dr.coverage.accesses, dr.coverage.identified,
                   dr.coverage.candidates, dr.coverage.violations)
            for name, dr in result.designs.items()}
    assert results["fast"] == results["interp"]
    assert results["fast"]["pinning"][3] == 0
