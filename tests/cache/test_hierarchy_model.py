"""Reference-model cross-check for the hierarchy simulator.

Rebuilds the hierarchy's expected behaviour with an independent, brutally
simple model (per-set way lists with explicit LRU/FIFO orders, dirty bits
and write-back) and checks the real simulator against it access by
access: supplier, the ordered place/replace event stream with the way
every block lands in, final contents and memory writebacks.  A divergence
anywhere in the probe/fill/evict plumbing shows up here even if no
individual unit test covers that path.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import AccessKind
from repro.cache.hierarchy import CacheHierarchy, MEMORY_TIER, TierConfig
from tests.conftest import small_hierarchy_config


class _ModelCache:
    """Independent set-associative cache model (naive on purpose).

    Each set is a list of ways holding a block or None plus the ways in
    eviction order (victim first).  LRU moves a way to the back on hits
    and fills; FIFO only on fills.  Free ways fill lowest first.
    """

    def __init__(self, config):
        self.name = config.name
        self.block_bits = config.offset_bits
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.policy = config.replacement
        self.ways = [[None] * self.assoc for _ in range(self.num_sets)]
        self.order = [list(range(self.assoc)) for _ in range(self.num_sets)]
        self.dirty = {}

    def _locate(self, address):
        blk = address >> self.block_bits
        return blk, blk & (self.num_sets - 1)

    def _refresh(self, set_index, way):
        self.order[set_index].remove(way)
        self.order[set_index].append(way)

    def contains(self, address):
        blk, set_index = self._locate(address)
        return blk in self.ways[set_index]

    def touch(self, address, write=False):
        blk, set_index = self._locate(address)
        if blk not in self.ways[set_index]:
            return False
        if write:
            self.dirty[blk] = True
        if self.policy == "lru":
            self._refresh(set_index, self.ways[set_index].index(blk))
        return True

    def fill(self, address, events, dirty=False):
        """Place the block; return ``(victim block, victim dirty)`` or None."""
        blk, set_index = self._locate(address)
        ways = self.ways[set_index]
        if blk in ways:
            if dirty:
                self.dirty[blk] = True
            self._refresh(set_index, ways.index(blk))
            return None
        victim = None
        if None in ways:
            way = ways.index(None)
        else:
            way = self.order[set_index][0]
            victim = (ways[way], self.dirty.pop(ways[way]))
            events.append(("replace", self.name, ways[way]))
        ways[way] = blk
        self.dirty[blk] = dirty
        self._refresh(set_index, way)
        events.append(("place", self.name, blk, way))
        return victim

    def blocks(self):
        return {blk for ways in self.ways for blk in ways if blk is not None}


class _ModelHierarchy:
    """Reference model mirroring the simulator's semantics.

    With ``writeback``, a dirty victim is written into the next tier's
    cache for its side, cascading while that evicts a dirty block, and
    counts a memory writeback when it leaves the last tier.
    """

    def __init__(self, config, writeback=False):
        self.config = config
        self.writeback = writeback
        self.memory_writebacks = 0
        self.events = []
        self.caches = []  # per tier: dict kind-side -> _ModelCache
        for tier in config.tiers:
            if tier.unified is not None:
                model = _ModelCache(tier.unified)
                self.caches.append({"i": model, "d": model})
            else:
                self.caches.append({
                    "i": _ModelCache(tier.instruction),
                    "d": _ModelCache(tier.data),
                })

    def access(self, address, kind):
        side = "i" if kind is AccessKind.INSTRUCTION else "d"
        write = kind is AccessKind.STORE
        supplier = None
        for tier_index, tier in enumerate(self.caches, start=1):
            if tier[side].touch(address, write):
                supplier = tier_index
                break
        limit = len(self.caches) if supplier is None else supplier - 1
        for tier_index in range(limit, 0, -1):
            cache = self.caches[tier_index - 1][side]
            victim = cache.fill(address, self.events,
                                dirty=write and tier_index == 1)
            if self.writeback and victim is not None and victim[1]:
                self._write_back(victim[0] << cache.block_bits, tier_index,
                                 side)
        return supplier

    def _write_back(self, address, from_tier, side):
        for tier_index in range(from_tier + 1, len(self.caches) + 1):
            cache = self.caches[tier_index - 1][side]
            victim = cache.fill(address, self.events, dirty=True)
            if victim is None or not victim[1]:
                return
            address = victim[0] << cache.block_bits
        self.memory_writebacks += 1


def _with_replacement(config, policy):
    """``config`` with every cache using ``policy``."""
    tiers = tuple(
        TierConfig(**{side: dataclasses.replace(getattr(tier, side),
                                                replacement=policy)
                      for side in ("instruction", "data", "unified")
                      if getattr(tier, side) is not None})
        for tier in config.tiers)
    return dataclasses.replace(config, tiers=tiers)


def _record_events(hierarchy):
    """Attach listeners logging every cache's events as the model does."""
    events = []
    for _, cache in hierarchy.all_caches():
        cache.add_replace_listener(
            lambda cache, blk: events.append(
                ("replace", cache.config.name, blk)))
        cache.add_place_listener(
            lambda cache, blk: events.append(
                ("place", cache.config.name, blk, cache.way_of_block(blk))))
    return events


def _references(span):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=span - 1),
            st.sampled_from([AccessKind.INSTRUCTION, AccessKind.LOAD,
                             AccessKind.STORE]),
        ),
        min_size=10, max_size=500,
    )


def _check_against_model(references, policy="lru", writeback=False):
    config = _with_replacement(small_hierarchy_config(3), policy)
    real = CacheHierarchy(config, writeback=writeback)
    real_events = _record_events(real)
    model = _ModelHierarchy(config, writeback=writeback)

    for address, kind in references:
        outcome = real.access(address, kind)
        expected_supplier = model.access(address, kind)
        actual = None if outcome.supplier is MEMORY_TIER else outcome.supplier
        assert actual == expected_supplier, (
            f"supplier mismatch at {address:#x} ({kind.value}): "
            f"real={actual} model={expected_supplier}"
        )
        # the ordered place/replace stream, with the way each block lands
        # in (a replacement's way is its victim's)
        assert real_events == model.events

    # final contents must agree cache by cache
    for tier_index, caches in enumerate(model.caches, start=1):
        for kind, side in (("i", AccessKind.INSTRUCTION),
                           ("d", AccessKind.LOAD)):
            real_cache = real.cache_for(tier_index, side)
            assert set(real_cache.resident_blocks()) == caches[kind].blocks(), (
                f"contents mismatch at tier {tier_index} side {kind}"
            )
    assert real.memory_writebacks == model.memory_writebacks


@settings(max_examples=20, deadline=None)
@given(_references(1 << 14))
def test_hierarchy_matches_reference_model(references):
    _check_against_model(references)


# A 4 KB span: enough reuse for outer-tier hits, where FIFO and LRU part.
@pytest.mark.parametrize("policy, writeback",
                         [("fifo", False), ("lru", True), ("fifo", True)])
@settings(max_examples=25, deadline=None)
@given(references=_references(1 << 12))
def test_hierarchy_matches_reference_model_fifo_and_writeback(
        references, policy, writeback):
    _check_against_model(references, policy, writeback)


def test_reference_model_sanity():
    """The model itself behaves like a cache (guards the guard)."""
    config = small_hierarchy_config(3)
    model = _ModelHierarchy(config)
    assert model.access(0x1000, AccessKind.LOAD) is None     # cold
    assert model.access(0x1000, AccessKind.LOAD) == 1        # L1 hit
    assert model.access(0x1100, AccessKind.LOAD) is None     # conflict fill
    assert model.access(0x1000, AccessKind.LOAD) == 2        # L2 catch
