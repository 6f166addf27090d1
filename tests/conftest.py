"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import random
import sys

import pytest

from repro.cache.cache import AccessKind, CacheConfig, CacheSide
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig, TierConfig


#: Wall-clock limit of one test, set-up and teardown included.  The
#: slowest test takes about 5 s on a 2-vCPU host; a test still running
#: after this long is hung, and the run exits with every thread's
#: traceback instead of stalling.
TEST_TIMEOUT_S = 180.0

_hang_guard_fd = None


def pytest_configure(config):
    # A private copy of stderr: output capture swaps the process's own.
    global _hang_guard_fd
    _hang_guard_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    if _hang_guard_fd is not None:
        os.close(_hang_guard_fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True,
                                      file=_hang_guard_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def small_hierarchy_config(levels: int = 3) -> HierarchyConfig:
    """A tiny hierarchy that misses a lot — fast and adversarial for tests.

    Tier 1 is split 256B direct-mapped I/D; deeper tiers are unified and
    grow by 4x with growing block sizes, exercising the granule fan-out
    paths of the MNM.
    """
    tiers = [
        TierConfig.make_split(
            CacheConfig(name="il1", level=1, size_bytes=256, associativity=1,
                        block_size=16, hit_latency=1,
                        side=CacheSide.INSTRUCTION),
            CacheConfig(name="dl1", level=1, size_bytes=256, associativity=1,
                        block_size=16, hit_latency=1, side=CacheSide.DATA),
        )
    ]
    size = 1024
    block = 16
    latency = 4
    for level in range(2, levels + 1):
        tiers.append(TierConfig.make_unified(
            CacheConfig(name=f"ul{level}", level=level, size_bytes=size,
                        associativity=2, block_size=block,
                        hit_latency=latency)
        ))
        size *= 4
        if level >= 2:
            block *= 2
        latency *= 2
    return HierarchyConfig(
        name=f"test-{levels}level", tiers=tuple(tiers), memory_latency=100
    )


@pytest.fixture
def hierarchy3() -> CacheHierarchy:
    """A fresh 3-tier test hierarchy."""
    return CacheHierarchy(small_hierarchy_config(3))


@pytest.fixture
def hierarchy4() -> CacheHierarchy:
    """A fresh 4-tier test hierarchy."""
    return CacheHierarchy(small_hierarchy_config(4))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def random_references(rng: random.Random, count: int, span: int = 1 << 16):
    """A mixed random reference stream for soundness tests."""
    references = []
    for _ in range(count):
        address = rng.randrange(span) & ~0x3
        draw = rng.random()
        if draw < 0.2:
            kind = AccessKind.INSTRUCTION
        elif draw < 0.8:
            kind = AccessKind.LOAD
        else:
            kind = AccessKind.STORE
        references.append((address, kind))
    return references
