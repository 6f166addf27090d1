"""The paper's cache hierarchy configurations.

Section 4.1 specifies the 5-level processor in full:

* L1 I/D: 4 KB, direct-mapped, 32 B blocks, 2-cycle latency (split).
* L2 I/D: 16 KB, 2-way, 32 B blocks, 8-cycle latency (split).
* L3: 128 KB, 4-way, 64 B blocks, 18-cycle latency (unified).
* L4: 512 KB, 4-way, 128 B blocks, 34-cycle latency (unified).
* L5: 2 MB, 8-way, 128 B blocks, 70-cycle latency (unified).
* Main memory: 320 cycles.

(The OCR of the paper drops trailing digits of the L5 and memory latencies;
70/320 restore the monotone ladder — see DESIGN.md.)

The 2-, 3- and 7-level hierarchies used by Figures 2 and 3 are not fully
specified in the paper; the presets here keep the paper's L1 and grow
capacity/latency monotonically, with the 7-level variant extending the
5-level ladder outward.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.cache.cache import CacheConfig, CacheSide
from repro.cache.hierarchy import HierarchyConfig, TierConfig

#: Main-memory access latency used by every preset (cycles).
PAPER_MEMORY_LATENCY = 320


def _l1_pair() -> TierConfig:
    """The paper's split L1: 4KB direct-mapped, 32B blocks, 2 cycles."""
    return TierConfig.make_split(
        CacheConfig(
            name="il1", level=1, size_bytes=4 * 1024, associativity=1,
            block_size=32, hit_latency=2, side=CacheSide.INSTRUCTION, ports=1,
        ),
        CacheConfig(
            name="dl1", level=1, size_bytes=4 * 1024, associativity=1,
            block_size=32, hit_latency=2, side=CacheSide.DATA, ports=2,
        ),
    )


def _l2_pair() -> TierConfig:
    """The paper's split L2: 16KB 2-way, 32B blocks, 8 cycles."""
    return TierConfig.make_split(
        CacheConfig(
            name="il2", level=2, size_bytes=16 * 1024, associativity=2,
            block_size=32, hit_latency=8, side=CacheSide.INSTRUCTION,
        ),
        CacheConfig(
            name="dl2", level=2, size_bytes=16 * 1024, associativity=2,
            block_size=32, hit_latency=8, side=CacheSide.DATA,
        ),
    )


def _unified(name: str, level: int, kb: int, assoc: int, block: int,
             latency: int) -> TierConfig:
    return TierConfig.make_unified(
        CacheConfig(
            name=name, level=level, size_bytes=kb * 1024, associativity=assoc,
            block_size=block, hit_latency=latency, side=CacheSide.UNIFIED,
        )
    )


def paper_hierarchy_5level() -> HierarchyConfig:
    """The paper's primary configuration (Section 4.1): 7 caches, 5 tiers."""
    return HierarchyConfig(
        name="paper-5level",
        tiers=(
            _l1_pair(),
            _l2_pair(),
            _unified("ul3", 3, 128, 4, 64, 18),
            _unified("ul4", 4, 512, 4, 128, 34),
            _unified("ul5", 5, 2048, 8, 128, 70),
        ),
        memory_latency=PAPER_MEMORY_LATENCY,
    )


def paper_hierarchy_2level() -> HierarchyConfig:
    """Two-level hierarchy for the Figure 2/3 depth sweep."""
    return HierarchyConfig(
        name="paper-2level",
        tiers=(
            _l1_pair(),
            _unified("ul2", 2, 1024, 8, 64, 20),
        ),
        memory_latency=PAPER_MEMORY_LATENCY,
    )


def paper_hierarchy_3level() -> HierarchyConfig:
    """Three-level hierarchy for the Figure 2/3 depth sweep (McKinley-like)."""
    return HierarchyConfig(
        name="paper-3level",
        tiers=(
            _l1_pair(),
            _unified("ul2", 2, 128, 4, 64, 12),
            _unified("ul3", 3, 2048, 8, 128, 40),
        ),
        memory_latency=PAPER_MEMORY_LATENCY,
    )


def paper_hierarchy_7level() -> HierarchyConfig:
    """Seven-level hierarchy: the 5-level ladder extended outward."""
    return HierarchyConfig(
        name="paper-7level",
        tiers=(
            _l1_pair(),
            _l2_pair(),
            _unified("ul3", 3, 128, 4, 64, 18),
            _unified("ul4", 4, 512, 4, 128, 34),
            _unified("ul5", 5, 2048, 8, 128, 70),
            _unified("ul6", 6, 8192, 8, 128, 120),
            _unified("ul7", 7, 32768, 16, 256, 200),
        ),
        memory_latency=PAPER_MEMORY_LATENCY,
    )


_PRESETS: Dict[str, Callable[[], HierarchyConfig]] = {
    "2level": paper_hierarchy_2level,
    "3level": paper_hierarchy_3level,
    "5level": paper_hierarchy_5level,
    "7level": paper_hierarchy_7level,
}


#: The hierarchy depths Figures 2 and 3 and the depth extension compare,
#: shallowest first.
DEPTH_PRESETS: Tuple[str, ...] = ("2level", "3level", "5level", "7level")


def hierarchy_preset(name: str) -> HierarchyConfig:
    """Look up a hierarchy preset: ``2level``/``3level``/``5level``/``7level``."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown hierarchy preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
    return factory()


def preset_names() -> tuple:
    """Names accepted by :func:`hierarchy_preset`, shallowest first."""
    return tuple(_PRESETS)
