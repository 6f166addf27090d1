"""Analytical per-access energy model for caches and MNM structures.

The paper computes cache and MNM power with CACTI 3.1 and the SMNM checker
power with Synopsys Design Compiler.  Neither tool is available here, so
this module provides a calibrated analytical stand-in with the properties
the experiments actually depend on:

* per-access energy grows with capacity (bitline/wordline length),
  associativity (ways read in parallel), block size and port count, so the
  outer cache levels are far more expensive per access than L1;
* MNM structures — a few KB of state — cost roughly an order of magnitude
  less per access than the caches whose lookups they save.

Absolute joules are *not* meaningful (DESIGN.md documents the substitution);
Figures 3 and 16 report energy ratios, which survive any monotone model.

Calibration anchors (0.18 µm-era, matching CACTI 3.1 usage in the paper):
a 4 KB direct-mapped cache costs ~0.35 nJ per read and a 2 MB 8-way cache
~9 nJ, within the range CACTI 3.1 reports for such organisations.
"""

from __future__ import annotations

import math

from repro.addresses import ADDRESS_BITS, log2_exact
from repro.cache.cache import CacheConfig

#: Fixed per-access overhead (decoder drivers, sense-amp bias), nJ.
BASE_NJ = 0.02

#: Scale factor for the sqrt(capacity) array term, nJ per sqrt(byte).
ARRAY_NJ_PER_SQRT_BYTE = 0.0045

#: Relative extra energy per additional way read in parallel.
ASSOC_FACTOR = 0.15

#: Relative extra energy per additional port.
PORT_FACTOR = 0.3

#: Writes drive full bitline swings: slightly more expensive than reads.
WRITE_FACTOR = 1.1

#: Energy per logic gate toggle for the SMNM checkers, nJ.  Calibrated so a
#: 20-wide triple checker costs a small fraction of an L2 probe, matching
#: the paper's Synopsys result that even HMNM4's checkers are cheaper than
#: the 4KB L1 (Section 4.2).
GATE_NJ = 0.000002

#: Energy to read one bit-line column of a small register/table structure,
#: nJ per sqrt(bit).  MNM tables are narrow single-read-port arrays; they
#: must land roughly an order of magnitude below the caches they shadow
#: (CACTI gives this for KB-scale vs 100KB-scale arrays).
SMALL_ARRAY_NJ_PER_SQRT_BIT = 0.0001

#: Fixed overhead of a small-array access (fraction of BASE_NJ).
SMALL_ARRAY_BASE_NJ = BASE_NJ / 8


def sram_read_energy_nj(
    size_bytes: int,
    associativity: int = 1,
    ports: int = 1,
) -> float:
    """Per-read energy of a generic SRAM array, in nJ."""
    if size_bytes < 1:
        raise ValueError(f"size_bytes must be >= 1, got {size_bytes}")
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")
    array = ARRAY_NJ_PER_SQRT_BYTE * math.sqrt(size_bytes)
    assoc_scale = math.sqrt(1.0 + ASSOC_FACTOR * (associativity - 1))
    port_scale = 1.0 + PORT_FACTOR * (ports - 1)
    return (BASE_NJ + array * assoc_scale) * port_scale


def cache_read_energy_nj(config: CacheConfig) -> float:
    """Per-probe energy of a cache, tags included."""
    tag_bits = ADDRESS_BITS - config.index_bits - config.offset_bits
    tag_bytes = (tag_bits * config.num_blocks + 7) // 8
    return sram_read_energy_nj(
        config.size_bytes + tag_bytes, config.associativity, config.ports
    )


def cache_write_energy_nj(config: CacheConfig) -> float:
    """Per-fill energy of a cache (refill writes a whole line)."""
    return cache_read_energy_nj(config) * WRITE_FACTOR


def small_array_energy_nj(bits: int) -> float:
    """Per-access energy of a small table (TMNM/CMNM tables, RMNM data)."""
    if bits <= 0:
        return 0.0
    return SMALL_ARRAY_BASE_NJ + SMALL_ARRAY_NJ_PER_SQRT_BIT * math.sqrt(bits)


def logic_energy_nj(gates: int) -> float:
    """Per-evaluation energy of combinational logic (SMNM checkers)."""
    return GATE_NJ * max(gates, 0)


def cache_access_time_ns(config: CacheConfig) -> float:
    """Indicative access time, for preset sanity checks only.

    The simulator takes latencies from the configuration; this estimate
    exists so tests can check the preset latencies are *ordered* the way a
    physical model would order them.
    """
    size_term = 0.3 * math.sqrt(config.size_bytes) / 32.0
    assoc_term = 0.15 * math.log2(config.associativity + 1)
    return 0.5 + size_term + assoc_term
