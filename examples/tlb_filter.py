#!/usr/bin/env python3
"""Section 4.5 extension: early miss determination for TLBs.

The paper closes by noting the miss information "might be [used] to reduce
the power consumption of other caching structures such as the TLBs".
This example builds that system: a two-level TLB whose L2 lookups are
guarded by a TMNM-style filter at page granularity — a translation proven
absent skips the L2 TLB and starts the page walk immediately.

Usage::

    python examples/tlb_filter.py [workload] [instructions]
"""

import sys

import numpy as np

from repro import get_trace
from repro.analysis.report import TextTable, banner
from repro.cache.tlb import TwoLevelTLB, default_tlb_pair
from repro.core.tmnm import TMNM
from repro.cpu.isa import MEMORY_OP_CODES


def run(workload: str, instructions: int) -> None:
    trace = get_trace(workload, instructions)
    columns = trace.columns
    addresses = columns.addr[np.isin(columns.op, MEMORY_OP_CODES)].tolist()

    l1, l2 = default_tlb_pair()
    plain = TwoLevelTLB(l1, l2, walk_latency=60)
    filtered = TwoLevelTLB(l1, l2, walk_latency=60,
                           miss_filter=TMNM(8, 2))

    plain_latency = sum(plain.translate(a).latency for a in addresses)
    filtered_latency = sum(filtered.translate(a).latency for a in addresses)

    l2_lookups_plain = plain.l2.stats.probes
    l2_lookups_filtered = filtered.l2.stats.probes

    table = TextTable(["configuration", "total latency", "L2 TLB lookups",
                       "bypasses", "violations"], float_digits=0)
    table.add_row(["two-level TLB", plain_latency, l2_lookups_plain, 0, 0])
    table.add_row(["  + TMNM_8x2 filter", filtered_latency,
                   l2_lookups_filtered, filtered.bypasses,
                   filtered.filter_violations])
    print(table)

    saved_lookups = l2_lookups_plain - l2_lookups_filtered
    saved_latency = plain_latency - filtered_latency
    print(f"\nL2 TLB lookups avoided: {saved_lookups} "
          f"({saved_lookups / max(l2_lookups_plain, 1) * 100:.1f}%)")
    print(f"translation latency saved: "
          f"{saved_latency / max(plain_latency, 1) * 100:.2f}%")
    print("every bypass was a proven miss (violations = "
          f"{filtered.filter_violations})")


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    print(banner(f"TLB miss filtering (Section 4.5) — {workload}"))
    run(workload, instructions)


if __name__ == "__main__":
    main()
