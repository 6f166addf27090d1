#!/usr/bin/env python3
"""Beyond bypassing: MNM miss information as scheduler hints.

Section 4.5 of the paper suggests the miss information is useful past
cache bypassing — e.g. the instruction scheduler could deprioritise loads
the MNM proves will miss deep, instead of letting their dependents clog
the issue window.

This example prototypes that idea on top of the library: a
hint-aware wrapper queries the MNM *before* each load and, whenever the
MNM proves the load misses down to tier N or memory, models a
software-prefetch-style early issue (the scheduler knows the latency class
up front and hoists the request), shaving a configurable head-start off
the exposed latency.  Reported against the plain MNM bypass run.

This is a *what-if* extension built on public APIs — not a paper figure.

Usage::

    python examples/scheduler_hints.py [workload] [instructions]
"""

import sys

from repro import get_trace, paper_hierarchy_5level, parse_design
from repro.analysis.report import TextTable, banner
from repro.cache.cache import AccessKind
from repro.cpu import OutOfOrderCore, paper_core
from repro.simulate import SimulatedMemory, build_memory

#: Cycles of latency the scheduler hint can hide for a proven-deep miss.
HINT_HEADSTART = 12


class HintedMemory(SimulatedMemory):
    """Memory system applying scheduler hints to proven-deep load misses."""

    def __init__(self, inner: SimulatedMemory, headstart: int) -> None:
        super().__init__(inner.hierarchy, inner.mnm, inner.timing,
                         inner.accountant, inner.coverage)
        self.headstart = headstart
        self.hinted_loads = 0

    def access(self, address: int, kind: AccessKind) -> int:
        if self.mnm is None or kind is AccessKind.INSTRUCTION:
            return super().access(address, kind)
        bits = self.mnm.query(address, kind)
        outcome = self.hierarchy.access(address, kind)
        if self.coverage is not None:
            self.coverage.record(outcome, bits)
        if self.accountant is not None:
            self.accountant.account(outcome, bits)
        latency = self.timing.latency(outcome, bits)
        # A load proven to miss at least two consecutive tracked tiers is
        # a known long-latency access: the scheduler hoists it.
        deep = sum(1 for bit in bits[1:] if bit)
        if kind is AccessKind.LOAD and deep >= 2:
            self.hinted_loads += 1
            latency = max(latency - self.headstart,
                          self.timing.latency(outcome, None) // 4 + 1)
        return latency


def run(workload: str, instructions: int) -> None:
    hierarchy_config = paper_hierarchy_5level()
    design = parse_design("HMNM4")
    trace = get_trace(workload, instructions)
    warmup = instructions // 3

    results = {}
    for label, headstart in (("bypass only", 0),
                             (f"bypass + hints ({HINT_HEADSTART}cyc)",
                              HINT_HEADSTART)):
        memory = HintedMemory(build_memory(hierarchy_config, design),
                              headstart)
        core = OutOfOrderCore(paper_core(8), memory)
        result = core.run(trace, warmup=warmup,
                          on_warmup_end=memory.reset_meters)
        results[label] = (result.cycles, memory.hinted_loads)

    table = TextTable(["configuration", "cycles", "hinted loads"],
                      float_digits=0)
    for label, (cycles, hinted) in results.items():
        table.add_row([label, cycles, hinted])
    print(table)

    (base_label, (base_cycles, _)), (hint_label, (hint_cycles, hinted)) = (
        list(results.items())
    )
    saving = (base_cycles - hint_cycles) / base_cycles * 100
    print(f"\nscheduler hints save a further {saving:.1f}% of cycles "
          f"({hinted} loads hoisted)")


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    print(banner(f"MNM scheduler hints (Section 4.5 what-if) — {workload}"))
    run(workload, instructions)


if __name__ == "__main__":
    main()
