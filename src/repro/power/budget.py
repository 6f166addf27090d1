"""Hardware budget reports for MNM designs.

Summarises, for any set of designs on a hierarchy: filter storage, rough
logic area, per-consultation energy, and those costs relative to the
caches being filtered — the "small structures" claim of the paper made
inspectable (``repro-mnm designs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.core.hybrid import components_of
from repro.core.machine import MNMDesign, MostlyNoMachine
from repro.core.smnm import SMNM
from repro.power.cacti import cache_read_energy_nj
from repro.power.mnm_power import (
    machine_query_energy_nj,
    machine_update_energy_nj,
)


@dataclass(frozen=True)
class DesignBudget:
    """Hardware cost summary of one MNM design."""

    design_name: str
    storage_bits: int
    logic_gates: int
    query_nj: float
    update_nj: float
    l2_probe_nj: float

    @property
    def storage_kb(self) -> float:
        return self.storage_bits / 8 / 1024

    @property
    def query_vs_l2(self) -> float:
        """MNM consultation energy as a fraction of one L2 probe."""
        return self.query_nj / self.l2_probe_nj if self.l2_probe_nj else 0.0


def _logic_gates(machine: MostlyNoMachine) -> int:
    return sum(component.logic_area_gates
               for bank in machine.banks()
               for component in components_of(bank.filter)
               if isinstance(component, SMNM))


def design_storage_bits(
    hierarchy_config: HierarchyConfig, design: MNMDesign
) -> int:
    """Filter state of one design on one hierarchy, in bits.

    A pure function of the two configurations — no trace is simulated —
    which is what lets the design-space search prune over-budget
    candidates before spending any simulation time on them.
    """
    return MostlyNoMachine(CacheHierarchy(hierarchy_config), design).storage_bits


def design_budget(
    hierarchy_config: HierarchyConfig, design: MNMDesign
) -> DesignBudget:
    """Compute the hardware budget of one design on one hierarchy."""
    machine = MostlyNoMachine(CacheHierarchy(hierarchy_config), design)
    l2_config = hierarchy_config.tiers[min(1, hierarchy_config.num_tiers - 1)]
    l2_probe = cache_read_energy_nj(l2_config.configs[0])
    return DesignBudget(
        design_name=design.name,
        storage_bits=machine.storage_bits,
        logic_gates=_logic_gates(machine),
        query_nj=machine_query_energy_nj(machine),
        update_nj=machine_update_energy_nj(machine),
        l2_probe_nj=l2_probe,
    )


def budget_table(
    hierarchy_config: HierarchyConfig,
    designs: Sequence[MNMDesign],
    float_digits: int = 3,
) -> str:
    """Rendered budget table for a set of designs."""
    from repro.analysis.report import TextTable

    table = TextTable(
        ["design", "storage KB", "logic gates", "query nJ", "update nJ",
         "query vs L2 probe"],
        float_digits=float_digits,
    )
    for design in designs:
        budget = design_budget(hierarchy_config, design)
        table.add_row([
            budget.design_name,
            round(budget.storage_kb, 2),
            budget.logic_gates,
            budget.query_nj,
            budget.update_nj,
            f"{budget.query_vs_l2 * 100:.1f}%",
        ])
    return table.render()
