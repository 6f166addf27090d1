"""Per-access energy of a Mostly No Machine's structures.

Every technique's structures at every level are accessed in parallel on an
MNM consultation (Section 3), so the query energy is the sum of the
component lookup energies — with the shared RMNM cache counted **once**
(all lanes are read out of the same physical array in one lookup).

Bookkeeping updates (a placement or replacement reaching the MNM) touch the
same structures; we price an update like a lookup with the write factor.
The perfect MNM is free by definition (Section 4.4).
"""

from __future__ import annotations

from repro.core.base import MissFilter, NullFilter
from repro.core.cmnm import CMNM
from repro.core.hybrid import CompositeFilter
from repro.core.machine import MostlyNoMachine
from repro.core.perfect import PerfectFilter
from repro.core.rmnm import RMNMLane
from repro.core.smnm import SMNM
from repro.core.tmnm import TMNM
from repro.power.cacti import (
    WRITE_FACTOR,
    logic_energy_nj,
    small_array_energy_nj,
    sram_read_energy_nj,
)


def component_lookup_nj(component: MissFilter) -> float:
    """Lookup energy of one filter component, RMNM lanes excluded.

    RMNM lanes share one physical structure priced at the machine level;
    a lane by itself contributes nothing here.
    """
    if isinstance(component, (NullFilter, PerfectFilter, RMNMLane)):
        return 0.0
    if isinstance(component, SMNM):
        return logic_energy_nj(component.logic_gates) + small_array_energy_nj(
            component.storage_bits
        )
    if isinstance(component, TMNM):
        return sum(small_array_energy_nj(t.storage_bits) for t in component.tables)
    if isinstance(component, CMNM):
        # The virtual-tag finder is a CAM-style parallel compare (2x an SRAM
        # read of the same bits); the counter table is one indexed read.
        finder = 2.0 * small_array_energy_nj(component.finder.storage_bits)
        table = small_array_energy_nj(
            sum(t.storage_bits for t in component.tables)
        )
        return finder + table
    if isinstance(component, CompositeFilter):
        return sum(component_lookup_nj(c) for c in component.components)
    # Unknown filter types: price by their declared storage.
    return small_array_energy_nj(component.storage_bits)


def machine_query_energy_nj(machine: MostlyNoMachine) -> float:
    """Energy of one MNM consultation (all levels probed in parallel)."""
    if machine.design.perfect:
        return 0.0
    total = 0.0
    for bank in machine.banks():
        total += component_lookup_nj(bank.filter)
    if machine.rmnm is not None:
        total += _rmnm_lookup_nj(machine)
    return total


def _rmnm_lookup_nj(machine: MostlyNoMachine) -> float:
    """One RMNM-cache lookup: a narrow set read plus tag compares."""
    rmnm = machine.rmnm
    if rmnm is None:
        # Callers gate on ``machine.rmnm is not None``; pricing a machine
        # without the shared cache is a bug worth a loud error even under
        # ``python -O``, which would strip an assert (R005).
        raise ValueError(
            f"machine {machine.name!r} has no shared RMNM cache to price"
        )
    set_bits = rmnm.storage_bits // max(rmnm.num_sets, 1)
    return small_array_energy_nj(rmnm.storage_bits) + small_array_energy_nj(
        set_bits
    )


def machine_level_query_energies_nj(machine: MostlyNoMachine) -> tuple:
    """Per-tier consult energies for the distributed placement.

    Index ``tier - 1``; tier 1 is always 0 (the MNM never covers L1).  A
    split tier's consult reads both side filters' structures.  The shared
    RMNM contributes its lookup energy apportioned evenly across tracked
    levels (in a distributed design each level holds its own slice).
    """
    num_tiers = machine.hierarchy.num_tiers
    energies = [0.0] * num_tiers
    if machine.design.perfect:
        return tuple(energies)
    banks = machine.banks()
    rmnm_share = 0.0
    if machine.rmnm is not None and banks:
        rmnm_share = _rmnm_lookup_nj(machine) / (num_tiers - 1 or 1)
    for bank in banks:
        energies[bank.tier - 1] += component_lookup_nj(bank.filter)
    for tier in range(2, num_tiers + 1):
        energies[tier - 1] += rmnm_share
    return tuple(energies)


def machine_update_energy_nj(machine: MostlyNoMachine) -> float:
    """Energy of one bookkeeping event (place or replace) at the MNM.

    An update touches the structures of a single cache level plus the
    shared RMNM; approximated as the per-level average lookup energy with
    the write factor applied.
    """
    if machine.design.perfect:
        return 0.0
    banks = machine.banks()
    if not banks:
        return 0.0
    per_level = [component_lookup_nj(bank.filter) for bank in banks]
    average = sum(per_level) / len(per_level)
    rmnm = _rmnm_lookup_nj(machine) if machine.rmnm is not None else 0.0
    return (average + rmnm) * WRITE_FACTOR
