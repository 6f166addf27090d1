"""Common-Address MNM (Section 3.4 of the paper).

The CMNM exploits the locality of the *high* address bits: programs touch
few distinct high-address regions, so a handful of registers (the
*virtual-tag finder*) can compress them.  A block address is split into a
high part (everything above the low ``m`` bits) and a low part (the low
``m`` bits).  The high part is matched against ``k`` registers; on a match,
the register index (the *virtual tag*) concatenated with the low part
indexes a table of 3-bit sticky-saturating counters, exactly like a TMNM
table.  An access provably misses when its high part matches no register,
or when every matching register's counter slot is zero.

Virtual-tag finder semantics (as described in the paper):

* Register *values* never change once allocated; each register has a mask
  that can only **widen** (mask bits shift left) over time.
* When a placed block matches no register, an unused register is allocated
  for it exactly; with no unused register, every mask is widened in
  lock-step until some register matches — that register keeps the widened
  mask and the rest are restored ("reset to their original position except
  the register that matched").

Because masks only widen and values never change, a register that matched a
block at placement time matches it forever after — the match set only
grows.  Two faithfulness refinements keep the structure *provably*
one-sided where the paper's prose is ambiguous:

* When several registers match at lookup time, a miss is declared only if
  **every** matching register's counter is zero (a priority encoder that
  picked one arbitrary match could consult a stale slot and declare a false
  miss).
* Replacement decrements must hit the same counter the placement
  incremented.  We record the placement-time register index per resident
  granule — hardware-wise this is ``log2(k)`` extra bits stored alongside
  each cache block (3 bits for the largest configuration in the paper),
  sent back with the replaced-block address the caches already forward to
  the MNM (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as _np

from repro.core.base import REPLACE, CounterStream, MissFilter, event_columns
from repro.core.tmnm import COUNTER_BITS, CounterTable


@dataclass
class _Register:
    """One virtual-tag register: an immutable value plus a widening mask."""

    value: int = 0
    mask_len: int = 0
    valid: bool = False

    def matches(self, high: int, high_bits: int) -> bool:
        if not self.valid:
            return False
        if self.mask_len >= high_bits:
            return True
        return (high >> self.mask_len) == (self.value >> self.mask_len)


class VirtualTagFinder:
    """The CMNM's high-bits compressor: ``k`` registers with widening masks."""

    def __init__(self, num_registers: int, high_bits: int) -> None:
        if num_registers < 1:
            raise ValueError(f"num_registers must be >= 1, got {num_registers}")
        if high_bits < 1:
            raise ValueError(f"high_bits must be >= 1, got {high_bits}")
        self.num_registers = num_registers
        self.high_bits = high_bits
        self.registers: List[_Register] = [_Register() for _ in range(num_registers)]

    def matching(self, high: int) -> List[int]:
        """Indices of all registers whose masked value matches ``high``."""
        return [
            index
            for index, register in enumerate(self.registers)
            if register.matches(high, self.high_bits)
        ]

    def place(self, high: int) -> int:
        """Find or create a register for ``high``; return its index.

        Placement order: existing match (first, for determinism) →
        allocate a free register → widen all masks until a match appears.
        """
        matches = self.matching(high)
        if matches:
            return matches[0]

        for index, register in enumerate(self.registers):
            if not register.valid:
                register.value = high
                register.mask_len = 0
                register.valid = True
                return index

        saved = [register.mask_len for register in self.registers]
        while True:
            widened_any = False
            for register in self.registers:
                if register.mask_len < self.high_bits:
                    register.mask_len += 1
                    widened_any = True
            matches = self.matching(high)
            if matches:
                winner = matches[0]
                for index, register in enumerate(self.registers):
                    if index != winner:
                        register.mask_len = saved[index]
                return winner
            if not widened_any:
                # All masks already cover every bit yet nothing matched:
                # impossible with at least one valid register, guarded anyway.
                raise AssertionError("virtual-tag finder failed to converge")

    def reset(self) -> None:
        """Invalidate every register (cache flush)."""
        self.registers = [_Register() for _ in range(self.num_registers)]

    def copy(self) -> "VirtualTagFinder":
        """An independent finder in the same state."""
        twin = VirtualTagFinder(self.num_registers, self.high_bits)
        twin.registers = [replace(register) for register in self.registers]
        return twin

    def state(self) -> List[Tuple[int, int, bool]]:
        """Every register's ``(value, mask_len, valid)``, by index."""
        return [(register.value, register.mask_len, register.valid)
                for register in self.registers]

    @property
    def storage_bits(self) -> int:
        """Register file size: value + mask-length + valid bits."""
        mask_field = max(self.high_bits.bit_length(), 1)
        return self.num_registers * (self.high_bits + mask_field + 1)


class CMNM(MissFilter):
    """Common-Address MNM for one cache.

    Named ``CMNM_{num_registers}_{low_bits}`` as in the paper (Figure 13);
    e.g. ``CMNM_8_12`` has an 8-register virtual-tag finder and uses the low
    12 block-address bits, for an ``8 * 2^12``-counter table.

    Args:
        num_registers: virtual-tag finder size (``k``).
        low_bits: low block-address bits indexing the table (``m``).
        address_bits: width of granule block addresses (32-bit byte
            addresses minus the granule offset; default assumes the paper's
            32-byte granule).
    """

    technique = "cmnm"

    def __init__(
        self,
        num_registers: int,
        low_bits: int,
        address_bits: int = 27,
        counter_bits: int = COUNTER_BITS,
    ) -> None:
        if low_bits < 1:
            raise ValueError(f"low_bits must be >= 1, got {low_bits}")
        if address_bits <= low_bits:
            raise ValueError(
                f"address_bits ({address_bits}) must exceed low_bits ({low_bits})"
            )
        self.num_registers = num_registers
        self.low_bits = low_bits
        self.high_bits = address_bits - low_bits
        self.finder = VirtualTagFinder(num_registers, self.high_bits)
        self.tables: Tuple[CounterTable, ...] = tuple(
            CounterTable(low_bits, bit_offset=0, counter_bits=counter_bits)
            for _ in range(num_registers)
        )
        # Placement-time register index per resident granule (log2(k) bits
        # alongside each cache block in hardware; see module docstring).
        self._placed_under: Dict[int, int] = {}

    def _split(self, granule_addr: int) -> Tuple[int, int]:
        return granule_addr >> self.low_bits, granule_addr & ((1 << self.low_bits) - 1)

    def is_definite_miss(self, granule_addr: int) -> bool:
        high, low = self._split(granule_addr)
        matches = self.finder.matching(high)
        if not matches:
            return True
        return all(self.tables[index].count(low) == 0 for index in matches)

    def query_many(self, granule_addrs):
        """Vectorized :meth:`is_definite_miss` over an int64 granule array.

        A reference is a *maybe* exactly when some matching register's
        counter slot is nonzero; everything else — no match at all, or all
        matching slots zero — is a definite miss.
        """
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        high = granules >> self.low_bits
        low = granules & ((1 << self.low_bits) - 1)
        maybe = _np.zeros(granules.shape[0], dtype=bool)
        for index, register in enumerate(self.finder.registers):
            if not register.valid:
                continue
            # tables have bit_offset 0, so query_many(low) indexes directly.
            nonzero = ~self.tables[index].query_many(low)
            if register.mask_len >= self.finder.high_bits:
                maybe |= nonzero
            else:
                shift = register.mask_len
                maybe |= ((high >> shift) == (register.value >> shift)) & nonzero
        return ~maybe

    def on_place(self, granule_addr: int) -> None:
        high, low = self._split(granule_addr)
        register = self.finder.place(high)
        self.tables[register].on_place(low)
        self._placed_under[granule_addr] = register

    def on_replace(self, granule_addr: int) -> None:
        register = self._placed_under.pop(granule_addr, None)
        if register is None:
            # Replacement of a block placed before this filter attached (or
            # inconsistent event streams): nothing was counted, skip.
            return
        _, low = self._split(granule_addr)
        self.tables[register].on_replace(low)

    def on_flush(self) -> None:
        self.finder.reset()
        for table in self.tables:
            table.reset()
        self._placed_under.clear()

    def replay(self, bounds, actions, granules, queries):
        """Vectorized :meth:`MissFilter.replay`.

        One pass over the placements, with the finder's answer memoised
        per high part until the finder mutates, gives each placement's
        register and the finder's *epochs*: its registers after each
        mutation and the bound where it happened.  A replacement
        decrements under the register of its granule's previous event
        when that event was a placement (the ``_placed_under`` rule), so
        the counter tables replay as one
        :class:`~repro.core.base.CounterStream` keyed by (register, low
        bits).  A row is a *maybe* when some register valid and matching
        in its epoch has a nonzero count.  Falls back to the default
        loop, before writing any state, when a scalar hook is overridden
        or a replacement would find an unsaturated counter at zero.
        """
        if not self._keeps_hooks_of(CMNM):
            return super().replay(bounds, actions, granules, queries)
        bounds, actions, granules, queries = event_columns(
            bounds, actions, granules, queries)
        low_bits = self.low_bits
        low_mask = (1 << low_bits) - 1
        placed = actions != REPLACE
        finder = self.finder.copy()
        registers = _np.full(granules.shape[0], -1, dtype=_np.int64)
        registers[placed], epoch_bounds, epochs = self._place_all(
            finder, granules[placed] >> low_bits, bounds[placed])

        # Each event's previous event on the same granule (-1: none).
        order = _np.argsort(granules, kind="stable")
        repeat = granules[order[1:]] == granules[order[:-1]]
        previous = _np.full(granules.shape[0], -1, dtype=_np.int64)
        previous[order[1:][repeat]] = order[:-1][repeat]
        replaced = _np.flatnonzero(~placed & (previous >= 0))
        before = previous[replaced]
        registers[replaced] = _np.where(placed[before], registers[before], -1)
        if self._placed_under:
            first = _np.flatnonzero(~placed & (previous < 0))
            lookup = self._placed_under.get
            registers[first] = [lookup(granule, -1)
                                for granule in granules[first].tolist()]

        counted = _np.flatnonzero(registers >= 0)
        stream = CounterStream(
            _np.concatenate([table.counts for table in self.tables]),
            (registers[counted] << low_bits) | (granules[counted] & low_mask),
            _np.where(placed[counted], 1, -1), bounds[counted],
            self.tables[0].counter_max)
        if not stream.exact:
            return super().replay(bounds, actions, granules, queries)

        rows = _np.arange(queries.shape[0])
        high = queries >> low_bits
        low = queries & low_mask
        epoch = _np.searchsorted(epoch_bounds, rows, side="right") - 1
        state = _np.asarray(epochs, dtype=_np.int64)  # epoch, register, field
        maybe = _np.zeros(queries.shape[0], dtype=bool)
        for index in range(self.num_registers):
            value, mask, valid = state[:, index].T
            if not valid.any():
                continue
            mask = mask[epoch]
            hits = _np.flatnonzero(
                (valid[epoch] != 0)
                & ((mask >= self.high_bits)
                   | ((high >> mask) == (value[epoch] >> mask))))
            maybe[hits] |= stream.at((index << low_bits) | low[hits],
                                     hits) != 0

        self.finder.registers = finder.registers
        for index, table in enumerate(self.tables):
            mine = (stream.final_slots >> low_bits) == index
            table.counts[stream.final_slots[mine] & low_mask] = (
                stream.final_values[mine])
        # A granule's last event decides its ``_placed_under`` entry.
        last = _np.ones(granules.shape[0], dtype=bool)
        last[order[:-1][repeat]] = False
        for granule in granules[last & ~placed].tolist():
            self._placed_under.pop(granule, None)
        kept = last & placed
        self._placed_under.update(zip(granules[kept].tolist(),
                                      registers[kept].tolist()))
        return ~maybe

    @staticmethod
    def _place_all(finder: VirtualTagFinder, highs, bounds):
        """Place ``highs`` in order on ``finder``.

        Returns each placement's register, then the finder's epochs: the
        bound of each mutation (0 first, for the state before any) and
        the :meth:`VirtualTagFinder.state` after it.
        """
        registers = []
        epoch_bounds = [0]
        epochs = [finder.state()]
        memo: Dict[int, int] = {}
        for high, bound in zip(highs.tolist(), bounds.tolist()):
            register = memo.get(high)
            if register is None:
                matches = finder.matching(high)
                if matches:
                    register = matches[0]
                else:
                    register = finder.place(high)
                    memo.clear()
                    epoch_bounds.append(bound)
                    epochs.append(finder.state())
                memo[high] = register
            registers.append(register)
        return registers, epoch_bounds, epochs

    @property
    def storage_bits(self) -> int:
        return self.finder.storage_bits + sum(t.storage_bits for t in self.tables)

    @property
    def name(self) -> str:
        return f"CMNM_{self.num_registers}_{self.low_bits}"
