"""Sum MNM (Section 3.2 of the paper).

Each *checker* hashes a ``sum_width``-bit slice of the block address with
the paper's sum function (Figure 5)::

    sum = 0
    for i in 1 .. sum_width:        # i-th least significant bit of the slice
        if bit set: sum += i * i

and keeps one flip-flop per possible sum value (Figure 6).  When a block is
placed into the cache its sum's flip-flop is set; an access whose sum's
flip-flop is clear provably misses.  The hardware (Figure 6) can only *set*
flip-flops — replacements cannot clear a sum because other resident blocks
may share it — so a pure SMNM degrades as the sum space fills up, which is
why its coverage is the weakest of the four techniques (Figure 11).

``counting=True`` enables an extension (not in the paper, used by our
ablation benches): an exact reference count per sum value, decremented on
replacement, which keeps the filter useful on long streams at the cost of
counters instead of single flip-flops.

Multiple checkers examine different slices of the block address
(``SMNM_{width}x{replication}``); a miss is proven if *any* checker proves
it.  Checker *k* starts at bit ``6*k`` of the block address, following the
paper's slice offsets.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.base import REPLACE, CounterStream, MissFilter, event_columns

#: Bit distance between consecutive checker slices (paper: slices start at
#: the 1st, 7th and 13th bits of the block address).
CHECKER_STRIDE = 6


def offsets_suffix(offsets: Sequence[int]) -> str:
    """Name suffix of slice offsets: empty for the default ``0, 6, 12,
    ...``, else ``@`` and the offsets (``@0,3``)."""
    if list(offsets) == [CHECKER_STRIDE * k for k in range(len(offsets))]:
        return ""
    return "@" + ",".join(str(offset) for offset in offsets)


def sum_hash(value: int, sum_width: int) -> int:
    """The paper's sum hash (Figure 5) over the low ``sum_width`` bits."""
    total = 0
    for i in range(1, sum_width + 1):
        if value & 1:
            total += i * i
        value >>= 1
    return total


def max_sum(sum_width: int) -> int:
    """Largest possible sum: ``w(w+1)(2w+1)/6`` (all bits set)."""
    return sum_width * (sum_width + 1) * (2 * sum_width + 1) // 6


def checker_flipflops(sum_width: int) -> int:
    """Flip-flop count of one checker (Equation 3 of the paper).

    The paper gives ``w(w+1)(2w+1)/6`` which is Σi² for i=1..w — one
    flip-flop per achievable nonzero sum — plus one for the all-zero sum.
    """
    return max_sum(sum_width) + 1


#: Chunk width for the precomputed hash tables (2^10 entries per chunk).
_CHUNK_BITS = 10


@lru_cache(maxsize=None)
def _chunk_tables(sum_width: int) -> List[List[int]]:
    """Precomputed per-chunk partial sums so hashing is table lookups.

    Bit ``p`` (0-based) of the slice contributes ``(p+1)^2``; chunk ``c``
    covers bit positions ``[10c, 10c+10)``.  The hash of a value is the sum
    of one lookup per chunk — identical to :func:`sum_hash` (tested
    property-wise) but constant-time for the widths the paper uses.

    Memoised per width: checkers only ever read the tables, and building
    them dominates SMNM construction cost in multi-design sweeps.
    """
    tables: List[List[int]] = []
    position = 0
    while position < sum_width:
        width = min(_CHUNK_BITS, sum_width - position)
        table = []
        for value in range(1 << width):
            total = 0
            for bit in range(width):
                if value >> bit & 1:
                    total += (position + bit + 1) ** 2
            table.append(total)
        tables.append(table)
        position += width
    return tables


# repro: allow[R006] internal SMNM building block, not a wireable filter; audited through SMNM's own soundness tests
class SumChecker:
    """One sum checker: a slice position plus the seen-sums state."""

    def __init__(self, sum_width: int, bit_offset: int, counting: bool = False) -> None:
        if sum_width < 1:
            raise ValueError(f"sum_width must be >= 1, got {sum_width}")
        if bit_offset < 0:
            raise ValueError(f"bit_offset must be >= 0, got {bit_offset}")
        self.sum_width = sum_width
        self.bit_offset = bit_offset
        self.counting = counting
        self._space = max_sum(sum_width) + 1
        # array('q') instead of a list: scalar reads/writes behave the same,
        # but numpy can view the buffer zero-copy for batched queries.
        self._counts = array("q", bytes(8 * self._space))
        # (table, mask) pairs; the final chunk may be narrower than 10 bits.
        self._tables = [
            (table, len(table) - 1) for table in _chunk_tables(sum_width)
        ]
        # Immutable chunk tables as int64 arrays for the vectorized hash.
        self._tables_np = [(_np.asarray(table, dtype=_np.int64), mask)
                           for table, mask in self._tables]
        # Zero-copy int64 view over the counts buffer, built once per
        # (re)alloc: batched queries are hot enough that per-call
        # frombuffer shows up.
        self._counts_view = _np.frombuffer(self._counts, dtype=_np.int64)

    def _hash(self, granule_addr: int) -> int:
        value = granule_addr >> self.bit_offset
        total = 0
        for table, mask in self._tables:
            total += table[value & mask]
            value >>= _CHUNK_BITS
        return total

    def is_definite_miss(self, granule_addr: int) -> bool:
        """True iff the address's sum was never seen (still) set."""
        return self._counts[self._hash(granule_addr)] == 0

    def query_many(self, granule_addrs):
        """Vectorized :meth:`is_definite_miss` over an int64 granule array."""
        return self._counts_view[self.sums_of(granule_addrs)] == 0

    def sums_of(self, granule_addrs):
        """Vectorized sum hash of every granule of an int64 array."""
        values = _np.asarray(granule_addrs, dtype=_np.int64) >> self.bit_offset
        totals = None
        for table, mask in self._tables_np:
            chunk = table[values & mask]
            totals = chunk if totals is None else totals + chunk
            values = values >> _CHUNK_BITS
        return totals

    @property
    def counts(self):
        """Zero-copy int64 view of the per-sum state; writes go through."""
        return self._counts_view

    def on_place(self, granule_addr: int) -> None:
        """Record a placed block's sum."""
        index = self._hash(granule_addr)
        if self.counting:
            self._counts[index] += 1
        else:
            self._counts[index] = 1

    def on_replace(self, granule_addr: int) -> None:
        """Counting variant only: release one reference to the sum."""
        if not self.counting:
            return  # the flip-flop hardware cannot unset a sum
        index = self._hash(granule_addr)
        if self._counts[index] > 0:
            self._counts[index] -= 1

    def reset(self) -> None:
        """Clear all seen sums (cache flush)."""
        self._counts = array("q", bytes(8 * self._space))
        self._counts_view = _np.frombuffer(self._counts, dtype=_np.int64)

    @property
    def storage_bits(self) -> int:
        """State bits: one flip-flop (or counter) per possible sum."""
        # Flip-flop variant: one bit per sum value.  Counting variant: a
        # 16-bit counter per sum value (generous upper bound).
        per_value = 16 if self.counting else 1
        return self._space * per_value


class SMNM(MissFilter):
    """Sum MNM for one cache: ``replication`` parallel checkers.

    Named ``SMNM_{sum_width}x{replication}`` as in the paper (Figure 11).
    """

    technique = "smnm"

    def __init__(
        self,
        sum_width: int,
        replication: int = 1,
        counting: bool = False,
        offsets: Optional[Sequence[int]] = None,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if offsets is None:
            offsets = [CHECKER_STRIDE * k for k in range(replication)]
        if len(offsets) != replication:
            raise ValueError(
                f"need {replication} offsets, got {len(offsets)}"
            )
        self.sum_width = sum_width
        self.replication = replication
        self.counting = counting
        self.checkers: Tuple[SumChecker, ...] = tuple(
            SumChecker(sum_width, offset, counting=counting) for offset in offsets
        )

    def is_definite_miss(self, granule_addr: int) -> bool:
        return any(c.is_definite_miss(granule_addr) for c in self.checkers)

    def query_many(self, granule_addrs):
        """Vectorized OR over the replicated checkers' batched answers."""
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        answers = self.checkers[0].query_many(granules)
        for checker in self.checkers[1:]:
            answers |= checker.query_many(granules)
        return answers

    def on_place(self, granule_addr: int) -> None:
        for checker in self.checkers:
            checker.on_place(granule_addr)

    def on_replace(self, granule_addr: int) -> None:
        for checker in self.checkers:
            checker.on_replace(granule_addr)

    def on_flush(self) -> None:
        for checker in self.checkers:
            checker.reset()

    def replay(self, bounds, actions, granules, queries):
        """Vectorized :meth:`MissFilter.replay`.

        A flip-flop is set from the first placement of its sum on
        (replacements never clear it), so a row is a miss when its sum
        was clear before the stream and its first placement comes later.
        The counting variant replays as a
        :class:`~repro.core.base.CounterStream` without a cap.  A row is
        a miss when any checker proves it.  Falls back to the default
        loop, before writing any state, when a scalar hook is overridden
        or a counting replacement would find its count at zero.
        """
        if not self._keeps_hooks_of(SMNM):
            return super().replay(bounds, actions, granules, queries)
        bounds, actions, granules, queries = event_columns(
            bounds, actions, granules, queries)
        rows = _np.arange(queries.shape[0])
        answers = _np.zeros(queries.shape[0], dtype=bool)
        finals = []
        placed = actions != REPLACE
        deltas = _np.where(placed, 1, -1)
        placed_granules, placed_bounds = granules[placed], bounds[placed]
        for checker in self.checkers:
            query_sums = checker.sums_of(queries)
            if self.counting:
                stream = CounterStream(checker.counts,
                                       checker.sums_of(granules), deltas,
                                       bounds)
                if not stream.exact:
                    return super().replay(bounds, actions, granules, queries)
                answers |= stream.at(query_sums, rows) == 0
                finals.append((checker, stream.final_slots,
                               stream.final_values))
            else:
                sums, first = _np.unique(checker.sums_of(placed_granules),
                                         return_index=True)
                # The first row that reads each flip-flop set; the row
                # count for one that stays clear.
                set_from = _np.full(checker.counts.shape[0],
                                    queries.shape[0], dtype=_np.int64)
                set_from[sums] = placed_bounds[first]
                set_from[checker.counts != 0] = 0
                answers |= set_from[query_sums] > rows
                finals.append((checker, sums, 1))
        for checker, slots, values in finals:
            checker.counts[slots] = values
        return answers

    @property
    def storage_bits(self) -> int:
        return sum(c.storage_bits for c in self.checkers)

    @property
    def logic_area_gates(self) -> int:
        """Area bound of the checker logic: O(sum_width^4), per the paper."""
        return self.replication * self.sum_width ** 4

    @property
    def logic_gates(self) -> int:
        """Gates that *switch* per evaluation (energy-relevant count).

        A lookup computes the weighted sum (an adder tree over
        ``sum_width`` inputs of ~``2 log w``-bit partial sums) and decodes
        it onto one flip-flop line (Figure 6); only O(w^2) gates toggle
        even though the full structure occupies O(w^4) area.
        """
        return self.replication * 3 * self.sum_width ** 2

    @property
    def name(self) -> str:
        """``SMNM_{width}x{replication}``, then ``c`` for the counting
        variant and ``@{offsets}`` for slice offsets other than the
        default ones — a name per configuration."""
        counting = "c" if self.counting else ""
        offsets = offsets_suffix(
            [checker.bit_offset for checker in self.checkers])
        return f"SMNM_{self.sum_width}x{self.replication}{counting}{offsets}"
