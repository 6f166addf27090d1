"""Filter interface shared by every MNM technique.

A *miss filter* watches one cache's placement/replacement stream (at the
MNM's bookkeeping granule — the L2 block size, Section 3.1) and answers, for
a granule block address, either

* **definite miss** — the block is provably absent from the cache, or
* **maybe** — the block may be present; perform the normal lookup.

The answer must be *one-sided* (Section 3.6 of the paper): declaring a miss
for a resident block would force a redundant access to a farther level and
break correctness of the bypass, so every technique is engineered so that a
``True`` from :meth:`MissFilter.is_definite_miss` is a proof of absence.
The property-based tests in ``tests/core/test_soundness.py`` enforce this
for every technique on randomized event streams.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as _np


class Placement(enum.Enum):
    """Where the MNM sits relative to the caches (Figure 1 / Section 2).

    PARALLEL: consulted on every reference, concurrently with the L1 lookup;
        its delay hides under the L1 latency, so bypass decisions are free
        time-wise, but every reference pays the MNM access energy.
    SERIAL: consulted only after an L1 miss; MNM energy is paid only on L1
        misses, but every access that goes past L1 pays the MNM delay once.
    DISTRIBUTED: per-level filter state sits next to each cache and is
        consulted immediately before that cache's lookup (the third option
        Section 2 sketches): only the levels a request actually reaches pay
        any MNM energy — the cheapest placement energy-wise — but every
        reached level adds the MNM delay to the walk.
    """

    PARALLEL = "parallel"
    SERIAL = "serial"
    DISTRIBUTED = "distributed"


class MissFilter(ABC):
    """Per-cache miss filter observing placements and replacements.

    All addresses handed to a filter are **granule block addresses**: byte
    addresses shifted by the L2 block-offset width.  The
    :class:`~repro.core.machine.MostlyNoMachine` performs the mapping from
    each cache's own block size (a 128-byte block covers four 32-byte
    granules and generates four events).
    """

    #: Short technique tag used in reports ("rmnm", "smnm", ...).
    technique: str = "abstract"

    @abstractmethod
    def is_definite_miss(self, granule_addr: int) -> bool:
        """Return True only if the block is provably absent from the cache."""

    @abstractmethod
    def on_place(self, granule_addr: int) -> None:
        """Observe a granule entering the cache."""

    @abstractmethod
    def on_replace(self, granule_addr: int) -> None:
        """Observe a granule leaving the cache."""

    def on_flush(self) -> None:
        """The tracked cache was flushed; drop all filter state."""

    def on_invalidate(self, granule_addr: int) -> None:
        """A cross-context event touched this granule; downgrade conservatively.

        In a multi-core hierarchy another core's fill or eviction can move a
        block this filter never observed through its own place/replace
        stream.  The only sound reaction to such partial knowledge is to
        *stop proving anything* about the granule: the default treats it as
        a placement, which for every technique clears any standing miss
        proof (counters saturate upward, sum flip-flops set, the RMNM entry
        is dropped) and can only ever cost coverage, never soundness.

        Overrides may add bookkeeping but must keep the downgrade — they
        are required to route through ``super().on_invalidate(...)``
        (enforced statically by R006 and dynamically by the multicore
        false-miss property tests).
        """
        self.on_place(granule_addr)

    def query_many(self, granule_addrs):
        """Batched :meth:`is_definite_miss` over a sequence of granules.

        Returns one boolean answer per input granule, as a numpy bool
        array.  This default is
        correct by construction — it loops over :meth:`is_definite_miss` —
        and is the oracle every vectorized override must agree with
        element-wise (pinned by ``tests/core/test_soundness.py``).  Batched
        queries are read-only: they must never mutate filter state.
        """
        miss = self.is_definite_miss
        return _np.asarray([miss(int(granule)) for granule in granule_addrs],
                           dtype=bool)

    @property
    @abstractmethod
    def storage_bits(self) -> int:
        """Hardware state the filter needs, in bits (for the power model)."""

    @property
    def name(self) -> str:
        """Configuration name, e.g. ``TMNM_12x3``; defaults to the class name."""
        return type(self).__name__


class NullFilter(MissFilter):
    """A filter that never identifies a miss (the no-MNM baseline)."""

    technique = "null"

    def is_definite_miss(self, granule_addr: int) -> bool:
        return False

    def on_place(self, granule_addr: int) -> None:
        pass

    def on_replace(self, granule_addr: int) -> None:
        pass

    def query_many(self, granule_addrs):
        return _np.zeros(len(granule_addrs), dtype=bool)

    @property
    def storage_bits(self) -> int:
        return 0

    @property
    def name(self) -> str:
        return "NULL"


@dataclass
class FilterStats:
    """Lookup counters for one filter (kept by the machine, not the filter)."""

    lookups: int = 0
    miss_answers: int = 0

    @property
    def miss_answer_rate(self) -> float:
        """Fraction of lookups answered with a definite miss."""
        return self.miss_answers / self.lookups if self.lookups else 0.0
