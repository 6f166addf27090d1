"""Perfect MNM: the oracle bound used in Figures 15 and 16.

"The perfect MNM always knows where the data is and hence bypasses all the
caches that miss" (Section 4.3).  We realise it as an exact resident-set
tracker: it watches the same placement/replacement stream every real filter
sees and keeps the set of resident granules.  Its answer is exact in both
directions — every true miss is identified, and no resident block is ever
mis-flagged — so it doubles as a plumbing check: if the event streams
delivered to filters were ever wrong, the perfect filter's soundness tests
would fail.

The paper additionally assumes the perfect MNM consumes *no power* and adds
*no delay*; the experiment harness honours that when a design is marked
perfect.
"""

from __future__ import annotations

from typing import Set

import numpy as _np

from repro.core.base import MissFilter


class PerfectFilter(MissFilter):
    """Oracle filter: exact resident-granule set for one cache."""

    technique = "perfect"

    def __init__(self) -> None:
        self._resident: Set[int] = set()

    def is_definite_miss(self, granule_addr: int) -> bool:
        return granule_addr not in self._resident

    def query_many(self, granule_addrs):
        """Batched resident-set membership test."""
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        resident = self._resident
        return _np.fromiter((g not in resident for g in granules.tolist()),
                            dtype=bool, count=granules.shape[0])

    def on_place(self, granule_addr: int) -> None:
        self._resident.add(granule_addr)

    def on_replace(self, granule_addr: int) -> None:
        self._resident.discard(granule_addr)

    def on_flush(self) -> None:
        self._resident.clear()

    @property
    def resident_granules(self) -> Set[int]:
        """Copy of the tracked resident set (for tests)."""
        return set(self._resident)

    @property
    def storage_bits(self) -> int:
        """An oracle has no hardware budget; report zero like the paper."""
        return 0

    @property
    def name(self) -> str:
        return "PERFECT"
