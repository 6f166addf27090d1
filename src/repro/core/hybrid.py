"""Hybrid MNM (Section 3.5 of the paper).

A hybrid combines several techniques on the same cache; a miss is proven if
*any* component proves it.  Since every component is individually one-sided
(a ``True`` is a proof of absence), the disjunction is one-sided too —
combining techniques can only add coverage, never unsoundness.

The paper's HMNM1–HMNM4 recipes (Table 3) mix SMNM+TMNM on cache levels 2–3
with CMNM+TMNM on levels 4–5 plus a shared RMNM; those recipes live in
:mod:`repro.core.presets` — this module only provides the combinator, and
:func:`components_of`, the one way code outside it sees a filter's parts.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as _np

from repro.core.base import MissFilter


class CompositeFilter(MissFilter):
    """OR-combination of several miss filters watching the same cache."""

    technique = "hybrid"

    def __init__(self, components: Iterable[MissFilter], label: str = "") -> None:
        self.components: Tuple[MissFilter, ...] = tuple(components)
        if not self.components:
            raise ValueError("a composite filter needs at least one component")
        self._label = label

    def is_definite_miss(self, granule_addr: int) -> bool:
        return any(c.is_definite_miss(granule_addr) for c in self.components)

    def query_many(self, granule_addrs):
        """Vectorized OR of the components' batched answers."""
        granules = _np.asarray(granule_addrs, dtype=_np.int64)
        answers = _np.asarray(self.components[0].query_many(granules),
                              dtype=bool)
        for component in self.components[1:]:
            answers = answers | _np.asarray(component.query_many(granules),
                                            dtype=bool)
        return answers

    def on_place(self, granule_addr: int) -> None:
        for component in self.components:
            component.on_place(granule_addr)

    def on_replace(self, granule_addr: int) -> None:
        for component in self.components:
            component.on_replace(granule_addr)

    def on_flush(self) -> None:
        for component in self.components:
            component.on_flush()

    @property
    def storage_bits(self) -> int:
        return sum(c.storage_bits for c in self.components)

    @property
    def name(self) -> str:
        if self._label:
            return self._label
        return "+".join(c.name for c in self.components)


def components_of(filter_: MissFilter) -> Tuple[MissFilter, ...]:
    """A filter as its components: a composite's, or a lone filter itself."""
    if isinstance(filter_, CompositeFilter):
        return filter_.components
    return (filter_,)
