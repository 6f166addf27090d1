"""Replacement policies for the set-associative cache simulator.

A policy manages victim selection *within one cache set*.  The cache calls
:meth:`ReplacementPolicy.on_hit` / :meth:`ReplacementPolicy.on_fill` to keep
the policy's bookkeeping current and :meth:`ReplacementPolicy.victim` to pick
the way to evict.  Policies are instantiated once per cache and keep
per-set state internally, indexed by set number.

The paper's SimpleScalar baseline uses LRU; FIFO, Random and tree-PLRU are
provided for ablations (replacement choice changes the *replacement stream*
the RMNM observes, so it is a relevant axis).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, MutableSequence, Optional


class ReplacementPolicy(ABC):
    """Victim selection for one cache.

    Args:
        num_sets: number of sets in the cache.
        associativity: number of ways per set.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets < 1:
            raise ValueError(f"num_sets must be >= 1, got {num_sets}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        self.num_sets = num_sets
        self.associativity = associativity

    @abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record that ``way`` of ``set_index`` was just filled."""

    @abstractmethod
    def victim(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""

    def reset(self) -> None:
        """Drop all bookkeeping (cache flush)."""


class _OrderedWays(ReplacementPolicy):
    """Per set, the ways in eviction order (victim first).

    A set's order starts as ``0, 1, ...`` and is built on its first touch,
    as a bytearray when every way fits a byte (a seventh of a list's size).
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._order: List[Optional[MutableSequence[int]]] = [None] * num_sets
        self._new_order = bytearray if associativity <= 256 else list

    def _touch(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        if order is None:
            order = self._new_order(range(self.associativity))
            self._order[set_index] = order
        order.remove(way)
        order.append(way)

    def victim(self, set_index: int) -> int:
        order = self._order[set_index]
        return 0 if order is None else order[0]

    def reset(self) -> None:
        self._order = [None] * self.num_sets


class LRUPolicy(_OrderedWays):
    """Least-recently-used replacement (the baseline policy).

    Keeps, per set, the ways ordered from least to most recently used.
    """

    def on_hit(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)


class FIFOPolicy(_OrderedWays):
    """First-in-first-out replacement: evict the oldest *fill*.

    Hits do not refresh a block's age.
    """

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim selection (deterministic under a seed)."""

    def __init__(self, num_sets: int, associativity: int, seed: int = 0) -> None:
        super().__init__(num_sets, associativity)
        self._seed = seed
        self._rng = random.Random(seed)

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        return self._rng.randrange(self.associativity)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class PLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU.

    Requires a power-of-two associativity.  Each set keeps
    ``associativity - 1`` tree bits; a ``0`` bit points left, ``1`` points
    right, and the victim is found by following the pointers, which are
    flipped away from a way on every touch.
    """

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        if associativity & (associativity - 1):
            raise ValueError(
                f"PLRU requires power-of-two associativity, got {associativity}"
            )
        self._bits: Dict[int, List[int]] = {}

    def _tree(self, set_index: int) -> List[int]:
        tree = self._bits.get(set_index)
        if tree is None:
            tree = [0] * max(self.associativity - 1, 1)
            self._bits[set_index] = tree
        return tree

    def _touch(self, set_index: int, way: int) -> None:
        if self.associativity == 1:
            return
        tree = self._tree(set_index)
        node = 0
        lo, hi = 0, self.associativity
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                tree[node] = 1  # point away: right
                node = 2 * node + 1
                hi = mid
            else:
                tree[node] = 0  # point away: left
                node = 2 * node + 2
                lo = mid
        # leaf reached

    def on_hit(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def victim(self, set_index: int) -> int:
        if self.associativity == 1:
            return 0
        tree = self._tree(set_index)
        node = 0
        lo, hi = 0, self.associativity
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tree[node] == 0:
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        return lo

    def reset(self) -> None:
        self._bits.clear()


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "plru": PLRUPolicy,
}


def make_policy(name: str, num_sets: int, associativity: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``random``/``plru``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, associativity)
