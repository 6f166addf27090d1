"""Way prediction — the related-work contrast (Section 5 of the paper).

Way prediction (Calder & Grunwald; Powell et al. for energy) guesses which
*way* of a set-associative cache holds the block so only that way's data
array is read; the paper contrasts it with the MNM: "Our techniques
identify whether the access will be a miss in the cache rather than
predicting what associative way of the cache will be accessed."

The two are complementary — way prediction saves energy on **hits**, the
MNM on **misses** — and the ablation benchmark
``bench_ablation_waypred.py`` quantifies that split.  This module
implements the standard MRU way predictor and an evaluation meter
computing its prediction accuracy and relative data-array read energy.

Energy accounting per probe (ways = associativity ``A``):

* correct prediction → 1 way read;
* mispredicted hit   → 1 + remaining ``A - 1`` ways (retry);
* miss               → 1 + ``A - 1`` (the predicted way plus the rest to
  confirm absence);
* baseline (no prediction) → ``A`` ways always.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.cache import Cache, CacheConfig


class MRUWayPredictor:
    """Predicts the most-recently-used way of each set."""

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets < 1 or associativity < 1:
            raise ValueError("num_sets and associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self._mru: List[int] = [0] * num_sets

    def predict(self, set_index: int) -> int:
        """Predicted way for the next access to this set."""
        return self._mru[set_index]

    def update(self, set_index: int, way: int) -> None:
        """Train with the way that actually served the access."""
        self._mru[set_index] = way

    def reset(self) -> None:
        """Forget all MRU state."""
        self._mru = [0] * self.num_sets


@dataclass
class WayPredictionStats:
    """Evaluation counters for one cache + predictor pair."""

    probes: int = 0
    hits: int = 0
    correct: int = 0
    ways_read: int = 0
    ways_read_baseline: int = 0

    @property
    def accuracy(self) -> float:
        """Correct predictions over hits (misses cannot be 'correct')."""
        return self.correct / self.hits if self.hits else 0.0

    @property
    def read_energy_ratio(self) -> float:
        """Data-array reads vs the always-read-all-ways baseline."""
        if not self.ways_read_baseline:
            return 1.0
        return self.ways_read / self.ways_read_baseline


class WayPredictionMeter:
    """Simulates one set-associative cache under MRU way prediction."""

    def __init__(self, config: CacheConfig) -> None:
        if config.associativity < 2:
            raise ValueError(
                "way prediction needs a set-associative cache "
                f"(got {config.associativity}-way)"
            )
        self.cache = Cache(config)
        self.predictor = MRUWayPredictor(config.num_sets,
                                         config.associativity)
        self.stats = WayPredictionStats()

    def access(self, address: int) -> bool:
        """Probe (and fill on miss); returns hit/miss."""
        cache = self.cache
        stats = self.stats
        ways = cache.config.associativity
        blk = cache.block_addr(address)
        set_index = cache.set_index(blk)
        predicted = self.predictor.predict(set_index)

        hit = cache.probe(address)
        stats.probes += 1
        stats.ways_read_baseline += ways
        if hit:
            stats.hits += 1
            actual = cache.way_of_block(blk)
            if actual == predicted:
                stats.correct += 1
                stats.ways_read += 1
            else:
                stats.ways_read += ways  # predicted way + the rest
            self.predictor.update(set_index, actual)
        else:
            stats.ways_read += ways
            cache.fill(address)
            self.predictor.update(set_index, cache.way_of_block(blk))
        return hit

    def reset(self) -> None:
        """Flush the cache, predictor and counters."""
        self.cache.flush()
        self.predictor.reset()
        self.stats = WayPredictionStats()
