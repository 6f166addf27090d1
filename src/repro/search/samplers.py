"""Deterministic seeded samplers over a :class:`~repro.search.space.SearchSpace`.

Samplers drive the search loop through an ask/tell protocol: the runner
iterates :meth:`Sampler.proposals`, a generator yielding
:class:`Proposal` batches and receiving back a ``{design name: score}``
dict for the batch just evaluated (higher scores are better; infeasible
candidates come back as ``-inf``).  Batching is what lets the runner fan a
whole round out across ``--jobs`` worker processes at once.

Every sampler is a pure function of ``(space, seed)`` plus the observed
scores: randomness comes only from a private :class:`random.Random`
seeded at construction, ranking ties break on ``(score, name)``, and no
sampler reads the wall clock — so the same invocation always proposes the
same candidates in the same order, which is the contract that makes
search reports byte-stable across ``--jobs`` values and resumed
``--run-dir`` runs.

Samplers:

* :class:`GridSampler` — exhaustive enumeration in global index order.
* :class:`RandomSampler` — ``num_samples`` distinct points, seeded,
  without replacement (degrades to the full grid when the space is small).
* :class:`HillClimbSampler` — seeded random restarts, then repeated
  one-knob neighbourhood moves from the incumbent (local search).
* :class:`SuccessiveHalvingSampler` — evaluates a large cohort on a short
  trace prefix (low *fidelity*) and promotes the surviving fraction rung
  by rung to the full trace.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.search.space import DesignPoint, SearchSpace

#: The sampler generator type: yields proposals, receives per-name scores.
ProposalStream = Generator["Proposal", Dict[str, float], None]


@dataclass(frozen=True)
class Proposal:
    """One batch of candidates to evaluate at a given trace fidelity.

    ``fidelity`` is the fraction of the full trace length the batch should
    be scored on (1.0 = the full trace); only the successive-halving
    sampler proposes less than 1.0.
    """

    points: Tuple[DesignPoint, ...]
    fidelity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError(f"fidelity must be in (0, 1], got {self.fidelity}")


def _best_name(scores: Dict[str, float]) -> Optional[str]:
    """Highest-scoring name; ties break lexicographically (deterministic)."""
    if not scores:
        return None
    return min(scores.items(), key=lambda item: (-item[1], item[0]))[0]


class Sampler(ABC):
    """Base class: a named, seeded proposal strategy."""

    name: str = "abstract"

    @abstractmethod
    def proposals(self, space: SearchSpace) -> ProposalStream:
        """Yield proposal batches; receives the batch's scores via send()."""

    def describe(self) -> str:
        """Human-readable identity for reports."""
        return self.name


class GridSampler(Sampler):
    """Every point of the space, in global index order, one batch."""

    name = "grid"

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit

    def proposals(self, space: SearchSpace) -> ProposalStream:
        count = space.size if self.limit is None else min(self.limit,
                                                          space.size)
        points = tuple(space.point(index) for index in range(count))
        yield Proposal(points)

    def describe(self) -> str:
        return "grid" if self.limit is None else f"grid(limit={self.limit})"


class RandomSampler(Sampler):
    """``num_samples`` distinct points drawn without replacement."""

    name = "random"

    def __init__(self, num_samples: int, seed: int = 0) -> None:
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.num_samples = num_samples
        self.seed = seed

    def _indices(self, space: SearchSpace) -> List[int]:
        count = min(self.num_samples, space.size)
        rng = random.Random(self.seed)
        return sorted(rng.sample(range(space.size), count))

    def proposals(self, space: SearchSpace) -> ProposalStream:
        points = tuple(space.point(index) for index in self._indices(space))
        yield Proposal(points)

    def describe(self) -> str:
        return f"random(n={self.num_samples}, seed={self.seed})"


class HillClimbSampler(Sampler):
    """Seeded restarts plus one-knob neighbourhood moves from the incumbent.

    Round 0 proposes ``num_restarts`` random points.  Each later round
    proposes the not-yet-visited neighbours (one parameter step away,
    same family) of the best point seen so far; the climb stops when a
    round fails to improve the incumbent, when the neighbourhood is
    exhausted, or after ``max_rounds`` rounds.
    """

    name = "hillclimb"

    def __init__(self, num_restarts: int = 8, max_rounds: int = 16,
                 seed: int = 0) -> None:
        if num_restarts < 1:
            raise ValueError(f"num_restarts must be >= 1, got {num_restarts}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.num_restarts = num_restarts
        self.max_rounds = max_rounds
        self.seed = seed

    def proposals(self, space: SearchSpace) -> ProposalStream:
        rng = random.Random(self.seed)
        count = min(self.num_restarts, space.size)
        starts = sorted(rng.sample(range(space.size), count))
        visited = set(starts)
        by_name: Dict[str, int] = {}
        points = []
        for index in starts:
            point = space.point(index)
            by_name[point.name] = index
            points.append(point)

        scores = yield Proposal(tuple(points))
        best_name = _best_name(scores)
        if best_name is None:
            return
        best_index = by_name[best_name]
        best_score = scores[best_name]

        for _round in range(self.max_rounds):
            frontier = [index for index in space.neighbors(best_index)
                        if index not in visited]
            if not frontier:
                return
            visited.update(frontier)
            by_name = {}
            points = []
            for index in frontier:
                point = space.point(index)
                by_name[point.name] = index
                points.append(point)
            scores = yield Proposal(tuple(points))
            challenger = _best_name(scores)
            if challenger is None or scores[challenger] <= best_score:
                return  # local optimum
            best_index = by_name[challenger]
            best_score = scores[challenger]

    def describe(self) -> str:
        return (f"hillclimb(restarts={self.num_restarts}, "
                f"max_rounds={self.max_rounds}, seed={self.seed})")


class SuccessiveHalvingSampler(Sampler):
    """Cohort on a short trace prefix; survivors promoted to longer ones.

    Rung ``r`` of ``R`` evaluates its cohort at fidelity ``eta**(r-R+1)``
    (the last rung is always the full trace) and promotes the top
    ``1/eta`` fraction.  Low-fidelity scores only decide promotion; the
    runner ranks the final report exclusively on full-trace evaluations.
    """

    name = "halving"

    def __init__(self, num_samples: int = 27, eta: int = 3,
                 num_rungs: int = 3, seed: int = 0) -> None:
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if num_rungs < 1:
            raise ValueError(f"num_rungs must be >= 1, got {num_rungs}")
        self.num_samples = num_samples
        self.eta = eta
        self.num_rungs = num_rungs
        self.seed = seed

    def proposals(self, space: SearchSpace) -> ProposalStream:
        rng = random.Random(self.seed)
        count = min(self.num_samples, space.size)
        indices = sorted(rng.sample(range(space.size), count))
        cohort = [space.point(index) for index in indices]

        for rung in range(self.num_rungs):
            fidelity = float(self.eta) ** (rung - self.num_rungs + 1)
            scores = yield Proposal(tuple(cohort), fidelity=fidelity)
            if rung == self.num_rungs - 1:
                return
            survivors = max(1, len(cohort) // self.eta)
            ranked = sorted(
                cohort,
                key=lambda point: (-scores.get(point.name, float("-inf")),
                                   point.name),
            )
            cohort = ranked[:survivors]
            if not cohort:
                return

    def describe(self) -> str:
        return (f"halving(n={self.num_samples}, eta={self.eta}, "
                f"rungs={self.num_rungs}, seed={self.seed})")


#: CLI sampler ids.
SAMPLER_NAMES = ("grid", "random", "hillclimb", "halving")


def make_sampler(name: str, seed: int = 0,
                 num_samples: int = 32) -> Sampler:
    """Build a sampler from its CLI id (``--sampler`` / ``--samples``)."""
    if name == "grid":
        return GridSampler()
    if name == "random":
        return RandomSampler(num_samples, seed=seed)
    if name == "hillclimb":
        return HillClimbSampler(num_restarts=max(1, num_samples // 4),
                                seed=seed)
    if name == "halving":
        return SuccessiveHalvingSampler(num_samples=num_samples, seed=seed)
    raise ValueError(
        f"unknown sampler {name!r}; choose from {', '.join(SAMPLER_NAMES)}")
