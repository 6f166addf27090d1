"""Design-space search: parameterized MNM spaces, samplers, autotuner.

The subsystem answers "what is the best MNM configuration under this
hardware budget?" instead of only re-measuring the paper's hand-picked
tables:

* :mod:`repro.search.space` — declarative, picklable search spaces over
  every MNM knob; each point materialises to a named
  :class:`~repro.core.machine.MNMDesign` via the preset grammar.
* :mod:`repro.search.samplers` — deterministic seeded strategies (grid,
  random, hill-climb, successive halving) speaking an ask/tell generator
  protocol.
* :mod:`repro.search.objectives` — multi-objective scoring with hard
  budget/coverage constraints.
* :mod:`repro.search.runner` — the loop that fans candidate evaluations
  out over the parallel executor, dedupes through the pass cache,
  resumes from a run directory's pass cache, and renders byte-stable ranked
  reports with a Pareto frontier.

Exposed on the CLI as ``repro-mnm search``.
"""

from repro.search.objectives import Evaluation, Objective
from repro.search.runner import SearchReport, baseline_points, run_search
from repro.search.samplers import (
    GridSampler,
    HillClimbSampler,
    Proposal,
    RandomSampler,
    Sampler,
    SuccessiveHalvingSampler,
    make_sampler,
    SAMPLER_NAMES,
)
from repro.search.space import (
    DesignPoint,
    FamilySpace,
    SearchSpace,
    space_names,
    space_preset,
)

__all__ = [
    "DesignPoint",
    "Evaluation",
    "FamilySpace",
    "GridSampler",
    "HillClimbSampler",
    "Objective",
    "Proposal",
    "RandomSampler",
    "Sampler",
    "SAMPLER_NAMES",
    "SearchReport",
    "SearchSpace",
    "SuccessiveHalvingSampler",
    "baseline_points",
    "make_sampler",
    "run_search",
    "space_names",
    "space_preset",
]
