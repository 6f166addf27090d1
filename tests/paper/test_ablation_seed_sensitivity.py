"""Ablation: seed sensitivity of the headline coverage claims.

Each workload trace is one draw from the generator's distribution; this
check re-runs the CMNM coverage figure under three seeds and checks the
claims the reproduction rests on are stable draws, not single-seed luck:

* CMNM coverage is monotone in configuration size for every seed;
* the cross-seed spread of the mean coverage is modest.
"""

from repro.analysis.stats import run_multi_seed
from repro.experiments.base import ExperimentSettings
from repro.experiments.figures import run_figure13
from tests.paper.conftest import PAPER_SETTINGS

SETTINGS = ExperimentSettings(
    num_instructions=PAPER_SETTINGS.num_instructions,
    warmup_fraction=PAPER_SETTINGS.warmup_fraction,
    workloads=("twolf", "gcc", "mcf"),
)

SEEDS = (0, 1, 2)


def test_ablation_seed_sensitivity():
    aggregated = run_multi_seed(run_figure13, SETTINGS, SEEDS)
    print("\n== ablation: seed sensitivity of Figure 13 (3 seeds) ==")
    for header in aggregated.headers[1:]:
        cell = aggregated.cell("Arith. Mean", header)
        print(f"  {header:10} mean {cell.mean:5.1f}%  "
              f"std {cell.std:4.1f}  rel {cell.relative_std * 100:4.1f}%")

    small = aggregated.cell("Arith. Mean", "CMNM_2_9")
    large = aggregated.cell("Arith. Mean", "CMNM_8_12")
    # the ordering claim holds with clear separation across seeds
    assert large.mean - large.std > small.mean + small.std
    # spreads stay modest relative to the means
    assert aggregated.cell("Arith. Mean", "CMNM_8_12").relative_std < 0.35
