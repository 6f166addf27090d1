"""Regenerates Figure 3: miss share of cache energy vs depth.

Expected shape (paper): ~18% of cache energy goes to miss probes at 5
levels; the fraction generally grows with depth but less steeply than the
time fraction (big outer caches have small miss rates).
"""

from repro.experiments.figures import run_figure3
from tests.paper.conftest import run_and_print


def test_fig03_miss_power_fraction(paper_settings):
    result = run_and_print(run_figure3, paper_settings)
    mean = result.rows[-1]
    five_level = mean[3]
    assert 2.0 < five_level < 60.0
