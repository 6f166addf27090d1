"""Regenerates Figure 2: miss share of data access time vs depth.

Expected shape (paper): the fraction grows with hierarchy depth, reaching
roughly a quarter of the data access time at 5 levels.
"""

from repro.experiments.figures import run_figure2
from tests.paper.conftest import run_and_print


def test_fig02_miss_time_fraction(paper_settings):
    result = run_and_print(run_figure2, paper_settings)
    mean = result.rows[-1]
    depth_means = mean[1:]
    # the 5-level fraction must be substantial and larger than 2-level
    assert depth_means[2] > depth_means[0]
    assert 5.0 < depth_means[2] < 70.0
