"""Regenerates Figure 11: SMNM coverage for four configurations.

Expected shape (paper): the weakest technique overall — the seen-sums
flip-flops only ever fill up, so coverage is low except where small-cache
misses dominate (apsi's instruction side).
"""

from repro.experiments.figures import run_figure11, run_figure13
from tests.paper.conftest import run_and_print


def test_fig11_smnm_coverage(paper_settings):
    result = run_and_print(run_figure11, paper_settings)
    assert "WARNING" not in result.notes
    smnm_best = result.rows[-1][4]          # SMNM_20x3 mean
    cmnm = run_figure13(paper_settings)
    cmnm_best = cmnm.rows[-1][4]            # CMNM_8_12 mean
    assert smnm_best <= cmnm_best           # SMNM weakest vs CMNM strongest
