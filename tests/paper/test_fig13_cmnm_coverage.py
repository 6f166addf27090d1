"""Regenerates Figure 13: CMNM coverage for four configurations.

Expected shape (paper): CMNM is the strongest single technique; coverage
grows with both register count and table size, with CMNM_8_12 on top.
"""

from repro.experiments.figures import run_figure10, run_figure13
from tests.paper.conftest import run_and_print


def test_fig13_cmnm_coverage(paper_settings):
    result = run_and_print(run_figure13, paper_settings)
    assert "WARNING" not in result.notes
    mean = result.rows[-1]
    cmnm_2_9, cmnm_4_10, cmnm_8_10, cmnm_8_12 = mean[1:5]
    assert cmnm_2_9 <= cmnm_4_10 <= cmnm_8_10 + 1e-9
    assert cmnm_8_12 >= cmnm_2_9
    # best single technique: beats the best RMNM
    rmnm = run_figure10(paper_settings)
    assert cmnm_8_12 >= rmnm.rows[-1][4]
