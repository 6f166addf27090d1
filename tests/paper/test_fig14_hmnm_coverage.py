"""Regenerates Figure 14: hybrid MNM coverage (Table 3 recipes).

Expected shape (paper): hybrids dominate the single techniques; coverage
grows from HMNM1 to HMNM4 (~53% in the paper).
"""

from repro.experiments.figures import run_figure12, run_figure14
from tests.paper.conftest import run_and_print


def test_fig14_hmnm_coverage(paper_settings):
    result = run_and_print(run_figure14, paper_settings)
    assert "WARNING" not in result.notes
    mean = result.rows[-1]
    hmnm = mean[1:5]
    assert hmnm[3] >= hmnm[0]  # complexity pays
    # a hybrid including TMNM_12x3 covers at least as much as TMNM_12x3
    tmnm = run_figure12(paper_settings)
    assert hmnm[3] >= tmnm.rows[-1][4] - 1e-9
