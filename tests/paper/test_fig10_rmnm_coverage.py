"""Regenerates Figure 10: RMNM coverage for four geometries.

Expected shape (paper): coverage grows with the RMNM cache size; the
average stays modest (RMNM only sees conflict/capacity misses), and
cold-miss-dominated apps (mcf) sit near the bottom.
"""

from repro.experiments.figures import run_figure10
from tests.paper.conftest import run_and_print


def test_fig10_rmnm_coverage(paper_settings):
    result = run_and_print(run_figure10, paper_settings)
    assert "WARNING" not in result.notes
    mean = result.rows[-1]
    small, large = mean[1], mean[4]
    assert large >= small  # bigger replacement cache, more coverage
    by_app = {row[0]: row for row in result.rows}
    assert by_app["mcf"][4] <= mean[4] + 1e-9  # cold-dominated: at/below avg
