"""Regenerates Figure 12: TMNM coverage for four configurations.

Expected shape (paper): TMNM_12x3 the best of the four; extra parallel
tables and wider indices can only add coverage.  The asserted orderings
are the *structurally guaranteed* dominances (a 10x3's first table equals
a 10x1; a 12-bit table's slot counts are bounded by the 10-bit table's):
``10x1 <= 10x3 <= 12x3``.  The paper's additional observation that 10x3
beats the larger 11x2 is workload-dependent and does not reproduce on the
synthetic traces (11x2 wins here) — recorded in EXPERIMENTS.md.
"""

from repro.experiments.figures import run_figure12
from tests.paper.conftest import run_and_print


def test_fig12_tmnm_coverage(paper_settings):
    result = run_and_print(run_figure12, paper_settings)
    assert "WARNING" not in result.notes
    mean = result.rows[-1]
    tmnm_10x1, tmnm_11x2, tmnm_10x3, tmnm_12x3 = mean[1:5]
    assert tmnm_10x1 <= tmnm_10x3 + 1e-9    # more tables only add coverage
    assert tmnm_10x3 <= tmnm_12x3 + 1e-9    # finer tables only add coverage
    assert tmnm_12x3 >= tmnm_11x2 - 5.0     # 12x3 at/near the top
