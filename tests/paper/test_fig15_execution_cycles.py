"""Regenerates Figure 15: execution-cycle reduction (parallel MNM).

Expected shape (paper): every design's reduction is bounded by the perfect
MNM; the hybrids beat the single techniques on average; low-coverage apps
(mcf) realise the smallest share of the perfect bound.
"""

from repro.experiments.figures import run_figure15
from tests.paper.conftest import run_and_print


def test_fig15_execution_cycles(paper_settings):
    result = run_and_print(run_figure15, paper_settings)
    perfect_column = len(result.headers) - 1
    for row in result.rows:
        perfect = row[perfect_column]
        for value in row[1:perfect_column]:
            assert value <= perfect + 1e-9, f"{row[0]}: design beats oracle"
    mean = result.rows[-1]
    assert mean[perfect_column] > 0.0
    # HMNM4 mean within the oracle, positive on average
    hmnm4 = result.headers.index("HMNM4")
    assert 0.0 < mean[hmnm4] <= mean[perfect_column]
