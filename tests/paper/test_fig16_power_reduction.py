"""Regenerates Figure 16: cache power reduction (serial MNM).

Expected shape (paper): the perfect MNM (free, by assumption) gives the
largest reduction; real designs pay their own lookup energy, so their
savings are a fraction of the oracle's and can approach zero on
low-coverage apps (mcf).
"""

from repro.experiments.figures import run_figure16
from tests.paper.conftest import run_and_print


def test_fig16_power_reduction(paper_settings):
    result = run_and_print(run_figure16, paper_settings)
    perfect_column = len(result.headers) - 1
    mean = result.rows[-1]
    assert mean[perfect_column] > 0.0
    for value in mean[1:perfect_column]:
        assert value <= mean[perfect_column] + 1e-9
    # mcf has the lowest coverage: its real-design savings trail its oracle
    mcf = result.row_for("mcf")
    hmnm4 = result.headers.index("HMNM4")
    assert mcf[hmnm4] <= mcf[perfect_column]
