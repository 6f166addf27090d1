"""Regenerates Table 1: the RMNM worked example.

The scenario is executed against the real RMNM cache; the check asserts
the paper's punchline — the access after the replacement is identified as
a definite L2 miss.
"""

from repro.experiments.tables import run_table1
from tests.paper.conftest import run_and_print


def test_table1_rmnm_scenario(paper_settings):
    result = run_and_print(run_table1, paper_settings)
    assert "YES" in result.notes
    answers = {row[0]: row[1] for row in result.rows}
    assert answers["access to 0x2fc0 arrives"] == "miss"
    assert answers["block 0x2fc0 re-placed into L2"] == "maybe"
