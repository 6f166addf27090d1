"""Regenerates Table 2: workload characteristics.

Expected shape: ten rows of per-level hit rates on the 5-level hierarchy;
L1 rates high for cache-friendly apps, mcf clearly memory-bound.
"""

from repro.experiments.tables import run_table2
from tests.paper.conftest import run_and_print


def test_table2_characteristics(paper_settings):
    result = run_and_print(run_table2, paper_settings)
    by_app = {row[0]: row for row in result.rows}
    dl1 = result.headers.index("dl1 hit%")
    # mcf is the memory-bound outlier; twolf/bzip2 are cache-friendly
    assert by_app["mcf"][dl1] < by_app["twolf"][dl1]
    assert by_app["mcf"][dl1] < by_app["bzip2"][dl1]
    for name, row in by_app.items():
        if name == "Arith. Mean":
            continue
        assert row[1] > 0, f"{name} reported zero cycles"
