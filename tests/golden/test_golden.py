"""Every simulated number equals the committed golden digests, per engine.

The digests in ``digests.json`` were produced by ``make_digests.py``; a
change that moves any of them has changed a simulated result.
"""

from __future__ import annotations

import pytest

from tests.golden.make_digests import compute, load


@pytest.mark.parametrize("engine", ["interp", "fast"])
def test_golden_digests(engine):
    golden = load()
    digests = compute(engine)
    assert digests.keys() == golden.keys()
    differing = sorted(key for key in golden if digests[key] != golden[key])
    assert differing == []
