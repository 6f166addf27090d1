"""Every simulated number equals the committed golden digests, per engine.

The digests in ``digests.json`` were produced by ``make_digests.py``; a
change that moves any of them has changed a simulated result.
"""

from __future__ import annotations

import pytest

from tests.golden.make_digests import (
    compute,
    compute_cpu,
    compute_multicore,
    compute_traces,
    load,
)


def assert_match(golden, digests):
    assert digests.keys() == golden.keys()
    differing = sorted(key for key in golden if digests[key] != golden[key])
    assert differing == []


@pytest.mark.parametrize("engine", ["interp", "fast"])
def test_golden_digests(engine):
    assert_match({**load("core/"), **load("pass/")}, compute(engine))


@pytest.mark.parametrize("engine", ["interp", "fast"])
def test_multicore_digests(engine):
    assert_match(load("mc/"), compute_multicore(engine))


def test_cpu_digests():
    """The core alone; no engine is involved."""
    assert_match(load("cpu/"), compute_cpu())


def test_trace_digests():
    """The traces and both streams derived from them; no engine either."""
    assert_match(load("trace/"), compute_traces())
