"""Shared settings for the paper-shape checks.

Every check regenerates one paper table or figure, or one ablation, at a
reduced scale (all ten workloads, shorter traces than the full harness)
and asserts the shape the paper reports: orderings, who wins, and the
perfect-MNM bound.  Absolute numbers live in EXPERIMENTS.md; run
``repro-mnm all`` for full-scale output.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentSettings

#: Reduced-scale settings used by every paper-shape check.
PAPER_SETTINGS = ExperimentSettings(
    num_instructions=24_000,
    warmup_fraction=0.4,
    seed=0,
)


@pytest.fixture(scope="session")
def paper_settings() -> ExperimentSettings:
    return PAPER_SETTINGS


def run_and_print(runner, settings: ExperimentSettings):
    """Run one experiment and print its table (shown on failure)."""
    result = runner(settings)
    print()
    print(result.render(float_digits=1))
    return result
