"""Fast batched simulation engine (``--engine fast``).

A second implementation of :func:`repro.simulate.run_reference_pass`,
:func:`repro.simulate.run_core_trace` and
:func:`repro.simulate.run_multicore_pass` that records the cache
simulation once and replays every MNM design against numpy arrays instead
of re-interpreting per reference.  The interpreter remains the oracle:
this engine is byte-identical by contract, pinned by the
engine-equivalence tests, the golden digests and the CI
``kernel-equivalence`` job.
"""

from repro.kernel.engine import run_multicore_pass_fast, run_reference_pass_fast

__all__ = ["run_multicore_pass_fast", "run_reference_pass_fast"]
