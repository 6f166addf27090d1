"""Test-support harnesses that ship with the package.

Unlike ``tests/`` (which pytest owns and the wheel omits), these modules
are importable at runtime because production code cooperates with them:
the experiment executor and pass cache expose fault-injection hooks
(:mod:`repro.testing.faults`) that CI's chaos job and the resilience
tests drive through the ``REPRO_FAULTS`` environment variable, the one
switch that turns them on.
"""

from repro.testing.faults import (  # noqa: F401
    FaultSpec,
    FaultInjector,
    InjectedFault,
    configure_faults,
    get_injector,
    parse_fault_spec,
)
