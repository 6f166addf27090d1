"""Deterministic fault injection for the experiment engine.

Chaos testing for :mod:`repro.experiments.executor`: prove that a worker
that raises, hangs past its timeout, dies with ``os._exit`` or corrupts
its disk-cache write costs a retried task — never the report.  The
executor and :mod:`repro.experiments.passcache` expose two hook
*sites*; this module decides, deterministically, whether a fault fires
there.

Everything is a pure function of the spec and the hook's context — no
wall clock, no global RNG — so a chaos run is exactly reproducible:

* **which tasks fault** is chosen by ``rate``: a task is *selected* when
  ``sha256(seed, key)`` maps below the rate, so the same ``seed`` picks
  the same victims in every process and on every run;
* **when they stop faulting** is ``fail_attempts``: a selected task
  faults on attempts ``1..fail_attempts`` and succeeds afterwards, which
  is what lets the retry/rebuild machinery converge to a byte-identical
  report instead of failing forever.

Activation: set ``REPRO_FAULTS`` in the environment (the executor
forwards the active spec to its workers explicitly, so spawn-based pools
inject too).  The spec is JSON — one object or a list — or a bare kind
name as shorthand::

    REPRO_FAULTS='{"site": "task", "kind": "raise", "fail_attempts": 2}'
    REPRO_FAULTS='raise'            # same, with defaults
    REPRO_FAULTS='corrupt'         # {"site": "cache-write", "kind": "corrupt"}

Sites and kinds:

=================  ==========================================================
``task``           around each simulation task (pool worker and serial
                   paths alike): ``raise`` (an :class:`InjectedFault`,
                   classified retryable), ``hang`` (sleep
                   ``hang_seconds``, for timeout tests), ``exit``
                   (``os._exit`` — kills the worker, breaks the pool),
                   ``interrupt`` (``KeyboardInterrupt``, for Ctrl-C tests)
``cache-write``    in the pass cache's disk store: ``corrupt`` truncates
                   and garbles the envelope bytes actually written
=================  ==========================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.resilience import TransientTaskError

#: Hook sites production code exposes.
SITES = ("task", "cache-write")

#: Fault kinds, per site.
TASK_KINDS = ("raise", "hang", "exit", "interrupt")
CACHE_KINDS = ("corrupt",)

#: site -> legal kinds (shorthand parsing and spec validation).
SITE_KINDS = {
    "task": TASK_KINDS,
    "cache-write": CACHE_KINDS,
}


class InjectedFault(TransientTaskError):
    """The error an injected ``raise`` fault throws.

    Subclasses :class:`~repro.experiments.resilience.TransientTaskError`
    so the executor classifies it retryable, exactly like the transient
    worker failure it stands in for.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault rule.

    Attributes:
        site: where the fault fires (one of :data:`SITES`).
        kind: what happens (see module docstring).
        fail_attempts: a selected task faults on attempts
            ``1..fail_attempts`` and then succeeds — the knob that makes
            chaos runs converge.  0 means never (a disabled rule).
        rate: fraction of keys selected, decided by ``sha256(seed, key)``
            — deterministic and identical across processes.
        seed: selection seed (pick different victims per chaos run).
        match: only keys containing this substring are eligible
            (e.g. one workload's tasks).
        hang_seconds: sleep length for ``hang``.
        exit_code: status for ``exit``.
    """

    site: str
    kind: str
    fail_attempts: int = 1
    rate: float = 1.0
    seed: int = 0
    match: str = ""
    hang_seconds: float = 60.0
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"expected one of {SITES}")
        kinds = SITE_KINDS[self.site]
        if self.kind not in kinds:
            raise ValueError(f"unknown fault kind {self.kind!r} for site "
                             f"{self.site!r}; expected one of {kinds}")
        if self.fail_attempts < 0:
            raise ValueError(
                f"fail_attempts must be >= 0, got {self.fail_attempts}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def selects(self, key: str) -> bool:
        """Deterministically decide whether ``key`` is a victim."""
        if self.match and self.match not in key:
            return False
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}\x1f{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64) < self.rate

    def fires(self, key: str, attempt: int) -> bool:
        """Whether this rule faults on the given attempt for ``key``."""
        return 1 <= attempt <= self.fail_attempts and self.selects(key)


def parse_fault_spec(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value into fault rules.

    Accepts a JSON object, a JSON list of objects, or a bare kind name
    (``raise``/``hang``/``exit``/``interrupt`` imply ``site=task``;
    ``corrupt`` implies ``site=cache-write``).  Raises ``ValueError`` on
    anything malformed — a typo'd chaos spec must fail loudly, not
    silently test nothing.
    """
    text = text.strip()
    if not text:
        return ()
    if text[0] not in "[{":
        if text in TASK_KINDS:
            return (FaultSpec(site="task", kind=text),)
        if text in CACHE_KINDS:
            return (FaultSpec(site="cache-write", kind=text),)
        raise ValueError(f"unknown fault shorthand {text!r}; expected one "
                         f"of {TASK_KINDS + CACHE_KINDS} or a JSON spec")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"fault spec is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ValueError("fault spec must be a JSON object or list")
    specs = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ValueError(f"fault spec entries must be objects: {entry!r}")
        try:
            specs.append(FaultSpec(**entry))
        except TypeError as exc:
            raise ValueError(f"bad fault spec fields in {entry!r}: {exc}")
    return tuple(specs)


class FaultInjector:
    """Evaluates fault rules at the production hook sites.

    The executor tells the injector the current task's attempt number
    (:meth:`set_attempt`) before executing it, so rules converge after
    ``fail_attempts`` retries; sites without an executing task (a serial
    experiment loop writing the cache) default to attempt 1.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...]) -> None:
        self.specs = specs
        self.attempt = 1

    def set_attempt(self, attempt: int) -> None:
        """Record the attempt number of the task about to execute."""
        self.attempt = attempt

    def on_task_start(self, key: str, attempt: Optional[int] = None) -> None:
        """The ``task`` site: possibly raise, hang, exit or interrupt."""
        attempt = self.attempt if attempt is None else attempt
        for spec in self.specs:
            if spec.site != "task" or not spec.fires(key, attempt):
                continue
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected task fault (attempt {attempt})")
            if spec.kind == "hang":
                time.sleep(spec.hang_seconds)
            elif spec.kind == "interrupt":
                raise KeyboardInterrupt(
                    f"injected interrupt (attempt {attempt})")
            elif spec.kind == "exit":
                os._exit(spec.exit_code)

    def should_corrupt(self, key: str) -> bool:
        """The ``cache-write`` site: whether to garble this write."""
        return any(
            spec.site == "cache-write" and spec.fires(key, self.attempt)
            for spec in self.specs
        )


def corrupt_bytes(data: bytes) -> bytes:
    """Deterministically garble an envelope: truncate and stamp garbage.

    The result is never a loadable pickle of the right shape, so a
    corrupted entry must read back as a miss.
    """
    return data[: max(1, len(data) // 2)] + b"\x00REPRO-FAULT-CORRUPT"


# ---------------------------------------------------------------------------
# Process-wide injector
# ---------------------------------------------------------------------------

_INJECTOR: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    """The active injector, or None when fault injection is off."""
    return _INJECTOR


def configure_faults(spec_text: Optional[str]) -> Optional[FaultInjector]:
    """Install an injector from a spec string (empty/None = disable)."""
    global _INJECTOR
    specs = parse_fault_spec(spec_text or "")
    _INJECTOR = FaultInjector(specs) if specs else None
    return _INJECTOR


def resolve_fault_spec() -> str:
    """The ambient ``REPRO_FAULTS`` value ("" when unset)."""
    return os.environ.get("REPRO_FAULTS", "")
