"""R009 — filesystem atomicity: durable state goes through blessed helpers.

The crash-safety story rests on two write idioms: temp-file +
``os.replace`` (atomic replace) and temp-file + ``os.link``
(first-writer-wins publication).  Those idioms live in one place —
:mod:`repro.experiments.atomic` — and R009 keeps them there: inside the
modules that own durable state (the pass cache and the run journal
that reads it, the execution backends, the run manifest), a raw
``open(..., "w")`` is a torn-file bug waiting for a SIGKILL.

Flagged, inside the scoped modules only:

* ``open(path, mode)`` / ``os.fdopen(fd, mode)`` with a literal mode
  containing ``w``, ``a``, ``x`` or ``+``;
* ``os.open(path, flags)`` whose flags expression names a write flag
  (``O_WRONLY`` / ``O_RDWR`` / ``O_CREAT`` / ``O_TRUNC`` /
  ``O_APPEND``);
* ``Path.write_text(...)`` / ``Path.write_bytes(...)``.

Reads are never flagged, non-literal modes are skipped (conservative),
and :mod:`repro.experiments.atomic` itself is exempt — it is the one
module allowed to spell the raw idioms out.

Legitimate exceptions (an append-only log whose reader skips a torn
tail, say) must say so with a rationale::

    handle = open(self.path, "a")  # repro: allow[R009] append-only log;
                                   # its reader skips a torn tail

Scope is intentionally narrow: a scratch file in ``analysis/`` or a
report written by the CLI does not carry crash-safety obligations, so
R009 stays quiet there.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule, dotted_name, terminal_name

#: Dotted-module prefixes that own durable, crash-safety-critical state.
SCOPED_PREFIXES: Tuple[str, ...] = (
    "repro.experiments.passcache",
    "repro.experiments.checkpoint",
    "repro.experiments.backends",
    "repro.obs.manifest",
)

#: The blessed helper module: the one place raw idioms are allowed.
EXEMPT_MODULES: Tuple[str, ...] = ("repro.experiments.atomic",)

_WRITE_FLAG_NAMES = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _in_scope(module: ModuleInfo) -> bool:
    dotted = module.module
    if dotted is None or dotted in EXEMPT_MODULES or module.is_test_code:
        return False
    return any(
        dotted == prefix or dotted.startswith(prefix + ".")
        for prefix in SCOPED_PREFIXES
    )


class AtomicityRule(Rule):
    """R009 — raw write syscalls in crash-safety-scoped modules."""

    rule_id = "R009"
    title = "durable writes must use repro.experiments.atomic helpers"
    hint = ("use atomic.replace_atomic / publish_linked, or annotate "
            "with '# repro: allow[R009] <why this write is crash-safe>'")
    suppression = "rationale"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain in ("open", "io.open", "os.fdopen"):
                yield from self._check_mode_call(module, node, chain)
            elif chain == "os.open":
                yield from self._check_os_open(module, node)
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("write_text", "write_bytes"):
                yield self.finding(
                    module, node,
                    f"Path.{node.func.attr}() is a bare non-atomic write "
                    "in a crash-safety-scoped module",
                    requires_rationale=True)

    def _check_mode_call(self, module: ModuleInfo, node: ast.Call,
                         chain: str) -> Iterator[Finding]:
        mode = _literal_mode(node)
        if mode is None:
            return  # non-literal mode: conservative skip
        if not any(flag in mode for flag in ("w", "a", "x", "+")):
            return  # read-only
        yield self.finding(
            module, node,
            f"{chain}(..., {mode!r}) writes in place — a crash mid-write "
            "leaves a torn file on the final name",
            requires_rationale=True)

    def _check_os_open(self, module: ModuleInfo,
                       node: ast.Call) -> Iterator[Finding]:
        if len(node.args) < 2:
            return
        flags = {
            terminal_name(sub)
            for sub in ast.walk(node.args[1])
            if isinstance(sub, (ast.Attribute, ast.Name))
        }
        written = sorted(flags & _WRITE_FLAG_NAMES)
        if not written:
            return
        yield self.finding(
            module, node,
            f"os.open with {'|'.join(written)} opens for writing outside "
            "the blessed helpers in repro.experiments.atomic",
            requires_rationale=True)


def _literal_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an open()-style call, if present.

    A call with no mode at all defaults to ``"r"``.
    """
    mode_node: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value,
                                                          str):
        return mode_node.value
    return None
