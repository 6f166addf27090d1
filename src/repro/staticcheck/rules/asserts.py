"""R005 — no load-bearing ``assert`` in shipped library code.

``python -O`` strips every ``assert`` statement.  A validation that
matters — "this tier has both caches", "this machine has an RMNM" —
must therefore be an explicit ``raise``, or the guarantee silently
evaporates the first time someone runs the suite optimised.  CI pins
this by re-running the affected tests under ``python -O``.

Scope: everything under ``src/`` except ``testing/`` and test code
(``tests/``, ``test_*.py``, ``conftest.py`` — pytest rewrites and owns
those asserts).  Genuinely redundant asserts (e.g. type-narrowing hints)
may be suppressed with ``# repro: allow[R005]``, but converting them is
almost always better.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule


class AssertRule(Rule):
    """R005 — flag every ``assert`` outside ``testing/`` (see module doc)."""

    rule_id = "R005"
    title = "no runtime validation via assert (python -O strips it)"
    hint = ("raise ValueError for bad arguments or RuntimeError for "
            "impossible states instead")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.component == "testing" or module.is_test_code:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module, node,
                    "assert vanishes under python -O; this validation "
                    "would silently stop firing")
