"""R008 — byte-identity hazards: no observable iteration over unordered data.

The repo's strongest contract is that reports are byte-identical across
``--jobs`` values, engines, and resumed runs.  Python's ``set``
iteration order depends on the per-process hash seed and insertion
history, so *any* unordered collection whose iteration order becomes
observable — a merge loop, a rendered report line, a journal record, a
``"".join(...)`` — is a latent byte-identity break that only fires on
some machines, some runs.  Float accumulation has the same failure
shape one level down: ``sum()`` over an unordered source reorders the
additions, and float addition is not associative, so the kernel's
account phases can drift in the last ulp between runs.

R008 flags the *consumption* sites, where order becomes observable:

* ``for x in <unordered>`` and comprehensions over ``<unordered>``;
* ``list(...)`` / ``tuple(...)`` / ``enumerate(...)`` / ``sum(...)``
  over ``<unordered>``;
* ``sep.join(<unordered>)``.

where ``<unordered>`` is a set literal, a set comprehension, a
``set()`` / ``frozenset()`` call, a set-algebra expression over those,
or a directory-listing call (``os.listdir`` / ``scandir`` / ``iterdir``
/ ``glob`` / ``iglob`` — filesystem enumeration order is
platform-defined).  Wrapping the source in ``sorted(...)`` is the
sanctioned fix and is never flagged; membership tests, ``len()``,
``min``/``max`` and other order-insensitive uses are never flagged
either.

Dict iteration (``.keys()`` / ``.values()`` / ``.items()``) is *not*
flagged: Python dicts are insertion-ordered, and the repo leans on that
deliberately (e.g. report row order).  The hazard there is unordered
*construction*, which surfaces as one of the set forms above.

Scope: library code only — tests and entry points may iterate sets for
assertions and display where order is immaterial.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule, terminal_name

#: Builders whose result has no defined iteration order.
_UNORDERED_CALLS = {"set", "frozenset"}

#: Filesystem enumeration: order is platform/filesystem-defined.
_LISTING_CALLS = {"listdir", "scandir", "iterdir", "glob", "iglob"}

#: Call consumers that materialise their argument's iteration order.
_ORDER_CONSUMERS = {"list", "tuple", "enumerate", "sum"}


class ByteIdentityRule(Rule):
    """R008 — unordered iteration feeding observable output (module doc)."""

    rule_id = "R008"
    title = "no observable iteration over unordered collections"
    hint = ("wrap the source in sorted(...) so iteration order is a "
            "function of the data, not the hash seed")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if (module.component is None or module.component == ""
                or module.is_entry_point or module.is_test_code
                or module.component == "testing"):
            return
        neutral = _sorted_subtrees(module.tree)
        for node in ast.walk(module.tree):
            if id(node) in neutral:
                continue
            if isinstance(node, ast.For):
                yield from self._flag(module, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._flag(module, generator.iter,
                                          "comprehension")
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: ModuleInfo,
                    node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "join":
            for arg in node.args:
                yield from self._flag(module, arg, "str.join()")
            return
        callee = terminal_name(func)
        if callee in _ORDER_CONSUMERS:
            for arg in node.args:
                yield from self._flag(module, arg, f"{callee}()")

    def _flag(self, module: ModuleInfo, source: ast.AST,
              consumer: str) -> Iterator[Finding]:
        what = _unordered_kind(source)
        if what is None:
            return
        yield self.finding(
            module, source,
            f"{consumer} over {what} makes output depend on hash seed / "
            "platform enumeration order, breaking byte-identical reports")


def _sorted_subtrees(tree: ast.AST) -> set:
    """ids of every node living inside a ``sorted(...)`` argument.

    Consumption that feeds straight into ``sorted()`` never observes the
    source order (``sorted(x for x in some_set)`` is the sanctioned
    idiom), so the checks skip those subtrees wholesale.
    """
    neutral: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and terminal_name(node.func) == "sorted":
            for arg in node.args:
                neutral.update(id(sub) for sub in ast.walk(arg))
    return neutral


def _unordered_kind(node: ast.AST) -> Optional[str]:
    """Human label when ``node`` has no defined iteration order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        callee = terminal_name(node.func)
        if callee in _UNORDERED_CALLS:
            return f"{callee}(...)"
        if callee in _LISTING_CALLS:
            return f"{callee}(...) (filesystem enumeration)"
        return None
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra propagates unorderedness through | & - ^.
        return _unordered_kind(node.left) or _unordered_kind(node.right)
    return None
