"""Shared rule machinery: the Rule protocol and small AST helpers."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.staticcheck.engine import Finding, ModuleInfo, ProjectContext


class Rule:
    """One statically-checkable invariant.

    Subclasses set ``rule_id``/``title``/``hint`` and implement
    :meth:`check`, yielding raw findings; the engine owns suppression
    handling and ordering.  ``self.finding(...)`` fills in the common
    fields so rule code stays close to the invariant it states.

    ``severity`` is either ``"error"`` (counts toward exit 7) or
    ``"warning"`` (reported only — the landing state for a new rule).
    ``suppression`` summarises the rule's suppression policy for
    ``--list-rules`` and the docs table: ``"allow"`` (a bare marker
    silences it), ``"rationale"`` (the marker must carry a
    why-this-is-safe sentence), ``"partial"`` (some of its findings are
    unsuppressible), or ``"no"`` (never suppressible).
    """

    rule_id: str = "R000"
    title: str = "abstract rule"
    hint: str = ""
    severity: str = "error"
    suppression: str = "allow"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str,
                hint: Optional[str] = None, suppressible: bool = True,
                requires_rationale: bool = False) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
            suppressible=suppressible,
            requires_rationale=requires_rationale,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A rule that needs to see several modules at once.

    Module rules prove per-file properties; contract rules like R007
    must relate a dataclass in one file to the fingerprint function
    that consumes it in another.

    ``check_project`` receives a :class:`ProjectContext` and yields
    findings anchored wherever the violation is best fixed (for R007,
    the dataclass field that fails to reach the fingerprint).
    """

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(self, module: ModuleInfo, node: ast.AST,
                        message: str, hint: Optional[str] = None,
                        requires_rationale: bool = False) -> Finding:
        return self.finding(module, node, message, hint=hint,
                            requires_rationale=requires_rationale)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """Last component of a Name/Attribute chain (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_type_checking_test(test: ast.AST) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` guard."""
    return terminal_name(test) == "TYPE_CHECKING"


def walk_runtime(tree: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that skips ``if TYPE_CHECKING:`` bodies.

    Imports and code under the guard never execute, so runtime-facing
    rules (layering, determinism) must not see them.
    """
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and is_type_checking_test(node.test):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def decorator_names(node: ast.AST) -> List[str]:
    """Terminal names of a def/class's decorators (calls unwrapped)."""
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = terminal_name(target)
        if name is not None:
            names.append(name)
    return names


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class carries a ``@dataclass`` decorator (bare or called)."""
    return "dataclass" in decorator_names(node)
