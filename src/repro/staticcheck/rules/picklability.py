"""R003 — task specs and search spaces must stay picklable.

The parallel executor ships task specs to ``ProcessPoolExecutor``
workers, and the search runner ships space points the same way; both
rely on every field being plain data.  A lambda, a nested function or
an open handle smuggled into one of those dataclasses fails only at
runtime, with ``--jobs > 1``, on the first pool submission — the worst
possible place.  This rule rejects it at check time, in the modules
whose dataclasses actually cross the process boundary:

* ``repro.experiments.planning`` (``PassTask`` / ``CoreTask``),
* ``repro.experiments.base`` (``ExperimentSettings`` rides inside every
  task),
* ``repro.search.space`` (``SearchSpace`` / ``FamilySpace`` /
  ``DesignPoint``).

Checked per dataclass: field annotations must not be callables, IO
handles, locks, threads or queues; field defaults must not be lambdas;
methods must not hang lambdas or nested functions off ``self``.
(The live ``MNMDesign`` keeps its factory closures legally — it never
crosses the boundary; workers rebuild designs from canonical names.)
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule, is_dataclass, terminal_name

#: Modules whose dataclasses cross the process-pool boundary.
BOUNDARY_MODULES: FrozenSet[str] = frozenset({
    "repro.experiments.planning",
    "repro.experiments.base",
    "repro.search.space",
})

#: Type names that cannot (or must not) cross a process boundary.
UNPICKLABLE_TYPES: FrozenSet[str] = frozenset({
    "Callable",
    "IO",
    "TextIO",
    "BinaryIO",
    "IOBase",
    "RawIOBase",
    "BufferedIOBase",
    "TextIOWrapper",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "Thread",
    "Queue",
    "SimpleQueue",
    "Popen",
    "socket",
    "Generator",
})


class PicklabilityRule(Rule):
    """R003 — process-boundary dataclasses must hold only plain data."""

    rule_id = "R003"
    title = "process-boundary dataclasses carry only plain data"
    hint = ("store a canonical name/spec instead and rebuild the live "
            "object in the worker (the parse_design pattern)")

    def __init__(self, boundary_modules: Optional[FrozenSet[str]] = None):
        self.boundary_modules = (
            BOUNDARY_MODULES if boundary_modules is None else boundary_modules
        )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module not in self.boundary_modules:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                yield from self._check_dataclass(module, node)

    def _check_dataclass(self, module: ModuleInfo,
                         cls: ast.ClassDef) -> Iterator[Finding]:
        for statement in cls.body:
            if isinstance(statement, ast.AnnAssign):
                bad = _unpicklable_in_annotation(statement.annotation)
                if bad is not None:
                    field = _field_name(statement.target)
                    yield self.finding(
                        module, statement,
                        f"dataclass {cls.name}.{field} is annotated "
                        f"{bad}, which cannot cross the "
                        "ProcessPoolExecutor boundary")
                if isinstance(statement.value, ast.Lambda):
                    field = _field_name(statement.target)
                    yield self.finding(
                        module, statement.value,
                        f"dataclass {cls.name}.{field} defaults to a "
                        "lambda, which does not pickle")
            elif isinstance(statement, ast.Assign):
                if isinstance(statement.value, ast.Lambda):
                    yield self.finding(
                        module, statement.value,
                        f"dataclass {cls.name} stores a lambda at class "
                        "level, which does not pickle")
            elif isinstance(statement, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                yield from self._check_method(module, cls, statement)

    def _check_method(self, module: ModuleInfo, cls: ast.ClassDef,
                      method: ast.FunctionDef) -> Iterator[Finding]:
        nested = {
            child.name
            for child in ast.walk(method)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not method
        }
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                if isinstance(node.value, ast.Lambda):
                    yield self.finding(
                        module, node,
                        f"{cls.name}.{method.name} assigns a lambda to "
                        f"self.{target.attr}; the instance no longer "
                        "pickles")
                elif (isinstance(node.value, ast.Name)
                      and node.value.id in nested):
                    yield self.finding(
                        module, node,
                        f"{cls.name}.{method.name} assigns nested "
                        f"function {node.value.id!r} to "
                        f"self.{target.attr}; the instance no longer "
                        "pickles")


def _field_name(target: ast.AST) -> str:
    return target.id if isinstance(target, ast.Name) else "<field>"


def _unpicklable_in_annotation(annotation: ast.AST) -> Optional[str]:
    """First banned type name inside an annotation expression, if any."""
    # String annotations (quoted, or under ``from __future__ import
    # annotations`` they are still real expressions in the AST; quoted
    # ones arrive as constants and get parsed here).
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                continue
            found = _unpicklable_in_annotation(inner)
            if found is not None:
                return found
        name = terminal_name(node)
        if name in UNPICKLABLE_TYPES:
            return name
    return None
