"""R007 — cache-key completeness: every config field reaches its fingerprint.

The pass cache (:mod:`repro.experiments.passcache`) replaced name-keyed
lookups with *structural fingerprints* precisely so that two
configurations differing in any behavioural knob never share a cache
entry.  That guarantee decays one dataclass field at a time: add a field
to ``ExperimentSettings`` or ``MulticoreConfig``, forget to thread it
into the fingerprint builder, and two semantically different runs
silently serve each other's results — the exact collision class PR 9
had to catch at runtime for ``schedule_seed``.

R007 proves the property statically.  A :class:`KeyBinding` declares
"function F's parameter P carries dataclass D, and F is a cache-key
builder".  The rule then requires every field of D to be *covered* by
F's body:

* an attribute access ``P.field`` anywhere in the builder (including
  inside f-strings and nested calls) covers that field;
* passing the whole object to ``repr()`` / ``str()`` / ``vars()`` /
  ``dataclasses.asdict()`` / ``astuple()`` covers **all** fields
  (``fingerprint_hierarchy`` works this way: frozen dataclasses all the
  way down make ``repr`` total).

A field deliberately excluded from the key must say so where the field
is declared::

    fault_spec: str = ""  # repro: allow[R007] faults change whether a
                          # run fails, never what it computes

— the rationale is mandatory, mirroring the docstring contract the
pass cache already documents prose-side.

This is a *project* rule: the builder and the dataclass usually live in
different modules, so it runs over the whole analysed set and anchors
each finding at the dataclass field that fails to reach the key.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.engine import Finding, ModuleInfo, ProjectContext
from repro.staticcheck.rules.base import (
    ProjectRule,
    is_dataclass,
    terminal_name,
)

#: Calls that consume the whole object, covering every field at once.
_WHOLE_OBJECT_CALLS = {"repr", "str", "vars", "asdict", "astuple", "format"}


@dataclass(frozen=True)
class KeyBinding:
    """One builder-parameter-to-dataclass contract.

    ``builder`` may be a plain function (``"fingerprint_settings"``) or
    a method (``"MulticoreConfig.fingerprint"``, whose parameter is
    conventionally ``self``).
    """

    builder_module: str
    builder: str
    param: str
    dataclass_module: str
    dataclass_name: str


#: The repo's cache-key surface.  New fingerprint builders must be
#: registered here, which R007 itself cannot enforce — the registration
#: test in tests/staticcheck/test_rules.py pins the list against
#: passcache's public builders instead.
DEFAULT_BINDINGS: Tuple[KeyBinding, ...] = (
    KeyBinding("repro.experiments.passcache", "fingerprint_settings",
               "settings", "repro.experiments.base", "ExperimentSettings"),
    KeyBinding("repro.experiments.passcache", "fingerprint_design",
               "design", "repro.core.machine", "MNMDesign"),
    KeyBinding("repro.experiments.passcache", "fingerprint_hierarchy",
               "config", "repro.cache.hierarchy", "HierarchyConfig"),
    KeyBinding("repro.multicore.config", "MulticoreConfig.fingerprint",
               "self", "repro.multicore.config", "MulticoreConfig"),
)


class CacheKeyRule(ProjectRule):
    """R007 — every dataclass field behind a key builder flows into it."""

    rule_id = "R007"
    title = "cache-key fingerprints must cover every config field"
    hint = ("thread the field into the fingerprint builder, or annotate "
            "the field with '# repro: allow[R007] <why it must not key>'")
    suppression = "rationale"

    def __init__(self, bindings: Tuple[KeyBinding, ...] = DEFAULT_BINDINGS
                 ) -> None:
        self.bindings = bindings

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for binding in self.bindings:
            yield from self._check_binding(project, binding)

    def _check_binding(self, project: ProjectContext,
                       binding: KeyBinding) -> Iterator[Finding]:
        builder_mod = project.get(binding.builder_module)
        data_mod = project.get(binding.dataclass_module)
        if builder_mod is None or data_mod is None:
            # The invocation's tree does not contain both halves of the
            # contract (e.g. checking a single unrelated file): nothing
            # provable either way.
            return
        builder = _find_builder(builder_mod.tree, binding.builder)
        class_def = _find_class(data_mod.tree, binding.dataclass_name)
        if class_def is None:
            yield self.finding(
                data_mod, data_mod.tree,
                f"cache-key binding expects dataclass "
                f"{binding.dataclass_name} in {binding.dataclass_module}, "
                "but it is not defined there",
                hint="update DEFAULT_BINDINGS in "
                     "src/repro/staticcheck/rules/cache_keys.py")
            return
        if builder is None:
            yield self.finding(
                builder_mod, builder_mod.tree,
                f"cache-key binding expects builder {binding.builder} in "
                f"{binding.builder_module}, but it is not defined there",
                hint="update DEFAULT_BINDINGS in "
                     "src/repro/staticcheck/rules/cache_keys.py")
            return
        fields = _dataclass_fields(class_def)
        covered = _covered_fields(builder, binding.param)
        if covered is None:  # whole-object coverage
            return
        for name, node in fields:
            if name in covered:
                continue
            yield self.project_finding(
                data_mod, node,
                f"field {name!r} of {binding.dataclass_name} never flows "
                f"into {binding.builder}() — two configs differing only "
                "in this field would collide in the pass cache",
                requires_rationale=True)


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_builder(tree: ast.Module, spec: str) -> Optional[ast.AST]:
    """Resolve ``func`` or ``Class.method`` to its def node."""
    if "." in spec:
        class_name, method = spec.split(".", 1)
        class_def = _find_class(tree, class_name)
        if class_def is None:
            return None
        body = class_def.body
        wanted = method
    else:
        body = tree.body
        wanted = spec
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == wanted:
            return node
    return None


def _dataclass_fields(class_def: ast.ClassDef
                      ) -> List[Tuple[str, ast.AST]]:
    """(name, AnnAssign node) for every instance field of a dataclass.

    ``ClassVar`` annotations and private (``_``-prefixed) names are not
    dataclass fields; non-dataclass classes contribute nothing (the
    binding table should point at real config dataclasses, and the
    registration finding above covers a missing class outright).
    """
    if not is_dataclass(class_def):
        return []
    fields: List[Tuple[str, ast.AST]] = []
    for statement in class_def.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        name = statement.target.id
        if name.startswith("_"):
            continue
        if terminal_name(getattr(statement.annotation, "value",
                                 statement.annotation)) == "ClassVar":
            continue
        fields.append((name, statement))
    return fields


def _covered_fields(builder: ast.AST, param: str) -> Optional[Set[str]]:
    """Fields of ``param`` the builder observes; None = all of them."""
    covered: Set[str] = set()
    for node in ast.walk(builder):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == param:
            covered.add(node.attr)
        elif isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            if callee in _WHOLE_OBJECT_CALLS and any(
                isinstance(arg, ast.Name) and arg.id == param
                for arg in node.args
            ):
                return None
    return covered
