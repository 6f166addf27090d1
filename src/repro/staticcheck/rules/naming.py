"""R010 — telemetry names follow the grammar; manifest keys are registered.

Observability only composes if names are predictable.  Two contracts:

**Counter/gauge/histogram names** follow the documented dotted grammar
(docs/ARCHITECTURE.md, "Run observatory"): at least two ``.``-separated
segments, each ``[a-z][a-z0-9_]*`` — ``cache.pass.disk.write_race``,
``executor.tasks.retried``, ``executor.serial_fallback``.  A name like
``CacheHits`` or ``write race`` breaks every dashboard glob and the
``obs diff`` prefix grouping.  Dynamic names are handled structurally:
f-strings and string concatenation are validated with each dynamic
fragment treated as one well-formed segment (so
``f"cache.pass.disk.{counter}"`` and ``base + ".probes"`` pass), and a
name that is *entirely* dynamic is skipped — the grammar can only be
checked where at least part of the name is written down.

**Manifest keys** (the ``--run-dir`` document) must be registered:
:mod:`repro.obs.manifest` declares ``MANIFEST_KEYS``, and the dict
literal ``build_manifest`` returns must match it key-for-key in both
directions.  Adding a key to the document without registering it (or
vice versa) is exactly how schema docs rot; R010 makes the registry and
the producer fail together.  This half of the rule is scoped to
``repro.obs.manifest`` itself.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule

#: Metric-emitting registry methods whose first argument is the name.
_METRIC_METHODS = {"counter", "gauge", "histogram"}

#: The dotted grammar: >= 2 segments, each [a-z][a-z0-9_]*.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Placeholder substituted for dynamic fragments during validation;
#: itself a valid segment, so f-string names are judged on their static
#: skeleton.
_DYNAMIC = "x0"

#: The module owning the manifest key registry.
_MANIFEST_MODULE = "repro.obs.manifest"


class TelemetryNamingRule(Rule):
    """R010 — metric-name grammar + manifest-key registration."""

    rule_id = "R010"
    title = "telemetry names follow the dotted grammar; manifest keys registered"
    hint = ("name metrics '<noun>.<noun>.<verb>' in lowercase dotted "
            "segments; register manifest keys in MANIFEST_KEYS")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.is_test_code:
            return
        if module.component is not None and module.component != "testing":
            yield from self._check_metric_names(module)
        if module.module == _MANIFEST_MODULE:
            yield from self._check_manifest_keys(module)

    # -- metric names --------------------------------------------------------

    def _check_metric_names(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute) \
                    or node.func.attr not in _METRIC_METHODS:
                continue
            if not node.args:
                continue
            rendered = _render_name(node.args[0])
            if rendered is None or rendered == _DYNAMIC:
                continue  # fully dynamic: nothing static to judge
            if _NAME_RE.match(rendered):
                continue
            yield self.finding(
                module, node.args[0],
                f"metric name {_describe(node.args[0], rendered)} does not "
                "match the dotted grammar "
                "(lowercase segments separated by '.', at least two)")

    # -- manifest keys -------------------------------------------------------

    def _check_manifest_keys(self, module: ModuleInfo) -> Iterator[Finding]:
        registry = _registered_keys(module.tree)
        produced = _produced_keys(module.tree)
        if registry is None:
            yield self.finding(
                module, module.tree,
                "repro.obs.manifest must declare MANIFEST_KEYS, the "
                "registry of every key build_manifest may emit")
            return
        if produced is None:
            return  # no literal-returning build_manifest: nothing to diff
        keys, registry_node = registry
        produced_keys, produced_node = produced
        for key in sorted(produced_keys - keys):
            yield self.finding(
                module, produced_node,
                f"build_manifest emits unregistered key {key!r}; add it "
                "to MANIFEST_KEYS (and document it) or drop it")
        for key in sorted(keys - produced_keys):
            yield self.finding(
                module, registry_node,
                f"MANIFEST_KEYS registers {key!r} but build_manifest "
                "never emits it; the registry and producer must move "
                "together")


def _render_name(node: ast.AST) -> Optional[str]:
    """Static skeleton of a name expression; None = unjudgeable shape."""
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append(_DYNAMIC)
            else:
                return None
        return "".join(parts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _render_name(node.left)
        right = _render_name(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, (ast.Name, ast.Attribute, ast.Call)):
        return _DYNAMIC
    return None


def _describe(node: ast.AST, rendered: str) -> str:
    if isinstance(node, ast.Constant):
        return repr(rendered)
    return f"~{rendered!r} (static skeleton)"


def _registered_keys(tree: ast.Module):
    """(keys, node) of the MANIFEST_KEYS assignment, or None."""
    for statement in tree.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) \
                and statement.value is not None:
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "MANIFEST_KEYS"
                   for t in targets):
            continue
        keys: Set[str] = {
            sub.value
            for sub in ast.walk(value)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        }
        return keys, statement
    return None


def _produced_keys(tree: ast.Module):
    """(keys, node) of build_manifest's returned dict literal, or None."""
    for statement in tree.body:
        if not isinstance(statement, ast.FunctionDef) \
                or statement.name != "build_manifest":
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Dict):
                keys = {
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                }
                return keys, node
    return None
