"""R002 — the import DAG between the repo's layers.

The architecture is a strict stack (docs/ARCHITECTURE.md)::

    telemetry                     (importable everywhere, imports nothing)
    addresses                     (bit-twiddling foundation)
    core / cache / cpu / workloads        (mechanism: filters, caches, traces)
    simulate / kernel / analysis / power / multicore  (measurement over mechanism)
    experiments / search / testing / staticcheck   (orchestration)

A module may import from its own group or any group below it, never
from a group above — e.g. ``workloads`` must not reach into
``analysis``, and ``telemetry`` must not import anything else from
:mod:`repro` at all.  What the DAG buys: the mechanism layers stay
embeddable without dragging in the experiment harness, and a worker
process importing a task spec can never pull the whole CLI with it.

Inside ``repro.experiments`` a second, finer DAG applies — the rings::

    base / planning / passcache / resilience      (foundations)
    checkpoint                                    (journal over passcache)
    backends                                      (execution strategies)
    executor                                      (planning + routing)
    registry / report / figures / tables / extensions   (presentation)

The rings keep the execution engine honest: a backend (including a
pool worker unpickling its task spec) may pull the foundations, never
the executor facade or the experiment registry — so a worker process
starts without dragging the figures/report stack in.

Exempt: entry points (``cli.py`` / ``__main__.py``), the package root
``repro/__init__.py``, and package ``__init__`` facades at the ring
level (``repro/experiments/__init__.py`` re-exports across rings by
design).  ``if TYPE_CHECKING:`` imports are ignored (they do not exist
at runtime; that is the sanctioned way to annotate downward-facing
types).
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Tuple

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import Rule, walk_runtime

#: Component -> layer rank.  Same rank = same group (imports allowed).
LAYERS = {
    "telemetry": 0,
    "addresses": 1,
    "core": 2,
    "cache": 2,
    "cpu": 2,
    "workloads": 2,
    "simulate": 3,
    "kernel": 3,
    "analysis": 3,
    "power": 3,
    "multicore": 3,
    "experiments": 4,
    "obs": 4,
    "search": 4,
    "testing": 4,
    "staticcheck": 4,
}

#: Submodule -> ring rank inside ``repro.experiments``.  Same rank =
#: same ring (imports allowed); an import may only point at the same
#: ring or a lower one.  New submodules must be assigned a ring here.
EXPERIMENTS_RINGS = {
    "atomic": 0,
    "base": 0,
    "planning": 0,
    "passcache": 0,
    "resilience": 0,
    "checkpoint": 1,
    "backends": 2,
    "executor": 3,
    "registry": 4,
    "report": 4,
    "figures": 4,
    "tables": 4,
    "extensions": 4,
}


#: Sentinel: an experiments submodule missing from EXPERIMENTS_RINGS.
_UNASSIGNED_RING = object()


class LayeringRule(Rule):
    """R002 — reject imports that point upward in the layer DAG."""

    rule_id = "R002"
    title = "imports must follow the layer DAG"
    hint = ("move the shared piece down a layer, or invert the "
            "dependency; the DAG is documented in docs/ARCHITECTURE.md")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        component = module.component
        if component is None or component == "" or module.is_entry_point:
            return
        rank = LAYERS.get(component)
        if rank is None:
            yield self.finding(
                module, module.tree,
                f"component {component!r} has no layer assignment",
                hint="add it to LAYERS in "
                     "src/repro/staticcheck/rules/layering.py")
            return
        ring = self._module_ring(module)
        if ring is _UNASSIGNED_RING:
            yield self.finding(
                module, module.tree,
                f"experiments submodule {module.module} has no ring "
                "assignment",
                hint="add it to EXPERIMENTS_RINGS in "
                     "src/repro/staticcheck/rules/layering.py")
            ring = None
        for node, dotted in self._repro_imports(module):
            target = _component_of(dotted)
            if target is None:
                continue
            target_rank = LAYERS.get(target)
            if target_rank is None:
                if target:  # unknown component: flag, don't guess a rank
                    yield self.finding(
                        module, node,
                        f"import of unclassified component "
                        f"repro.{target}",
                        hint="add it to LAYERS in "
                             "src/repro/staticcheck/rules/layering.py")
                continue
            if target_rank > rank:
                yield self.finding(
                    module, node,
                    f"{component!r} (layer {rank}) imports "
                    f"repro.{target} (layer {target_rank}) — an upward "
                    "edge in the layer DAG")
                continue
            if (ring is not None and component == "experiments"
                    and target == "experiments"):
                yield from self._check_ring_edge(module, node, dotted, ring)

    def _module_ring(self, module: ModuleInfo):
        """This module's experiments ring, None (exempt), or unassigned.

        Package ``__init__`` facades inside experiments are exempt: they
        re-export across rings so callers get one import surface.
        """
        parts = (module.module or "").split(".")
        if len(parts) < 3 or parts[1] != "experiments":
            return None
        if os.path.basename(module.path) == "__init__.py":
            return None
        sub = parts[2]
        rank = EXPERIMENTS_RINGS.get(sub)
        return _UNASSIGNED_RING if rank is None else rank

    def _check_ring_edge(self, module: ModuleInfo, node: ast.AST,
                         dotted: str, ring: int) -> Iterator[Finding]:
        """Flag upward edges between experiments rings."""
        parts = dotted.split(".")
        if len(parts) >= 3:
            subs = [parts[2]]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            # ``from repro.experiments import X``: only names that *are*
            # ringed submodules can be classified; plain symbols come
            # through the facade and are exempt like the facade itself.
            subs = [alias.name for alias in node.names
                    if alias.name in EXPERIMENTS_RINGS]
        else:
            subs = []
        for sub in subs:
            target_ring = EXPERIMENTS_RINGS.get(sub)
            if target_ring is None:
                if sub not in ("cli", "__main__"):
                    yield self.finding(
                        module, node,
                        f"import of unclassified experiments submodule "
                        f"repro.experiments.{sub}",
                        hint="add it to EXPERIMENTS_RINGS in "
                             "src/repro/staticcheck/rules/layering.py")
                else:
                    yield self.finding(
                        module, node,
                        f"library code imports the entry point "
                        f"repro.experiments.{sub}")
                continue
            if target_ring > ring:
                yield self.finding(
                    module, node,
                    f"experiments ring {ring} module imports "
                    f"repro.experiments.{sub} (ring {target_ring}) — an "
                    "upward edge between experiments rings")

    @staticmethod
    def _repro_imports(
        module: ModuleInfo,
    ) -> List[Tuple[ast.AST, str]]:
        """(node, absolute dotted target) for every runtime repro import."""
        edges: List[Tuple[ast.AST, str]] = []
        is_package = os.path.basename(module.path) == "__init__.py"
        for node in walk_runtime(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == "repro":
                        edges.append((node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative import: resolve against this module.
                    base = _resolve_relative(module.module, is_package,
                                             node.level, node.module)
                    if base is not None and base.split(".", 1)[0] == "repro":
                        edges.append((node, base))
                    continue
                if node.module is None:
                    continue
                if node.module == "repro":
                    # ``from repro import simulate`` names components
                    # directly.
                    for alias in node.names:
                        edges.append((node, f"repro.{alias.name}"))
                    continue
                if node.module.split(".", 1)[0] == "repro":
                    edges.append((node, node.module))
        return edges


def _component_of(dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _resolve_relative(module: Optional[str], is_package: bool, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute dotted path of a relative import, if computable."""
    if module is None:
        return None
    # Level 1 resolves against the containing package: the module's own
    # dotted name for ``__init__.py``, its parent for a plain module.
    package = module.split(".")
    if not is_package:
        package = package[:-1]
    if len(package) < level - 1:
        return None
    base = package[: len(package) - (level - 1)]
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None
