"""R006 — the MNM soundness surface stays auditable.

The paper's contract is one-sided: a MISS answer must be a proof of
absence.  The repo enforces that dynamically (property tests, the
decision-log replay in :mod:`repro.core.audit`) — but only for code
that goes through the audited surface.  This rule pins the surface
shut:

* a subclass of :class:`~repro.core.machine.MostlyNoMachine` that
  overrides ``query`` or ``query_many`` must route through the audited
  base (``super().query(...)`` / ``MostlyNoMachine.query(...)``, same
  for ``query_many``) — a reimplementation could emit a miss bit no
  filter proved;
* a direct, concrete :class:`~repro.core.base.MissFilter` subclass must
  implement the full query contract in-class (``is_definite_miss``,
  ``on_place``, ``on_replace``, ``storage_bits``) — a filter that
  forgets its bookkeeping hooks silently decays into unsoundness as
  blocks move under it;
* a filter subclass that overrides ``query_many`` without defining
  ``is_definite_miss`` in the same class is flagged: the batched path
  is part of the soundness surface (the fast engine answers whole
  replay segments through it), and an override whose scalar oracle
  lives in a different class can silently drift from it;
* likewise a filter subclass that overrides ``replay`` without defining
  ``is_definite_miss``, ``on_place`` and ``on_replace`` in the same
  class is flagged: the fast engine applies whole event streams through
  the batched replay, whose oracle is the default loop over those
  hooks (and over ``query_many``, paired with ``is_definite_miss``);
* a base-less class that quacks like a filter (defines ``on_place``
  plus either ``is_definite_miss`` or ``query_many``) is flagged:
  wired in by duck typing it would dodge every soundness test keyed
  on the ABC;
* an ``on_invalidate`` override — on a machine or a filter subclass —
  must route through ``super().on_invalidate(...)`` (or the explicit
  base): the base implementation is the conservative downgrade that
  keeps a filter sound under cross-core invalidation, and an override
  that drops it silently converts contention into false misses.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.staticcheck.engine import Finding, ModuleInfo
from repro.staticcheck.rules.base import (
    Rule,
    decorator_names,
    dotted_name,
    terminal_name,
)

#: The MissFilter query contract (abstract methods + storage property).
CONTRACT = ("is_definite_miss", "on_place", "on_replace", "storage_bits")

#: The scalar hooks a ``replay`` override must define beside it.
REPLAY_ORACLE = ("is_definite_miss", "on_place", "on_replace")

_ABSTRACT_DECORATORS = {"abstractmethod", "abstractproperty"}


class MNMSoundnessRule(Rule):
    """R006 — keep every miss answer on the audited surface (see module
    doc: query overrides, incomplete filters, duck-typed filters)."""

    rule_id = "R006"
    title = "miss answers must route through the audited surface"
    hint = ("see src/repro/core/base.py — the one-sided guarantee is "
            "only tested for code on the audited surface")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [terminal_name(base) for base in node.bases]
            if "MostlyNoMachine" in bases:
                yield from self._check_machine_subclass(module, node)
                continue
            if "MissFilter" in bases:
                yield from self._check_filter_subclass(module, node)
                continue
            if self._is_baseless(node):
                duck = list(self._check_duck_filter(module, node))
                if duck:
                    yield from duck
                    continue
            yield from self._check_batched_pairing(module, node)

    # --------------------------------------------------- machine subclasses

    def _check_machine_subclass(self, module: ModuleInfo,
                                cls: ast.ClassDef) -> Iterator[Finding]:
        # Both the scalar and the batched entry points are miss-answer
        # surfaces; each override must route through its audited base.
        for method_name in ("query", "query_many"):
            method = _method(cls, method_name)
            if method is None:
                continue  # inherits the audited implementation — fine.
            if not self._routes_through_base(method, method_name,
                                            ("MostlyNoMachine",)):
                yield self.finding(
                    module, method,
                    f"{cls.name}.{method_name} reimplements the MNM query "
                    f"without routing through super().{method_name} — its "
                    "miss bits bypass the audited proof path")
        yield from self._check_invalidate(module, cls, "MostlyNoMachine")

    def _check_invalidate(self, module: ModuleInfo, cls: ast.ClassDef,
                          base: str) -> Iterator[Finding]:
        """An ``on_invalidate`` override must keep the base downgrade.

        The base implementation is the conservative action (filters
        downgrade to "maybe present"; the machine fans the hint out to
        every tracked filter) that keeps MISS answers proofs of absence
        under cross-core invalidation.  An override that refines the
        reaction is fine *as long as* it also runs the base — dropping
        it silently converts contention into false misses.
        """
        method = _method(cls, "on_invalidate")
        if method is None:
            return
        if not self._routes_through_base(method, "on_invalidate", (base,)):
            yield self.finding(
                module, method,
                f"{cls.name}.on_invalidate overrides the invalidation "
                f"downgrade without routing through "
                f"super().on_invalidate — a cross-core invalidation this "
                "override mishandles becomes a false miss")

    @staticmethod
    def _routes_through_base(method, method_name: str,
                             bases: tuple = ("MostlyNoMachine",)) -> bool:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain in {f"{base}.{method_name}" for base in bases}:
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == method_name
                    and isinstance(node.func.value, ast.Call)
                    and terminal_name(node.func.value.func) == "super"):
                return True
        return False

    # ---------------------------------------------------- filter subclasses

    def _check_filter_subclass(self, module: ModuleInfo,
                               cls: ast.ClassDef) -> Iterator[Finding]:
        yield from self._check_invalidate(module, cls, "MissFilter")
        if _is_abstract(cls):
            return
        defined = _defined_names(cls)
        missing = [name for name in CONTRACT if name not in defined]
        if missing:
            yield self.finding(
                module, cls,
                f"MissFilter subclass {cls.name} does not implement "
                f"{', '.join(missing)} — the query contract is "
                "incomplete, so its answers cannot stay provable as "
                "cache state moves")

    # --------------------------------------- batched/scalar query pairing

    def _check_batched_pairing(self, module: ModuleInfo,
                               cls: ast.ClassDef) -> Iterator[Finding]:
        """A ``query_many`` or ``replay`` override needs its scalar
        oracle in-class.

        The batched paths are part of the soundness surface (the fast
        engine applies whole event streams through ``replay``, whose
        default answers segments through ``query_many``); an override
        whose scalar hooks live in a *different* class — e.g. a subclass
        of a concrete filter re-vectorizing only the batch — can drift
        from the scalar semantics without any test noticing.
        ``query_many`` pairs with ``is_definite_miss``; ``replay`` with
        :data:`REPLAY_ORACLE`.  ``MostlyNoMachine`` itself is the audited
        machine-level base and is excluded (its batch is defined over
        ``query``, not a scalar filter method).
        """
        if cls.name == "MostlyNoMachine" or _is_abstract(cls):
            return
        defined = _defined_names(cls)
        if "query_many" in defined and "is_definite_miss" not in defined:
            yield self.finding(
                module, cls,
                f"{cls.name} overrides query_many without an in-class "
                "is_definite_miss — the batched path has no scalar "
                "oracle beside it to stay element-wise equal to")
        missing = [name for name in REPLAY_ORACLE if name not in defined]
        if "replay" in defined and missing:
            yield self.finding(
                module, cls,
                f"{cls.name} overrides replay without an in-class "
                f"{', '.join(missing)} — the batched replay has no scalar "
                "oracle beside it to stay equal to")

    # -------------------------------------------------- duck-typed filters

    @staticmethod
    def _is_baseless(cls: ast.ClassDef) -> bool:
        names = [terminal_name(base) for base in cls.bases]
        return not names or names == ["object"]

    def _check_duck_filter(self, module: ModuleInfo,
                           cls: ast.ClassDef) -> Iterator[Finding]:
        defined = _defined_names(cls)
        if ("on_place" in defined
                and ("is_definite_miss" in defined
                     or "query_many" in defined)):
            yield self.finding(
                module, cls,
                f"{cls.name} implements the filter interface without "
                "subclassing MissFilter — duck-typed filters dodge the "
                "soundness property tests keyed on the ABC")


def _method(cls: ast.ClassDef, name: str):
    for statement in cls.body:
        if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and statement.name == name):
            return statement
    return None


def _defined_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for statement in cls.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(statement.name)
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                names.add(statement.target.id)
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_abstract(cls: ast.ClassDef) -> bool:
    base_names: List[str] = [terminal_name(base) for base in cls.bases]
    if "ABC" in base_names:
        return True
    keywords = [terminal_name(kw.value) for kw in cls.keywords]
    if "ABCMeta" in keywords:
        return True
    return any(
        set(decorator_names(statement)) & _ABSTRACT_DECORATORS
        for statement in cls.body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
