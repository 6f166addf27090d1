"""Static invariant checker for the repro codebase (``repro-mnm check``).

The paper's Mostly No Machine is only shippable because its guarantee —
a "miss" answer is never wrong — is *checkable*.  This package applies
the same standard to the software: the repo's soundness, determinism,
layering and picklability contracts are encoded as AST rules that run
over the source tree before a single trace is simulated.

Layout:

* :mod:`repro.staticcheck.engine` — file discovery, tolerant per-module
  AST parsing, ``# repro: allow[RULE-ID]`` suppression comments, stable
  sorted :class:`~repro.staticcheck.engine.Finding` records, text and
  JSON reporters;
* :mod:`repro.staticcheck.rules` — the repo-specific rules R001–R010
  (module rules plus cross-module *project* rules like R007);
* :mod:`repro.staticcheck.cli` — the ``repro-mnm check`` subcommand.

The package deliberately imports nothing else from :mod:`repro` (it
must be able to judge every layer without joining one).
"""

from repro.staticcheck.engine import (
    Finding,
    ModuleInfo,
    check_paths,
    check_source,
    check_sources,
    render_json,
    render_text,
)
from repro.staticcheck.rules import ALL_RULE_IDS, default_rules, rules_for

__all__ = [
    "ALL_RULE_IDS",
    "Finding",
    "ModuleInfo",
    "check_paths",
    "check_source",
    "check_sources",
    "default_rules",
    "render_json",
    "render_text",
    "rules_for",
]
