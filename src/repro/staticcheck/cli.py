"""The ``repro-mnm check`` subcommand.

Kept free of any other :mod:`repro` import so the checker can load and
judge a tree even when the tree itself is broken.  Exit codes mirror
the main CLI's documented table (:mod:`repro.experiments.cli`):

====  ====================================================
0     clean — no error-severity findings
3     a given path does not exist
4     invalid ``--rules`` or format value
7     the checker reported findings
====  ====================================================

A file the checker cannot load (syntax error, null bytes, undecodable
or unreadable) is itself a finding (E001/E002) and exits 7 — never a
crash; an empty package is a clean exit 0.  Warning-severity findings
are printed but do not affect the exit code, so a new rule can land
warn-only before it is promoted to ``error``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence

from repro.staticcheck.engine import (
    check_paths,
    has_errors,
    iter_python_files,
    render_json,
    render_text,
)
from repro.staticcheck.rules import rule_table, rules_for

#: Mirrors repro.experiments.cli's exit-code table (kept literal here so
#: the checker never has to import the experiment stack).
EXIT_OK = 0
EXIT_BAD_PATH = 3
EXIT_BAD_VALUE = 4
EXIT_FINDINGS = 7

FORMATS = ("text", "json")


def default_check_root() -> str:
    """With no paths given, check the installed ``repro`` package."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _print_rule_table(out) -> None:
    rows = rule_table()
    id_width = max(len(row[0]) for row in rows)
    severity_width = max(len(row[2]) for row in rows)
    suppression_width = max(len(row[3]) for row in rows)
    for rule_id, title, severity, suppression in rows:
        print(f"{rule_id:<{id_width}}  {severity:<{severity_width}}  "
              f"{suppression:<{suppression_width}}  {title}", file=out)


def run_check(paths: Sequence[str], fmt: str = "text",
              rules_csv: str = "", list_rules: bool = False,
              out=None, err=None) -> int:
    """Execute one check invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    if list_rules:
        _print_rule_table(out)
        return EXIT_OK

    try:
        rules = rules_for(
            rules_csv.split(",") if rules_csv else None)
    except ValueError as exc:
        print(f"repro-mnm: error: {exc}", file=err)
        return EXIT_BAD_VALUE
    if not rules:
        print("repro-mnm: error: --rules selected no rules", file=err)
        return EXIT_BAD_VALUE
    if fmt not in FORMATS:
        print(f"repro-mnm: error: unknown format {fmt!r} "
              f"(expected one of {', '.join(FORMATS)})", file=err)
        return EXIT_BAD_VALUE

    targets: List[str] = list(paths) if paths else [default_check_root()]
    try:
        files = iter_python_files(targets)
        findings = check_paths(files, rules)
    except FileNotFoundError as exc:
        print(f"repro-mnm: error: no such path: {exc.args[0]}", file=err)
        return EXIT_BAD_PATH

    if fmt == "json":
        print(render_json(findings, checked_files=len(files)), file=out)
    else:
        print(render_text(findings), file=out)
    return EXIT_FINDINGS if has_errors(findings) else EXIT_OK


def add_check_arguments(parser) -> None:
    """The ``check`` flag surface, shared with the main CLI's subparser."""
    parser.add_argument("paths", nargs="*",
                        help="files/directories (default: the installed "
                             "repro package)")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--rules", type=str, default="",
                        help="comma-separated rule subset, e.g. R001,R005")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table (id, severity, "
                             "suppression policy, title) and exit")


def run_check_args(args, out=None, err=None) -> int:
    """Dispatch a parsed ``check`` namespace (shared with the main CLI)."""
    return run_check(
        args.paths, fmt=args.format, rules_csv=args.rules,
        list_rules=args.list_rules, out=out, err=err)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.staticcheck.cli``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-mnm check",
        description="AST-based invariant checker (rules R001-R010)")
    add_check_arguments(parser)
    args = parser.parse_args(argv)
    return run_check_args(args)


if __name__ == "__main__":
    sys.exit(main())
