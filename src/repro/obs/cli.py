"""The ``repro-mnm obs`` subcommands: show and diff.

Kept importable without the experiment stack (same discipline as
:mod:`repro.staticcheck.cli`): reading manifests back must work even on
a machine that cannot run simulations.  Exit codes mirror the main
CLI's documented table (:mod:`repro.experiments.cli`):

====  ====================================================
0     success
2     usage error (argparse: unknown subcommand or flag)
3     a manifest path is unreadable
4     invalid value (not a run manifest, unknown schema)
====  ====================================================
"""

from __future__ import annotations

import sys
from typing import Any, Dict

from repro.obs.diff import diff_manifests, render_diff
from repro.obs.manifest import load_manifest
from repro.obs.show import render_manifest

#: Mirrors repro.experiments.cli's exit-code table (kept literal here so
#: manifest inspection never has to import the experiment stack).
EXIT_OK = 0
EXIT_BAD_PATH = 3
EXIT_BAD_VALUE = 4


def _load_manifest_or_fail(path: str, err) -> Dict[str, Any]:
    try:
        return load_manifest(path)
    except OSError as exc:
        print(f"repro-mnm: error: cannot read {path}: "
              f"{exc.strerror or exc}", file=err)
        raise SystemExit(EXIT_BAD_PATH)
    except ValueError as exc:
        print(f"repro-mnm: error: {exc}", file=err)
        raise SystemExit(EXIT_BAD_VALUE)


def run_obs(args, out=None, err=None) -> int:
    """Execute one ``obs`` invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if args.obs_command == "show":
            manifest = _load_manifest_or_fail(args.manifest, err)
            print(render_manifest(manifest, top=args.top), file=out)
            return EXIT_OK

        # obs diff
        old = _load_manifest_or_fail(args.old, err)
        new = _load_manifest_or_fail(args.new, err)
        print(render_diff(diff_manifests(old, new)), file=out)
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)


def add_obs_parser(sub) -> None:
    """Attach the ``obs`` subcommand tree to the main CLI's subparsers."""
    obs = sub.add_parser(
        "obs", help="inspect run manifests: show / diff")
    _add_obs_subcommands(
        obs.add_subparsers(dest="obs_command", required=True))


def _add_obs_subcommands(obs_sub) -> None:
    show = obs_sub.add_parser(
        "show", help="timeline, slowest tasks and straggler report for "
                     "one run manifest")
    show.add_argument("manifest",
                      help="run directory (from --run-dir) or manifest.json")
    show.add_argument("--top", type=int, default=10,
                      help="slowest tasks to list (default 10)")

    diff = obs_sub.add_parser(
        "diff", help="per-phase wall-clock and counter deltas between two "
                     "run manifests")
    diff.add_argument("old", help="baseline run directory or manifest.json")
    diff.add_argument("new", help="candidate run directory or manifest.json")


def main(argv=None) -> int:
    """Standalone entry point (``python -m repro.obs.cli``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-mnm obs",
        description="run-manifest observatory: show / diff")
    _add_obs_subcommands(parser.add_subparsers(dest="obs_command",
                                               required=True))
    args = parser.parse_args(argv)
    return run_obs(args)


if __name__ == "__main__":
    sys.exit(main())
