"""Command-line harness: ``repro-mnm`` / ``python -m repro.experiments``.

Examples::

    repro-mnm list
    repro-mnm run fig10 fig13 --instructions 60000
    repro-mnm all --skip-heavy
    repro-mnm all --output results.txt
    repro-mnm run fig10 --metrics-out metrics.json --trace-out trace.jsonl
    repro-mnm all --run-dir runs/full  # resumable: re-run to resume
    repro-mnm report --jobs 4 --run-dir runs/nightly   # + manifest.json
    repro-mnm obs show runs/nightly    # timeline, work per task kind
    repro-mnm obs diff runs/last runs/nightly
    repro-mnm run fig15 --retries 3 --task-timeout 600
    repro-mnm search --space paper --sampler random --samples 32 \\
        --budget-bits 80000 --seed 7 --top-k 5
    repro-mnm telemetry summary metrics.json
    repro-mnm telemetry summary trace.jsonl
    repro-mnm check src/
    repro-mnm check --format json --rules R001,R005 src/repro

Exit codes — known user errors map to distinct non-zero codes with a
one-line message instead of a raw traceback:

====  =======================================================
0     success
2     usage error (argparse: unknown flag, missing argument)
3     bad path (``--cache-dir``/``--run-dir``/output directory,
      a ``check`` path, an unreadable ``telemetry summary`` file)
4     invalid value (``--instructions``, ``--warmup-fraction``,
      ``--workloads``, ``--retries``, ``--task-timeout``,
      ``--trace-sample``, ``--jobs``, ``--rules``, a design name,
      a ``telemetry summary`` file that is not a telemetry
      artifact, conflicting flags)
5     unknown experiment id
6     a simulation task failed after exhausting its retries
7     ``repro-mnm check`` reported static-analysis findings
130   interrupted (Ctrl-C or SIGTERM) — a ``--run-dir`` run resumes
      when re-run with the same ``--run-dir``
====  =======================================================

SIGTERM is handled exactly like Ctrl-C: a ``--run-dir`` manifest is
written with ``status: interrupted`` and the process exits 130 — every
finished task's result is already in the run directory's pass cache, so
a scheduler (or CI) terminating a run loses at most the in-flight
tasks.  Every flag is validated before anything is written: a refused
run leaves no run directory, cache directory or manifest behind.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import List, Optional

from repro import telemetry
from repro.experiments.base import ExperimentSettings
from repro.experiments.checkpoint import RunJournal
from repro.experiments.passcache import configure_pass_cache
from repro.experiments.registry import (
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.experiments.resilience import (
    ExecutionPolicy,
    TaskExecutionError,
    policy_from_cli,
)
from repro.search.objectives import METRICS as OBJECTIVE_METRICS
from repro.search.samplers import SAMPLER_NAMES
from repro.search.space import space_names as search_space_names
from repro.workloads import workload_names

#: The exit-code table (documented in the module docstring and README).
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_PATH = 3
EXIT_BAD_VALUE = 4
EXIT_UNKNOWN_EXPERIMENT = 5
EXIT_TASK_FAILED = 6
EXIT_STATIC_CHECK = 7
EXIT_INTERRUPTED = 130


def _fail(code: int, message: str) -> "SystemExit":
    """A one-line CLI error with a distinct exit code (no traceback)."""
    print(f"repro-mnm: error: {message}", file=sys.stderr)
    return SystemExit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mnm",
        description=(
            "Reproduction harness for 'Just Say No: Benefits of Early "
            "Cache Miss Determination' (HPCA 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    designs = sub.add_parser(
        "designs", help="hardware-budget table for MNM configurations")
    designs.add_argument(
        "names", nargs="*", default=[],
        help="design names (default: every configuration in the figures)")

    run = sub.add_parser("run", help="run selected experiments")
    # Validated in main() rather than via argparse choices, so an unknown
    # id gets its own exit code (EXIT_UNKNOWN_EXPERIMENT) and message.
    run.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                     help=f"one of: {', '.join(experiment_ids())}")
    _add_settings_args(run)

    all_cmd = sub.add_parser("all", help="run every experiment")
    all_cmd.add_argument("--skip-heavy", action="store_true",
                         help="skip experiments needing per-design core runs")
    _add_settings_args(all_cmd)

    report = sub.add_parser(
        "report", help="run experiments and write a markdown report")
    report.add_argument("--skip-heavy", action="store_true",
                        help="skip experiments needing per-design core runs")
    report.add_argument("--no-charts", action="store_true",
                        help="omit ASCII charts from the report")
    report.add_argument("--report-out", type=str, default="report.md",
                        help="markdown output path (default report.md)")
    _add_settings_args(report)

    search = sub.add_parser(
        "search",
        help="design-space search: find the best MNM under a budget")
    search.add_argument("--space", type=str, default="paper",
                        help=f"search-space preset, one of: "
                             f"{', '.join(search_space_names())} "
                             f"(default paper)")
    search.add_argument("--sampler", type=str, default="random",
                        help=f"proposal strategy, one of: "
                             f"{', '.join(SAMPLER_NAMES)} (default random)")
    search.add_argument("--samples", type=int, default=32,
                        help="candidate budget for the sampler (default 32)")
    search.add_argument("--budget-bits", type=int, default=None,
                        help="hard constraint: filter storage must not "
                             "exceed this many bits")
    search.add_argument("--min-coverage", type=float, default=None,
                        help="hard constraint: suite coverage must be at "
                             "least this fraction in [0, 1]")
    search.add_argument("--objective", type=str, default="coverage",
                        help=f"ranking metric, one of: "
                             f"{', '.join(OBJECTIVE_METRICS)} "
                             f"(default coverage)")
    search.add_argument("--top-k", type=int, default=10,
                        help="ranked designs to report (default 10)")
    search.add_argument("--no-baselines", action="store_true",
                        help="do not seed the candidate set with the "
                             "paper's fixed configurations")
    _add_settings_args(search)

    multicore = sub.add_parser(
        "multicore",
        help="multi-core contention: MNM coverage under shared hierarchies")
    multicore.add_argument("--cores", type=int, nargs="+", default=None,
                           metavar="N",
                           help="core counts to sweep (default: 1 2 4)")
    multicore.add_argument("--sharing", type=str,
                           default="private,shared,hybrid",
                           help="comma-separated MNM sharing topologies "
                                "from {private, shared, hybrid} "
                                "(default: all three)")
    multicore.add_argument("--l2-policy", type=str,
                           default="inclusive,exclusive",
                           help="comma-separated shared-L2 policies from "
                                "{inclusive, exclusive} (default: both)")
    multicore.add_argument("--schedule",
                           choices=("round_robin", "stochastic"),
                           default="round_robin",
                           help="stream interleaving (default round_robin)")
    multicore.add_argument("--schedule-seed", type=int, default=0,
                           help="seed of the stochastic interleaver "
                                "(default 0)")
    multicore.add_argument("--designs", type=str, default="",
                           help="comma-separated MNM design names "
                                "(default: the contention line-up)")
    _add_settings_args(multicore)

    check = sub.add_parser(
        "check",
        help="static invariant checker: AST rules R001-R010 over the "
             "source tree")
    from repro.staticcheck.cli import add_check_arguments

    add_check_arguments(check)

    tele = sub.add_parser(
        "telemetry", help="inspect telemetry artifacts")
    tele_sub = tele.add_subparsers(dest="telemetry_command", required=True)
    tele_summary = tele_sub.add_parser(
        "summary",
        help="pretty-print a metrics snapshot (JSON) or aggregate a "
             "decision trace (JSONL) back to its bypass counters")
    tele_summary.add_argument("path", help="metrics or trace file")

    from repro.obs.cli import add_obs_parser

    add_obs_parser(sub)
    return parser


def _add_settings_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int, default=None,
                        help="trace length per workload")
    parser.add_argument("--warmup-fraction", type=float, default=None,
                        help="leading trace fraction used as warmup")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generator seed")
    parser.add_argument("--workloads", type=str, default="",
                        help="comma-separated workload subset")
    parser.add_argument("--engine", choices=("interp", "fast"),
                        default="fast",
                        help="simulation engine for reference passes and "
                             "full-system runs: 'fast' (batched numpy "
                             "kernel, default) or 'interp' (pure-Python "
                             "oracle); byte-identical results")
    parser.add_argument("--output", type=str, default="",
                        help="also append rendered results to this file")
    parser.add_argument("--chart", action="store_true",
                        help="also print an ASCII bar chart of the last "
                             "column (the paper's figures are bar charts)")
    parser.add_argument("--json", dest="json_path", type=str, default="",
                        help="append results as JSON lines to this file")
    parser.add_argument("--metrics-out", type=str, default="",
                        help="write a telemetry metrics snapshot (JSON) "
                             "to this path after the run")
    parser.add_argument("--trace-out", type=str, default="",
                        help="write sampled per-access MNM decision "
                             "records (JSONL) to this path")
    parser.add_argument("--trace-sample", type=float, default=1.0,
                        help="decision-trace sampling rate in (0, 1] "
                             "(default 1.0 = every access)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for independent simulation "
                             "passes (0 = auto: one per CPU; results are "
                             "bit-identical for any value)")
    parser.add_argument("--cache-dir", type=str, default="",
                        help="persist computed simulation passes to this "
                             "directory and reuse them across runs")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable pass memoisation entirely (every "
                             "experiment recomputes its simulations)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per simulation task after a transient "
                             "failure (worker death, timeout); 0 disables "
                             "(default 2)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="seconds a parallel task may run before its "
                             "worker is presumed hung, killed and the task "
                             "retried (default: no timeout)")
    parser.add_argument("--run-dir", type=str, default="",
                        help="resumable, observed run directory: created "
                             "on first use; re-running after an "
                             "interruption skips every already-completed "
                             "pass (a disk pass cache in <dir>/passes); "
                             "spans and a manifest.json are written beside "
                             "it (see 'repro-mnm obs')")


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """The run's settings; a bad value fails here, before any simulation."""
    kwargs = {}
    if args.instructions is not None:
        kwargs["num_instructions"] = args.instructions
    if args.warmup_fraction is not None:
        kwargs["warmup_fraction"] = args.warmup_fraction
    kwargs["seed"] = args.seed
    if args.workloads:
        names = tuple(
            name.strip() for name in args.workloads.split(",") if name.strip()
        )
        unknown = [name for name in names if name not in workload_names()]
        if unknown:
            raise _fail(EXIT_BAD_VALUE,
                        f"--workloads: unknown workload(s) "
                        f"{', '.join(unknown)} (expected names from "
                        f"{', '.join(workload_names())})")
        kwargs["workloads"] = names
    kwargs["engine"] = args.engine
    try:
        return ExperimentSettings(**kwargs)
    except ValueError as exc:
        raise _fail(EXIT_BAD_VALUE, str(exc))


def _emit(text: str, output_path: str) -> None:
    print(text)
    if output_path:
        with open(output_path, "a") as handle:
            handle.write(text + "\n")


def _check_output_dir(flag: str, path: str) -> None:
    """Fail before the run, not after it, when an output path is bad."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise _fail(EXIT_BAD_PATH,
                    f"{flag} directory does not exist: {directory}")


def _check_output_paths(args: argparse.Namespace) -> None:
    """Fail before the run when an output file could not be written."""
    for flag, path in (("--output", args.output),
                       ("--json", args.json_path),
                       ("--report-out", getattr(args, "report_out", "")),
                       ("--metrics-out", args.metrics_out)):
        if path:
            _check_output_dir(flag, path)
    if args.trace_out:
        if not 0.0 < args.trace_sample <= 1.0:
            raise _fail(EXIT_BAD_VALUE,
                        "--trace-sample must be in (0, 1], "
                        f"got {args.trace_sample}")
        _check_output_dir("--trace-out", args.trace_out)


def _enable_telemetry(args: argparse.Namespace) -> None:
    """Turn on the telemetry pieces the flags ask for."""
    if args.metrics_out:
        telemetry.enable_metrics()
    if args.trace_out:
        telemetry.enable_tracing(args.trace_out,
                                 sample_rate=args.trace_sample)


def _build_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """The failure-handling policy for --retries / --task-timeout."""
    if args.retries < 0:
        raise _fail(EXIT_BAD_VALUE,
                    f"--retries must be >= 0, got {args.retries}")
    if args.task_timeout is not None and args.task_timeout <= 0:
        raise _fail(EXIT_BAD_VALUE,
                    f"--task-timeout must be > 0 seconds, "
                    f"got {args.task_timeout}")
    return policy_from_cli(args.retries, args.task_timeout, seed=args.seed)


def _write_telemetry_outputs(args: argparse.Namespace) -> None:
    """Flush the enabled telemetry pieces to their output files."""
    logger = telemetry.get_logger("telemetry")
    if args.metrics_out:
        telemetry.get_registry().write_json(args.metrics_out)
        logger.info(f"metrics snapshot written to {args.metrics_out}")
    tracer = telemetry.get_tracer()
    if tracer.enabled:
        tracer.close()
        logger.info(
            f"decision trace written to {args.trace_out}",
            records=tracer.emitted, dropped=tracer.dropped,
            bytes=tracer.bytes_written,
        )


#: Parsed arguments that change only how or where a run executes or
#: writes, never what it simulates.  Every other argument enters the
#: manifest fingerprint, so a flag missing here can cause a spurious
#: ``obs diff`` mismatch warning but never a false match.
_EXECUTION_ONLY_ARGS = frozenset({
    "jobs", "engine", "retries", "task_timeout", "run_dir", "cache_dir",
    "no_cache", "output", "json_path", "report_out", "chart", "no_charts",
    "metrics_out", "trace_out", "trace_sample",
})


def _write_run_manifest(args: argparse.Namespace,
                        settings: ExperimentSettings,
                        status: str,
                        journal: Optional[RunJournal],
                        jobs: int) -> None:
    """Persist the run manifest into ``--run-dir`` (best effort)."""
    from repro.obs.manifest import build_manifest, write_manifest

    manifest = build_manifest(
        command=args.command,
        settings=settings,
        status=status,
        spans_snapshot=telemetry.get_spans().snapshot(),
        metrics_snapshot=telemetry.get_registry().snapshot(),
        journal_completed=len(journal) if journal is not None else None,
        jobs=jobs,
        selection={name: value for name, value in vars(args).items()
                   if name not in _EXECUTION_ONLY_ARGS},
    )
    try:
        path = write_manifest(args.run_dir, manifest)
    except OSError as exc:
        # The run itself succeeded/failed on its own terms; a manifest
        # write error must not replace that exit code.
        print(f"repro-mnm: warning: cannot write run manifest: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return
    telemetry.get_logger("obs").info(f"run manifest written to {path}")


def _resolve_jobs(args: argparse.Namespace) -> int:
    """The effective worker count for this invocation."""
    from repro.experiments.executor import default_jobs

    if args.jobs < 0:
        raise _fail(EXIT_BAD_VALUE, f"--jobs must be >= 0, got {args.jobs}")
    jobs = args.jobs if args.jobs > 0 else default_jobs()
    if jobs > 1 and args.trace_out:
        # Decision-trace records from concurrent workers would interleave
        # nondeterministically; tracing forces a serial run.
        telemetry.get_logger("cli").info(
            "--trace-out requires deterministic record order; "
            "running with --jobs 1")
        return 1
    return jobs


def _search_inputs(args: argparse.Namespace) -> tuple:
    """The search's space, sampler and objective; a bad flag exits 4."""
    from repro.search import Objective, make_sampler, space_preset

    if args.samples < 1:
        raise _fail(EXIT_BAD_VALUE,
                    f"--samples must be >= 1, got {args.samples}")
    if args.top_k < 1:
        raise _fail(EXIT_BAD_VALUE, f"--top-k must be >= 1, got {args.top_k}")
    try:
        return (space_preset(args.space),
                make_sampler(args.sampler, seed=args.seed,
                             num_samples=args.samples),
                Objective(metric=args.objective,
                          budget_bits=args.budget_bits,
                          min_coverage=args.min_coverage))
    except ValueError as exc:
        raise _fail(EXIT_BAD_VALUE, str(exc))


def _search_command(args: argparse.Namespace,
                    settings: ExperimentSettings,
                    jobs: int,
                    policy: ExecutionPolicy,
                    journal: Optional[RunJournal],
                    inputs: tuple) -> int:
    """``repro-mnm search``: budget-constrained design-space search."""
    from repro.search import run_search

    space, sampler, objective = inputs
    report = run_search(
        space, sampler, objective,
        settings=settings,
        jobs=jobs,
        policy=policy,
        journal=journal,
        top_k=args.top_k,
        include_baselines=not args.no_baselines,
    )
    _emit(report.render(), args.output)
    if args.chart:
        _emit("\n" + report.render_chart(), args.output)
    if args.json_path:
        with open(args.json_path, "a") as handle:
            json.dump(report.to_dict(), handle)
            handle.write("\n")
    return 0


def _multicore_axes(args: argparse.Namespace) -> dict:
    """The contention sweep's axes; a bad flag exits 4.

    The keys are keyword arguments of both ``plan_multicore_contention``
    and ``run_multicore_contention``.
    """
    from repro.experiments.planning import (
        MULTICORE_CORE_COUNTS,
        MULTICORE_DESIGNS,
    )
    from repro.multicore.config import L2_POLICIES, SHARINGS

    core_counts = tuple(args.cores) if args.cores else MULTICORE_CORE_COUNTS
    if any(cores < 1 for cores in core_counts):
        raise _fail(EXIT_BAD_VALUE,
                    f"--cores values must be >= 1, got {core_counts}")
    sharings = tuple(
        value.strip() for value in args.sharing.split(",") if value.strip()
    )
    bad = [value for value in sharings if value not in SHARINGS]
    if bad or not sharings:
        raise _fail(EXIT_BAD_VALUE,
                    f"--sharing must name values from {SHARINGS}, "
                    f"got {args.sharing!r}")
    policies = tuple(
        value.strip() for value in args.l2_policy.split(",") if value.strip()
    )
    bad = [value for value in policies if value not in L2_POLICIES]
    if bad or not policies:
        raise _fail(EXIT_BAD_VALUE,
                    f"--l2-policy must name values from {L2_POLICIES}, "
                    f"got {args.l2_policy!r}")
    if args.designs:
        from repro.core.presets import parse_design

        names = tuple(
            value.strip() for value in args.designs.split(",") if value.strip()
        )
        try:
            for name in names:
                parse_design(name)
        except ValueError as exc:
            raise _fail(EXIT_BAD_VALUE, f"--designs: {exc}")
    else:
        names = MULTICORE_DESIGNS
    if args.schedule_seed < 0:
        raise _fail(EXIT_BAD_VALUE,
                    f"--schedule-seed must be >= 0, got {args.schedule_seed}")
    return {"core_counts": core_counts, "sharings": sharings,
            "l2_policies": policies, "schedule": args.schedule,
            "schedule_seed": args.schedule_seed, "design_names": names}


def _multicore_command(args: argparse.Namespace,
                       settings: ExperimentSettings,
                       jobs: int,
                       policy: ExecutionPolicy,
                       journal: Optional[RunJournal],
                       axes: dict) -> int:
    """``repro-mnm multicore``: the contention sweep with explicit axes."""
    from repro.experiments.extensions import run_multicore_contention

    if jobs > 1 or journal is not None:
        from repro.experiments.executor import execute_tasks
        from repro.experiments.planning import plan_multicore_contention

        execute_tasks(plan_multicore_contention(settings, **axes), jobs,
                      policy=policy, journal=journal)
    result = run_multicore_contention(settings, **axes)
    _emit(result.render(float_digits=1), args.output)
    if args.chart:
        _emit("\n" + result.render_chart(), args.output)
    if args.json_path:
        with open(args.json_path, "a") as handle:
            json.dump(result.to_dict(), handle)
            handle.write("\n")
    return 0


def _command_inputs(args: argparse.Namespace):
    """The validated inputs of ``search`` and ``multicore`` (else None)."""
    if args.command == "search":
        return _search_inputs(args)
    if args.command == "multicore":
        return _multicore_axes(args)
    return None


def _run_command(args: argparse.Namespace,
                 settings: ExperimentSettings,
                 jobs: int,
                 policy: ExecutionPolicy,
                 journal: Optional[RunJournal],
                 inputs) -> int:
    """Execute the report/run/all/search/multicore commands.

    Every flag is already validated; ``inputs`` is what
    :func:`_command_inputs` returned.
    """
    if args.command == "search":
        return _search_command(args, settings, jobs, policy, journal, inputs)
    if args.command == "multicore":
        return _multicore_command(args, settings, jobs, policy, journal,
                                  inputs)
    if args.command == "report":
        from repro.experiments.report import generate_report

        markdown = generate_report(
            settings,
            skip_heavy=args.skip_heavy,
            with_charts=not args.no_charts,
            progress=True,
            jobs=jobs,
            policy=policy,
            journal=journal,
        )
        with open(args.report_out, "w") as handle:
            handle.write(markdown)
        print(f"report written to {args.report_out}")
        return 0

    if args.command == "run":
        selected = args.experiments
    else:
        selected = [
            experiment_id for experiment_id in experiment_ids()
            if not (args.skip_heavy and get_experiment(experiment_id).heavy)
        ]

    # A --run-dir run prefetches even with one job, so every planned pass
    # lands in its pass cache (and is skipped on resume) the moment it
    # finishes.
    if jobs > 1 or journal is not None:
        from repro.experiments.executor import prefetch_experiments

        prefetch_experiments(selected, settings, jobs,
                             policy=policy, journal=journal)

    for experiment_id in selected:
        started = time.perf_counter()
        result = run_experiment(experiment_id, settings)
        rendered = result.render(float_digits=1)
        _emit(rendered, args.output)
        if args.chart:
            _emit("\n" + result.render_chart(), args.output)
        if args.json_path:
            with open(args.json_path, "a") as handle:
                json.dump(result.to_dict(), handle)
                handle.write("\n")
        _emit(f"[{experiment_id} took {time.perf_counter() - started:.1f}s]\n",
              args.output)
    return 0


def _sigterm_to_interrupt(signum, frame):
    """SIGTERM behaves exactly like Ctrl-C (graceful-shutdown parity)."""
    raise KeyboardInterrupt


def _install_sigterm_handler():
    """Route SIGTERM through KeyboardInterrupt; returns the old handler.

    Returns None when no handler could be installed (non-main thread,
    platforms without SIGTERM) — the CLI then simply keeps the default
    die-immediately behaviour it always had.
    """
    if not hasattr(signal, "SIGTERM"):  # pragma: no cover - non-posix
        return None
    try:
        return signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
    except (ValueError, OSError):  # pragma: no cover - embedded/threaded
        return None


def _restore_sigterm_handler(previous) -> None:
    if previous is None:
        return
    try:
        signal.signal(signal.SIGTERM, previous)
    except (ValueError, OSError):  # pragma: no cover - embedded/threaded
        pass


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    previous_sigterm = _install_sigterm_handler()
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # Commands with run state (run/all/report/search) handle the
        # interrupt themselves; this catches the rest (list, check, obs,
        # ...) so SIGTERM/Ctrl-C still exits 130 everywhere.
        print("repro-mnm: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        _restore_sigterm_handler(previous_sigterm)


def _dispatch(args: argparse.Namespace) -> int:
    """Route one parsed invocation (SIGTERM already mapped to Ctrl-C)."""
    if args.command == "list":
        for experiment_id in experiment_ids():
            entry = get_experiment(experiment_id)
            tags = ""
            if entry.heavy:
                tags += " [heavy]"
            if entry.extension:
                tags += " [extension]"
            print(f"{experiment_id:8} {entry.description}{tags}")
        return 0

    if args.command == "designs":
        from repro.cache.presets import paper_hierarchy_5level
        from repro.core.presets import all_paper_design_names, parse_design
        from repro.power.budget import budget_table

        names = args.names or list(all_paper_design_names())
        try:
            designs = [parse_design(name) for name in names]
        except ValueError as exc:
            raise _fail(EXIT_BAD_VALUE, str(exc))
        print(budget_table(paper_hierarchy_5level(), designs))
        return 0

    if args.command == "check":
        from repro.staticcheck.cli import run_check_args

        return run_check_args(args)

    if args.command == "obs":
        from repro.obs.cli import run_obs

        return run_obs(args)

    if args.command == "telemetry":
        try:
            print(telemetry.summarize_path(args.path))
        except OSError as exc:
            print(f"repro-mnm: error: cannot read {args.path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_BAD_PATH
        except ValueError:
            print(f"repro-mnm: error: {args.path} is not a telemetry "
                  "artifact (expected a metrics JSON or a "
                  "decision-trace JSONL)", file=sys.stderr)
            return EXIT_BAD_VALUE
        return 0

    if args.command == "run":
        unknown = [experiment_id for experiment_id in args.experiments
                   if experiment_id not in experiment_ids()]
        if unknown:
            raise _fail(EXIT_UNKNOWN_EXPERIMENT,
                        f"unknown experiment id(s): {', '.join(unknown)} "
                        f"(see 'repro-mnm list')")

    # Every flag is checked before anything touches disk, so a refused
    # run leaves no run directory, cache directory or manifest behind.
    settings = _settings_from_args(args)
    _check_output_paths(args)
    jobs = _resolve_jobs(args)
    policy = _build_policy(args)
    inputs = _command_inputs(args)
    if args.run_dir and args.cache_dir:
        raise _fail(EXIT_BAD_VALUE,
                    "--run-dir and --cache-dir conflict: a run "
                    "directory owns its pass cache in <dir>/passes")
    if args.run_dir and args.no_cache:
        raise _fail(EXIT_BAD_VALUE,
                    "--run-dir and --no-cache conflict: a run "
                    "directory resumes from its disk pass cache")
    journal: Optional[RunJournal] = None
    cache_dir = args.cache_dir or None
    if args.run_dir:
        try:
            journal = RunJournal.open(args.run_dir)
        except OSError as exc:
            raise _fail(EXIT_BAD_PATH,
                        f"cannot open --run-dir directory {args.run_dir}: "
                        f"{exc.strerror or exc}")
        cache_dir = RunJournal.passes_dir(args.run_dir)
        if len(journal):
            telemetry.get_logger("cli").info(
                f"resuming from {args.run_dir}",
                completed_tasks=len(journal))
        # An observed run records spans and merged counters so the
        # manifest can attribute time and work to tasks/workers.
        telemetry.enable_spans()
        telemetry.enable_metrics()
    try:
        configure_pass_cache(cache_dir=cache_dir, enabled=not args.no_cache)
    except OSError as exc:
        flag = "--run-dir" if args.run_dir else "--cache-dir"
        raise _fail(EXIT_BAD_PATH,
                    f"cannot create {flag} cache directory {cache_dir}: "
                    f"{exc.strerror or exc}")
    _enable_telemetry(args)
    status = "failed"
    try:
        code = _run_command(args, settings, jobs, policy, journal, inputs)
        _write_telemetry_outputs(args)
        status = "ok"
        return code
    except KeyboardInterrupt:
        status = "interrupted"
        if args.run_dir:
            hint = f"; re-run with --run-dir {args.run_dir} to continue"
        else:
            hint = "; use --run-dir <dir> to make runs restartable"
        print(f"repro-mnm: interrupted{hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except TaskExecutionError as exc:
        print(f"repro-mnm: error: {exc}", file=sys.stderr)
        return EXIT_TASK_FAILED
    finally:
        if args.run_dir:
            # Written even for interrupted/failed runs: open spans show
            # exactly where the run stopped.
            _write_run_manifest(args, settings, status, journal, jobs)
        telemetry.reset()
        configure_pass_cache()


if __name__ == "__main__":
    sys.exit(main())
