"""The MNM simulator's benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``sweep``, ``fullsys``, ``contention`` and
``search`` (see ``perfbench/README.md`` for why each exists).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer breakdown and the tracing overhead.  Every
metric is printed by name with its unit and direction, the full record
goes to ``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``, and
the last line of standard output is the JSON summary::

    {"correct": true, "attempted": 250, "failed": 0, "metrics": {...}}

The exit status is 0 when every operation passed the correctness gate,
1 when any failed, and 2 when the program under test cannot be imported
from this checkout's ``src/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")

#: Loggers the program writes progress to; sent to stderr so the summary
#: stays the last line of standard output.
PROGRAM_LOGGERS = ("search", "executor", "passcache", "checkpoint")


def load_program():
    """Import the program from this checkout and the benchmark's runner.

    Raises ``ImportError`` when ``src/repro`` is missing or an installed
    copy elsewhere would be measured instead.
    """
    for path in (SOURCE, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    repro = importlib.import_module("repro")
    location = os.path.dirname(os.path.abspath(repro.__file__))
    if location != os.path.join(SOURCE, "repro"):
        raise ImportError(f"repro imported from {location}, not {SOURCE}")
    from repro import telemetry

    for name in PROGRAM_LOGGERS:
        telemetry.get_logger(name).stream = sys.stderr
    telemetry.get_logger("search").level = "warning"
    return importlib.import_module("perfbench.measure")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the MNM simulator on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "fullsys", "contention", "search"))
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed (default 1; 2718 is held out)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds, stopping at the round "
                             "boundary nearest this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer breakdown instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        measure = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    result = measure.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), "default", import_s, RESULTS_DIR)
    table = measure.PER_LAYER if args.trace else measure.END_TO_END
    metrics = {name: {"value": result.metrics[name], "unit": unit}
               for name, unit, _better in table}

    notes = result.notes
    print(f"perfbench workload={result.workload} seed={result.seed} "
          f"trace={args.trace} scale={result.scale} rounds={result.rounds} "
          f"operations={result.attempted}")
    for name, unit, better in table:
        line = f"  {name:36s} {result.metrics[name]:16.6f} {unit:6s} " \
               f"{better} is better"
        if name == "op_s.tail":
            line += (f"  (p{notes['tail_percentile']} of "
                     f"{notes['tail_samples']} samples, "
                     f"{notes['tail_beyond']} beyond)")
        print(line)
    print(f"  {'error_rate':36s} {result.error_rate:16.6f} {'ratio':6s} "
          f"lower is better  ({result.failed} failed of "
          f"{result.attempted} attempted)")
    for name, value in notes.get("host", {}).items():
        print(f"  {name:36s} {value:16.6f} in host time, not normalised")

    record = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": args.trace,
        "scale": result.scale,
        "seconds": args.seconds,
        "rounds": result.rounds,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": result.error_rate,
        "failures": sorted({f"{execution.trace_set}/{execution.name}: "
                            f"{execution.failure}"
                            for execution in result.executions
                            if execution.failure}),
        "metrics": {name: {"value": result.metrics[name], "unit": unit,
                           "better": better}
                    for name, unit, better in table},
        "notes": notes,
    }
    path = os.path.join(RESULTS_DIR, f"{result.workload}-seed{result.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
