"""Command-line trace tooling: ``repro-trace``.

Examples::

    repro-trace profiles                       # list the ten workloads
    repro-trace gen mcf 100000 --out mcf.npz   # generate and save
    repro-trace info mcf.npz                   # summarise a saved trace
    repro-trace info gcc --instructions 20000  # summarise a fresh trace
    repro-trace dump mcf.npz --count 20        # print leading instructions
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.report import TextTable
from repro.cpu.isa import MEMORY_OP_CODES, OP_CODES, OpClass
from repro.workloads.generator import generate_trace
from repro.workloads.spec import all_profiles, workload_names
from repro.workloads.trace import Trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Synthetic SPEC2000-flavoured trace tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profiles", help="list workload profiles")

    gen = sub.add_parser("gen", help="generate a trace")
    gen.add_argument("workload", choices=list(workload_names()))
    gen.add_argument("instructions", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default="",
                     help="save to this .npz path")

    info = sub.add_parser("info", help="summarise a trace")
    info.add_argument("source", help=".npz path or workload name")
    info.add_argument("--instructions", type=int, default=50_000,
                      help="length when generating from a workload name")
    info.add_argument("--seed", type=int, default=0)

    dump = sub.add_parser("dump", help="print leading instructions")
    dump.add_argument("source", help=".npz path or workload name")
    dump.add_argument("--count", type=int, default=20)
    dump.add_argument("--instructions", type=int, default=5_000)
    dump.add_argument("--seed", type=int, default=0)
    return parser


def _load_source(source: str, instructions: int, seed: int) -> Trace:
    if os.path.exists(source):
        return Trace.load(source)
    if source in workload_names():
        return generate_trace(source, instructions, seed)
    raise SystemExit(
        f"error: {source!r} is neither a file nor a workload name "
        f"(workloads: {', '.join(workload_names())})"
    )


def _cmd_profiles() -> None:
    table = TextTable(["name", "suite", "code", "data streams", "reuse",
                       "description"])
    for profile in all_profiles():
        footprint = " + ".join(
            f"{s.kind}:{s.size // 1024}KB" for s in profile.streams
        )
        table.add_row([
            profile.name, profile.suite,
            f"{profile.code_bytes // 1024}KB", footprint,
            f"{profile.data_reuse:.2f}", profile.description,
        ])
    print(table)


def _cmd_gen(args: argparse.Namespace) -> None:
    trace = generate_trace(args.workload, args.instructions, args.seed)
    print(f"generated {len(trace)} instructions for {args.workload} "
          f"(seed {args.seed})")
    if args.out:
        trace.save(args.out)
        print(f"saved to {args.out} "
              f"({os.path.getsize(args.out) // 1024} KB)")


def _cmd_info(args: argparse.Namespace) -> None:
    trace = _load_source(args.source, args.instructions, args.seed)
    counts = trace.op_counts()
    total = len(trace)
    print(f"trace:        {trace.name} (seed {trace.seed})")
    if trace.description:
        print(f"description:  {trace.description}")
    print(f"instructions: {total}")
    table = TextTable(["op class", "count", "share"])
    for op in OpClass:
        if counts[op]:
            table.add_row([op.value, counts[op],
                           f"{counts[op] / total * 100:.1f}%"])
    print(table)
    columns = trace.columns
    code_lines = np.unique(columns.pc >> 5).size
    is_memory = np.isin(columns.op, MEMORY_OP_CODES)
    data_blocks = np.unique(columns.addr[is_memory] >> 5).size
    print(f"code footprint: {code_lines} 32B lines "
          f"({code_lines * 32 // 1024} KB)")
    print(f"data footprint: {data_blocks} 32B blocks "
          f"({data_blocks * 32 // 1024} KB)")
    is_branch = columns.op == OP_CODES[OpClass.BRANCH.value]
    taken = int((columns.taken & is_branch).sum())
    branches = counts[OpClass.BRANCH]
    if branches:
        print(f"taken-branch share: {taken / branches * 100:.1f}%")


def _cmd_dump(args: argparse.Namespace) -> None:
    trace = _load_source(args.source, args.instructions, args.seed)
    table = TextTable(["#", "pc", "op", "dest", "srcs", "addr/target"])
    for index, inst in enumerate(trace.instructions[: args.count]):
        operand = ""
        if inst.op.is_memory:
            operand = f"{inst.addr:#x}"
        elif inst.op is OpClass.BRANCH:
            arrow = "T" if inst.taken else "N"
            operand = f"{inst.target:#x} [{arrow}]"
        table.add_row([
            index, f"{inst.pc:#x}", inst.op.value,
            inst.dest if inst.dest >= 0 else "-",
            ",".join(str(s) for s in (inst.src1, inst.src2) if s >= 0) or "-",
            operand or "-",
        ])
    print(table)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "profiles":
        _cmd_profiles()
    elif args.command == "gen":
        _cmd_gen(args)
    elif args.command == "info":
        _cmd_info(args)
    elif args.command == "dump":
        _cmd_dump(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
