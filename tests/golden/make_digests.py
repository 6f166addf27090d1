"""Golden SHA-256 digests of every simulated number, pinned across commits.

Five kinds of result are digested.  The first three are for mcf, twolf
and gcc at 3,000 instructions, trace seeds 1 and 2718:

* ``core/<seed>/<app>/<design>`` — :func:`repro.simulate.run_core_trace`
  on the 5-level hierarchy, 40% warm-up, for the no-MNM baseline and
  every ``figure15_designs()`` entry;
* ``pass/<seed>/<app>/<figure>`` — :func:`repro.simulate.run_reference_pass`
  on the same hierarchy and warm-up for the Figure 10-14 design sets;
* ``cpu/<seed>/<app>/<core>/<predictor>/<memory>/w<warmup>`` — the
  :class:`~repro.cpu.core.CoreResult` of :meth:`OutOfOrderCore.run` alone,
  against :class:`~repro.cpu.memory.FixedLatencyMemory`, over a grid of
  four cores, three branch predictors, two memories and warm-ups of 0 and
  40% (:func:`compute_cpu`; engine-independent: no hierarchy is
  simulated).

The fourth is the multicore contention pass, trace seeds 1 and 2718:

* ``mc/<seed>/<hierarchy>/<sharing>/<policy>`` —
  :func:`repro.simulate.run_multicore_pass` with four cores running gcc,
  twolf, gcc and twolf at 1,000 instructions each (core *i* on trace seed
  ``seed + i``), 40% warm-up, the ``MULTICORE_DESIGNS`` plus
  ``RMNM_512_2`` and ``CMNM_4_10``, for every MNM sharing and L2 policy,
  on the 3-level preset under the round-robin schedule and on the 5-level
  preset under the stochastic schedule with schedule seed 3
  (:func:`compute_multicore`).

The fifth is the traces themselves, trace seeds 1 and 2718:

* ``trace/<seed>/<app>`` — each of the ten applications' 30,000-instruction
  trace: the eight columns :meth:`~repro.workloads.trace.Trace.save`
  writes (values and dtypes), its ``memory_references(32)`` stream, and
  :func:`~repro.cpu.core.core_references` at 32 B with a 12,000-instruction
  warm-up (columns and boundary) (:func:`compute_traces`;
  engine-independent).

Each digest covers every field of the result (floats by ``repr``), so a
change that moves any simulated count, latency or energy float changes it.
``digests.json`` beside this script holds the committed values; the
tier-1 test ``tests/golden/test_golden.py`` recomputes the ``core``,
``pass`` and ``mc`` digests under each engine and the ``cpu`` and
``trace`` digests once.

Usage::

    PYTHONPATH=src python tests/golden/make_digests.py            # check
    PYTHONPATH=src python tests/golden/make_digests.py --write    # rewrite

Rewrite the file only in a change that declares its simulated numbers
move.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import io
import itertools
import json
import os
import sys
from typing import Dict, Optional

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

APPS = ("mcf", "twolf", "gcc")
SEEDS = (1, 2718)
INSTRUCTIONS = 3000
WARMUP_FRACTION = 0.4

#: The ``cpu/`` grid's memories: (instruction, data) latencies with loads
#: below the MSHR threshold (the instruction latency) and above it.
CPU_MEMORIES = {"fast-data": (3, 2), "slow-data": (3, 60)}
CPU_WARMUPS = (0, WARMUP_FRACTION)

#: The ``mc/`` grid: core *i* runs ``MC_APPS[i]``; each hierarchy preset
#: runs under its own (schedule, schedule seed).
MC_APPS = ("gcc", "twolf", "gcc", "twolf")
MC_INSTRUCTIONS = 1000
MC_HIERARCHIES = (("3level", "round_robin", 0), ("5level", "stochastic", 3))
MC_EXTRA_DESIGNS = ("RMNM_512_2", "CMNM_4_10")

#: The ``trace/`` grid: every application at this length, whose two
#: derived streams use this fetch block and warm-up.
TRACE_INSTRUCTIONS = 30_000
TRACE_FETCH_BLOCK = 32
TRACE_WARMUP = 12_000
#: The columns :meth:`~repro.workloads.trace.Trace.save` writes.
TRACE_COLUMNS = ("op", "pc", "dest", "src1", "src2", "addr", "taken",
                 "target")


def canonical(value):
    """A JSON-ready form of a result in which every number is exact."""
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return [[canonical(key), canonical(item)]
                for key, item in sorted(value.items(),
                                        key=lambda pair: repr(pair[0]))]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "__dict__"):
        return {key: canonical(item)
                for key, item in sorted(vars(value).items())}
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of :func:`canonical`: equal digests, equal results."""
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute(engine: Optional[str] = None) -> Dict[str, str]:
    """The ``core/`` and ``pass/`` digests, under ``engine`` (None: the
    library default)."""
    from repro.cache.presets import paper_hierarchy_5level
    from repro.core.presets import (
        figure10_designs,
        figure11_designs,
        figure12_designs,
        figure13_designs,
        figure14_designs,
        figure15_designs,
    )
    from repro.simulate import run_core_trace, run_reference_pass
    from repro.workloads import get_trace

    options = {} if engine is None else {"engine": engine}
    hierarchy = paper_hierarchy_5level()
    fetch_block = hierarchy.tiers[0].configs[0].block_size
    figures = (("fig10", figure10_designs()), ("fig11", figure11_designs()),
               ("fig12", figure12_designs()), ("fig13", figure13_designs()),
               ("fig14", figure14_designs()))
    designs = (None,) + figure15_designs()
    digests: Dict[str, str] = {}
    for seed in SEEDS:
        for app in APPS:
            trace = get_trace(app, INSTRUCTIONS, seed)
            warmup = int(INSTRUCTIONS * WARMUP_FRACTION)
            for design in designs:
                name = design.name if design is not None else "NONE"
                run = run_core_trace(trace, hierarchy, design, warmup=warmup,
                                     **options)
                digests[f"core/{seed}/{app}/{name}"] = digest(run)
            references = list(trace.memory_references(fetch_block))
            ref_warmup = int(len(references) * WARMUP_FRACTION)
            for figure, figure_designs in figures:
                result = run_reference_pass(
                    references, hierarchy, figure_designs,
                    workload_name=app, warmup=ref_warmup, **options)
                digests[f"pass/{seed}/{app}/{figure}"] = digest(result)
    return digests


def compute_multicore(engine: Optional[str] = None) -> Dict[str, str]:
    """The ``mc/`` digests, under ``engine`` (None: the library default)."""
    from repro.cache.presets import hierarchy_preset
    from repro.core.presets import parse_design
    from repro.experiments.planning import MULTICORE_DESIGNS
    from repro.multicore.config import L2_POLICIES, SHARINGS, MulticoreConfig
    from repro.simulate import run_multicore_pass
    from repro.workloads import get_trace

    options = {} if engine is None else {"engine": engine}
    designs = tuple(parse_design(name)
                    for name in MULTICORE_DESIGNS + MC_EXTRA_DESIGNS)
    digests: Dict[str, str] = {}
    for seed, (preset, schedule, schedule_seed) in itertools.product(
            SEEDS, MC_HIERARCHIES):
        hierarchy = hierarchy_preset(preset)
        fetch_block = hierarchy.tiers[0].configs[0].block_size
        streams = [list(get_trace(app, MC_INSTRUCTIONS, seed + core)
                        .memory_references(fetch_block))
                   for core, app in enumerate(MC_APPS)]
        warmup = int(sum(map(len, streams)) * WARMUP_FRACTION)
        for sharing, policy in itertools.product(SHARINGS, L2_POLICIES):
            mc = MulticoreConfig(cores=len(MC_APPS), mnm_sharing=sharing,
                                 l2_policy=policy, schedule=schedule,
                                 schedule_seed=schedule_seed)
            result = run_multicore_pass(streams, hierarchy, designs, mc,
                                        workload_names=MC_APPS,
                                        warmup=warmup, **options)
            digests[f"mc/{seed}/{preset}/{sharing}/{policy}"] = digest(result)
    return digests


def compute_cpu() -> Dict[str, str]:
    """Every ``cpu/`` digest: the core alone over the grid.

    Cores: both paper cores, the 8-way one with MSHRs unlimited and with
    only two, and one unit per class (every issue contends).
    """
    from repro.cpu.branch import (
        GSharePredictor,
        PerfectPredictor,
        StaticTakenPredictor,
    )
    from repro.cpu.core import OutOfOrderCore, paper_core
    from repro.cpu.isa import OpClass
    from repro.cpu.memory import FixedLatencyMemory
    from repro.workloads import get_trace

    eight = paper_core(8)
    cores = {
        "paper-4way": paper_core(4),
        "paper-8way-mshr0": dataclasses.replace(eight, mshr_count=0),
        "paper-8way-mshr2": dataclasses.replace(eight, mshr_count=2),
        "one-unit": dataclasses.replace(eight,
                                        units={op: 1 for op in OpClass}),
    }
    predictors = {"gshare": GSharePredictor,
                  "static-taken": StaticTakenPredictor,
                  "perfect": PerfectPredictor}
    digests: Dict[str, str] = {}
    for seed, app in itertools.product(SEEDS, APPS):
        trace = get_trace(app, INSTRUCTIONS, seed)
        for core_name, predictor, memory_name, fraction in itertools.product(
                cores, predictors, CPU_MEMORIES, CPU_WARMUPS):
            warmup = int(INSTRUCTIONS * fraction)
            core = OutOfOrderCore(cores[core_name],
                                  FixedLatencyMemory(*CPU_MEMORIES[memory_name]),
                                  predictors[predictor]())
            key = (f"cpu/{seed}/{app}/{core_name}/{predictor}/{memory_name}/"
                   f"w{warmup}")
            digests[key] = digest(core.run(trace, warmup=warmup))
    return digests


def compute_traces() -> Dict[str, str]:
    """Every ``trace/`` digest: the saved columns and both derived streams."""
    import numpy as np

    from repro.cpu.core import core_references
    from repro.workloads import generate_trace, workload_names

    def add(hasher, label, array):
        array = np.ascontiguousarray(array)
        hasher.update(f"{label}:{array.dtype.str}:{array.shape};".encode())
        hasher.update(array.tobytes())

    digests: Dict[str, str] = {}
    for seed, app in itertools.product(SEEDS, workload_names()):
        trace = generate_trace(app, TRACE_INSTRUCTIONS, seed)
        hasher = hashlib.sha256()
        saved = io.BytesIO()
        trace.save(saved)
        saved.seek(0)
        with np.load(saved, allow_pickle=False) as data:
            for name in TRACE_COLUMNS:
                add(hasher, name, data[name])
        stream = list(trace.memory_references(TRACE_FETCH_BLOCK))
        add(hasher, "stream.addresses",
            np.array([address for address, _ in stream], np.int64))
        add(hasher, "stream.kinds",
            np.array([kind.value for _, kind in stream], "U11"))
        derived = core_references(trace, TRACE_FETCH_BLOCK, TRACE_WARMUP)
        add(hasher, "core.addresses", derived.addresses)
        add(hasher, "core.kinds", derived.kinds)
        hasher.update(f"core.boundary:{derived.boundary}".encode())
        digests[f"trace/{seed}/{app}"] = hasher.hexdigest()
    return digests


def load(prefix: str = "") -> Dict[str, str]:
    """The committed golden digests whose key starts with ``prefix``."""
    with open(DIGESTS_PATH) as handle:
        return {key: value for key, value in json.load(handle).items()
                if key.startswith(prefix)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=("interp", "fast"), default=None,
                        help="simulation engine (default: the library's)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite digests.json instead of checking it")
    args = parser.parse_args(argv)
    digests = {**compute(args.engine), **compute_multicore(args.engine),
               **compute_cpu(), **compute_traces()}
    if args.write:
        with open(DIGESTS_PATH, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
        return 0
    golden = load()
    differing = sorted(key for key in golden.keys() | digests.keys()
                       if golden.get(key) != digests.get(key))
    for key in differing:
        print(f"differs: {key}")
    print(f"{len(golden) - len(differing)}/{len(golden)} digests match")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
