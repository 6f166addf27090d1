"""Golden SHA-256 digests of every simulated number, pinned across commits.

Two kinds of result are digested, on the 5-level hierarchy for mcf, twolf
and gcc at 3,000 instructions, trace seeds 1 and 2718, 40% warm-up:

* ``core/<seed>/<app>/<design>`` — :func:`repro.simulate.run_core_trace`
  for the no-MNM baseline and every ``figure15_designs()`` entry;
* ``pass/<seed>/<app>/<figure>`` — :func:`repro.simulate.run_reference_pass`
  for the Figure 10-14 design sets.

Each digest covers every field of the result (floats by ``repr``), so a
change that moves any simulated count, latency or energy float changes it.
``digests.json`` beside this script holds the committed values; the
tier-1 test ``tests/golden/test_golden.py`` recomputes them under each
engine.

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
    """Every golden digest, under ``engine`` (None: the library default)."""
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


def load() -> Dict[str, str]:
    """The committed golden digests."""
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=("interp", "fast"), default=None,
                        help="simulation engine (default: the library's)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite digests.json instead of checking it")
    args = parser.parse_args(argv)
    digests = compute(args.engine)
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
