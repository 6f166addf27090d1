"""Fixture-snippet tests: each rule shown firing, staying quiet, and
being suppressed, per the positive/negative/suppression contract."""

from __future__ import annotations

import textwrap

from repro.staticcheck import check_source
from repro.staticcheck.rules import rules_for
from repro.staticcheck.rules.picklability import PicklabilityRule


def _check(source, module="repro.core.fixture", rule=None, **kwargs):
    rules = rules_for([rule]) if rule else None
    return check_source(
        textwrap.dedent(source), module=module, rules=rules, **kwargs)


def _ids(findings):
    return [f.rule_id for f in findings]


class TestR001Determinism:
    def test_module_level_random_flagged(self):
        findings = _check(
            """\
            import random
            x = random.random()
            """,
            rule="R001",
        )
        assert _ids(findings) == ["R001"]
        assert "hidden global" in findings[0].message

    def test_unseeded_random_factory_flagged_seeded_ok(self):
        bad = _check("import random\nrng = random.Random()\n", rule="R001")
        assert _ids(bad) == ["R001"]
        good = _check("import random\nrng = random.Random(1234)\n",
                      rule="R001")
        assert good == []

    def test_from_import_alias_tracked(self):
        findings = _check(
            """\
            from random import choice as pick
            winner = pick([1, 2, 3])
            """,
            rule="R001",
        )
        assert _ids(findings) == ["R001"]

    def test_wall_clock_flagged_perf_counter_ok(self):
        bad = _check("import time\nstamp = time.time()\n", rule="R001")
        assert _ids(bad) == ["R001"]
        good = _check("import time\nt0 = time.perf_counter()\n",
                      rule="R001")
        assert good == []

    def test_datetime_now_flagged(self):
        findings = _check(
            """\
            from datetime import datetime
            when = datetime.now()
            """,
            rule="R001",
        )
        assert _ids(findings) == ["R001"]

    def test_environ_reads_flagged(self):
        findings = _check(
            """\
            import os
            a = os.getenv("REPRO_X")
            b = os.environ["REPRO_Y"]
            """,
            rule="R001",
        )
        assert _ids(findings) == ["R001", "R001"]

    def test_testing_component_exempt(self):
        findings = _check(
            "import os\nfaults = os.environ.get('REPRO_FAULTS')\n",
            module="repro.testing.faults",
            rule="R001",
        )
        assert findings == []

    def test_entry_point_exempt(self):
        findings = _check(
            "import os\nseed = os.getenv('SEED')\n",
            module="repro.workloads.cli",
            path="src/repro/workloads/cli.py",
            rule="R001",
        )
        assert findings == []

    def test_suppression(self):
        findings = _check(
            "import time\n"
            "stamp = time.time()  # repro: allow[R001] report banner only\n",
            rule="R001",
        )
        assert findings == []


class TestR002Layering:
    def test_upward_import_flagged(self):
        findings = _check(
            "from repro.analysis import mrc\n",
            module="repro.workloads.generators",
            rule="R002",
        )
        assert _ids(findings) == ["R002"]
        assert "upward edge" in findings[0].message

    def test_downward_and_same_rank_ok(self):
        down = _check("from repro.cache import hierarchy\n",
                      module="repro.analysis.mrc", rule="R002")
        assert down == []
        lateral = _check("from repro.search import space\n",
                         module="repro.experiments.executor", rule="R002")
        assert lateral == []

    def test_experiments_ring_edges(self):
        # Downward ring edge: the executor may import a backend.
        down = _check(
            "from repro.experiments.backends import pool\n",
            module="repro.experiments.executor", rule="R002")
        assert down == []
        # Upward ring edge: a backend must not import the executor.
        up = _check(
            "from repro.experiments import executor\n",
            module="repro.experiments.backends.pool", rule="R002")
        assert _ids(up) == ["R002"]
        assert "ring" in up[0].message
        # The registry ring sits on top and may import everything.
        top = _check(
            "from repro.experiments.executor import prefetch_experiments\n",
            module="repro.experiments.report", rule="R002")
        assert top == []

    def test_experiments_unassigned_submodule_flagged(self):
        findings = _check(
            "x = 1\n", module="repro.experiments.frobnicator", rule="R002")
        assert _ids(findings) == ["R002"]
        assert "ring assignment" in findings[0].message

    def test_experiments_facade_symbols_exempt(self):
        # Plain symbols through the facade cannot be classified; only
        # names that are themselves ringed submodules are checked.
        ok = _check(
            "from repro.experiments import default_jobs\n",
            module="repro.experiments.backends.pool", rule="R002")
        assert ok == []

    def test_multicore_layer_edges(self):
        # multicore sits in the measurement layer: it may reach down into
        # cache/core, simulate may reach across, search may reach down...
        down = _check("from repro.cache import hierarchy\n",
                      module="repro.multicore.hierarchy", rule="R002")
        assert down == []
        lateral = _check("from repro.multicore import MulticoreHierarchy\n",
                         module="repro.simulate", rule="R002")
        assert lateral == []
        above = _check("from repro.multicore.config import MulticoreConfig\n",
                       module="repro.search.space", rule="R002")
        assert above == []
        # ...but mechanism must not depend on the contention layer.
        up = _check("from repro.multicore import interleave\n",
                    module="repro.workloads.generators", rule="R002")
        assert _ids(up) == ["R002"]
        assert "upward edge" in up[0].message

    def test_telemetry_imports_nothing_above(self):
        findings = _check(
            "from repro.core import base\n",
            module="repro.telemetry.metrics",
            rule="R002",
        )
        assert _ids(findings) == ["R002"]

    def test_from_repro_import_component(self):
        findings = _check(
            "from repro import experiments\n",
            module="repro.workloads.generators",
            rule="R002",
        )
        assert _ids(findings) == ["R002"]

    def test_relative_import_resolved(self):
        findings = _check(
            "from ..analysis import mrc\n",
            module="repro.workloads.generators",
            path="src/repro/workloads/generators.py",
            rule="R002",
        )
        assert _ids(findings) == ["R002"]

    def test_relative_import_in_package_init(self):
        # ``from .base import x`` inside repro/core/__init__.py resolves
        # against repro.core itself, not its parent.
        findings = _check(
            "from .base import MissFilter\n",
            module="repro.core",
            path="src/repro/core/__init__.py",
            rule="R002",
        )
        assert findings == []

    def test_type_checking_imports_ignored(self):
        findings = _check(
            """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.experiments import base
            """,
            module="repro.analysis.mrc",
            rule="R002",
        )
        assert findings == []

    def test_unclassified_component_flagged(self):
        findings = _check(
            "import repro.mystery\n",
            module="repro.core.fixture",
            rule="R002",
        )
        assert _ids(findings) == ["R002"]
        assert "unclassified" in findings[0].message

    def test_entry_point_exempt(self):
        findings = _check(
            "from repro.experiments import runner\n",
            module="repro.workloads.cli",
            path="src/repro/workloads/cli.py",
            rule="R002",
        )
        assert findings == []

    def test_suppression(self):
        findings = _check(
            "# repro: allow[R002] transitional, tracked in ROADMAP\n"
            "from repro.analysis import mrc\n",
            module="repro.workloads.generators",
            rule="R002",
        )
        assert findings == []


class TestR003Picklability:
    def test_callable_annotation_flagged(self):
        findings = _check(
            """\
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class Spec:
                name: str
                score: Callable[[int], float]
            """,
            module="repro.search.space",
            rule="R003",
        )
        assert _ids(findings) == ["R003"]
        assert "Callable" in findings[0].message

    def test_quoted_annotation_flagged(self):
        findings = _check(
            """\
            from dataclasses import dataclass

            @dataclass
            class Spec:
                score: "Callable[[int], float]"
            """,
            module="repro.experiments.planning",
            rule="R003",
        )
        assert _ids(findings) == ["R003"]

    def test_lambda_default_flagged(self):
        findings = _check(
            """\
            from dataclasses import dataclass

            @dataclass
            class Spec:
                scale: int = 1
                fn = lambda x: x
            """,
            module="repro.search.space",
            rule="R003",
        )
        assert _ids(findings) == ["R003"]

    def test_self_lambda_and_nested_function_flagged(self):
        findings = _check(
            """\
            from dataclasses import dataclass

            @dataclass
            class Spec:
                name: str

                def bind(self):
                    def helper(x):
                        return x
                    self.hook = lambda v: v
                    self.helper = helper
            """,
            module="repro.search.space",
            rule="R003",
        )
        assert _ids(findings) == ["R003", "R003"]

    def test_plain_data_ok(self):
        findings = _check(
            """\
            from dataclasses import dataclass
            from typing import Optional, Tuple

            @dataclass(frozen=True)
            class Spec:
                name: str
                sizes: Tuple[int, ...]
                seed: Optional[int] = None
            """,
            module="repro.search.space",
            rule="R003",
        )
        assert findings == []

    def test_non_boundary_module_ignored(self):
        findings = _check(
            """\
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class Design:
                build: Callable[[], object]
            """,
            module="repro.core.machine",
            rule="R003",
        )
        assert findings == []

    def test_boundary_set_is_overridable(self):
        rule = PicklabilityRule(
            boundary_modules=frozenset({"repro.core.machine"}))
        findings = check_source(
            textwrap.dedent(
                """\
                from dataclasses import dataclass
                from typing import Callable

                @dataclass
                class Design:
                    build: Callable[[], object]
                """
            ),
            module="repro.core.machine",
            rules=[rule],
        )
        assert _ids(findings) == ["R003"]

    def test_suppression(self):
        findings = _check(
            """\
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class Spec:
                # repro: allow[R003] resolved to a dotted path before submit
                score: Callable[[int], float]
            """,
            module="repro.search.space",
            rule="R003",
        )
        assert findings == []


class TestR004ExceptionHygiene:
    def test_bare_except_flagged_and_unsuppressible(self):
        findings = _check(
            """\
            try:
                work()
            except:  # repro: allow[R004] trying to silence anyway
                pass
            """,
            rule="R004",
        )
        assert _ids(findings) == ["R004"]
        assert "not suppressible" in findings[0].message

    def test_broad_except_needs_rationale(self):
        naked = _check(
            """\
            try:
                work()
            except Exception:
                pass
            """,
            rule="R004",
        )
        assert _ids(naked) == ["R004"]
        no_rationale = _check(
            """\
            try:
                work()
            except Exception:  # repro: allow[R004]
                pass
            """,
            rule="R004",
        )
        assert _ids(no_rationale) == ["R004"]
        assert "rationale" in no_rationale[0].message
        with_rationale = _check(
            """\
            try:
                work()
            except Exception:  # repro: allow[R004] triaged by is_retryable
                pass
            """,
            rule="R004",
        )
        assert with_rationale == []

    def test_broad_except_in_tuple_flagged(self):
        findings = _check(
            """\
            try:
                work()
            except (ValueError, Exception):
                pass
            """,
            rule="R004",
        )
        assert _ids(findings) == ["R004"]

    def test_reraise_is_clean(self):
        findings = _check(
            """\
            try:
                work()
            except Exception:
                cleanup()
                raise
            """,
            rule="R004",
        )
        assert findings == []

    def test_precise_except_ok(self):
        findings = _check(
            """\
            try:
                work()
            except (ValueError, KeyError):
                recover()
            """,
            rule="R004",
        )
        assert findings == []

    def test_raise_generic_exception_flagged(self):
        findings = _check("raise Exception('boom')\n", rule="R004")
        assert _ids(findings) == ["R004"]

    def test_runtime_error_in_experiments_flagged(self):
        inside = _check(
            "raise RuntimeError('task failed')\n",
            module="repro.experiments.runner",
            rule="R004",
        )
        assert _ids(inside) == ["R004"]
        assert "taxonomy" in inside[0].message
        outside = _check(
            "raise RuntimeError('validation bypassed')\n",
            module="repro.cache.hierarchy",
            rule="R004",
        )
        assert outside == []

    def test_taxonomy_raise_in_experiments_ok(self):
        findings = _check(
            """\
            from repro.experiments.resilience import TaskExecutionError

            def fail():
                raise TaskExecutionError('task', 'final failure')
            """,
            module="repro.experiments.runner",
            rule="R004",
        )
        assert findings == []


class TestR005Asserts:
    def test_assert_flagged(self):
        findings = _check("assert cache is not None\n", rule="R005")
        assert _ids(findings) == ["R005"]
        assert "python -O" in findings[0].message

    def test_testing_component_exempt(self):
        findings = _check(
            "assert cache is not None\n",
            module="repro.testing.helpers",
            rule="R005",
        )
        assert findings == []

    def test_explicit_raise_ok(self):
        findings = _check(
            """\
            if cache is None:
                raise ValueError("cache is required")
            """,
            rule="R005",
        )
        assert findings == []

    def test_suppression(self):
        findings = _check(
            "assert isinstance(x, int)  # repro: allow[R005] type narrowing\n",
            rule="R005",
        )
        assert findings == []


class TestR006MNMSoundness:
    def test_query_override_without_super_flagged(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class FastMNM(MostlyNoMachine):
                def query(self, level, addr):
                    return True  # optimistic miss bit, never proved
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "audited" in findings[0].message

    def test_query_override_via_super_ok(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class CountingMNM(MostlyNoMachine):
                def query(self, level, addr):
                    self.calls += 1
                    return super().query(level, addr)
            """,
            rule="R006",
        )
        assert findings == []

    def test_query_override_via_base_call_ok(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class TracingMNM(MostlyNoMachine):
                def query(self, level, addr):
                    return MostlyNoMachine.query(self, level, addr)
            """,
            rule="R006",
        )
        assert findings == []

    def test_inherited_query_ok(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class NamedMNM(MostlyNoMachine):
                label = "named"
            """,
            rule="R006",
        )
        assert findings == []

    def test_incomplete_filter_flagged(self):
        findings = _check(
            """\
            from repro.core.base import MissFilter

            class HalfFilter(MissFilter):
                def is_definite_miss(self, addr):
                    return False

                def on_place(self, addr):
                    pass
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "on_replace" in findings[0].message
        assert "storage_bits" in findings[0].message

    def test_complete_filter_ok(self):
        findings = _check(
            """\
            from repro.core.base import MissFilter

            class FullFilter(MissFilter):
                def is_definite_miss(self, addr):
                    return False

                def on_place(self, addr):
                    pass

                def on_replace(self, addr):
                    pass

                @property
                def storage_bits(self):
                    return 0
            """,
            rule="R006",
        )
        assert findings == []

    def test_abstract_intermediate_filter_ok(self):
        findings = _check(
            """\
            from abc import abstractmethod
            from repro.core.base import MissFilter

            class IndexedFilter(MissFilter):
                @abstractmethod
                def index_of(self, addr):
                    ...
            """,
            rule="R006",
        )
        assert findings == []

    def test_duck_typed_filter_flagged(self):
        findings = _check(
            """\
            class SneakyFilter:
                def is_definite_miss(self, addr):
                    return True

                def on_place(self, addr):
                    pass
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "duck" in findings[0].message

    def test_partial_duck_shape_ok(self):
        findings = _check(
            """\
            class JustAStatsBag:
                def is_definite_miss(self, addr):
                    return False
            """,
            rule="R006",
        )
        assert findings == []

    def test_suppression(self):
        findings = _check(
            """\
            # repro: allow[R006] internal building block, audited elsewhere
            class Helper:
                def is_definite_miss(self, addr):
                    return True

                def on_place(self, addr):
                    pass
            """,
            rule="R006",
        )
        assert findings == []

    # -------------------------- batched queries (query_many) on the surface

    def test_machine_query_many_override_without_super_flagged(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class BatchedMNM(MostlyNoMachine):
                def query_many(self, addresses, kinds):
                    return [[True] * 3 for _ in addresses]
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "query_many" in findings[0].message

    def test_machine_query_many_override_via_super_ok(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class CountingMNM(MostlyNoMachine):
                def query_many(self, addresses, kinds):
                    self.batches += 1
                    return super().query_many(addresses, kinds)
            """,
            rule="R006",
        )
        assert findings == []

    def test_filter_subclass_query_many_without_scalar_flagged(self):
        """Re-vectorizing only the batch of a concrete filter can drift
        from the inherited scalar semantics without any test noticing."""
        findings = _check(
            """\
            from repro.core.tmnm import TMNM

            class TunedTMNM(TMNM):
                def query_many(self, granule_addrs):
                    return [False] * len(granule_addrs)
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "scalar" in findings[0].message

    def test_filter_subclass_query_many_with_scalar_ok(self):
        findings = _check(
            """\
            from repro.core.tmnm import TMNM

            class PairedTMNM(TMNM):
                def is_definite_miss(self, granule_addr):
                    return super().is_definite_miss(granule_addr)

                def query_many(self, granule_addrs):
                    miss = self.is_definite_miss
                    return [miss(granule) for granule in granule_addrs]
            """,
            rule="R006",
        )
        assert findings == []

    def test_filter_subclass_replay_without_scalar_hooks_flagged(self):
        """A batched replay stands in for the scalar hooks; with the hooks
        in another class it can drift from them unnoticed."""
        findings = _check(
            """\
            from repro.core.tmnm import TMNM

            class TunedTMNM(TMNM):
                def is_definite_miss(self, granule_addr):
                    return super().is_definite_miss(granule_addr)

                def replay(self, bounds, actions, granules, queries):
                    return [False] * len(queries)
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "replay" in findings[0].message
        assert "on_place, on_replace" in findings[0].message

    def test_filter_subclass_replay_with_scalar_hooks_ok(self):
        findings = _check(
            """\
            from repro.core.base import MissFilter
            from repro.core.tmnm import TMNM

            class PairedTMNM(TMNM):
                def is_definite_miss(self, granule_addr):
                    return super().is_definite_miss(granule_addr)

                def on_place(self, granule_addr):
                    super().on_place(granule_addr)

                def on_replace(self, granule_addr):
                    super().on_replace(granule_addr)

                def replay(self, bounds, actions, granules, queries):
                    return MissFilter.replay(self, bounds, actions,
                                             granules, queries)
            """,
            rule="R006",
        )
        assert findings == []

    def test_duck_filter_via_query_many_flagged(self):
        """The batched entry point alone is enough to quack like a
        filter — wiring it in would dodge the ABC-keyed soundness tests."""
        findings = _check(
            """\
            class BatchOnlyFilter:
                def query_many(self, granule_addrs):
                    return [True] * len(granule_addrs)

                def on_place(self, addr):
                    pass
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "duck" in findings[0].message

    def test_query_many_pairing_suppressible(self):
        findings = _check(
            """\
            # repro: allow[R006] building block, audited through its owner
            class BatchHelper:
                def query_many(self, granule_addrs):
                    return [False] * len(granule_addrs)
            """,
            rule="R006",
        )
        assert findings == []

    # ----------------- cross-core invalidation downgrade (on_invalidate)

    def test_machine_on_invalidate_without_super_flagged(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class QuietMNM(MostlyNoMachine):
                def on_invalidate(self, granule_addr):
                    pass  # swallows the downgrade: contention -> false miss
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "on_invalidate" in findings[0].message
        assert "false miss" in findings[0].message

    def test_machine_on_invalidate_via_super_ok(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class CountingMNM(MostlyNoMachine):
                def on_invalidate(self, granule_addr):
                    self.invalidations += 1
                    super().on_invalidate(granule_addr)
            """,
            rule="R006",
        )
        assert findings == []

    def test_filter_on_invalidate_without_super_flagged(self):
        findings = _check(
            """\
            from repro.core.base import MissFilter

            class LazyFilter(MissFilter):
                def is_definite_miss(self, addr):
                    return False

                def on_place(self, addr):
                    pass

                def on_replace(self, addr):
                    pass

                @property
                def storage_bits(self):
                    return 0

                def on_invalidate(self, granule_addr):
                    return None  # drops the conservative downgrade
            """,
            rule="R006",
        )
        assert _ids(findings) == ["R006"]
        assert "on_invalidate" in findings[0].message

    def test_filter_on_invalidate_via_base_call_ok(self):
        findings = _check(
            """\
            from repro.core.base import MissFilter

            class TracingFilter(MissFilter):
                def is_definite_miss(self, addr):
                    return False

                def on_place(self, addr):
                    pass

                def on_replace(self, addr):
                    pass

                @property
                def storage_bits(self):
                    return 0

                def on_invalidate(self, granule_addr):
                    self.seen.append(granule_addr)
                    MissFilter.on_invalidate(self, granule_addr)
            """,
            rule="R006",
        )
        assert findings == []

    def test_inherited_on_invalidate_ok(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class PlainMNM(MostlyNoMachine):
                label = "plain"
            """,
            rule="R006",
        )
        assert findings == []

    def test_on_invalidate_suppressible(self):
        findings = _check(
            """\
            from repro.core.machine import MostlyNoMachine

            class ShadowMNM(MostlyNoMachine):
                # repro: allow[R006] downgrade handled by a paired shadow bank
                def on_invalidate(self, granule_addr):
                    self.shadow.on_invalidate(granule_addr)
            """,
            rule="R006",
        )
        assert findings == []
