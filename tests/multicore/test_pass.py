"""Tests for run_multicore_pass and its executor/cache threading."""

import random

import pytest

from repro.core.base import MissFilter
from repro.core.machine import MNMDesign
from repro.core.presets import (
    hmnm_design,
    perfect_design,
    tmnm_design,
    tmnm_factory,
)
from repro.multicore.config import SHARINGS, MulticoreConfig
from repro.simulate import run_multicore_pass
from tests.conftest import random_references, small_hierarchy_config

CONFIG = small_hierarchy_config(3)
DESIGNS = (tmnm_design(10, 1), hmnm_design(2), perfect_design())


def streams(cores, count=1200, seed=0):
    rng = random.Random(seed)
    return [random_references(rng, count, span=1 << 14)
            for _ in range(cores)]


def result_signature(result):
    """Everything observable, as a comparable value."""
    return (
        result.references,
        result.back_invalidations,
        result.coherence_invalidations,
        result.cache_stats,
        {
            name: (dr.coverage.accesses, dr.coverage.identified,
                   dr.coverage.candidates, dr.coverage.violations,
                   dr.storage_bits, dr.cross_core_invalidations)
            for name, dr in result.designs.items()
        },
    )


class TestDeterminism:
    def test_identical_inputs_identical_results(self):
        mc = MulticoreConfig(cores=2, schedule="stochastic", schedule_seed=5)
        a = run_multicore_pass(streams(2), CONFIG, DESIGNS, mc, warmup=200)
        b = run_multicore_pass(streams(2), CONFIG, DESIGNS, mc, warmup=200)
        assert result_signature(a) == result_signature(b)

    def test_fast_engine_matches_interp(self):
        """The record/replay kernel equals its interpreter oracle."""
        for sharing in SHARINGS:
            mc = MulticoreConfig(cores=2, mnm_sharing=sharing)
            interp = run_multicore_pass(streams(2), CONFIG, DESIGNS, mc,
                                        warmup=200, engine="interp")
            fast = run_multicore_pass(streams(2), CONFIG, DESIGNS, mc,
                                      warmup=200, engine="fast")
            assert result_signature(interp) == result_signature(fast)

    def test_schedule_seed_changes_the_interleaving(self):
        base = MulticoreConfig(cores=2, schedule="stochastic",
                               schedule_seed=1)
        other = MulticoreConfig(cores=2, schedule="stochastic",
                                schedule_seed=2)
        a = run_multicore_pass(streams(2), CONFIG, DESIGNS, base)
        b = run_multicore_pass(streams(2), CONFIG, DESIGNS, other)
        assert result_signature(a) != result_signature(b)


class TaintingFilter(MissFilter):
    """An exact resident-set filter whose ``on_invalidate`` also taints
    the granule: a tainted granule is never proved missing again."""

    technique = "taint"

    def __init__(self) -> None:
        self._resident = set()
        self._tainted = set()

    def is_definite_miss(self, granule_addr: int) -> bool:
        return (granule_addr not in self._resident
                and granule_addr not in self._tainted)

    def on_place(self, granule_addr: int) -> None:
        self._resident.add(granule_addr)

    def on_replace(self, granule_addr: int) -> None:
        self._resident.discard(granule_addr)

    def on_invalidate(self, granule_addr: int) -> None:
        super().on_invalidate(granule_addr)
        self._tainted.add(granule_addr)

    @property
    def storage_bits(self) -> int:
        return 0

    @property
    def name(self) -> str:
        return "TAINT"


class TestInvalidateOverride:
    @pytest.mark.parametrize("sharing", SHARINGS)
    def test_engines_dispatch_foreign_events_alike(self, sharing):
        """Another core's event reaches a lone filter's own
        ``on_invalidate``, but a composite's components only through the
        composite's inherited downgrade (their ``on_place``); the kernel
        must dispatch it as the interpreter does."""
        designs = (
            MNMDesign(name="lone",
                      default_factories=(lambda _context: TaintingFilter(),)),
            MNMDesign(name="composite",
                      default_factories=(lambda _context: TaintingFilter(),
                                         tmnm_factory(6, 1))),
        )
        mc = MulticoreConfig(cores=3, mnm_sharing=sharing)
        interp = run_multicore_pass(streams(3, count=600), CONFIG, designs,
                                    mc, warmup=300, engine="interp")
        fast = run_multicore_pass(streams(3, count=600), CONFIG, designs,
                                  mc, warmup=300, engine="fast")
        assert result_signature(fast) == result_signature(interp)
        for result in (interp, fast):
            assert all(dr.coverage.violations == 0
                       for dr in result.designs.values())


class TestValidation:
    def test_stream_count_must_match_cores(self):
        with pytest.raises(ValueError, match="cores"):
            run_multicore_pass(streams(2), CONFIG, DESIGNS,
                               MulticoreConfig(cores=3))

    def test_mc_type_checked(self):
        with pytest.raises(TypeError, match="MulticoreConfig"):
            run_multicore_pass(streams(2), CONFIG, DESIGNS, mc="2-core")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            run_multicore_pass(streams(2), CONFIG, DESIGNS,
                               MulticoreConfig(cores=2), engine="verilog")

    def test_warmup_consuming_everything_raises(self):
        for engine in ("interp", "fast"):
            with pytest.raises(ValueError, match="warmup"):
                run_multicore_pass(streams(2, count=50), CONFIG, DESIGNS,
                                   MulticoreConfig(cores=2), warmup=100,
                                   engine=engine)

    @pytest.mark.parametrize("engine", ["interp", "fast"])
    def test_negative_warmup_rejected(self, engine):
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            run_multicore_pass(streams(2), CONFIG, DESIGNS,
                               MulticoreConfig(cores=2), warmup=-1,
                               engine=engine)

    @pytest.mark.parametrize("engine", ["interp", "fast"])
    def test_workload_names_must_name_every_core(self, engine):
        with pytest.raises(ValueError, match="workload names"):
            run_multicore_pass(streams(2), CONFIG, DESIGNS,
                               MulticoreConfig(cores=2),
                               workload_names=("twolf",), engine=engine)
        result = run_multicore_pass(streams(2), CONFIG, DESIGNS,
                                    MulticoreConfig(cores=2),
                                    workload_names=(), engine=engine)
        assert result.workloads == ()


class TestContentionSignal:
    def test_private_sharing_costs_coverage_not_soundness(self):
        """More cores fighting over the shared tiers must never flip a
        proof wrong; the private topology pays in coverage instead."""
        shared = run_multicore_pass(
            streams(4), CONFIG, DESIGNS,
            MulticoreConfig(cores=4, mnm_sharing="shared"), warmup=400)
        private = run_multicore_pass(
            streams(4), CONFIG, DESIGNS,
            MulticoreConfig(cores=4, mnm_sharing="private"), warmup=400)
        for result in (shared, private):
            for dr in result.designs.values():
                assert dr.coverage.violations == 0
        assert (private.designs["PERFECT"].coverage.coverage
                <= shared.designs["PERFECT"].coverage.coverage)
        assert private.designs["PERFECT"].cross_core_invalidations > 0
        assert shared.designs["PERFECT"].cross_core_invalidations == 0


class TestExecutorThreading:
    def test_serial_and_parallel_executors_agree(self, tmp_path):
        """A MulticoreTask computed by pool workers must hand back the
        exact pass a serial run computes (the serial==parallel contract)."""
        from repro.experiments.base import (
            ExperimentSettings,
            clear_pass_cache,
            multicore_pass,
        )
        from repro.experiments.executor import execute_tasks
        from repro.experiments.planning import MulticoreTask

        settings = ExperimentSettings(num_instructions=2000,
                                      warmup_fraction=0.25,
                                      workloads=("twolf",))
        mc = MulticoreConfig(cores=2, mnm_sharing="private")
        task = MulticoreTask(("twolf",), CONFIG, ("TMNM_10x1", "PERFECT"),
                             mc, settings, experiment_id="test")

        clear_pass_cache()
        serial = multicore_pass(("twolf",), CONFIG, task.designs(), mc,
                                settings)
        serial_sig = result_signature(serial)

        clear_pass_cache()
        computed = execute_tasks([task], jobs=2)
        assert computed == 1
        parallel = multicore_pass(("twolf",), CONFIG, task.designs(), mc,
                                  settings)
        assert result_signature(parallel) == serial_sig
        clear_pass_cache()

    def test_task_is_picklable_and_stable(self):
        import pickle

        from repro.experiments.base import ExperimentSettings
        from repro.experiments.planning import MulticoreTask

        settings = ExperimentSettings(num_instructions=2000,
                                      workloads=("twolf",))
        task = MulticoreTask(("twolf",), CONFIG, ("PERFECT",),
                             MulticoreConfig(cores=2), settings)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.cache_key() == task.cache_key()
        assert clone.task_id() == task.task_id()
