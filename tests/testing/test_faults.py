"""Tests for the deterministic fault-injection harness.

Everything here is pure-function territory: selection, firing and
corruption must be exactly reproducible from the spec — that is what
lets the chaos tests in ``tests/experiments/test_resilience.py`` assert
byte-identical reports instead of merely "it probably recovered".
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    configure_faults,
    corrupt_bytes,
    get_injector,
    parse_fault_spec,
    resolve_fault_spec,
)


@pytest.fixture(autouse=True)
def no_ambient_faults(monkeypatch):
    """Tests control the injector and environment explicitly."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    configure_faults(None)
    yield
    configure_faults(None)


class TestParsing:
    def test_shorthand_task_kinds(self):
        for kind in ("raise", "hang", "exit", "interrupt"):
            (spec,) = parse_fault_spec(kind)
            assert spec.site == "task"
            assert spec.kind == kind

    def test_shorthand_corrupt_targets_cache_write(self):
        (spec,) = parse_fault_spec("corrupt")
        assert spec.site == "cache-write"
        assert spec.kind == "corrupt"

    def test_json_object(self):
        (spec,) = parse_fault_spec(
            '{"site": "task", "kind": "raise", "fail_attempts": 2, '
            '"rate": 0.5, "seed": 7}')
        assert spec.fail_attempts == 2
        assert spec.rate == 0.5
        assert spec.seed == 7

    def test_json_list_of_rules(self):
        specs = parse_fault_spec(
            '[{"site": "task", "kind": "raise"},'
            ' {"site": "cache-write", "kind": "corrupt"}]')
        assert [spec.site for spec in specs] == ["task", "cache-write"]

    def test_empty_spec_means_no_rules(self):
        assert parse_fault_spec("") == ()
        assert parse_fault_spec("   ") == ()

    def test_typos_fail_loudly(self):
        """A chaos spec that silently tests nothing is worse than none."""
        with pytest.raises(ValueError):
            parse_fault_spec("riase")
        with pytest.raises(ValueError):
            parse_fault_spec('{"site": "task", "kind": "raise"')  # bad JSON
        with pytest.raises(ValueError):
            parse_fault_spec('{"site": "task", "kind": "raise", "bogus": 1}')
        with pytest.raises(ValueError):
            parse_fault_spec('["raise"]')  # entries must be objects

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="network", kind="raise")
        with pytest.raises(ValueError):
            FaultSpec(site="task", kind="corrupt")  # cache-only kind
        with pytest.raises(ValueError):
            FaultSpec(site="task", kind="torn")  # no site has this kind
        with pytest.raises(ValueError):
            FaultSpec(site="task", kind="raise", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="task", kind="raise", fail_attempts=-1)


class TestSelection:
    KEYS = [f"pass|wl{i}|hier|designs" for i in range(200)]

    def test_selection_is_deterministic(self):
        spec = FaultSpec(site="task", kind="raise", rate=0.5, seed=3)
        again = FaultSpec(site="task", kind="raise", rate=0.5, seed=3)
        assert ([spec.selects(key) for key in self.KEYS]
                == [again.selects(key) for key in self.KEYS])

    def test_rate_bounds(self):
        everyone = FaultSpec(site="task", kind="raise", rate=1.0)
        nobody = FaultSpec(site="task", kind="raise", rate=0.0)
        assert all(everyone.selects(key) for key in self.KEYS)
        assert not any(nobody.selects(key) for key in self.KEYS)

    def test_partial_rate_selects_a_strict_subset(self):
        spec = FaultSpec(site="task", kind="raise", rate=0.5)
        picked = sum(spec.selects(key) for key in self.KEYS)
        assert 0 < picked < len(self.KEYS)

    def test_different_seeds_pick_different_victims(self):
        a = FaultSpec(site="task", kind="raise", rate=0.5, seed=1)
        b = FaultSpec(site="task", kind="raise", rate=0.5, seed=2)
        assert ([a.selects(key) for key in self.KEYS]
                != [b.selects(key) for key in self.KEYS])

    def test_match_restricts_eligibility(self):
        spec = FaultSpec(site="task", kind="raise", match="twolf")
        assert spec.selects("pass|twolf|hier")
        assert not spec.selects("pass|gcc|hier")

    def test_fires_converges_after_fail_attempts(self):
        """The knob that lets chaos runs finish: attempts past the budget
        succeed."""
        spec = FaultSpec(site="task", kind="raise", fail_attempts=2)
        assert spec.fires("key", 1)
        assert spec.fires("key", 2)
        assert not spec.fires("key", 3)

    def test_zero_fail_attempts_disables_the_rule(self):
        spec = FaultSpec(site="task", kind="raise", fail_attempts=0)
        assert not spec.fires("key", 1)


class TestInjector:
    def test_raise_kind_raises_a_retryable_fault(self):
        injector = FaultInjector(parse_fault_spec("raise"))
        with pytest.raises(InjectedFault):
            injector.on_task_start("key", 1)
        injector.on_task_start("key", 2)  # past fail_attempts: no fault

    def test_interrupt_kind_raises_keyboard_interrupt(self):
        injector = FaultInjector(parse_fault_spec("interrupt"))
        with pytest.raises(KeyboardInterrupt):
            injector.on_task_start("key", 1)

    def test_set_attempt_feeds_sites_without_explicit_attempts(self):
        injector = FaultInjector(parse_fault_spec("corrupt"))
        assert injector.should_corrupt("key")
        injector.set_attempt(2)
        assert not injector.should_corrupt("key")

    def test_configure_installs_and_clears_the_singleton(self):
        assert get_injector() is None
        injector = configure_faults("raise")
        assert get_injector() is injector
        configure_faults(None)
        assert get_injector() is None

    def test_configure_empty_spec_disables(self):
        assert configure_faults("") is None


class TestCorruptBytes:
    def test_garbled_output_is_deterministic_and_marked(self):
        data = b"x" * 100
        garbled = corrupt_bytes(data)
        assert garbled == corrupt_bytes(data)
        assert garbled != data
        assert garbled.endswith(b"REPRO-FAULT-CORRUPT")

    def test_tiny_inputs_still_change(self):
        assert corrupt_bytes(b"a") != b"a"


class TestResolution:
    def test_env_var_is_the_ambient_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise")
        assert resolve_fault_spec() == "raise"

    def test_unset_everywhere_is_empty(self):
        assert resolve_fault_spec() == ""


class TestImportOrder:
    @pytest.mark.parametrize("module",
                             ["repro.testing", "repro.testing.faults"])
    def test_importable_first_in_a_fresh_interpreter(self, module):
        """The harness must not need the experiments stack loaded first.

        ``faults`` imports :mod:`repro.experiments.resilience`, whose
        package pulls in the backends, so the backends must import the
        ``faults`` module rather than names a half-initialised module
        cannot provide yet.
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", f"import {module}"], env=env,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120)
        assert result.returncode == 0, result.stderr
