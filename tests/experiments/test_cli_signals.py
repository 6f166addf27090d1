"""SIGTERM parity regression tests (subprocess level).

Schedulers (systemd, Kubernetes, Slurm, CI timeouts) stop processes
with SIGTERM, not Ctrl-C.  The CLI must treat both identically: flush
the journal, write a ``status: interrupted`` manifest, exit 130 — with
or without a worker pool.  These tests drive real subprocesses because
signal disposition is process-global state that in-process tests cannot
exercise honestly.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments.cli import (
    EXIT_INTERRUPTED,
    _install_sigterm_handler,
    _restore_sigterm_handler,
)

SMALL = ["--instructions", "4000", "--workloads", "twolf",
         "--warmup-fraction", "0.25"]

#: A task-site hang long enough that SIGTERM always lands mid-task.
HANG_SPEC = json.dumps({"site": "task", "kind": "hang",
                        "hang_seconds": 300.0})


def spawn(args, env_extra=None):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *args],
        env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def wait_for(predicate, timeout=60.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestControllerSigterm:
    def test_sigterm_mid_run_exits_130_with_interrupted_manifest(
            self, tmp_path):
        run_dir = str(tmp_path / "run")
        proc = spawn(["report", "--skip-heavy", *SMALL,
                      "--run-dir", run_dir],
                     env_extra={"REPRO_FAULTS": HANG_SPEC})
        try:
            # The run directory appears early (journal setup); the first
            # planned task then hangs for 300 s, so after a grace period
            # SIGTERM reliably lands mid-task.
            assert wait_for(lambda: os.path.isdir(run_dir)), \
                proc.communicate(timeout=5)
            time.sleep(2.0)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == EXIT_INTERRUPTED
        assert b"interrupted" in stderr
        manifest_path = os.path.join(run_dir, "manifest.json")
        assert os.path.exists(manifest_path)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["status"] == "interrupted"


def child_pids(pid):
    """PIDs whose parent is ``pid`` (Linux ``/proc`` scan)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def is_running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")
class TestPoolSigterm:
    def test_sigterm_with_two_workers_exits_and_leaves_no_children(
            self, tmp_path):
        # --jobs 2 forces the process pool whatever the host's CPU count:
        # its fork-started workers must not inherit the CLI's
        # SIGTERM-to-KeyboardInterrupt mapping, or terminating the pool
        # leaves them running their hung tasks.
        run_dir = str(tmp_path / "run")
        proc = spawn(["report", "--skip-heavy", *SMALL, "--jobs", "2",
                      "--run-dir", run_dir],
                     env_extra={"REPRO_FAULTS": HANG_SPEC})
        workers = []
        try:
            assert wait_for(lambda: len(child_pids(proc.pid)) >= 2), \
                proc.communicate(timeout=5)
            time.sleep(1.0)
            workers = child_pids(proc.pid)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
            # Surviving workers hold the output pipes open: kill them
            # before draining, so a regression fails instead of hanging.
            survivors = [pid for pid in workers if is_running(pid)]
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
            _, stderr = proc.communicate()
        assert proc.returncode == EXIT_INTERRUPTED
        assert b"interrupted" in stderr
        assert survivors == []


class TestHandlerPlumbing:
    def test_sigterm_converts_to_keyboard_interrupt(self):
        previous = _install_sigterm_handler()
        try:
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
                # Python delivers the signal at the next bytecode
                # boundary; this loop is that boundary.
                for _ in range(1000):
                    time.sleep(0.001)
        finally:
            _restore_sigterm_handler(previous)

    def test_restore_reinstates_the_previous_disposition(self):
        before = signal.getsignal(signal.SIGTERM)
        previous = _install_sigterm_handler()
        assert signal.getsignal(signal.SIGTERM) is not before
        _restore_sigterm_handler(previous)
        assert signal.getsignal(signal.SIGTERM) == before
