"""Seeded-violation acceptance: plant each contract break, watch it die.

Each test stages a miniature ``repro``-shaped tree with exactly one
planted violation — a dropped cache-key field, an unsorted merge loop,
a bare ``open(..., "w")`` in a backends module — and runs the real CLI
over it, pinning exit 7 and the specific rule.  This is the end-to-end
proof that the contract rules fire through the full stack (discovery,
module naming, project-rule wiring, reporting), not just in unit
fixtures.
"""

from __future__ import annotations

import io
import textwrap

from repro.staticcheck.cli import EXIT_FINDINGS, EXIT_OK, run_check


def _run(paths, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_check(paths, out=out, err=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


def _plant(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    for parent in path.relative_to(root).parents:
        if str(parent) != ".":
            init = root / parent / "__init__.py"
            if not init.exists():
                init.write_text("")
    path.write_text(textwrap.dedent(source))
    return path


_SETTINGS = """\
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class ExperimentSettings:
        seed: int = 7
        trace_length: int = 1000
"""


class TestSeededCacheKeyDrop:
    def test_dropped_field_fails_with_r007(self, tmp_path):
        # fingerprint_settings forgets trace_length: two configs that
        # simulate differently would collide in the pass cache.
        _plant(tmp_path, "repro/experiments/base.py", _SETTINGS)
        _plant(tmp_path, "repro/experiments/passcache.py", """\
            def fingerprint_settings(settings):
                return f"seed={settings.seed}"
        """)
        code, out, _ = _run([str(tmp_path / "repro")], rules_csv="R007")
        assert code == EXIT_FINDINGS
        assert "R007" in out and "trace_length" in out
        assert "base.py" in out  # anchored at the field, not the builder

    def test_complete_fingerprint_passes(self, tmp_path):
        _plant(tmp_path, "repro/experiments/base.py", _SETTINGS)
        _plant(tmp_path, "repro/experiments/passcache.py", """\
            def fingerprint_settings(settings):
                return f"seed={settings.seed}|len={settings.trace_length}"
        """)
        code, _, _ = _run([str(tmp_path / "repro")], rules_csv="R007")
        assert code == EXIT_OK


class TestSeededUnorderedMerge:
    def test_set_iteration_in_merge_path_fails_with_r008(self, tmp_path):
        _plant(tmp_path, "repro/experiments/report.py", """\
            def merge_rows(shards):
                rows = []
                for shard in set(shards):
                    rows.append(shard)
                return rows
        """)
        code, out, _ = _run([str(tmp_path / "repro")], rules_csv="R008")
        assert code == EXIT_FINDINGS
        assert "R008" in out and "hash seed" in out

    def test_sorted_merge_passes(self, tmp_path):
        _plant(tmp_path, "repro/experiments/report.py", """\
            def merge_rows(shards):
                rows = []
                for shard in sorted(set(shards)):
                    rows.append(shard)
                return rows
        """)
        code, _, _ = _run([str(tmp_path / "repro")], rules_csv="R008")
        assert code == EXIT_OK


class TestSeededBareWrite:
    def test_bare_open_in_backends_fails_with_r009(self, tmp_path):
        _plant(tmp_path, "repro/experiments/backends/result_store.py", """\
            def commit(path, payload):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(payload)
        """)
        code, out, _ = _run([str(tmp_path / "repro")], rules_csv="R009")
        assert code == EXIT_FINDINGS
        assert "R009" in out

    def test_same_write_outside_scoped_modules_passes(self, tmp_path):
        _plant(tmp_path, "repro/analysis/export.py", """\
            def dump(path, payload):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(payload)
        """)
        code, _, _ = _run([str(tmp_path / "repro")], rules_csv="R009")
        assert code == EXIT_OK


class TestShippedTreeStaysClean:
    def test_src_and_tests_all_pass(self):
        # The CI invocation, verbatim: the shipped tree must hold every
        # contract it checks for (including tests/).
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        code, out, _ = _run([str(root / "src"), str(root / "tests")])
        assert code == EXIT_OK, out
