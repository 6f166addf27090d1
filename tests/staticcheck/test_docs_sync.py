"""docs/ARCHITECTURE.md's rule table must match the live registry.

The table is hand-written prose, so nothing regenerates it — this test
is the only thing keeping it honest.  It parses the markdown rows and
compares id order, severity and suppression policy against
``rule_table()`` (the same source ``--list-rules`` prints).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.staticcheck.rules import rule_table

DOC = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"

_ROW = re.compile(
    r"^\|\s*(?P<rule>[RE]\d{3})\s*\|\s*(?P<severity>\w+)\s*\|"
    r"\s*(?P<suppression>\w+)\s*\|")


def _documented_rows():
    rows = []
    for line in DOC.read_text(encoding="utf-8").splitlines():
        match = _ROW.match(line)
        if match:
            rows.append((match.group("rule"), match.group("severity"),
                         match.group("suppression")))
    return rows


class TestRuleTableSync:
    def test_docs_list_every_rule_in_registry_order(self):
        documented = [row[0] for row in _documented_rows()]
        registered = [row[0] for row in rule_table()]
        assert documented == registered

    def test_docs_severity_and_suppression_match_registry(self):
        documented = {row[0]: (row[1], row[2])
                      for row in _documented_rows()}
        for rule_id, _title, severity, suppression in rule_table():
            assert documented[rule_id] == (severity, suppression), (
                f"{rule_id}: docs say {documented[rule_id]}, registry "
                f"says {(severity, suppression)} — update the table in "
                f"{DOC}")

    def test_registry_values_are_legal(self):
        for rule_id, title, severity, suppression in rule_table():
            assert re.fullmatch(r"R\d{3}", rule_id)
            assert title
            assert severity in ("error", "warning")
            assert suppression in ("allow", "rationale", "partial", "no")

    def test_docs_mention_every_engine_feature(self):
        text = DOC.read_text(encoding="utf-8")
        for needle in ("repro-staticcheck/v3", "E001", "E002"):
            assert needle in text, f"ARCHITECTURE.md lost {needle!r}"
