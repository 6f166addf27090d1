"""Rule engine: discovery, suppressions, findings, reporters.

The engine is rule-agnostic.  It turns paths into parsed
:class:`ModuleInfo` records (source, AST, dotted module name,
suppression comments), dispatches each module to every rule, applies
the suppression policy to the raw findings, and renders the survivors
in a byte-stable order — so two runs over the same tree always produce
identical output, which is what lets CI diff it.

Two kinds of rules exist:

* **module rules** (the common case) see one file at a time via
  ``check(module)``;
* **project rules** (:class:`repro.staticcheck.rules.base.ProjectRule`)
  see every analysed module at once via ``check_project(project)`` —
  that is what lets R007 prove that a dataclass in one file flows into
  a fingerprint function in another.

Suppression syntax (scanned with :mod:`tokenize`, so strings that merely
*look* like comments never match)::

    risky_call()  # repro: allow[R001] one-line rationale
    # repro: allow[R004,R005] applies to the next line too

A suppression covers its own line and the line directly below it, and
names one or more rule ids (comma-separated).  A marker anywhere in a
decorator stack additionally covers the decorated ``def``/``class``
statement itself — the line a reader visually annotates.  Findings
flagged ``requires_rationale`` stay alive unless the matching
suppression carries a non-empty rationale; findings flagged
``suppressible=False`` (e.g. a bare ``except:``) cannot be silenced at
all.

Files the engine cannot load never crash a check run: a syntax error,
a null byte, an undecodable byte sequence or an unreadable file each
degrade to one unsuppressible engine finding (:data:`PARSE_ERROR_ID`
for "the bytes are not a Python module", :data:`LOAD_ERROR_ID` for
"the bytes could not be read at all"), so the exit code still reports
the tree as dirty instead of the checker as broken.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Marker comment grammar: ``# repro: allow[R001]`` or
#: ``# repro: allow[R001,R002] rationale text``.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s*-]+)\]\s*[-:—]*\s*(.*)"
)

#: Rule id the engine itself uses for files that are readable but are
#: not valid Python (syntax errors, null bytes).
PARSE_ERROR_ID = "E001"

#: Rule id for files the engine cannot even read (undecodable bytes,
#: permission errors, files vanishing mid-walk).
LOAD_ERROR_ID = "E002"

#: Severity levels, in escalation order.  ``warning`` findings are
#: reported but do not affect the exit code — the landing state for a
#: new rule before it is promoted to ``error``.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position.

    Sorting is total and content-only (path, line, column, rule id,
    message), so reports are byte-stable across runs and the order in
    which rules run can never change the output.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    suppressible: bool = True
    requires_rationale: bool = False
    severity: str = "error"

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def render(self) -> str:
        label = self.rule_id if self.severity == "error" \
            else f"{self.rule_id} warning:"
        text = f"{self.path}:{self.line}:{self.col}: {label} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def to_dict(self) -> dict:
        payload = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }
        if self.hint:
            payload["hint"] = self.hint
        return payload


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: allow[...]`` marker."""

    rule_ids: Tuple[str, ...]
    rationale: str
    line: int

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rule_ids or rule_id in self.rule_ids


@dataclass
class ModuleInfo:
    """Everything a rule may want to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    #: Dotted module name when the file lives under a ``repro`` package
    #: (e.g. ``repro.core.base``); None for files outside it.
    module: Optional[str] = None
    #: line number -> suppressions effective on that line.
    suppressions: Dict[int, List[Suppression]] = field(default_factory=dict)

    @property
    def component(self) -> Optional[str]:
        """Top-level package component: ``repro.core.base`` -> ``core``.

        The package root itself (``repro`` / ``repro.__init__``) maps to
        ``""``; modules without a resolvable name map to None.
        """
        if self.module is None:
            return None
        parts = self.module.split(".")
        if parts[0] != "repro":
            return None
        return parts[1] if len(parts) > 1 else ""

    @property
    def is_entry_point(self) -> bool:
        """Presentation/wiring modules (``cli.py``, ``__main__.py``).

        Entry points sit above every library layer and render for
        humans, so the layering and determinism rules exempt them.
        """
        return os.path.basename(self.path) in ("cli.py", "__main__.py")

    @property
    def is_test_code(self) -> bool:
        """Pytest-owned files: anything under a ``tests/`` directory,
        ``test_*.py`` and ``conftest.py``.

        Test code runs under pytest, where ``assert`` is the native
        idiom and wall-clock reads legitimately exercise real timing —
        the library-hygiene rules (R001, R005) exempt it.
        """
        parts = self.path.split("/")
        basename = parts[-1]
        return ("tests" in parts[:-1]
                or basename.startswith("test_")
                or basename == "conftest.py")

    @property
    def is_bench_code(self) -> bool:
        """Benchmark harnesses (``benchmarks/``, ``bench_*.py``).

        Like test code, benchmarks are dev tooling, not shipped library
        code — their asserts are self-checks on the measurement, so the
        assert rule exempts them.  Determinism rules still apply: a
        benchmark that reads ambient state must say why.
        """
        parts = self.path.split("/")
        return ("benchmarks" in parts[:-1]
                or parts[-1].startswith("bench_"))


@dataclass
class ProjectContext:
    """What a :class:`ProjectRule` sees: every analysed module at once."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)

    def get(self, dotted: str) -> Optional[ModuleInfo]:
        return self.modules.get(dotted)

    def __iter__(self):
        return iter(self.modules.values())


def _parse_suppressions(source: str,
                        tree: Optional[ast.Module] = None
                        ) -> Dict[int, List[Suppression]]:
    """Scan comments for allow-markers; map effective line -> markers."""
    table: Dict[int, List[Suppression]] = {}
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESSION_RE.search(token.string)
        if not match:
            continue
        ids = tuple(
            part.strip().upper()
            for part in match.group(1).split(",")
            if part.strip()
        )
        if not ids:
            continue
        marker = Suppression(
            rule_ids=ids,
            rationale=match.group(2).strip(),
            line=token.start[0],
        )
        # A marker silences its own line and the line directly below,
        # so it works both trailing and as a standalone comment above.
        for line in (marker.line, marker.line + 1):
            table.setdefault(line, []).append(marker)
    if tree is not None:
        _extend_decorated_coverage(tree, table)
    return table


def _extend_decorated_coverage(tree: ast.Module,
                               table: Dict[int, List[Suppression]]) -> None:
    """Attach markers in a decorator stack to the decorated statement.

    A marker on (or directly above) any decorator line visually
    annotates the ``def``/``class`` underneath, but line-based coverage
    alone stops at the next decorator.  Here every marker landing inside
    ``[first decorator line, statement line]`` additionally covers the
    statement's own line, so findings anchored at the ``def``/``class``
    are silenced by the marker a reader actually sees.
    """
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        first = min(decorator.lineno for decorator in decorators)
        markers: List[Suppression] = []
        for line in range(first, node.lineno + 1):
            for marker in table.get(line, []):
                if marker not in markers:
                    markers.append(marker)
        if not markers:
            continue
        effective = table.setdefault(node.lineno, [])
        for marker in markers:
            if marker not in effective:
                effective.append(marker)


def module_name_for(path: str) -> Optional[str]:
    """Dotted module name of a file under a ``repro`` package root."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" not in parts:
        return None
    root = len(parts) - 1 - parts[::-1].index("repro")
    dotted = parts[root:]
    last = dotted[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    dotted[-1] = last
    if last == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def load_module(path: str, module: Optional[str] = None) -> ModuleInfo:
    """Read and parse one file into a :class:`ModuleInfo`.

    Raises ``SyntaxError``/``ValueError`` for files that are not valid
    Python and ``OSError``/``UnicodeDecodeError`` for unreadable ones;
    callers that want a finding instead use :func:`load_module_checked`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    return ModuleInfo(
        path=display_path(path),
        source=source,
        tree=tree,
        module=module if module is not None else module_name_for(path),
        suppressions=_parse_suppressions(source, tree),
    )


def load_module_checked(
    path: str,
) -> Tuple[Optional[ModuleInfo], Optional[Finding]]:
    """Load one file, degrading every failure mode to an engine finding.

    Returns ``(module, None)`` on success and ``(None, finding)`` when
    the file cannot be parsed (:data:`PARSE_ERROR_ID`) or cannot be
    read at all (:data:`LOAD_ERROR_ID`).  Engine findings are
    unsuppressible: a file you cannot check is a finding you cannot
    wave away in that same file.
    """
    shown = display_path(path)
    try:
        return load_module(path), None
    except SyntaxError as exc:
        return None, Finding(
            rule_id=PARSE_ERROR_ID, path=shown,
            line=exc.lineno or 1, col=(exc.offset or 1),
            message=f"file does not parse: {exc.msg}",
            suppressible=False)
    except UnicodeDecodeError:
        # Before ValueError: UnicodeDecodeError subclasses it, and this
        # is a load failure (E002), not a parse failure.
        return None, Finding(
            rule_id=LOAD_ERROR_ID, path=shown, line=1, col=1,
            message="file is not decodable as UTF-8",
            suppressible=False)
    except ValueError as exc:
        # ast.parse raises bare ValueError for null bytes.
        return None, Finding(
            rule_id=PARSE_ERROR_ID, path=shown, line=1, col=1,
            message=f"file is not valid Python source: {exc}",
            suppressible=False)
    except OSError as exc:
        return None, Finding(
            rule_id=LOAD_ERROR_ID, path=shown, line=1, col=1,
            message=f"file cannot be read: {exc.strerror or exc}",
            suppressible=False)


def display_path(path: str) -> str:
    """Stable, readable path for reports: cwd-relative when possible."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute == cwd or absolute.startswith(cwd + os.sep):
        shown = os.path.relpath(absolute, cwd)
    else:
        shown = absolute
    return shown.replace(os.sep, "/")


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden directories and ``__pycache__`` are skipped.  A directory
    containing no Python files is a clean skip (empty list), so an
    empty package never fails a check.  Raises ``FileNotFoundError``
    for a path that does not exist, so the CLI can map it to its
    bad-path exit code before any rule runs.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                found.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(path)
    unique = sorted(set(found), key=lambda p: display_path(p))
    return unique


def _apply_suppressions(module: ModuleInfo,
                        findings: Iterable[Finding]) -> List[Finding]:
    """Drop findings covered by allow-markers; enforce rationale rules."""
    survivors: List[Finding] = []
    for finding in findings:
        markers = [
            marker
            for marker in module.suppressions.get(finding.line, [])
            if marker.covers(finding.rule_id)
        ]
        if not markers:
            survivors.append(finding)
            continue
        if not finding.suppressible:
            survivors.append(replace(
                finding,
                message=finding.message + " (not suppressible)",
            ))
            continue
        if finding.requires_rationale and not any(
            marker.rationale for marker in markers
        ):
            survivors.append(replace(
                finding,
                message=(finding.message
                         + " — the allow[] marker needs a one-line "
                           "rationale"),
                hint="write '# repro: allow[{0}] <why this is safe>'".format(
                    finding.rule_id),
            ))
            continue
        # Covered, with rationale where one is demanded: silenced.
    return survivors


def check_project_rules(modules: Sequence[ModuleInfo],
                        project_rules) -> List[Finding]:
    """Run cross-module rules over the full analysed set."""
    if not project_rules:
        return []
    context = ProjectContext(modules={
        module.module: module for module in modules
        if module.module is not None
    })
    by_path = {module.path: module for module in modules}
    findings: List[Finding] = []
    for rule in project_rules:
        raw = list(rule.check_project(context))
        # Suppressions live in the file a finding anchors to.
        by_file: Dict[str, List[Finding]] = {}
        for finding in raw:
            by_file.setdefault(finding.path, []).append(finding)
        for path, bucket in by_file.items():
            module = by_path.get(path)
            if module is None:
                findings.extend(bucket)
            else:
                findings.extend(_apply_suppressions(module, bucket))
    return findings


def check_modules(modules: Sequence[ModuleInfo], rules) -> List[Finding]:
    """Run every rule over every module; suppressed findings removed."""
    from repro.staticcheck.rules.base import ProjectRule

    module_rules = [rule for rule in rules
                    if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    findings: List[Finding] = []
    for module in modules:
        raw = [finding for rule in module_rules
               for finding in rule.check(module)]
        findings.extend(_apply_suppressions(module, raw))
    findings.extend(check_project_rules(modules, project_rules))
    return sorted(findings, key=Finding.sort_key)


def check_paths(paths: Sequence[str], rules=None) -> List[Finding]:
    """Check files/directories; returns sorted, suppression-filtered findings."""
    from repro.staticcheck.rules import default_rules

    if rules is None:
        rules = default_rules()
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        module, failure = load_module_checked(path)
        if module is not None:
            modules.append(module)
        if failure is not None:
            findings.append(failure)
    findings.extend(check_modules(modules, rules))
    return sorted(findings, key=Finding.sort_key)


def check_source(source: str, *, path: str = "<fixture>.py",
                 module: Optional[str] = None, rules=None) -> List[Finding]:
    """Check one in-memory snippet (the fixture-test entry point)."""
    return check_sources({path: source},
                         modules={path: module} if module else None,
                         rules=rules)


def check_sources(sources: Mapping[str, str], *,
                  modules: Optional[Mapping[str, Optional[str]]] = None,
                  rules=None) -> List[Finding]:
    """Check several in-memory snippets as one project.

    ``sources`` maps a display path to its source text; ``modules``
    optionally assigns dotted module names (project-rule fixtures need
    them to wire cross-module bindings).  This is how the R007 fixture
    tests stage a dataclass and its fingerprint function in two
    "files" without touching the filesystem.
    """
    from repro.staticcheck.rules import default_rules

    if rules is None:
        rules = default_rules()
    infos: List[ModuleInfo] = []
    for path, source in sources.items():
        tree = ast.parse(source, filename=path)
        dotted = (modules or {}).get(path)
        infos.append(ModuleInfo(
            path=path,
            source=source,
            tree=tree,
            module=dotted,
            suppressions=_parse_suppressions(source, tree),
        ))
    return check_modules(infos, rules)


def has_errors(findings: Sequence[Finding]) -> bool:
    """Whether any finding is at ``error`` severity (drives exit 7)."""
    return any(finding.severity == "error" for finding in findings)


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one sorted line per finding."""
    if not findings:
        return "repro-mnm check: no findings"
    lines = [finding.render() for finding in findings]
    plural = "s" if len(findings) != 1 else ""
    lines.append(f"repro-mnm check: {len(findings)} finding{plural}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding],
                checked_files: Optional[int] = None) -> str:
    """Machine-readable report (stable key order, sorted findings).

    Schema ``repro-staticcheck/v3``: the findings, each with its
    ``severity``, and the number of files checked when it is given.
    """
    payload = {
        "schema": "repro-staticcheck/v3",
        "findings": [finding.to_dict() for finding in findings],
    }
    if checked_files is not None:
        payload["checked_files"] = checked_files
    return json.dumps(payload, indent=2, sort_keys=True)
