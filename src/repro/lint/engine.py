"""The reprolint driver: collect files, run rules, apply suppressions.

One :func:`lint_paths` call is one lint run: every ``.py`` file under the
given paths is parsed once, each rule's per-module pass streams over the
parsed modules, project-wide rules finalize, and the findings are filtered
through inline ``# reprolint: ignore[RXXX]`` suppressions.  The result is a :class:`LintReport` the CLI renders
as text or JSON.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.lint.diagnostics import Finding
from repro.lint.rules import ALL_RULES, Rule, build_module

#: Inline suppression: ``# reprolint: ignore`` (all rules) or
#: ``# reprolint: ignore[R001]`` / ``ignore[R001,R005]`` (listed rules).
_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)


class LintError(RuntimeError):
    """Unrecoverable lint-run failure (unreadable or unparsable input)."""


class LintReport:
    """The outcome of one lint run."""

    def __init__(
        self,
        findings: List[Finding],
        suppressed: int,
        files_scanned: int,
    ) -> None:
        #: Findings (fail the run when non-empty).
        self.findings = findings
        #: Count of findings silenced by inline suppressions.
        self.suppressed = suppressed
        self.files_scanned = files_scanned

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> Dict[str, object]:
        """The ``repro lint --format json`` payload."""
        return {
            "version": 1,
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": {
                "files_scanned": self.files_scanned,
                "fresh": len(self.findings),
                "suppressed": self.suppressed,
                "rules": sorted(
                    {finding.rule for finding in self.findings}
                ),
            },
            "exit_code": self.exit_code,
        }


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Every ``.py`` file under *paths* (files pass through), sorted."""
    files: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            files.add(path)
        else:
            raise LintError(f"not a Python file or directory: {path}")
    return sorted(files)


def _suppressions(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Line number -> suppressed rule set (``None`` = every rule).

    A trailing comment suppresses its own line; a standalone comment line
    suppresses the line below it.
    """
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESSION.search(line)
        if match is None:
            continue
        rules_text = match.group("rules")
        rules: Optional[Set[str]] = (
            {token.strip() for token in rules_text.split(",") if token.strip()}
            if rules_text
            else None
        )
        target = lineno + 1 if line.strip().startswith("#") else lineno
        existing = table.get(target, set())
        if rules is None or existing is None:
            table[target] = None
        else:
            table[target] = existing | rules
    return table


def lint_paths(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Iterable[type]] = None,
) -> LintReport:
    """Run reprolint over *paths* and return the report.

    *root* anchors the relative paths findings are reported with — default: the current working directory.  *rules*
    overrides the rule set (used by the fixture tests to isolate one rule).
    """
    root = Path(root) if root is not None else Path.cwd()
    active: List[Rule] = [rule_cls() for rule_cls in (rules or ALL_RULES)]
    raw_findings: List[Finding] = []
    suppression_tables: Dict[str, Dict[int, Optional[Set[str]]]] = {}
    files = collect_files(paths)
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        relpath = _relative_to(path, root)
        try:
            module = build_module(path, relpath, source)
        except SyntaxError as exc:
            raise LintError(
                f"cannot parse {relpath}:{exc.lineno}: {exc.msg}"
            ) from exc
        suppression_tables[relpath] = _suppressions(module.lines)
        for rule in active:
            raw_findings.extend(rule.check(module))
    for rule in active:
        raw_findings.extend(rule.finalize())
    raw_findings.sort()

    kept: List[Finding] = []
    suppressed = 0
    for finding in raw_findings:
        table = suppression_tables.get(finding.file, {})
        rules_at_line = table.get(finding.line, set())
        if rules_at_line is None or finding.rule in (rules_at_line or set()):
            suppressed += 1
        else:
            kept.append(finding)

    return LintReport(
        findings=kept,
        suppressed=suppressed,
        files_scanned=len(files),
    )


def _relative_to(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
