"""``repro lint`` — the command-line front end of reprolint.

.. code-block:: console

    repro lint                        # lint src/repro, text diagnostics
    repro lint --format json          # machine-readable (the CI mode)
    repro lint src/repro/engine       # lint a subtree

Exit codes: 0 clean, 1 findings, 2 usage or input errors (unreadable or
unparsable files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import LintError, LintReport, lint_paths
from repro.lint.rules import ALL_RULES


def add_lint_parser(commands: argparse._SubParsersAction) -> None:
    """Register the ``lint`` subcommand on the ``repro`` CLI."""
    rule_ids = ", ".join(rule.rule_id for rule in ALL_RULES)
    lint = commands.add_parser(
        "lint",
        help="determinism & result-transparency static analysis (reprolint)",
        description=f"Run the reprolint rules ({rule_ids}) over the source "
        f"tree; see docs/determinism.md for the invariants they enforce.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    lint.set_defaults(handler=cmd_lint)


def _default_paths() -> List[str]:
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [str(candidate)]
    raise LintError(
        "no paths given and ./src/repro does not exist; pass the files or "
        "directories to lint"
    )


def _render_text(report: LintReport, stream) -> None:
    for finding in report.findings:
        print(finding.render(), file=stream)
    summary = (
        f"reprolint: {len(report.findings)} finding"
        f"{'' if len(report.findings) == 1 else 's'} "
        f"in {report.files_scanned} files"
    )
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed inline)"
    print(summary, file=stream)


def cmd_lint(args: argparse.Namespace) -> int:
    try:
        report = lint_paths(list(args.paths) or _default_paths())
    except LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _render_text(report, sys.stdout)
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(prog="repro-lint")
    commands = parser.add_subparsers(dest="command", required=True)
    add_lint_parser(commands)
    args = parser.parse_args(["lint"] + list(argv or sys.argv[1:]))
    return cmd_lint(args)


if __name__ == "__main__":
    raise SystemExit(main())
