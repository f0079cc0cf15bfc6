"""reprolint: per-rule fixtures, suppressions, CLI output.

Each rule gets a good/bad snippet pair laid out as a miniature ``src/repro``
tree (rules scope by subpackage, so the fixture files must live at realistic
paths).  On top of the per-rule checks: inline suppressions, the
``--format json`` schema, the CLI exit codes, and the self-clean gate — the
real repository must lint clean, which is what keeps the CI static-analysis
job a hard failure for any new violation.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.engine import LintError, lint_paths
from repro.lint.rules import (
    ALL_RULES,
    KeyTransparencyRule,
    NondeterminismRule,
    PicklabilityRule,
    ExceptionHygieneRule,
    TelemetryPurityRule,
    WorkerStateRule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` under a tmp root and return the root."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def run_rule(tmp_path, files, rule_cls):
    root = make_tree(tmp_path, files)
    return lint_paths([root], root=root, rules=[rule_cls]).findings


# -- R001: nondeterminism ---------------------------------------------------------


class TestNondeterminism:
    def test_wall_clock_read_in_engine_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {"src/repro/engine/x.py": "import time\nstamp = time.time()\n"},
            NondeterminismRule,
        )
        assert [f.rule for f in findings] == ["R001"]
        assert "time.time" in findings[0].message
        assert "repro.obs.wallclock" in findings[0].message

    def test_aliased_import_resolved(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/iss/x.py": (
                    "from time import perf_counter as pc\nseconds = pc()\n"
                )
            },
            NondeterminismRule,
        )
        assert len(findings) == 1
        assert "time.perf_counter" in findings[0].message

    def test_obs_package_owns_the_clock(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {"src/repro/obs/clockish.py": "import time\nstamp = time.time()\n"},
            NondeterminismRule,
        )
        assert findings == []

    def test_entropy_and_global_rng_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/rtl/x.py": (
                    "import os\nimport random\n"
                    "token = os.urandom(8)\nroll = random.random()\n"
                )
            },
            NondeterminismRule,
        )
        assert len(findings) == 2
        assert "os.urandom" in findings[0].message
        assert "random.random" in findings[1].message

    def test_seeded_rng_instance_allowed(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "import random\nrng = random.Random(2015)\n"
                )
            },
            NondeterminismRule,
        )
        assert findings == []

    def test_set_iteration_in_simulator_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/leon3/x.py": (
                    "units = {'iu', 'cmem'}\n"
                    "def scan():\n"
                    "    return [unit for unit in {'iu', 'cmem'}]\n"
                )
            },
            NondeterminismRule,
        )
        assert len(findings) == 1
        assert "hash-order" in findings[0].message

    def test_sorted_set_iteration_allowed(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "def scan():\n"
                    "    return [u for u in sorted({'iu', 'cmem'})]\n"
                )
            },
            NondeterminismRule,
        )
        assert findings == []


# -- R002: key transparency -------------------------------------------------------


R002_KEYS = (
    "RESULT_TRANSPARENT = frozenset({'n_workers'})\n"
)

R002_CONFIG = (
    "class CampaignConfig:\n"
    "    seed: int = 0\n"
    "    n_workers: int = 1\n"
    "{extra}"
    "\n"
    "class Campaign:\n"
    "    def _identity(self):\n"
    "        config = self.config\n"
    "        return config.seed\n"
)


class TestKeyTransparency:
    def lint(self, tmp_path, extra_field=""):
        return run_rule(
            tmp_path,
            {
                "src/repro/engine/campaign.py": R002_CONFIG.format(
                    extra=extra_field
                ),
                "src/repro/store/keys.py": R002_KEYS,
            },
            KeyTransparencyRule,
        )

    def test_keyed_plus_registered_config_is_clean(self, tmp_path):
        assert self.lint(tmp_path) == []

    def test_unregistered_field_fails(self, tmp_path):
        findings = self.lint(tmp_path, extra_field="    mystery: int = 3\n")
        assert len(findings) == 1
        assert findings[0].rule == "R002"
        assert "CampaignConfig.mystery" in findings[0].message
        assert "RESULT_TRANSPARENT" in findings[0].message

    def test_stale_registry_entry_fails(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/campaign.py": R002_CONFIG.format(extra=""),
                "src/repro/store/keys.py": (
                    "RESULT_TRANSPARENT = frozenset({'n_workers', 'gone'})\n"
                ),
            },
            KeyTransparencyRule,
        )
        assert len(findings) == 1
        assert "'gone'" in findings[0].message

    def test_field_in_both_places_fails(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/campaign.py": R002_CONFIG.format(extra=""),
                "src/repro/store/keys.py": (
                    "RESULT_TRANSPARENT = frozenset({'n_workers', 'seed'})\n"
                ),
            },
            KeyTransparencyRule,
        )
        assert len(findings) == 1
        assert "both keyed and registered" in findings[0].message

    def test_missing_registry_fails(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {"src/repro/engine/campaign.py": R002_CONFIG.format(extra="")},
            KeyTransparencyRule,
        )
        assert len(findings) == 1
        assert "no RESULT_TRANSPARENT registry" in findings[0].message

    def test_real_campaign_config_with_unregistered_field_fails(self, tmp_path):
        """The acceptance scenario: add a config field to the *real*
        campaign module without registering it and R002 must fire."""
        campaign = (REPO_ROOT / "src/repro/engine/campaign.py").read_text(
            encoding="utf-8"
        )
        patched = campaign.replace(
            "class CampaignConfig:\n"
            '    """Configuration of a fault-injection campaign."""\n',
            "class CampaignConfig:\n"
            '    """Configuration of a fault-injection campaign."""\n'
            "\n"
            "    #: An unreviewed knob nobody keyed or registered.\n"
            "    sneaky_knob: int = 0\n",
            1,
        )
        assert patched != campaign, "CampaignConfig header changed; fix the test"
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/campaign.py": patched,
                "src/repro/store/keys.py": (
                    REPO_ROOT / "src/repro/store/keys.py"
                ).read_text(encoding="utf-8"),
            },
            KeyTransparencyRule,
        )
        assert [f for f in findings if "sneaky_knob" in f.message], findings


# -- R003: picklability -----------------------------------------------------------


class TestPicklability:
    def test_lambda_dataclass_default_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/jobs.py": (
                    "from dataclasses import dataclass, field\n"
                    "@dataclass\n"
                    "class Job:\n"
                    "    make: object = field(default=lambda: 1)\n"
                )
            },
            PicklabilityRule,
        )
        assert len(findings) == 1
        assert "Job.make" in findings[0].message

    def test_lambda_submitted_to_pool_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/sched.py": (
                    "def fan_out(pool, batches):\n"
                    "    return list(pool.imap(lambda b: b, batches))\n"
                )
            },
            PicklabilityRule,
        )
        assert len(findings) == 1
        assert "not picklable" in findings[0].message

    def test_local_function_submitted_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/sched.py": (
                    "def fan_out(pool, batches):\n"
                    "    def work(batch):\n"
                    "        return batch\n"
                    "    return list(pool.imap(work, batches))\n"
                )
            },
            PicklabilityRule,
        )
        assert len(findings) == 1
        assert "'work'" in findings[0].message

    def test_module_level_function_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/sched.py": (
                    "def work(batch):\n"
                    "    return batch\n"
                    "def fan_out(pool, batches):\n"
                    "    return list(pool.imap(work, batches))\n"
                )
            },
            PicklabilityRule,
        )
        assert findings == []


# -- R004: worker state -----------------------------------------------------------


class TestWorkerState:
    def test_unmarked_module_dict_in_engine_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {"src/repro/engine/sched.py": "_CACHE = {}\n"},
            WorkerStateRule,
        )
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message
        assert "worker-state" in findings[0].message

    def test_registered_worker_cache_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/sched.py": (
                    "_CACHE = {}  # reprolint: worker-state\n"
                )
            },
            WorkerStateRule,
        )
        assert findings == []

    def test_outside_engine_not_scoped(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {"src/repro/iss/tables.py": "_TABLE = {}\n"},
            WorkerStateRule,
        )
        assert findings == []


# -- R005: exception hygiene ------------------------------------------------------


class TestExceptionHygiene:
    def test_bare_except_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/iss/x.py": (
                    "def step():\n"
                    "    try:\n"
                    "        return 1\n"
                    "    except:\n"
                    "        return None\n"
                )
            },
            ExceptionHygieneRule,
        )
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    def test_swallowed_broad_except_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/isa/x.py": (
                    "def parse(text):\n"
                    "    try:\n"
                    "        return int(text)\n"
                    "    except Exception:\n"
                    "        return 0\n"
                )
            },
            ExceptionHygieneRule,
        )
        assert len(findings) == 1
        assert "except Exception" in findings[0].message

    def test_reraising_broad_except_allowed(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/isa/x.py": (
                    "def parse(text):\n"
                    "    try:\n"
                    "        return int(text)\n"
                    "    except Exception as exc:\n"
                    "        raise ValueError(text) from exc\n"
                )
            },
            ExceptionHygieneRule,
        )
        assert findings == []

    def test_narrow_except_allowed(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "def parse(text):\n"
                    "    try:\n"
                    "        return int(text)\n"
                    "    except ValueError:\n"
                    "        return 0\n"
                )
            },
            ExceptionHygieneRule,
        )
        assert findings == []


# -- R006: telemetry purity -------------------------------------------------------


class TestTelemetryPurity:
    def test_recorder_as_expression_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "def record(telemetry):\n"
                    "    marker = telemetry.inc('engine.jobs')\n"
                    "    return marker\n"
                )
            },
            TelemetryPurityRule,
        )
        assert len(findings) == 1
        assert ".inc()" in findings[0].message

    def test_recorder_statement_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/store/x.py": (
                    "def record(telemetry):\n"
                    "    telemetry.inc('store.cache_hits')\n"
                )
            },
            TelemetryPurityRule,
        )
        assert findings == []


# -- suppressions -----------------------------------------------------------------


class TestSuppressions:
    def test_trailing_rule_suppression(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "import time\n"
                    "stamp = time.time()  # reprolint: ignore[R001]\n"
                )
            },
        )
        report = lint_paths([root], root=root)
        assert report.findings == []
        assert report.suppressed == 1

    def test_comment_above_suppresses_next_line(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "import time\n"
                    "# reprolint: ignore[R001]\n"
                    "stamp = time.time()\n"
                )
            },
        )
        report = lint_paths([root], root=root)
        assert report.findings == []
        assert report.suppressed == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "import time\n"
                    "stamp = time.time()  # reprolint: ignore[R005]\n"
                )
            },
        )
        report = lint_paths([root], root=root)
        assert [f.rule for f in report.findings] == ["R001"]
        assert report.suppressed == 0

    def test_bare_ignore_suppresses_every_rule(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "import time\n"
                    "stamp = time.time()  # reprolint: ignore\n"
                )
            },
        )
        report = lint_paths([root], root=root)
        assert report.findings == []
        assert report.suppressed == 1


# -- CLI --------------------------------------------------------------------------


class TestCli:
    def test_json_schema_and_exit_code(self, tmp_path, capsys):
        make_tree(
            tmp_path,
            {
                "src/repro/engine/x.py": (
                    "import time\nstamp = time.time()\n"
                )
            },
        )
        exit_code = lint_main(
            ["--format", "json", str(tmp_path / "src")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["version"] == 1
        assert payload["exit_code"] == 1
        assert payload["summary"]["fresh"] == 1
        assert payload["summary"]["rules"] == ["R001"]
        (finding,) = payload["findings"]
        assert set(finding) == {"file", "line", "col", "rule", "message"}
        assert finding["rule"] == "R001"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/engine/x.py": "VALUE = 1\n"})
        exit_code = lint_main(
            ["--format", "json", str(tmp_path / "src")]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["findings"] == []

    def test_bad_path_exits_two(self, tmp_path, capsys):
        exit_code = lint_main([str(tmp_path / "missing")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_registered_on_repro_cli(self):
        from repro.store.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["lint", "--format", "json"])
        assert args.format == "json"

    def test_unparsable_input_is_a_lint_error(self, tmp_path):
        make_tree(tmp_path, {"src/repro/engine/x.py": "def broken(:\n"})
        with pytest.raises(LintError):
            lint_paths([tmp_path], root=tmp_path)


# -- the self-clean gate ----------------------------------------------------------


def test_repository_lints_clean_without_baseline():
    """The repo's own source passes every reprolint rule with no
    grandfathered findings — the invariant the CI static-analysis job enforces for every change."""
    report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert report.findings == [], "\n".join(
        finding.render() for finding in report.findings
    )
    assert report.files_scanned > 50


def test_rule_ids_are_unique_and_ordered():
    ids = [rule.rule_id for rule in ALL_RULES]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
