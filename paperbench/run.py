"""Run one workload of the paper benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 paperbench/run.py --workload iu-permanent --seed 2015 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when an output
check failed and 2 when the program under test cannot be imported.

``--record-expected`` instead runs every workload once, serially, for the
default seed and the held-out seed, and rewrites ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

#: Seeds with committed outcome histograms: the default seed and a held-out
#: seed never used while choosing the workloads.
DEFAULT_SEED = 2015
HELD_OUT_SEED = 4099


def _import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import ``repro``
    from there (never from an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    return Path(repro.__file__).resolve().parent == (src / "repro").resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="iu-permanent")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    if not _import_program():
        print(f"paperbench: cannot import repro from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from paperbench.bench import run_benchmark
    from paperbench.campaigns import WORKLOADS
    from paperbench.expected import record_expected

    work_dir = ROOT / ".paperbench_tmp" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        if args.record_expected:
            expected = record_expected(
                WORKLOADS.values(), (DEFAULT_SEED, HELD_OUT_SEED), str(work_dir)
            )
            EXPECTED_PATH.write_text(
                json.dumps(expected, indent=1, sort_keys=True) + "\n"
            )
            return 0
        if args.workload not in WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})"
            )
        result = run_benchmark(
            WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            str(work_dir),
            json.loads(EXPECTED_PATH.read_text()),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps(result.result_line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
