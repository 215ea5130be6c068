"""Negative self-test: the benchmark's checks must be able to fail.

    python3 perfbench/selftest.py [--workloads NAME ...]

Runs every workload once with --expect-wrong, which swaps in one false
expected value that every job consults.  Each run must exit 1, report
"correct": false and a failed ratio above 0.  Exits 0 when all do.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    bad = 0
    for name in args.workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--expect-wrong"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=300)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ratio = result.get("failed", 0) / max(result.get("attempted", 0), 1)
        ok = proc.returncode == 1 and result.get("correct") is False and ratio > 0
        bad += not ok
        print(f"{name:16s} exit {proc.returncode} correct {result.get('correct')} "
              f"failed_ratio {ratio:.3f} -> {'detected' if ok else 'NOT DETECTED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
