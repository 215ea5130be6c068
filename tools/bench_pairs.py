"""Alternating pairs of benchmark runs of two git revisions.

    python3 tools/bench_pairs.py BASE HEAD --workload rational-t2 \
        [--workload gysin-t2 ...] --pairs 10 --seconds 20 --out BENCH.json

Pair i (i = 1..pairs) runs `perfbench/run.py --workload W --seed i
--seconds S --trace 0` once on each revision, BASE first when i is odd
and HEAD first when it is even.  Every run starts in a fresh directory
extracted from `git archive REV` of this repository, with
PYTHONDONTWRITEBYTECODE=1, so no run sees another's files; the
benchmark code is each revision's own.

The output file holds, per workload, every run's end-to-end metrics,
exit code, failed ratio and stamp, and per metric (the end_to_end list
of BENCHMARK.json) each side's median and quartiles and the number of
pairs HEAD won (ties count for neither side).  Exit code 0 when every
run exited 0, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def revision(rev: str) -> dict:
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    return {"rev": rev, "commit": commit,
            "src_tree": git("rev-parse", f"{commit}:src").decode().strip()}


def run_once(archive: bytes, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh extraction of `archive`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env=env, capture_output=True, text=True)
    run = {"exit": proc.returncode}
    lines = proc.stdout.splitlines()
    try:
        stamp, result = json.loads(lines[-2])["stamp"], json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        run["stderr"] = proc.stderr[-2000:]
        return run
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    run["failed_ratio"] = stamp["failed_ratio"]
    run["stamp"] = stamp
    return run


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Medians, quartiles and HEAD's wins of each end-to-end metric over
    the pairs in which both runs reported it."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["base"]["metrics"][name], p["head"]["metrics"][name]) for p in pairs
                if all(name in p[side].get("metrics", {}) for side in SIDES)]
        if not both:
            out[name] = {"pairs": 0}
            continue
        base, head = zip(*both)
        out[name] = {"better": m["better"], "pairs": len(both),
                     "head_wins": sum(h < b if lower else h > b for b, h in both),
                     "base": spread(list(base)), "head": spread(list(head))}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="the parent revision")
    p.add_argument("head", help="the revision of the change")
    p.add_argument("--workload", action="append", required=True, dest="workloads")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    revs = {"base": revision(args.base), "head": revision(args.head)}
    archives = {side: git("archive", "--format=tar", revs[side]["commit"]) for side in SIDES}
    report = {"base": revs["base"], "head": revs["head"], "pairs": args.pairs,
              "seconds": args.seconds, "workloads": {}}
    all_ok = True
    for workload in args.workloads:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(archives[side], workload, seed, args.seconds)
                all_ok &= pair[side]["exit"] == 0
            pairs.append(pair)
            print(f"{workload} pair {seed}: " + ", ".join(
                f"{side} {pair[side].get('metrics', {}).get('job_s.p50')}" for side in SIDES),
                file=sys.stderr)
        report["workloads"][workload] = {
            "summary": summarize(pairs, metrics),
            "failed_ratio": {side: [p[side].get("failed_ratio") for p in pairs] for side in SIDES},
            "runs": pairs}
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, w in report["workloads"].items():
        for name, s in w["summary"].items():
            if s["pairs"]:
                print(f"{workload} {name}: base {s['base']['median']:.6g} "
                      f"[{s['base']['q1']:.6g}, {s['base']['q3']:.6g}] -> head "
                      f"{s['head']['median']:.6g} [{s['head']['q1']:.6g}, {s['head']['q3']:.6g}]"
                      f", head won {s['head_wins']}/{s['pairs']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
