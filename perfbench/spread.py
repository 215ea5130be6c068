"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workloads gysin-t2 rational-t2 \
        --seeds 1 2 3 4 5 --trace 0 [--out FILE]

For every workload and metric it reports the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json fixes for that
metric.  Runs are made one after another, never in parallel, with the
run length from BENCHMARK.json unless --seconds is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        per_metric, stamps = {}, []
        for seed in args.seeds:
            stamp, result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: checks failed {stamp['failures']}")
            stamps.append({k: stamp.get(k) for k in
                           ("seed", "jobs", "job_s.p90", "reference_s",
                            "untraced_wall_s", "traced_wall_s", "counts_repeat")})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        summary[workload] = {"runs": stamps,
                             "metrics": {n: summarize(v) for n, v in per_metric.items()}}
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None else \
                ("ok" if s["spread"] < bound / 3 else "WIDE")
            print(f"{workload:16s} {name:40s} median {s['median']:<12.6g} "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f} "
                  f"bound {bound} {flag}", flush=True)
    stamp_keys = ("nproc", "cpu", "python", "numpy")
    summary["machine"] = {k: stamp.get(k) for k in stamp_keys}
    summary["settings"] = {"seeds": args.seeds, "seconds": args.seconds,
                           "trace": args.trace}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
